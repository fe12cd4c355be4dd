#!/usr/bin/env bash
# Output-identity proof: re-runs every bench under build/bench/ with --json
# and compares each cm.bench.v1 scalar *exactly* with the committed
# BENCH_<name>.json. Simulated-time scalars reproduce bit-for-bit for a
# given build of the same program, so a change that claims to move only the
# host clock (a faster kernel, a leaner data structure) must leave every one
# of them unchanged.
#
# Only scalars on the explicit wall-clock list below are skipped. Any other
# scalar that differs, or that is present on one side only, is a diff, and
# any diff exits 1.
#
# Usage: scripts/sim_identical.sh [bench-name ...]   (default: every bench)
#   bench-name is the suffix: `fig08_ads` runs build/bench/bench_fig08_ads
#   and compares against BENCH_fig08_ads.json.
set -euo pipefail
cd "$(dirname "$0")/.."

JQ=/usr/bin/jq

# Host-clock scalars, as "bench-regex:scalar-regex". These measure how fast
# this machine runs the simulator, not what the simulator computes.
WALL_CLOCK=(
  # google-benchmark wall time per iteration (micro, rpc_vs_rma).
  '.*:\.real_ns_per_iter$'
  # micro's host CPU time, and the iteration count google-benchmark picks
  # from it.
  '^micro$:\.(cpu_ns_per_iter|iterations)$'
  # simcore's harness throughput; fabric.copies_per_byte is a count and is
  # compared.
  '^simcore$:^(timers\.events_per_sec|coro\.(spawns|resumes)_per_sec|fabric\.payload_bytes_per_sec|mixed\.wall_ms_per_sim_s)$'
)

names=("$@")
if [[ ${#names[@]} -eq 0 ]]; then
  for bin in build/bench/bench_*; do
    [[ -x "$bin" && -f "$bin" ]] && names+=("${bin#build/bench/bench_}")
  done
fi
[[ ${#names[@]} -gt 0 ]] || { echo "sim_identical: nothing under build/bench/"; exit 1; }

# The wall-clock list as one jq array of [bench-regex, scalar-regex] pairs.
wall_json="$(printf '%s\n' "${WALL_CLOCK[@]}" \
  | "$JQ" -R '(index(":")) as $i | [.[:$i], .[$i + 1:]]' | "$JQ" -s .)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

benches=0 same=0 skipped=0 diffs=0
for name in "${names[@]}"; do
  bin="build/bench/bench_${name}"
  baseline="BENCH_${name}.json"
  [[ -x "$bin" ]] || { echo "sim_identical: ${bin} not built"; exit 1; }
  [[ -f "$baseline" ]] || { echo "sim_identical: no baseline ${baseline}"; exit 1; }
  current="${tmp}/BENCH_${name}.json"
  "$bin" --json > "$current"
  "$JQ" -e '.schema == "cm.bench.v1"' "$current" >/dev/null \
    || { echo "sim_identical: ${bin} --json: bad schema"; exit 1; }

  # One line per scalar in either document: "same|skip|DIFF key old new".
  report="$("$JQ" -r --arg bench "$name" --argjson wall "$wall_json" \
      --slurpfile cur "$current" '
    .scalars as $old | $cur[0].scalars as $new |
    ([$old, $new] | map(keys) | add | unique)[] as $key |
    (any($wall[]; . as [$b, $s] | ($bench | test($b)) and ($key | test($s))))
      as $is_wall |
    (if $is_wall then "skip"
     elif ($old | has($key)) and ($new | has($key)) and $old[$key] == $new[$key]
     then "same" else "DIFF" end)
    + " \($key) \($old[$key] // "absent") \($new[$key] // "absent")"' \
    "$baseline")"

  n_same="$(grep -c '^same ' <<<"$report" || true)"
  n_skip="$(grep -c '^skip ' <<<"$report" || true)"
  n_diff="$(grep -c '^DIFF ' <<<"$report" || true)"
  printf '  %-28s %4d identical %4d wall-clock skipped %4d diffs\n' \
    "$name" "$n_same" "$n_skip" "$n_diff"
  if [[ "$n_diff" != "0" ]]; then
    grep '^DIFF ' <<<"$report" | while read -r _ key old new; do
      printf '    DIFF %s: %s -> %s\n' "$key" "$old" "$new"
    done
  fi
  benches=$((benches + 1))
  same=$((same + n_same))
  skipped=$((skipped + n_skip))
  diffs=$((diffs + n_diff))
done

echo "sim_identical: ${benches} benches, ${same} scalars identical," \
  "${skipped} wall-clock skipped, ${diffs} diffs"
[[ "$diffs" == "0" ]]
