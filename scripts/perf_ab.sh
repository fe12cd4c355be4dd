#!/usr/bin/env bash
# Same-machine A/B of the end-to-end benchmark (perfbench/) between a base
# commit and HEAD. It reports; it is not a gate.
#
# Both sides are exported with `git archive` (committed files only: commit
# the change before measuring it) into WORKDIR/base and WORKDIR/head, and
# each side's perfbench is built in its own tree with its own
# CARGO_TARGET_DIR (see perfbench/run.py). Each workload then runs PAIRS
# pairs, pair i with --seed i, alternating which side goes first. For every
# metric the summary prints both sides' medians, the head/base ratio of the
# medians, and on how many pairs head was better (the direction comes from
# BENCHMARK.json; per-layer metrics without one count "lower is better").
#
# The sim digest of a pair must match: a change that moves only the host
# clock leaves it alone. Any digest mismatch, failed run or failed check
# exits 1.
#
# Usage: scripts/perf_ab.sh [-b BASE] [-n PAIRS] [-s SECONDS] [-d WORKDIR]
#                           [WORKLOAD ...]
#   -b BASE     base ref (default: the merge-base of HEAD and main; on main
#               itself that is HEAD, so pass the parent, e.g. -b HEAD~3)
#   -n PAIRS    alternating pairs per workload (default 5)
#   -s SECONDS  --seconds of each run (default: BENCHMARK.json's run_seconds)
#   -d WORKDIR  where trees, builds and run logs go (default: a new mktemp -d;
#               reused when given, so a second call skips the builds)
#   WORKLOAD    default: every workload in BENCHMARK.json
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

base="" pairs=5 seconds="" workdir=""
while getopts "b:n:s:d:" opt; do
  case "$opt" in
    b) base="$OPTARG" ;;
    n) pairs="$OPTARG" ;;
    s) seconds="$OPTARG" ;;
    d) workdir="$OPTARG" ;;
    *) sed -n '2,26p' "$0"; exit 2 ;;
  esac
done
shift $((OPTIND - 1))

[[ -n "$base" ]] || base="$(git merge-base HEAD main)"
[[ -n "$seconds" ]] || seconds="$(python3 -c \
  'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
  mapfile -t workloads < <(python3 -c \
    'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi
[[ -n "$workdir" ]] || workdir="$(mktemp -d)"
mkdir -p "$workdir"
workdir="$(cd "$workdir" && pwd)"

base_sha="$(git rev-parse "$base^{commit}")"
head_sha="$(git rev-parse HEAD)"
echo "perf_ab: base ${base_sha:0:12}  head ${head_sha:0:12}  ${pairs} pairs" \
     "x ${seconds} s  in ${workdir}"

# Exports one side (unless already exported at that commit) and builds it.
prepare() {
  local side="$1" sha="$2" tree="${workdir}/$1"
  if [[ "$(cat "${tree}/.perf_ab_commit" 2>/dev/null)" != "$sha" ]]; then
    rm -rf "$tree"
    mkdir -p "$tree"
    git -C "$root" archive "$sha" | tar -x -C "$tree"
    echo "$sha" > "${tree}/.perf_ab_commit"
  fi
  # run.py builds, then runs the benchmark, which rejects --help with exit
  # code 2 (run.py exits 1 when the build fails).
  local rc=0
  (cd "$tree" && CARGO_TARGET_DIR="${workdir}/target-${side}" \
     python3 perfbench/run.py --help > "${workdir}/build-${side}.log" 2>&1) \
    || rc=$?
  if [[ $rc -ne 2 ]]; then
    echo "perf_ab: ${side} build failed (${workdir}/build-${side}.log)"
    exit 1
  fi
}
prepare base "$base_sha"
prepare head "$head_sha"

runs="${workdir}/runs"
mkdir -p "$runs"
status=0
# One run: side, workload, seed. Keeps stdout as <side>-<workload>-<seed>.out.
run_one() {
  local side="$1" wl="$2" seed="$3"
  local out="${runs}/${side}-${wl}-${seed}.out"
  if ! (cd "${workdir}/${side}" && CARGO_TARGET_DIR="${workdir}/target-${side}" \
        python3 perfbench/run.py --workload "$wl" --seed "$seed" \
          --seconds "$seconds" --trace 0 > "$out" 2> "${out%.out}.err"); then
    echo "perf_ab: ${side} ${wl} seed ${seed} failed (${out})"
    status=1
  fi
}

for wl in "${workloads[@]}"; do
  for ((seed = 1; seed <= pairs; ++seed)); do
    if ((seed % 2)); then order=(base head); else order=(head base); fi
    for side in "${order[@]}"; do run_one "$side" "$wl" "$seed"; done
  done
done

python3 - "$runs" "$pairs" "${workloads[@]}" <<'EOF' || status=1
import json, re, statistics, sys

runs, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))
better = {m["name"]: m.get("better", "lower")
          for m in bench["end_to_end"] + bench["per_layer"]}

def load(side, wl, seed):
    text = open(f"{runs}/{side}-{wl}-{seed}.out").read()
    digest = re.search(r"^sim digest ([0-9a-f]+)", text, re.M)
    lines = [l for l in text.splitlines() if l.startswith("{")]
    result = json.loads(lines[-1]) if lines else {}
    return (digest.group(1) if digest else None), result

failed = False
for wl in workloads:
    print(f"\n{wl}")
    samples = {}  # metric -> list of (base, head)
    for seed in range(1, pairs + 1):
        try:
            (bd, br), (hd, hr) = load("base", wl, seed), load("head", wl, seed)
        except (OSError, ValueError) as e:
            print(f"  seed {seed}: unreadable run ({e})")
            failed = True
            continue
        if bd is None or bd != hd:
            print(f"  seed {seed}: SIM DIGEST DIFFERS base {bd} head {hd}")
            failed = True
        for side, r in (("base", br), ("head", hr)):
            if not r.get("correct", False):
                print(f"  seed {seed}: {side} run reports correct=false")
                failed = True
        for name, m in hr.get("metrics", {}).items():
            if name in br.get("metrics", {}):
                samples.setdefault(name, []).append(
                    (br["metrics"][name]["value"], m["value"]))
    print(f"  {'metric':<36} {'base':>14} {'head':>14} {'head/base':>10} {'wins':>6}")
    for name, xs in samples.items():
        b = statistics.median(x[0] for x in xs)
        h = statistics.median(x[1] for x in xs)
        lower = better.get(name, "lower") == "lower"
        wins = sum((x[1] < x[0]) if lower else (x[1] > x[0]) for x in xs)
        ratio = f"{h / b:.4f}" if b else "-"
        print(f"  {name:<36} {b:>14.6g} {h:>14.6g} {ratio:>10} {wins:>3}/{len(xs)}")
sys.exit(1 if failed else 0)
EOF
exit "$status"
