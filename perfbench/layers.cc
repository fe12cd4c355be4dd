#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "cliquemap/layout.h"
#include "common/checksum.h"
#include "common/hash.h"

namespace perfbench {

namespace {

using cm::trace::Span;
using cm::trace::SpanId;

bool StartsWith(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

bool IsFabric(const Span& s) { return StartsWith(s.name, "fabric_"); }

// Length of [start, end) covered by the union of `children`.
int64_t Covered(const Span& parent, std::vector<std::pair<int64_t, int64_t>>
                                        children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [lo, hi] : children) {
    lo = std::max(lo, parent.start);
    hi = std::min(hi, parent.end);
    if (hi <= lo) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace

SpanFold FoldSpans(const std::vector<Span>& spans) {
  std::unordered_map<SpanId, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // Direct children, split into all children and non-fabric children.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  std::vector<std::vector<std::pair<int64_t, int64_t>>> fabric_kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == cm::trace::kNoSpan) continue;
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    kids[it->second].emplace_back(s.start, s.end);
    if (IsFabric(s)) fabric_kids[it->second].emplace_back(s.start, s.end);
  }

  // Root of each span (memoized walk up the parent links).
  std::vector<int64_t> root(spans.size(), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<size_t> path;
    size_t cur = i;
    int64_t found = -1;
    while (true) {
      if (root[cur] >= 0) {
        found = root[cur];
        break;
      }
      path.push_back(cur);
      auto it = index.find(spans[cur].parent);
      if (spans[cur].parent == cm::trace::kNoSpan || it == index.end()) {
        found = static_cast<int64_t>(cur);
        break;
      }
      cur = it->second;
    }
    for (size_t p : path) root[p] = found;
  }

  SpanFold f;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const Span& r = spans[static_cast<size_t>(root[i])];
    const bool read_tree = std::strcmp(r.name, "get") == 0 ||
                           std::strcmp(r.name, "multiget") == 0;
    const bool set_tree = std::strcmp(r.name, "set") == 0;
    if (s.parent == cm::trace::kNoSpan) {
      const int64_t dur = s.end - s.start;
      const int64_t self = dur - Covered(s, kids[i]);
      f.root_ns += dur;
      f.root_self_ns += self;
      if (read_tree) {
        ++f.read_roots;
        f.read_root_self_ns += self;
      }
      if (set_tree) ++f.set_roots;
      continue;
    }
    if (read_tree && StartsWith(s.name, "rma_")) {
      f.read_rma_self_ns += (s.end - s.start) - Covered(s, fabric_kids[i]);
    }
    if (read_tree && IsFabric(s)) f.read_fabric_ns += s.end - s.start;
    if (set_tree && std::strcmp(s.name, "rpc") == 0) {
      ++f.set_rpc_calls;
      f.set_rpc_self_ns += (s.end - s.start) - Covered(s, fabric_kids[i]);
    }
  }
  return f;
}

namespace {

using Clock = std::chrono::steady_clock;

// Median over `trials` passes of ns per call of `pass` (which makes
// `calls` calls and returns a value folded into a sink).
template <typename Pass>
double MedianNsPerCall(size_t calls, Pass pass, uint64_t* sink) {
  constexpr int kTrials = 7;
  std::vector<double> per_call;
  for (int t = 0; t < kTrials; ++t) {
    const auto t0 = Clock::now();
    *sink += pass();
    const auto t1 = Clock::now();
    per_call.push_back(
        double(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                   .count()) /
        double(std::max<size_t>(calls, 1)));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

}  // namespace

HelperTimings TimeHelpers(const std::vector<std::string>& keys,
                          const std::vector<cm::Bytes>& values) {
  using cm::cliquemap::VersionNumber;
  HelperTimings t;
  uint64_t sink = 0;
  const size_t n = std::min(keys.size(), values.size());

  t.hashkey_ns_per_key = MedianNsPerCall(
      keys.size(),
      [&] {
        uint64_t acc = 0;
        for (const std::string& k : keys) acc += cm::HashKey(k).lo;
        return acc;
      },
      &sink);
  t.crc32c_ns_per_value = MedianNsPerCall(
      n,
      [&] {
        uint64_t acc = 0;
        for (size_t i = 0; i < n; ++i) acc += cm::ComputeCrc32c(values[i]);
        return acc;
      },
      &sink);

  std::vector<cm::Bytes> entries(n);
  std::vector<cm::Hash128> hashes(n);
  const VersionNumber version{1000, 1, 1};
  for (size_t i = 0; i < n; ++i) {
    hashes[i] = cm::HashKey(keys[i]);
    entries[i].resize(cm::cliquemap::DataEntryBytes(keys[i].size(),
                                                    values[i].size()));
  }
  t.encode_ns_per_entry = MedianNsPerCall(
      n,
      [&] {
        uint64_t acc = 0;
        for (size_t i = 0; i < n; ++i) {
          cm::cliquemap::EncodeDataEntry(entries[i], keys[i], values[i],
                                         hashes[i], version);
          acc += static_cast<uint64_t>(entries[i].back());
        }
        return acc;
      },
      &sink);
  t.revalidate_ns_per_entry = MedianNsPerCall(
      n,
      [&] {
        uint64_t acc = 0;
        for (size_t i = 0; i < n; ++i) {
          auto v = cm::cliquemap::RevalidateDataEntry(entries[i], keys[i],
                                                      hashes[i], version);
          acc += v.ok() ? v->value.size() : 1;
        }
        return acc;
      },
      &sink);
  // Every entry was encoded just above, so each must revalidate.
  for (size_t i = 0; i < n; ++i) {
    if (!cm::cliquemap::RevalidateDataEntry(entries[i], keys[i], hashes[i],
                                            version)
             .ok()) {
      t.revalidate_ns_per_entry = -1;
    }
  }
  volatile uint64_t keep = sink;
  (void)keep;
  return t;
}

}  // namespace perfbench
