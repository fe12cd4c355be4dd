// Per-layer measurements taken from outside the program: a fold over the
// tracer's completed span trees, and wall-clock timings of the hot helper
// functions on a workload's own keys and values.
#ifndef CM_PERFBENCH_LAYERS_H_
#define CM_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/trace.h"

namespace perfbench {

// Sim-time sums over sampled span trees. "Self" time is a span's duration
// minus the part of it that its direct children cover.
struct SpanFold {
  int64_t read_roots = 0;       // sampled `get` / `multiget` roots
  int64_t set_roots = 0;        // sampled `set` roots
  int64_t root_ns = 0;          // summed duration of every root
  int64_t root_self_ns = 0;     // root time no direct child covers
  int64_t read_root_self_ns = 0;
  int64_t read_rma_self_ns = 0;  // rma_* spans in read trees, minus fabric_*
  int64_t read_fabric_ns = 0;    // fabric_tx / fabric_rx in read trees
  int64_t set_rpc_calls = 0;     // rpc spans in set trees
  int64_t set_rpc_self_ns = 0;   // those spans minus their fabric_* children
};

SpanFold FoldSpans(const std::vector<cm::trace::Span>& spans);

// Host-clock cost of the helpers every GET and SET runs, in ns per call.
struct HelperTimings {
  double crc32c_ns_per_value = 0;
  double hashkey_ns_per_key = 0;
  double encode_ns_per_entry = 0;
  double revalidate_ns_per_entry = 0;
};

// Times ComputeCrc32c, HashKey, EncodeDataEntry and RevalidateDataEntry
// over the given keys and values (values[i] is stored under keys[i]).
HelperTimings TimeHelpers(const std::vector<std::string>& keys,
                          const std::vector<cm::Bytes>& values);

}  // namespace perfbench

#endif  // CM_PERFBENCH_LAYERS_H_
