// RMA transport abstraction.
//
// CliqueMap "operates over multiple RMA protocols" (Table 1 challenge 5):
// a software-defined NIC (Pony-Express-like, supports the custom SCAR op),
// an all-hardware one-sided transport (1RMA-like), and classic RDMA. The
// client library selects its lookup strategy from the capabilities exposed
// here (§6.3, §7.2.4): SCAR where offered, 2xR otherwise, RPC as fallback.
#ifndef CM_RMA_TRANSPORT_H_
#define CM_RMA_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/status.h"
#include "net/fabric.h"
#include "rma/memory.h"
#include "sim/task.h"

namespace cm::rma {

// Result of the custom Scan-and-Read op (§6.3): the NIC scans the Bucket
// server-side for the requested KeyHash and returns the Bucket plus the
// pointed-to DataEntry in a single round trip. Both payloads are refcounted
// views of the backend-side materialization — the transport and client
// layers slice them without copying.
struct ScarResult {
  BufferView bucket;
  BufferView data;  // empty when the scan found no matching IndexEntry
};

// Installed by a backend when it co-designs with a software NIC: given the
// raw key-hash bytes and its own memory, produce the combined response. The
// executor runs at NIC level (engine cost, no host CPU) and must not block.
using ScarExecutor =
    std::function<StatusOr<ScarResult>(uint64_t hash_hi, uint64_t hash_lo,
                                       RegionId index_region,
                                       uint64_t bucket_offset,
                                       uint32_t bucket_len)>;

// Per-host RMA state visible to transports.
struct RmaHostState {
  MemoryRegistry* registry = nullptr;
  ScarExecutor scar;
};

// Name registry mapping hosts to their registered memory (like the NIC's
// translation tables).
class RmaNetwork {
 public:
  void Attach(net::HostId host, MemoryRegistry* registry) {
    hosts_[host].registry = registry;
  }
  void InstallScar(net::HostId host, ScarExecutor exec) {
    hosts_[host].scar = std::move(exec);
  }
  void Detach(net::HostId host) { hosts_.erase(host); }

  RmaHostState* Find(net::HostId host) {
    auto it = hosts_.find(host);
    return it == hosts_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<net::HostId, RmaHostState> hosts_;
};

// One entry of a vectored read: the initiator posts N of these behind a
// single doorbell and the target NIC resolves each independently.
struct ReadVEntry {
  RegionId region = 0;
  uint64_t offset = 0;
  uint32_t length = 0;
};

// One entry of a vectored scan-and-read (the batched SCAR of a MultiGet
// index phase): each entry names its own bucket window and key hash.
struct ScarVEntry {
  RegionId index_region = 0;
  uint64_t bucket_offset = 0;
  uint32_t bucket_len = 0;
  uint64_t hash_hi = 0;
  uint64_t hash_lo = 0;
};

struct RmaStats {
  int64_t reads = 0;
  int64_t scars = 0;
  int64_t messages = 0;
  // Vectored ops (batched MultiGet): one doorbell/completion covering
  // vector_entries individual reads or scans.
  int64_t vector_reads = 0;
  int64_t vector_scars = 0;
  int64_t vector_entries = 0;
  int64_t failed_ops = 0;
  // Fault-injection visibility: ops whose command/completion was lost and
  // completed only by kOpTimeout, and payloads delivered with a bit flip
  // (which only client-side validation can catch).
  int64_t op_timeouts = 0;
  int64_t corrupt_deliveries = 0;
  // NIC-level processing time consumed (software engines or hardware
  // pipeline), split by side. Figs 6b/7 report CPU-per-op from these.
  int64_t initiator_nic_ns = 0;
  int64_t target_nic_ns = 0;
};

class RmaTransport {
 public:
  virtual ~RmaTransport() = default;

  virtual bool SupportsScar() const = 0;

  // One-sided read of [offset, offset+length) in `region` on `target`.
  // `parent` (optional) nests the op's rma_read span — and the fabric tx/rx
  // spans beneath it — under the caller's trace tree. The payload is a
  // refcounted view materialized exactly once at the target window.
  virtual sim::Task<StatusOr<BufferView>> Read(
      net::HostId initiator, net::HostId target, RegionId region,
      uint64_t offset, uint32_t length,
      trace::SpanId parent = trace::kNoSpan) = 0;

  // Single-round-trip scan-and-read; only valid when SupportsScar().
  virtual sim::Task<StatusOr<ScarResult>> ScanAndRead(
      net::HostId initiator, net::HostId target, RegionId index_region,
      uint64_t bucket_offset, uint32_t bucket_len, uint64_t hash_hi,
      uint64_t hash_lo, trace::SpanId parent = trace::kNoSpan) = 0;

  // Vectored one-sided read: one doorbell, one command, one completion for
  // all entries on the same target. The outer status covers whole-op
  // failures only (lost command/completion, no host state); a bad pointer
  // or revoked window fails only its own slot, so one miss never fails its
  // batch-mates. Result order matches `entries`.
  virtual sim::Task<StatusOr<std::vector<StatusOr<BufferView>>>> ReadV(
      net::HostId initiator, net::HostId target,
      std::vector<ReadVEntry> entries,
      trace::SpanId parent = trace::kNoSpan) = 0;

  // Vectored SCAR with the same per-entry-status contract as ReadV; only
  // valid when SupportsScar().
  virtual sim::Task<StatusOr<std::vector<StatusOr<ScarResult>>>> ScanAndReadV(
      net::HostId initiator, net::HostId target,
      std::vector<ScarVEntry> entries,
      trace::SpanId parent = trace::kNoSpan) = 0;

  virtual const RmaStats& stats() const = 0;
};

// Wire sizes and completion timeout, the same on every transport.
inline constexpr int64_t kCommandBytes = 64;
inline constexpr int64_t kResponseHeaderBytes = 32;
// Each entry of a vectored op after the first adds one descriptor to the
// command.
inline constexpr int64_t kVectorEntryBytes = 16;
// A command or completion lost in the fabric fails its op this long after
// the loss.
inline constexpr sim::Duration kOpTimeout = sim::Milliseconds(1);

// What a target NIC does to serve one one-sided op; a cost model prices it.
struct ServeWork {
  bool scar = false;       // scans buckets rather than reading slices
  int64_t entries = 0;
  int64_t scan_units = 0;  // 64-byte bucket slots to scan, all entries
  int64_t read_bytes = 0;  // slice bytes requested, all entries
};

// The one-sided ops, written once (one_sided.cc) for every transport. Each
// op runs the same sequence: issue on the initiator, send the command,
// serve on the target, resolve against registered memory (or the SCAR
// executor), send the response, complete on the initiator. A transport
// differs only in cost and capability, so `Model` (the transport class)
// supplies `kScar` and three awaitable cost steps:
//   Issue(initiator)            initiator work before the command
//   Serve(target, ServeWork)    target work before the resolve
//   Complete(initiator, start)  initiator work after the response
template <typename Model>
class OneSidedTransport : public RmaTransport {
 public:
  bool SupportsScar() const override { return Model::kScar; }

  sim::Task<StatusOr<BufferView>> Read(
      net::HostId initiator, net::HostId target, RegionId region,
      uint64_t offset, uint32_t length,
      trace::SpanId parent = trace::kNoSpan) override;
  sim::Task<StatusOr<ScarResult>> ScanAndRead(
      net::HostId initiator, net::HostId target, RegionId index_region,
      uint64_t bucket_offset, uint32_t bucket_len, uint64_t hash_hi,
      uint64_t hash_lo, trace::SpanId parent = trace::kNoSpan) override;
  sim::Task<StatusOr<std::vector<StatusOr<BufferView>>>> ReadV(
      net::HostId initiator, net::HostId target,
      std::vector<ReadVEntry> entries,
      trace::SpanId parent = trace::kNoSpan) override;
  sim::Task<StatusOr<std::vector<StatusOr<ScarResult>>>> ScanAndReadV(
      net::HostId initiator, net::HostId target,
      std::vector<ScarVEntry> entries,
      trace::SpanId parent = trace::kNoSpan) override;

  const RmaStats& stats() const override { return stats_; }

 protected:
  // Exports the counters every transport keeps, labelled `transport=name`.
  OneSidedTransport(net::Fabric& fabric, RmaNetwork& rma_network,
                    const char* name);

  // A lost command or completion: nothing comes back, so the op fails when
  // its completion timer fires.
  sim::Simulator::WaitAwaiter TimeOut();

  net::Fabric& fabric_;
  RmaNetwork& rma_network_;
  RmaStats stats_;
  metrics::ExportGroup exports_;

 private:
  template <typename Op>
  sim::Task<StatusOr<typename Op::Result>> Run(net::HostId initiator,
                                                net::HostId target, Op op,
                                                trace::SpanId parent);
};

}  // namespace cm::rma

#endif  // CM_RMA_TRANSPORT_H_
