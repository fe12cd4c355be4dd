// The one-sided op sequence of every RMA transport (see OneSidedTransport in
// transport.h), instantiated for the software NIC and for hardware RMA.
#include <array>
#include <string>
#include <type_traits>

#include "rma/hwrma.h"
#include "rma/softnic.h"

namespace cm::rma {
namespace {

// One op: a read of window slices or a scan of buckets (`Entry`), carrying
// one entry or a vector of them. The rest of the sequence is shared.
template <typename Entry, bool kVectorOp>
struct Op {
  static constexpr bool kScar = std::is_same_v<Entry, ScarVEntry>;
  static constexpr bool kVector = kVectorOp;
  using Value = std::conditional_t<kScar, ScarResult, BufferView>;
  using Result =
      std::conditional_t<kVector, std::vector<StatusOr<Value>>, Value>;
  static constexpr const char* kSpan =
      kScar ? (kVector ? "rma_scarv" : "rma_scar")
            : (kVector ? "rma_readv" : "rma_read");
  static constexpr const char* kWhat =
      kScar ? (kVector ? "rma scarv" : "rma scar")
            : (kVector ? "rma readv" : "rma read");
  static constexpr int64_t RmaStats::*kCounter =
      kScar ? (kVector ? &RmaStats::vector_scars : &RmaStats::scars)
            : (kVector ? &RmaStats::vector_reads : &RmaStats::reads);

  std::conditional_t<kVector, std::vector<Entry>, std::array<Entry, 1>>
      entries;
};

void AddWork(ServeWork& work, const ReadVEntry& e) {
  work.read_bytes += e.length;
}
void AddWork(ServeWork& work, const ScarVEntry& e) {
  work.scan_units += e.bucket_len / 64;
}

StatusOr<BufferView> Resolve(const RmaHostState& host, const ReadVEntry& e) {
  return host.registry->ResolveView(e.region, e.offset, e.length);
}
StatusOr<ScarResult> Resolve(const RmaHostState& host, const ScarVEntry& e) {
  return host.scar(e.hash_hi, e.hash_lo, e.index_region, e.bucket_offset,
                   e.bucket_len);
}

bool Servable(const RmaHostState* host, bool scar) {
  return host != nullptr &&
         (scar ? bool(host->scar) : host->registry != nullptr);
}

// Resolves the op at the target. A target that cannot serve it fails it
// whole, and so does a bad pointer in a one-entry op; in a vector a bad
// pointer or revoked window fails only its own slot, never its batch-mates.
template <typename O>
StatusOr<typename O::Result> ResolveOp(const RmaHostState* host, const O& op) {
  if (!Servable(host, O::kScar)) {
    if (O::kScar) return UnimplementedError("target does not offer SCAR");
    return UnavailableError("no rma host state for target");
  }
  if constexpr (O::kVector) {
    typename O::Result out;
    out.reserve(op.entries.size());
    for (const auto& e : op.entries) out.push_back(Resolve(*host, e));
    return out;
  } else {
    return Resolve(*host, op.entries[0]);
  }
}

// Calls fn(payload, rank) on each delivered payload: the value itself, or
// each ok slot of a vector. A bit flip lands on the first rank-0 payload
// (data), else on the first rank-1 one (a bucket: a SCAR miss has no data).
template <typename Fn>
void ForEachPayload(BufferView& v, Fn&& fn) {
  fn(v, 0);
}
template <typename Fn>
void ForEachPayload(ScarResult& r, Fn&& fn) {
  fn(r.data, 0);
  fn(r.bucket, 1);
}
template <typename T, typename Fn>
void ForEachPayload(std::vector<StatusOr<T>>& slots, Fn&& fn) {
  for (StatusOr<T>& slot : slots) {
    if (slot.ok()) ForEachPayload(*slot, fn);
  }
}

template <typename T>
sim::Task<StatusOr<T>> NoScar(RmaStats* stats) {
  ++stats->failed_ops;
  co_return UnimplementedError("hardware RMA offers no SCAR primitive");
}

}  // namespace

template <typename Model>
OneSidedTransport<Model>::OneSidedTransport(net::Fabric& fabric,
                                            RmaNetwork& rma_network,
                                            const char* name)
    : fabric_(fabric), rma_network_(rma_network), exports_(&fabric.metrics()) {
  // The struct fields stay the storage; the registry reads them at snapshot
  // time. A later transport on the same fabric rebinds the names (latest
  // wins).
  const metrics::Labels l = {{"transport", name}};
  exports_.ExportCounter("cm.rma.reads", l, &stats_.reads);
  exports_.ExportCounter("cm.rma.vector_reads", l, &stats_.vector_reads);
  exports_.ExportCounter("cm.rma.vector_entries", l, &stats_.vector_entries);
  exports_.ExportCounter("cm.rma.failed_ops", l, &stats_.failed_ops);
  exports_.ExportCounter("cm.rma.op_timeouts", l, &stats_.op_timeouts);
  exports_.ExportCounter("cm.rma.corrupt_deliveries", l,
                         &stats_.corrupt_deliveries);
  exports_.ExportCounter("cm.rma.initiator_nic_ns", l,
                         &stats_.initiator_nic_ns);
  exports_.ExportCounter("cm.rma.target_nic_ns", l, &stats_.target_nic_ns);
}

template <typename Model>
sim::Simulator::WaitAwaiter OneSidedTransport<Model>::TimeOut() {
  ++stats_.failed_ops;
  ++stats_.op_timeouts;
  return fabric_.simulator().Delay(kOpTimeout);
}

template <typename Model>
sim::Task<StatusOr<BufferView>> OneSidedTransport<Model>::Read(
    net::HostId initiator, net::HostId target, RegionId region,
    uint64_t offset, uint32_t length, trace::SpanId parent) {
  return Run(initiator, target,
             Op<ReadVEntry, false>{{ReadVEntry{region, offset, length}}},
             parent);
}

template <typename Model>
sim::Task<StatusOr<ScarResult>> OneSidedTransport<Model>::ScanAndRead(
    net::HostId initiator, net::HostId target, RegionId index_region,
    uint64_t bucket_offset, uint32_t bucket_len, uint64_t hash_hi,
    uint64_t hash_lo, trace::SpanId parent) {
  if constexpr (Model::kScar) {
    return Run(initiator, target,
               Op<ScarVEntry, false>{{ScarVEntry{index_region, bucket_offset,
                                                 bucket_len, hash_hi,
                                                 hash_lo}}},
               parent);
  } else {
    return NoScar<ScarResult>(&stats_);
  }
}

template <typename Model>
sim::Task<StatusOr<std::vector<StatusOr<BufferView>>>>
OneSidedTransport<Model>::ReadV(net::HostId initiator, net::HostId target,
                                std::vector<ReadVEntry> entries,
                                trace::SpanId parent) {
  return Run(initiator, target, Op<ReadVEntry, true>{std::move(entries)},
             parent);
}

template <typename Model>
sim::Task<StatusOr<std::vector<StatusOr<ScarResult>>>>
OneSidedTransport<Model>::ScanAndReadV(net::HostId initiator,
                                       net::HostId target,
                                       std::vector<ScarVEntry> entries,
                                       trace::SpanId parent) {
  if constexpr (Model::kScar) {
    return Run(initiator, target, Op<ScarVEntry, true>{std::move(entries)},
               parent);
  } else {
    return NoScar<std::vector<StatusOr<ScarResult>>>(&stats_);
  }
}

template <typename Model>
template <typename O>
sim::Task<StatusOr<typename O::Result>> OneSidedTransport<Model>::Run(
    net::HostId initiator, net::HostId target, O op, trace::SpanId parent) {
  Model& model = static_cast<Model&>(*this);
  trace::Tracer& tracer = fabric_.tracer();
  const trace::SpanId span = tracer.Begin(O::kSpan, parent, initiator);
  const auto n = static_cast<int64_t>(op.entries.size());
  ++(stats_.*O::kCounter);
  if constexpr (O::kVector) {
    stats_.vector_entries += n;
    if (n == 0) {
      tracer.End(span, 0);
      co_return typename O::Result{};
    }
  }
  const sim::Time start = fabric_.simulator().now();

  // One doorbell and one command for the whole op.
  co_await model.Issue(initiator);
  net::MessageFate cmd = co_await fabric_.TransferFaulty(
      initiator, target, kCommandBytes + kVectorEntryBytes * (n - 1), span);
  if (!cmd.delivered || cmd.corrupt) {
    // Lost in the fabric, or the target NIC's link CRC rejected the frame.
    co_await TimeOut();
    tracer.End(span, -1);
    co_return DeadlineExceededError(std::string(O::kWhat) + " command lost");
  }

  // A target without a SCAR executor refuses a scan before booking its scan
  // work; a read finds a missing registry only once it is served. Resolving
  // materializes at this instant: a mutation racing the delivery is seen as
  // a torn read by the client (by design; clients validate). This is the
  // one copy on the read path; everything downstream shares the view.
  ServeWork work{O::kScar, n};
  for (const auto& e : op.entries) AddWork(work, e);
  const bool serve =
      !O::kScar || Servable(rma_network_.Find(target), O::kScar);
  if (serve) co_await model.Serve(target, work);
  StatusOr<typename O::Result> out =
      ResolveOp(serve ? rma_network_.Find(target) : nullptr, op);
  if (!out.ok()) {
    // Answered with a header-only reply.
    ++stats_.failed_ops;
    co_await fabric_.Transfer(target, initiator, kResponseHeaderBytes);
    tracer.End(span, -1);
    co_return out.status();
  }

  // A vector response carries a 4-byte status per entry.
  int64_t payload = 0;
  std::array<BufferView*, 2> victims = {nullptr, nullptr};
  ForEachPayload(*out, [&](BufferView& v, int rank) {
    payload += static_cast<int64_t>(v.size());
    if (victims[rank] == nullptr && !v.empty()) victims[rank] = &v;
  });
  net::MessageFate resp = co_await fabric_.TransferFaulty(
      target, initiator,
      kResponseHeaderBytes + (O::kVector ? 4 * n : 0) + payload, span);
  if (!resp.delivered) {
    co_await TimeOut();
    tracer.End(span, -1);
    co_return DeadlineExceededError(std::string(O::kWhat) +
                                    " completion lost");
  }
  if (resp.corrupt && fabric_.faults() != nullptr) {
    // A bit flip below the link CRC (DMA/memory corruption) lands in one
    // payload, delivered as-is: only the client's end-to-end checksum can
    // catch it (§5.1). Copy-on-write: other holders of the buffer keep the
    // pristine bytes. A one-entry read counts the flip only when it had
    // bytes to flip.
    BufferView* victim = victims[0] != nullptr ? victims[0] : victims[1];
    if (victim != nullptr || O::kScar || O::kVector) {
      ++stats_.corrupt_deliveries;
    }
    if (victim != nullptr) {
      *victim = fabric_.faults()->CorruptCow(std::move(*victim));
    }
  }
  co_await model.Complete(initiator, start);
  tracer.End(span, payload);
  co_return std::move(out);
}

template class OneSidedTransport<SoftNicTransport>;
template class OneSidedTransport<HwRmaTransport>;

}  // namespace cm::rma
