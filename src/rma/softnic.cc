#include "rma/softnic.h"

#include <algorithm>

namespace cm::rma {

EngineGroup::EngineGroup(sim::Simulator& sim, const SoftNicConfig& config)
    : sim_(sim), config_(config) {
  busy_until_.assign(static_cast<size_t>(config.max_engines), sim::Time{0});
}

sim::Time EngineGroup::Reserve(sim::Duration cost) {
  // Least-loaded active engine.
  auto begin = busy_until_.begin();
  auto it = std::min_element(begin, begin + active_);
  sim::Time start = std::max(sim_.now(), *it);
  sim::Time end = start + cost;
  *it = end;
  total_busy_ns_ += cost;
  window_busy_ns_ += cost;
  MaybeRescale();
  return end;
}

void EngineGroup::MaybeRescale() {
  const sim::Time now = sim_.now();
  if (now - window_start_ < config_.scale_window) return;
  const double capacity =
      double(active_) * double(now - window_start_);
  const double util = capacity > 0 ? double(window_busy_ns_) / capacity : 0.0;
  if (util > config_.scale_out_threshold && active_ < config_.max_engines) {
    ++active_;
  } else if (util < config_.scale_in_threshold && active_ > 1) {
    --active_;
  }
  window_start_ = now;
  window_busy_ns_ = 0;
}

SoftNicTransport::SoftNicTransport(net::Fabric& fabric,
                                   RmaNetwork& rma_network,
                                   const SoftNicConfig& config)
    : OneSidedTransport(fabric, rma_network, "softnic"), config_(config) {
  const metrics::Labels l = {{"transport", "softnic"}};
  exports_.ExportCounter("cm.rma.scars", l, &stats_.scars);
  exports_.ExportCounter("cm.rma.messages", l, &stats_.messages);
  exports_.ExportCounter("cm.rma.vector_scars", l, &stats_.vector_scars);
}

EngineGroup& SoftNicTransport::engines(net::HostId host) {
  while (engines_.size() <= host) {
    const auto id = static_cast<net::HostId>(engines_.size());
    engines_.push_back(
        std::make_unique<EngineGroup>(fabric_.simulator(), config_));
    EngineGroup* g = engines_.back().get();
    const metrics::Labels l = {{"host", std::to_string(id)},
                               {"transport", "softnic"}};
    exports_.ExportGauge("cm.rma.active_engines", l,
                         [g] { return int64_t{g->active_engines()}; });
    exports_.ExportGauge("cm.rma.engine_busy_ns", l,
                         [g] { return g->total_busy_ns(); });
  }
  return *engines_[host];
}

sim::Simulator::WaitAwaiter SoftNicTransport::Issue(net::HostId initiator) {
  stats_.initiator_nic_ns += config_.initiator_op_cost;
  return fabric_.simulator().WaitUntil(
      engines(initiator).Reserve(config_.initiator_op_cost));
}

sim::Simulator::WaitAwaiter SoftNicTransport::Serve(net::HostId target,
                                                    const ServeWork& work) {
  // Full service time for the first entry, an incremental slice for each
  // other one (no per-entry wake or command parse), plus the scan work of
  // every bucket.
  const sim::Duration cost =
      (work.scar ? config_.target_scar_cost : config_.target_read_cost) +
      config_.target_vector_entry_cost * (work.entries - 1) +
      config_.scar_per_entry_scan_cost * work.scan_units;
  stats_.target_nic_ns += cost;
  return fabric_.simulator().WaitUntil(engines(target).Reserve(cost));
}

sim::Simulator::WaitAwaiter SoftNicTransport::Complete(net::HostId initiator,
                                                       sim::Time) {
  stats_.initiator_nic_ns += config_.initiator_op_cost / 2;
  return fabric_.simulator().WaitUntil(
      engines(initiator).Reserve(config_.initiator_op_cost / 2));
}

sim::Task<StatusOr<Bytes>> SoftNicTransport::Message(
    net::HostId initiator, net::HostId target, Bytes payload,
    const std::function<sim::Task<StatusOr<Bytes>>(ByteSpan)>& handler,
    sim::Duration handler_cpu_cost, trace::SpanId parent) {
  sim::Simulator& sim = fabric_.simulator();
  trace::Tracer& tracer = fabric_.tracer();
  const trace::SpanId span = tracer.Begin("rma_msg", parent, initiator);
  ++stats_.messages;

  co_await Issue(initiator);
  net::MessageFate cmd = co_await fabric_.TransferFaulty(
      initiator, target,
      kCommandBytes + static_cast<int64_t>(payload.size()), span);
  if (!cmd.delivered || cmd.corrupt) {
    // Two-sided messaging carries a software checksum: a corrupted request
    // is discarded at the receiver, indistinguishable from a drop.
    co_await TimeOut();
    tracer.End(span, -1);
    co_return DeadlineExceededError("rma message request lost");
  }

  // Engine receives the message, then must wake an application thread — the
  // overhead that makes MSG significantly costlier than SCAR (Fig 7).
  stats_.target_nic_ns +=
      config_.target_read_cost + config_.target_msg_wake_cost;
  co_await sim.WaitUntil(engines(target).Reserve(config_.target_read_cost));
  co_await fabric_.host(target).cpu().Run(config_.target_msg_wake_cost +
                                          handler_cpu_cost);
  StatusOr<Bytes> response = co_await handler(payload);
  if (!response.ok()) {
    ++stats_.failed_ops;
    co_await fabric_.Transfer(target, initiator, kResponseHeaderBytes);
    tracer.End(span, -1);
    co_return response.status();
  }

  net::MessageFate resp = co_await fabric_.TransferFaulty(
      target, initiator,
      kResponseHeaderBytes + static_cast<int64_t>(response->size()),
      span);
  if (!resp.delivered || resp.corrupt) {
    // The handler ran but the reply never reached the initiator: surfaces
    // as a timeout, never as silent success.
    co_await TimeOut();
    tracer.End(span, -1);
    co_return DeadlineExceededError("rma message response lost");
  }
  co_await Complete(initiator, sim.now());
  tracer.End(span, static_cast<int64_t>(response->size()));
  co_return response;
}

}  // namespace cm::rma
