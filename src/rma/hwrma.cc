#include "rma/hwrma.h"

namespace cm::rma {

HwRmaTransport::HwRmaTransport(net::Fabric& fabric, RmaNetwork& rma_network,
                               const HwRmaConfig& config)
    : OneSidedTransport(fabric, rma_network, "hw"), config_(config) {
  exports_.ExportHistogram("cm.rma.hw_timestamps_ns", {{"transport", "hw"}},
                           &hw_timestamps_);
}

net::NicSide& HwRmaTransport::pcie(net::HostId host) {
  while (pcie_.size() <= host) {
    auto side = std::make_unique<net::NicSide>();
    side->bytes_per_ns = config_.pcie_gbps / 8.0;
    pcie_.push_back(std::move(side));
  }
  return *pcie_[host];
}

sim::Simulator::WaitAwaiter HwRmaTransport::Issue(net::HostId) {
  stats_.initiator_nic_ns += config_.nic_pipeline_latency;
  return fabric_.simulator().Delay(config_.nic_pipeline_latency);
}

sim::Simulator::WaitAwaiter HwRmaTransport::Serve(net::HostId target,
                                                  const ServeWork& work) {
  // Pure hardware: DMA the payload over PCIe. The PCIe link is a shared
  // resource, so heavy op rates queue here (Fig 16's slight rise); a scatter
  // list streams all its entries in one occupancy window.
  sim::Simulator& sim = fabric_.simulator();
  stats_.target_nic_ns += config_.nic_pipeline_latency;
  const sim::Time dma_end =
      pcie(target)
          .Reserve(sim.now() + config_.pcie_base_latency, work.read_bytes)
          .second;
  return sim.WaitUntil(dma_end + config_.nic_pipeline_latency);
}

std::suspend_never HwRmaTransport::Complete(net::HostId, sim::Time start) {
  hw_timestamps_.Record(fabric_.simulator().now() - start);
  return {};
}

}  // namespace cm::rma
