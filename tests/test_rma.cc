#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "net/faults.h"

#include "rma/hwrma.h"
#include "rma/memory.h"
#include "rma/softnic.h"
#include "sim/simulator.h"

namespace cm::rma {
namespace {

// ---------------------------------------------------------------------------
// MemoryRegistry
// ---------------------------------------------------------------------------

TEST(MemoryRegistry, RegisterAndResolve) {
  MemoryRegistry reg;
  std::vector<std::byte> buf(128, std::byte{7});
  VectorSource src(&buf);
  RegionId id = reg.Register(&src, buf.size());
  auto copy = reg.ResolveView(id, 16, 32);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->size(), 32u);
  EXPECT_EQ((*copy)[0], std::byte{7});
}

TEST(MemoryRegistry, OutOfBoundsRejected) {
  MemoryRegistry reg;
  std::vector<std::byte> buf(64);
  VectorSource src(&buf);
  RegionId id = reg.Register(&src, buf.size());
  EXPECT_EQ(reg.ResolveView(id, 60, 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(reg.ResolveView(id, 60, 4).ok());
}

TEST(MemoryRegistry, RevokedWindowDenied) {
  MemoryRegistry reg;
  std::vector<std::byte> buf(64);
  VectorSource src(&buf);
  RegionId id = reg.Register(&src, buf.size());
  EXPECT_TRUE(reg.IsLive(id));
  reg.Revoke(id);
  EXPECT_FALSE(reg.IsLive(id));
  EXPECT_EQ(reg.ResolveView(id, 0, 8).status().code(),
            StatusCode::kPermissionDenied);
}

TEST(MemoryRegistry, UnknownWindowDenied) {
  MemoryRegistry reg;
  EXPECT_EQ(reg.ResolveView(42, 0, 8).status().code(),
            StatusCode::kPermissionDenied);
}

TEST(MemoryRegistry, OverlappingWindowsCoexist) {
  // Data-region growth registers a second, larger window over the same
  // pool (§4.1); both remain readable until the old one is revoked.
  MemoryRegistry reg;
  std::vector<std::byte> buf(256);
  VectorSource src(&buf);
  RegionId small = reg.Register(&src, 128);
  RegionId large = reg.Register(&src, 256);
  EXPECT_TRUE(reg.ResolveView(small, 0, 128).ok());
  EXPECT_TRUE(reg.ResolveView(large, 128, 128).ok());
  reg.Revoke(small);
  EXPECT_FALSE(reg.ResolveView(small, 0, 8).ok());
  EXPECT_TRUE(reg.ResolveView(large, 0, 8).ok());
  EXPECT_EQ(reg.registrations(), 2);
}

TEST(MemoryRegistry, WindowSeesLiveGrowth) {
  // The source may grow after registration; a window registered over the
  // larger size reads newly-populated bytes.
  MemoryRegistry reg;
  std::vector<std::byte> buf(64, std::byte{1});
  VectorSource src(&buf);
  RegionId id = reg.Register(&src, 128);  // window larger than current pool
  EXPECT_FALSE(reg.ResolveView(id, 64, 8).ok());  // source rejects for now
  buf.resize(128, std::byte{2});
  auto copy = reg.ResolveView(id, 64, 8);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ((*copy)[0], std::byte{2});
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

struct RmaFixture : ::testing::Test {
  sim::Simulator sim;
  net::Fabric fabric{sim, net::FabricConfig{}};
  RmaNetwork rma_network;
  MemoryRegistry registry;
  net::HostId client, server;
  std::vector<std::byte> server_mem;
  std::unique_ptr<VectorSource> source;
  RegionId region;

  void SetUp() override {
    client = fabric.AddHost(net::HostConfig{});
    server = fabric.AddHost(net::HostConfig{});
    server_mem.assign(4096, std::byte{0});
    for (size_t i = 0; i < server_mem.size(); ++i) {
      server_mem[i] = static_cast<std::byte>(i & 0xff);
    }
    source = std::make_unique<VectorSource>(&server_mem);
    region = registry.Register(source.get(), server_mem.size());
    rma_network.Attach(server, &registry);
  }

  StatusOr<cm::BufferView> RunRead(RmaTransport& t, RegionId r, uint64_t off,
                                   uint32_t len) {
    StatusOr<cm::BufferView> out = InternalError("never ran");
    sim.Spawn([](RmaTransport& t, net::HostId c, net::HostId s, RegionId r,
                 uint64_t off, uint32_t len,
                 StatusOr<cm::BufferView>& out) -> sim::Task<void> {
      out = co_await t.Read(c, s, r, off, len);
    }(t, client, server, r, off, len, out));
    sim.Run();
    return out;
  }
};

TEST_F(RmaFixture, SoftNicReadReturnsBytes) {
  SoftNicTransport t(fabric, rma_network);
  auto out = RunRead(t, region, 100, 16);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ((*out)[i], static_cast<std::byte>((100 + i) & 0xff));
  }
  EXPECT_EQ(t.stats().reads, 1);
}

TEST_F(RmaFixture, SoftNicReadOfRevokedRegionFails) {
  SoftNicTransport t(fabric, rma_network);
  registry.Revoke(region);
  auto out = RunRead(t, region, 0, 16);
  EXPECT_EQ(out.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(t.stats().failed_ops, 1);
}

TEST_F(RmaFixture, SoftNicReadIsFarCheaperThanRpc) {
  SoftNicTransport t(fabric, rma_network);
  (void)RunRead(t, region, 0, 64);
  // NIC processing on both sides is well under 2us combined, vs >50us for
  // a framework RPC.
  EXPECT_LT(t.stats().initiator_nic_ns + t.stats().target_nic_ns,
            sim::Microseconds(2));
  // No host CPU was consumed on the server: one-sided semantics.
  EXPECT_EQ(fabric.host(server).cpu().total_busy_ns(), 0);
}

TEST_F(RmaFixture, SoftNicScarExecutesInstalledExecutor) {
  SoftNicTransport t(fabric, rma_network);
  rma_network.InstallScar(
      server, [&](uint64_t hi, uint64_t lo, RegionId, uint64_t, uint32_t)
                  -> StatusOr<ScarResult> {
        EXPECT_EQ(hi, 0xAAu);
        EXPECT_EQ(lo, 0xBBu);
        return ScarResult{cm::ToBytes("bucket"), cm::ToBytes("data")};
      });
  StatusOr<ScarResult> out = InternalError("never ran");
  sim.Spawn([](SoftNicTransport& t, net::HostId c, net::HostId s, RegionId r,
               StatusOr<ScarResult>& out) -> sim::Task<void> {
    out = co_await t.ScanAndRead(c, s, r, 0, 512, 0xAA, 0xBB);
  }(t, client, server, region, out));
  sim.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(cm::ToString(out->bucket), "bucket");
  EXPECT_EQ(cm::ToString(out->data), "data");
  EXPECT_EQ(t.stats().scars, 1);
}

TEST_F(RmaFixture, ScarWithoutExecutorIsUnimplemented) {
  SoftNicTransport t(fabric, rma_network);
  StatusOr<ScarResult> out = InternalError("never ran");
  sim.Spawn([](SoftNicTransport& t, net::HostId c, net::HostId s, RegionId r,
               StatusOr<ScarResult>& out) -> sim::Task<void> {
    out = co_await t.ScanAndRead(c, s, r, 0, 512, 1, 2);
  }(t, client, server, region, out));
  sim.Run();
  EXPECT_EQ(out.status().code(), StatusCode::kUnimplemented);
}

TEST_F(RmaFixture, ScarTargetDetachedWhileServingFails) {
  // A backend that stops while its NIC serves a scan detaches its host
  // state, executor included: the scan must fail, not call a freed executor.
  SoftNicTransport t(fabric, rma_network);
  sim::Time scanned_at = -1;
  rma_network.InstallScar(
      server, [&](uint64_t, uint64_t, RegionId, uint64_t,
                  uint32_t) -> StatusOr<ScarResult> {
        scanned_at = sim.now();
        return ScarResult{cm::ToBytes("bucket"), cm::ToBytes("data")};
      });
  auto scan = [](SoftNicTransport& t, net::HostId c, net::HostId s,
                 RegionId r, StatusOr<ScarResult>& out) -> sim::Task<void> {
    out = co_await t.ScanAndRead(c, s, r, 0, 512, 1, 2);
  };
  StatusOr<ScarResult> out = InternalError("never ran");
  // A first scan learns when the executor runs: at the end of the serve.
  const sim::Time first = sim.now();
  sim.Spawn(scan(t, client, server, region, out));
  sim.Run();
  ASSERT_TRUE(out.ok());
  const sim::Duration serve_end = scanned_at - first;

  // The second scan loses its target one nanosecond before that.
  const sim::Time start = sim.now();
  scanned_at = -1;
  sim.PostAt(start + serve_end - 1, [&] { rma_network.Detach(server); });
  sim.Spawn(scan(t, client, server, region, out));
  sim.Run();
  EXPECT_EQ(out.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(scanned_at, -1);
  EXPECT_EQ(t.stats().failed_ops, 1);
}

TEST_F(RmaFixture, EngineScaleOutUnderLoad) {
  SoftNicConfig cfg;
  cfg.max_engines = 4;
  SoftNicTransport t(fabric, rma_network);
  EngineGroup group(sim, cfg);
  EXPECT_EQ(group.active_engines(), 1);
  // Saturate: offered work far exceeds one engine over several windows.
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 4000; ++i) group.Reserve(sim::Nanoseconds(400));
    sim.RunUntil(sim.now() + sim::Milliseconds(1));
  }
  EXPECT_GT(group.active_engines(), 1);
}

TEST_F(RmaFixture, EngineScaleInWhenIdle) {
  SoftNicConfig cfg;
  EngineGroup group(sim, cfg);
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 4000; ++i) group.Reserve(sim::Nanoseconds(400));
    sim.RunUntil(sim.now() + sim::Milliseconds(1));
  }
  int peak = group.active_engines();
  ASSERT_GT(peak, 1);
  // Go idle for many windows: each Reserve drives a rescale check.
  for (int w = 0; w < 20; ++w) {
    sim.RunUntil(sim.now() + sim::Milliseconds(2));
    group.Reserve(sim::Nanoseconds(100));
  }
  EXPECT_EQ(group.active_engines(), 1);
}

TEST_F(RmaFixture, HwRmaReadWorksWithoutServerCpuOrEngines) {
  HwRmaTransport t(fabric, rma_network, HwRmaConfig::OneRma());
  auto out = RunRead(t, region, 8, 8);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0], std::byte{8});
  EXPECT_EQ(fabric.host(server).cpu().total_busy_ns(), 0);
  EXPECT_EQ(t.hw_timestamps().count(), 1);
}

TEST_F(RmaFixture, HwRmaRefusesScar) {
  HwRmaTransport t(fabric, rma_network);
  EXPECT_FALSE(t.SupportsScar());
  StatusOr<ScarResult> out = InternalError("never ran");
  sim.Spawn([](HwRmaTransport& t, net::HostId c, net::HostId s,
               StatusOr<ScarResult>& out) -> sim::Task<void> {
    out = co_await t.ScanAndRead(c, s, 1, 0, 512, 1, 2);
  }(t, client, server, out));
  sim.Run();
  EXPECT_EQ(out.status().code(), StatusCode::kUnimplemented);
}

TEST_F(RmaFixture, ClassicRdmaSlowerThanOneRma) {
  HwRmaTransport onerma(fabric, rma_network, HwRmaConfig::OneRma());
  HwRmaTransport rdma(fabric, rma_network, HwRmaConfig::ClassicRdma());
  sim::Time t0 = sim.now();
  (void)RunRead(onerma, region, 0, 64);
  sim::Time onerma_elapsed = sim.now() - t0;
  t0 = sim.now();
  (void)RunRead(rdma, region, 0, 64);
  sim::Time rdma_elapsed = sim.now() - t0;
  EXPECT_LT(onerma_elapsed, rdma_elapsed);
}

TEST_F(RmaFixture, TornReadIsObservable) {
  // The defining hazard of one-sided reads: a read that lands mid-mutation
  // sees intermediate bytes. Start a read, mutate the buffer while the
  // simulated op is in flight (before the copy), observe mixed state.
  SoftNicTransport t(fabric, rma_network);
  StatusOr<cm::BufferView> out = InternalError("never ran");
  sim.Spawn([](SoftNicTransport& t, net::HostId c, net::HostId s, RegionId r,
               StatusOr<cm::BufferView>& out) -> sim::Task<void> {
    out = co_await t.Read(c, s, r, 0, 8);
  }(t, client, server, region, out));
  // The command takes ~2us to arrive; mutate at 1us (before server copy).
  sim.PostAt(sim::Microseconds(1), [&] {
    for (int i = 0; i < 8; ++i) server_mem[i] = std::byte{0xEE};
  });
  sim.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0], std::byte{0xEE});  // read observed the mutation
}

TEST_F(RmaFixture, MessageChargesServerCpu) {
  SoftNicTransport t(fabric, rma_network);
  StatusOr<cm::Bytes> out = InternalError("never ran");
  // Pass state as coroutine parameters: a capturing lambda's closure dies
  // at the end of this statement while the coroutine frame lives on.
  sim.Spawn([](SoftNicTransport& t, net::HostId c, net::HostId s,
               StatusOr<cm::Bytes>& out) -> sim::Task<void> {
    out = co_await t.Message(
        c, s, cm::ToBytes("req"),
        [](cm::ByteSpan req) -> sim::Task<StatusOr<cm::Bytes>> {
          co_return cm::Bytes(req.begin(), req.end());
        },
        sim::Microseconds(1));
  }(t, client, server, out));
  sim.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(cm::ToString(*out), "req");
  // Unlike one-sided reads, MSG wakes a server application thread.
  EXPECT_GT(fabric.host(server).cpu().total_busy_ns(), 0);
}

// ---------------------------------------------------------------------------
// Transport op pins: every one-sided op on both transports, through each
// outcome the op sequence distinguishes. Each row fixes the status, the sim
// time the op completed, every RmaStats field, the fabric bytes each way,
// the per-slot status of a vector op, which payload a corrupt completion
// altered, and the spans in completion order. A change to the transports
// that keeps behaviour must reproduce every row exactly.
// ---------------------------------------------------------------------------

struct OpPin {
  std::string_view transport;  // "softnic" or "hw" (OneRma)
  std::string_view op;
  std::string_view fault;
  std::string_view code;
  sim::Time done;
  // reads scars messages vector_reads vector_scars vector_entries failed_ops
  // op_timeouts corrupt_deliveries initiator_nic_ns target_nic_ns
  std::array<int64_t, 11> stats;
  int64_t bytes_out;   // client NIC tx
  int64_t bytes_back;  // server NIC tx
  std::string_view slots;    // per-entry status of a vector op
  std::string_view altered;  // payloads that arrived differing from memory
  std::string_view spans;    // name(arg), completion order

  bool operator==(const OpPin&) const = default;
};

// Prints a row in table syntax, for re-pinning after an intended change.
std::ostream& operator<<(std::ostream& os, const OpPin& p) {
  os << "{\"" << p.transport << "\", \"" << p.op << "\", \"" << p.fault
     << "\", \"" << p.code << "\", " << p.done << ",\n {";
  for (size_t i = 0; i < p.stats.size(); ++i) {
    os << (i ? ", " : "") << p.stats[i];
  }
  return os << "}, " << p.bytes_out << ", " << p.bytes_back << ", \""
            << p.slots << "\", \"" << p.altered << "\",\n \"" << p.spans
            << "\"},";
}

// clang-format off
const OpPin kOpPins[] = {
{"softnic", "Read", "clean", "OK", 4988,
 {1, 0, 0, 0, 0, 0, 0, 0, 0, 525, 420}, 144, 128, "", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(128),fabric_rx(128),rma_read(16),op(0)"},
{"softnic", "Read", "bad_pointer", "INVALID_ARGUMENT", 4810,
 {1, 0, 0, 0, 0, 0, 1, 0, 0, 350, 420}, 144, 112, "", "",
 "fabric_tx(144),fabric_rx(144),rma_read(-1),op(0)"},
{"softnic", "Read", "no_host", "UNAVAILABLE", 4810,
 {1, 0, 0, 0, 0, 0, 1, 0, 0, 350, 420}, 144, 112, "", "",
 "fabric_tx(144),fabric_rx(144),rma_read(-1),op(0)"},
{"softnic", "Read", "no_scar", "OK", 4988,
 {1, 0, 0, 0, 0, 0, 0, 0, 0, 525, 420}, 144, 128, "", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(128),fabric_rx(128),rma_read(16),op(0)"},
{"softnic", "Read", "drop_command", "DEADLINE_EXCEEDED", 1000373,
 {1, 0, 0, 0, 0, 0, 1, 1, 0, 350, 0}, 144, 0, "", "",
 "fabric_tx(144),rma_read(-1),op(0)"},
{"softnic", "Read", "drop_completion", "DEADLINE_EXCEEDED", 1002813,
 {1, 0, 0, 0, 0, 0, 1, 1, 0, 350, 420}, 144, 128, "", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(128),rma_read(-1),op(0)"},
{"softnic", "Read", "corrupt", "OK", 4988,
 {1, 0, 0, 0, 0, 0, 0, 0, 1, 525, 420}, 144, 128, "", "payload",
 "fabric_tx(144),fabric_rx(144),fabric_tx(128),fabric_rx(128),rma_read(16),op(0)"},
{"softnic", "Read", "empty", "OK", 4985,
 {1, 0, 0, 0, 0, 0, 0, 0, 0, 525, 420}, 144, 112, "", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(112),fabric_rx(112),rma_read(0),op(0)"},
{"softnic", "Read", "corrupt_no_victim", "OK", 4985,
 {1, 0, 0, 0, 0, 0, 0, 0, 0, 525, 420}, 144, 112, "", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(112),fabric_rx(112),rma_read(0),op(0)"},
{"softnic", "ScanAndRead", "clean", "OK", 5234,
 {0, 1, 0, 0, 0, 0, 0, 0, 0, 525, 584}, 144, 640, "", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(640),fabric_rx(640),rma_scar(528),op(0)"},
{"softnic", "ScanAndRead", "bad_pointer", "INVALID_ARGUMENT", 4974,
 {0, 1, 0, 0, 0, 0, 1, 0, 0, 350, 584}, 144, 112, "", "",
 "fabric_tx(144),fabric_rx(144),rma_scar(-1),op(0)"},
{"softnic", "ScanAndRead", "no_host", "UNIMPLEMENTED", 4390,
 {0, 1, 0, 0, 0, 0, 1, 0, 0, 350, 0}, 144, 112, "", "",
 "fabric_tx(144),fabric_rx(144),rma_scar(-1),op(0)"},
{"softnic", "ScanAndRead", "no_scar", "UNIMPLEMENTED", 4390,
 {0, 1, 0, 0, 0, 0, 1, 0, 0, 350, 0}, 144, 112, "", "",
 "fabric_tx(144),fabric_rx(144),rma_scar(-1),op(0)"},
{"softnic", "ScanAndRead", "drop_command", "DEADLINE_EXCEEDED", 1000373,
 {0, 1, 0, 0, 0, 0, 1, 1, 0, 350, 0}, 144, 0, "", "",
 "fabric_tx(144),rma_scar(-1),op(0)"},
{"softnic", "ScanAndRead", "drop_completion", "DEADLINE_EXCEEDED", 1003059,
 {0, 1, 0, 0, 0, 0, 1, 1, 0, 350, 584}, 144, 640, "", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(640),rma_scar(-1),op(0)"},
{"softnic", "ScanAndRead", "corrupt", "OK", 5234,
 {0, 1, 0, 0, 0, 0, 0, 0, 1, 525, 584}, 144, 640, "", "data",
 "fabric_tx(144),fabric_rx(144),fabric_tx(640),fabric_rx(640),rma_scar(528),op(0)"},
{"softnic", "ScanAndRead", "empty", "OK", 5085,
 {0, 1, 0, 0, 0, 0, 0, 0, 0, 525, 520}, 144, 112, "", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(112),fabric_rx(112),rma_scar(0),op(0)"},
{"softnic", "ScanAndRead", "corrupt_no_victim", "OK", 5085,
 {0, 1, 0, 0, 0, 0, 0, 0, 1, 525, 520}, 144, 112, "", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(112),fabric_rx(112),rma_scar(0),op(0)"},
{"softnic", "ReadV", "clean", "OK", 5116,
 {0, 0, 0, 1, 0, 2, 0, 0, 0, 525, 540}, 160, 168, "OK,OK", "",
 "fabric_tx(160),fabric_rx(160),fabric_tx(168),fabric_rx(168),rma_readv(48),op(0)"},
{"softnic", "ReadV", "bad_pointer", "OK", 5240,
 {0, 0, 0, 1, 0, 3, 0, 0, 0, 525, 660}, 176, 172, "INVALID_ARGUMENT,OK,OK", "",
 "fabric_tx(176),fabric_rx(176),fabric_tx(172),fabric_rx(172),rma_readv(48),op(0)"},
{"softnic", "ReadV", "no_host", "UNAVAILABLE", 4932,
 {0, 0, 0, 1, 0, 2, 1, 0, 0, 350, 540}, 160, 112, "", "",
 "fabric_tx(160),fabric_rx(160),rma_readv(-1),op(0)"},
{"softnic", "ReadV", "no_scar", "OK", 5116,
 {0, 0, 0, 1, 0, 2, 0, 0, 0, 525, 540}, 160, 168, "OK,OK", "",
 "fabric_tx(160),fabric_rx(160),fabric_tx(168),fabric_rx(168),rma_readv(48),op(0)"},
{"softnic", "ReadV", "drop_command", "DEADLINE_EXCEEDED", 1000375,
 {0, 0, 0, 1, 0, 2, 1, 1, 0, 350, 0}, 160, 0, "", "",
 "fabric_tx(160),rma_readv(-1),op(0)"},
{"softnic", "ReadV", "drop_completion", "DEADLINE_EXCEEDED", 1002941,
 {0, 0, 0, 1, 0, 2, 1, 1, 0, 350, 540}, 160, 168, "", "",
 "fabric_tx(160),fabric_rx(160),fabric_tx(168),rma_readv(-1),op(0)"},
{"softnic", "ReadV", "corrupt", "OK", 5240,
 {0, 0, 0, 1, 0, 3, 0, 0, 1, 525, 660}, 176, 172, "INVALID_ARGUMENT,OK,OK", "1",
 "fabric_tx(176),fabric_rx(176),fabric_tx(172),fabric_rx(172),rma_readv(48),op(0)"},
{"softnic", "ReadV", "empty", "OK", 0,
 {0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, 0, 0, "", "",
 "rma_readv(0),op(0)"},
{"softnic", "ReadV", "corrupt_no_victim", "OK", 4986,
 {0, 0, 0, 1, 0, 1, 0, 0, 1, 525, 420}, 144, 116, "INVALID_ARGUMENT", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(116),fabric_rx(116),rma_readv(0),op(0)"},
{"softnic", "ScanAndReadV", "clean", "OK", 5503,
 {0, 0, 0, 0, 1, 2, 0, 0, 0, 525, 768}, 160, 1160, "OK,OK", "",
 "fabric_tx(160),fabric_rx(160),fabric_tx(1160),fabric_rx(1160),rma_scarv(1040),op(0)"},
{"softnic", "ScanAndReadV", "bad_pointer", "OK", 5421,
 {0, 0, 0, 0, 1, 2, 0, 0, 0, 525, 768}, 160, 648, "INVALID_ARGUMENT,OK", "",
 "fabric_tx(160),fabric_rx(160),fabric_tx(648),fabric_rx(648),rma_scarv(528),op(0)"},
{"softnic", "ScanAndReadV", "no_host", "UNIMPLEMENTED", 4392,
 {0, 0, 0, 0, 1, 2, 1, 0, 0, 350, 0}, 160, 112, "", "",
 "fabric_tx(160),fabric_rx(160),rma_scarv(-1),op(0)"},
{"softnic", "ScanAndReadV", "no_scar", "UNIMPLEMENTED", 4392,
 {0, 0, 0, 0, 1, 2, 1, 0, 0, 350, 0}, 160, 112, "", "",
 "fabric_tx(160),fabric_rx(160),rma_scarv(-1),op(0)"},
{"softnic", "ScanAndReadV", "drop_command", "DEADLINE_EXCEEDED", 1000375,
 {0, 0, 0, 0, 1, 2, 1, 1, 0, 350, 0}, 160, 0, "", "",
 "fabric_tx(160),rma_scarv(-1),op(0)"},
{"softnic", "ScanAndReadV", "drop_completion", "DEADLINE_EXCEEDED", 1003328,
 {0, 0, 0, 0, 1, 2, 1, 1, 0, 350, 768}, 160, 1160, "", "",
 "fabric_tx(160),fabric_rx(160),fabric_tx(1160),rma_scarv(-1),op(0)"},
{"softnic", "ScanAndReadV", "corrupt", "OK", 5421,
 {0, 0, 0, 0, 1, 2, 0, 0, 1, 525, 768}, 160, 648, "INVALID_ARGUMENT,OK", "1.data",
 "fabric_tx(160),fabric_rx(160),fabric_tx(648),fabric_rx(648),rma_scarv(528),op(0)"},
{"softnic", "ScanAndReadV", "empty", "OK", 0,
 {0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, 0, 0, "", "",
 "rma_scarv(0),op(0)"},
{"softnic", "ScanAndReadV", "corrupt_no_victim", "OK", 5150,
 {0, 0, 0, 0, 1, 1, 0, 0, 1, 525, 584}, 144, 116, "INVALID_ARGUMENT", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(116),fabric_rx(116),rma_scarv(0),op(0)"},
{"hw", "Read", "clean", "OK", 5244,
 {1, 0, 0, 0, 0, 0, 0, 0, 0, 300, 300}, 144, 128, "", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(128),fabric_rx(128),rma_read(16),op(0)"},
{"hw", "Read", "bad_pointer", "INVALID_ARGUMENT", 5241,
 {1, 0, 0, 0, 0, 0, 1, 0, 0, 300, 300}, 144, 112, "", "",
 "fabric_tx(144),fabric_rx(144),rma_read(-1),op(0)"},
{"hw", "Read", "no_host", "UNAVAILABLE", 5241,
 {1, 0, 0, 0, 0, 0, 1, 0, 0, 300, 300}, 144, 112, "", "",
 "fabric_tx(144),fabric_rx(144),rma_read(-1),op(0)"},
{"hw", "Read", "no_scar", "OK", 5244,
 {1, 0, 0, 0, 0, 0, 0, 0, 0, 300, 300}, 144, 128, "", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(128),fabric_rx(128),rma_read(16),op(0)"},
{"hw", "Read", "drop_command", "DEADLINE_EXCEEDED", 1000323,
 {1, 0, 0, 0, 0, 0, 1, 1, 0, 300, 0}, 144, 0, "", "",
 "fabric_tx(144),rma_read(-1),op(0)"},
{"hw", "Read", "drop_completion", "DEADLINE_EXCEEDED", 1003244,
 {1, 0, 0, 0, 0, 0, 1, 1, 0, 300, 300}, 144, 128, "", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(128),rma_read(-1),op(0)"},
{"hw", "Read", "corrupt", "OK", 5244,
 {1, 0, 0, 0, 0, 0, 0, 0, 1, 300, 300}, 144, 128, "", "payload",
 "fabric_tx(144),fabric_rx(144),fabric_tx(128),fabric_rx(128),rma_read(16),op(0)"},
{"hw", "Read", "empty", "OK", 5241,
 {1, 0, 0, 0, 0, 0, 0, 0, 0, 300, 300}, 144, 112, "", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(112),fabric_rx(112),rma_read(0),op(0)"},
{"hw", "Read", "corrupt_no_victim", "OK", 5241,
 {1, 0, 0, 0, 0, 0, 0, 0, 0, 300, 300}, 144, 112, "", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(112),fabric_rx(112),rma_read(0),op(0)"},
{"hw", "ScanAndRead", "clean", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndRead", "bad_pointer", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndRead", "no_host", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndRead", "no_scar", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndRead", "drop_command", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndRead", "drop_completion", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndRead", "corrupt", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndRead", "empty", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndRead", "corrupt_no_victim", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ReadV", "clean", "OK", 5254,
 {0, 0, 0, 1, 0, 2, 0, 0, 0, 300, 300}, 160, 168, "OK,OK", "",
 "fabric_tx(160),fabric_rx(160),fabric_tx(168),fabric_rx(168),rma_readv(48),op(0)"},
{"hw", "ReadV", "bad_pointer", "OK", 5259,
 {0, 0, 0, 1, 0, 3, 0, 0, 0, 300, 300}, 176, 172, "INVALID_ARGUMENT,OK,OK", "",
 "fabric_tx(176),fabric_rx(176),fabric_tx(172),fabric_rx(172),rma_readv(48),op(0)"},
{"hw", "ReadV", "no_host", "UNAVAILABLE", 5245,
 {0, 0, 0, 1, 0, 2, 1, 0, 0, 300, 300}, 160, 112, "", "",
 "fabric_tx(160),fabric_rx(160),rma_readv(-1),op(0)"},
{"hw", "ReadV", "no_scar", "OK", 5254,
 {0, 0, 0, 1, 0, 2, 0, 0, 0, 300, 300}, 160, 168, "OK,OK", "",
 "fabric_tx(160),fabric_rx(160),fabric_tx(168),fabric_rx(168),rma_readv(48),op(0)"},
{"hw", "ReadV", "drop_command", "DEADLINE_EXCEEDED", 1000325,
 {0, 0, 0, 1, 0, 2, 1, 1, 0, 300, 0}, 160, 0, "", "",
 "fabric_tx(160),rma_readv(-1),op(0)"},
{"hw", "ReadV", "drop_completion", "DEADLINE_EXCEEDED", 1003254,
 {0, 0, 0, 1, 0, 2, 1, 1, 0, 300, 300}, 160, 168, "", "",
 "fabric_tx(160),fabric_rx(160),fabric_tx(168),rma_readv(-1),op(0)"},
{"hw", "ReadV", "corrupt", "OK", 5259,
 {0, 0, 0, 1, 0, 3, 0, 0, 1, 300, 300}, 176, 172, "INVALID_ARGUMENT,OK,OK", "1",
 "fabric_tx(176),fabric_rx(176),fabric_tx(172),fabric_rx(172),rma_readv(48),op(0)"},
{"hw", "ReadV", "empty", "OK", 0,
 {0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, 0, 0, "", "",
 "rma_readv(0),op(0)"},
{"hw", "ReadV", "corrupt_no_victim", "OK", 5242,
 {0, 0, 0, 1, 0, 1, 0, 0, 1, 300, 300}, 144, 116, "INVALID_ARGUMENT", "",
 "fabric_tx(144),fabric_rx(144),fabric_tx(116),fabric_rx(116),rma_readv(0),op(0)"},
{"hw", "ScanAndReadV", "clean", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndReadV", "bad_pointer", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndReadV", "no_host", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndReadV", "no_scar", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndReadV", "drop_command", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndReadV", "drop_completion", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndReadV", "corrupt", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndReadV", "empty", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
{"hw", "ScanAndReadV", "corrupt_no_victim", "UNIMPLEMENTED", 0,
 {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, 0, "", "",
 "op(0)"},
};
// clang-format on

struct OpRig {
  sim::Simulator sim;
  net::Fabric fabric{sim, net::FabricConfig{}};
  RmaNetwork rma_network;
  MemoryRegistry registry;
  net::HostId client = fabric.AddHost(net::HostConfig{});
  net::HostId server = fabric.AddHost(net::HostConfig{});
  std::vector<std::byte> mem;
  std::unique_ptr<VectorSource> source;
  RegionId region = 0;

  OpRig() {
    mem.resize(4096);
    for (size_t i = 0; i < mem.size(); ++i) {
      mem[i] = static_cast<std::byte>(i & 0xff);
    }
    source = std::make_unique<VectorSource>(&mem);
    region = registry.Register(source.get(), mem.size());
  }

  // Test SCAR executor: the bucket is the window slice it names; hash_hi is
  // the matched entry's data length (0: no match) and hash_lo its offset.
  static StatusOr<ScarResult> Scan(MemoryRegistry* reg, uint64_t hi,
                                   uint64_t lo, RegionId r, uint64_t off,
                                   uint32_t len) {
    StatusOr<BufferView> bucket = reg->ResolveView(r, off, len);
    if (!bucket.ok()) return bucket.status();
    ScarResult out{*std::move(bucket), BufferView()};
    if (hi != 0) {
      StatusOr<BufferView> data =
          reg->ResolveView(r, lo, static_cast<uint32_t>(hi));
      if (!data.ok()) return data.status();
      out.data = *std::move(data);
    }
    return out;
  }

  bool Pristine(const BufferView& v, uint64_t off) const {
    return v.size() == 0 ||
           std::memcmp(v.data(), mem.data() + off, v.size()) == 0;
  }
};

template <typename T>
sim::Task<void> AwaitOp(sim::Task<T> op, sim::Simulator* sim, T* out,
                        sim::Time* done) {
  *out = co_await std::move(op);
  *done = sim->now();
}

std::string JoinCodes(const std::vector<StatusCode>& codes) {
  std::string s;
  for (StatusCode c : codes) {
    s += (s.empty() ? "" : ",") + std::string(StatusCodeName(c));
  }
  return s;
}

// The strings an observed OpPin points into.
struct OpText {
  std::string code, slots, altered, spans;
};

// Runs one op on a fresh rig and returns what it observed.
OpPin RunOpCase(std::string_view transport, std::string_view op,
                std::string_view fault, OpText& text) {
  OpRig rig;
  std::unique_ptr<RmaTransport> t;
  if (transport == "softnic") {
    t = std::make_unique<SoftNicTransport>(rig.fabric, rig.rma_network);
  } else {
    t = std::make_unique<HwRmaTransport>(rig.fabric, rig.rma_network);
  }
  rig.rma_network.Attach(rig.server, &rig.registry);
  if (fault != "no_scar") {
    MemoryRegistry* reg = &rig.registry;
    rig.rma_network.InstallScar(
        rig.server, [reg](uint64_t hi, uint64_t lo, RegionId r, uint64_t off,
                          uint32_t len) {
          return OpRig::Scan(reg, hi, lo, r, off, len);
        });
  }
  if (fault == "no_host") rig.rma_network.Detach(rig.server);
  if (fault == "drop_command" || fault == "drop_completion" ||
      fault.starts_with("corrupt")) {
    auto plan = std::make_shared<net::FaultPlan>(7);
    net::LinkFaultRates rates;
    (fault.starts_with("corrupt") ? rates.corrupt : rates.drop) = 1.0;
    if (fault == "drop_command") {
      plan->SetLinkRates(rig.client, rig.server, rates);
    } else {
      plan->SetLinkRates(rig.server, rig.client, rates);
    }
    rig.fabric.InstallFaults(plan);
  }
  trace::Tracer& tracer = rig.fabric.tracer();
  tracer.Enable(true);
  const trace::SpanId root = tracer.BeginRoot("op", rig.client);

  // Entries: A and B are plain slices, X a bucket with no match, Y a bucket
  // whose scan matched data A. The bad-pointer case puts an out-of-range
  // entry first; the corrupt case keeps it, so the victim must skip it.
  // "empty" reads nothing (zero-length slices, no vector entries), and
  // "corrupt_no_victim" corrupts a completion that carries no payload.
  const bool bad = fault == "bad_pointer" || fault == "corrupt";
  const bool empty = fault == "empty" || fault == "corrupt_no_victim";
  const ReadVEntry kA{rig.region, 100, 16}, kB{rig.region, 200, 32};
  const ReadVEntry kBad{rig.region, 4090, 16}, kNone{rig.region, 100, 0};
  const ScarVEntry kX{rig.region, 0, 512, 0, 0};
  const ScarVEntry kY{rig.region, 1024, 512, 16, 100};
  const ScarVEntry kBadScar{rig.region, 4000, 512, 0, 0};
  const ScarVEntry kNoScan{rig.region, 0, 0, 0, 0};
  std::vector<ReadVEntry> reads = {kA, kB};
  std::vector<ScarVEntry> scars = {kX, kY};
  if (bad) {
    reads.insert(reads.begin(), kBad);
    scars.front() = kBadScar;
  }
  if (fault == "empty") {
    reads.clear();
    scars.clear();
  } else if (fault == "corrupt_no_victim") {
    reads = {kBad};
    scars = {kBadScar};
  }
  const ReadVEntry read = empty ? kNone : fault == "bad_pointer" ? kBad : kA;
  const ScarVEntry scar =
      empty ? kNoScan : fault == "bad_pointer" ? kBadScar : kY;

  std::string& code = text.code;
  std::string& slots = text.slots;
  std::string& altered = text.altered;
  sim::Time done = -1;
  auto scar_altered = [&](const ScarResult& r, const ScarVEntry& e,
                          const std::string& prefix) {
    if (!rig.Pristine(r.bucket, e.bucket_offset)) altered += prefix + "bucket";
    if (!rig.Pristine(r.data, e.hash_lo)) altered += prefix + "data";
  };
  if (op == "Read") {
    const ReadVEntry& e = read;
    StatusOr<BufferView> out = InternalError("never ran");
    rig.sim.Spawn(AwaitOp(t->Read(rig.client, rig.server, e.region, e.offset,
                                  e.length, root),
                          &rig.sim, &out, &done));
    rig.sim.Run();
    code = StatusCodeName(out.status().code());
    if (out.ok() && !rig.Pristine(*out, e.offset)) altered = "payload";
  } else if (op == "ScanAndRead") {
    const ScarVEntry& e = scar;
    StatusOr<ScarResult> out = InternalError("never ran");
    rig.sim.Spawn(AwaitOp(
        t->ScanAndRead(rig.client, rig.server, e.index_region,
                       e.bucket_offset, e.bucket_len, e.hash_hi, e.hash_lo,
                       root),
        &rig.sim, &out, &done));
    rig.sim.Run();
    code = StatusCodeName(out.status().code());
    if (out.ok()) scar_altered(*out, e, "");
  } else if (op == "ReadV") {
    const std::vector<ReadVEntry>& entries = reads;
    StatusOr<std::vector<StatusOr<BufferView>>> out = InternalError("never ran");
    rig.sim.Spawn(
        AwaitOp(t->ReadV(rig.client, rig.server, entries, root), &rig.sim,
                &out, &done));
    rig.sim.Run();
    code = StatusCodeName(out.status().code());
    if (out.ok()) {
      std::vector<StatusCode> codes;
      for (size_t i = 0; i < out->size(); ++i) {
        const StatusOr<BufferView>& slot = (*out)[i];
        codes.push_back(slot.status().code());
        if (slot.ok() && !rig.Pristine(*slot, entries[i].offset)) {
          altered += std::to_string(i);
        }
      }
      slots = JoinCodes(codes);
    }
  } else {
    const std::vector<ScarVEntry>& entries = scars;
    StatusOr<std::vector<StatusOr<ScarResult>>> out =
        InternalError("never ran");
    rig.sim.Spawn(
        AwaitOp(t->ScanAndReadV(rig.client, rig.server, entries, root),
                &rig.sim, &out, &done));
    rig.sim.Run();
    code = StatusCodeName(out.status().code());
    if (out.ok()) {
      std::vector<StatusCode> codes;
      for (size_t i = 0; i < out->size(); ++i) {
        codes.push_back((*out)[i].status().code());
        if ((*out)[i].ok()) {
          scar_altered(*(*out)[i], entries[i], std::to_string(i) + ".");
        }
      }
      slots = JoinCodes(codes);
    }
  }
  tracer.End(root);

  std::string& spans = text.spans;
  for (const trace::Span& s : tracer.Completed()) {
    spans += (spans.empty() ? "" : ",") + std::string(s.name) + "(" +
             std::to_string(s.arg) + ")";
  }
  const RmaStats& st = t->stats();
  return OpPin{transport,
               op,
               fault,
               code,
               done,
               {st.reads, st.scars, st.messages, st.vector_reads,
                st.vector_scars, st.vector_entries, st.failed_ops,
                st.op_timeouts, st.corrupt_deliveries, st.initiator_nic_ns,
                st.target_nic_ns},
               rig.fabric.host(rig.client).tx().total_bytes,
               rig.fabric.host(rig.server).tx().total_bytes,
               slots,
               altered,
               spans};
}

TEST(TransportOpPins, EveryOpOnBothTransportsMatchesItsPin) {
  const char* kTransports[] = {"softnic", "hw"};
  const char* kOps[] = {"Read", "ScanAndRead", "ReadV", "ScanAndReadV"};
  const char* kFaults[] = {"clean",           "bad_pointer",  "no_host",
                           "no_scar",         "drop_command", "drop_completion",
                           "corrupt",         "empty",        "corrupt_no_victim"};
  size_t checked = 0;
  for (const char* transport : kTransports) {
    for (const char* op : kOps) {
      for (const char* fault : kFaults) {
        OpText text;
        const OpPin got = RunOpCase(transport, op, fault, text);
        const OpPin* want = nullptr;
        for (const OpPin& p : kOpPins) {
          if (p.transport == transport && p.op == op && p.fault == fault) {
            want = &p;
          }
        }
        if (want == nullptr || *want != got) {
          ADD_FAILURE() << "observed:\n" << got;
        } else {
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kOpPins));
  EXPECT_EQ(checked, std::size(kTransports) * std::size(kOps) *
                         std::size(kFaults));
}

// The metric names each transport exports into the fabric's registry.
TEST(TransportOpPins, RegistryNamesPerTransport) {
  for (const char* transport : {"softnic", "hw"}) {
    OpRig rig;
    std::unique_ptr<RmaTransport> t;
    if (std::string(transport) == "softnic") {
      auto soft =
          std::make_unique<SoftNicTransport>(rig.fabric, rig.rma_network);
      soft->engines(rig.client);
      t = std::move(soft);
    } else {
      t = std::make_unique<HwRmaTransport>(rig.fabric, rig.rma_network);
    }
    std::string names;
    const metrics::Snapshot snap = rig.fabric.metrics().TakeSnapshot();
    for (const auto& [name, metric] : snap.metrics) {
      if (name.rfind("cm.rma.", 0) == 0) names += name + "\n";
    }
    if (std::string(transport) == "softnic") {
      EXPECT_EQ(names,
                "cm.rma.active_engines{host=0,transport=softnic}\n"
                "cm.rma.corrupt_deliveries{transport=softnic}\n"
                "cm.rma.engine_busy_ns{host=0,transport=softnic}\n"
                "cm.rma.failed_ops{transport=softnic}\n"
                "cm.rma.initiator_nic_ns{transport=softnic}\n"
                "cm.rma.messages{transport=softnic}\n"
                "cm.rma.op_timeouts{transport=softnic}\n"
                "cm.rma.reads{transport=softnic}\n"
                "cm.rma.scars{transport=softnic}\n"
                "cm.rma.target_nic_ns{transport=softnic}\n"
                "cm.rma.vector_entries{transport=softnic}\n"
                "cm.rma.vector_reads{transport=softnic}\n"
                "cm.rma.vector_scars{transport=softnic}\n");
    } else {
      // Hardware offers no SCAR and no messaging: no such counters.
      EXPECT_EQ(names,
                "cm.rma.corrupt_deliveries{transport=hw}\n"
                "cm.rma.failed_ops{transport=hw}\n"
                "cm.rma.hw_timestamps_ns{transport=hw}\n"
                "cm.rma.initiator_nic_ns{transport=hw}\n"
                "cm.rma.op_timeouts{transport=hw}\n"
                "cm.rma.reads{transport=hw}\n"
                "cm.rma.target_nic_ns{transport=hw}\n"
                "cm.rma.vector_entries{transport=hw}\n"
                "cm.rma.vector_reads{transport=hw}\n");
    }
  }
}

}  // namespace
}  // namespace cm::rma
