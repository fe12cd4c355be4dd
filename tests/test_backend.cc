// Backend-focused tests: reshaping, eviction, tombstone semantics, data
// growth, overflow fallback — driven through real cells.
#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>

#include "cliquemap/cell.h"

namespace cm::cliquemap {
namespace {

template <typename T>
T RunOp(sim::Simulator& sim, sim::Task<T> task) {
  auto out = std::make_shared<std::optional<T>>();
  sim.Spawn([](sim::Task<T> t,
               std::shared_ptr<std::optional<T>> out) -> sim::Task<void> {
    *out = co_await std::move(t);
  }(std::move(task), out));
  sim.Run();
  EXPECT_TRUE(out->has_value());
  return **out;
}

CellOptions TinyCell() {
  CellOptions o;
  o.num_shards = 1;
  o.mode = ReplicationMode::kR1;
  o.backend.initial_buckets = 8;  // tiny: easy to fill / resize
  o.backend.ways = 4;
  o.backend.data_initial_bytes = 128 * 1024;
  o.backend.data_max_bytes = 4 * 1024 * 1024;
  return o;
}

struct BackendFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<Cell> cell;
  Client* client = nullptr;

  void Init(CellOptions o) {
    cell = std::make_unique<Cell>(sim, std::move(o));
    cell->Start();
    client = cell->AddClient();
    ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  }

  Status Set(const std::string& k, size_t bytes) {
    return RunOp(sim, client->Set(k, Bytes(bytes, std::byte{0x5A})));
  }
  StatusOr<GetResult> Get(const std::string& k) {
    return RunOp(sim, client->Get(k));
  }

  // Backend 0's first data window, as its Info handshake reports it.
  rma::RegionId FirstDataRegion() {
    rpc::RpcChannel ch(cell->rpc_network(), client->host(),
                       cell->backend(0).host());
    auto resp =
        RunOp(sim, ch.Call(proto::kMethodInfo, {}, sim::Milliseconds(10)));
    EXPECT_TRUE(resp.ok());
    if (!resp.ok()) return rma::kInvalidRegion;
    auto region = rpc::WireReader(*resp).GetU32(proto::kTagDataRegion);
    EXPECT_TRUE(region.has_value());
    return region.value_or(rma::kInvalidRegion);
  }
};

// Resident memory of this process, from /proc/self/statm.
int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

Bytes PatternValue(int i, size_t bytes) {
  Bytes v(bytes);
  for (size_t j = 0; j < bytes; ++j) {
    v[j] = static_cast<std::byte>((size_t(i) * 131 + j) & 0xff);
  }
  return v;
}

TEST_F(BackendFixture, IndexResizeTriggersAndKeysSurvive) {
  Init(TinyCell());
  Backend& b = cell->backend(0);
  const uint64_t buckets_before = b.num_buckets();
  // 8 buckets x 4 ways x 0.75 = 24 entries trigger a resize.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(Set("grow-" + std::to_string(i), 64).ok()) << i;
  }
  sim.Run();
  EXPECT_GT(b.num_buckets(), buckets_before);
  EXPECT_GE(b.stats().index_resizes, 1);
  // Conservation: every inserted key is either resident or was evicted by
  // an associativity conflict (tiny 4-way buckets overflow before the
  // resize catches up — the conflict upsizing exists to make rare, §4.2).
  EXPECT_EQ(static_cast<int64_t>(b.live_entries()) +
                b.stats().evictions_assoc + b.stats().evictions_capacity,
            64);
  // Every key still resident after re-placement must remain RMA-readable
  // (clients re-handshake transparently after the window revocation).
  int resident = 0;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "grow-" + std::to_string(i);
    if (!b.LookupVersion(key).has_value()) continue;
    ++resident;
    auto got = Get(key);
    ASSERT_TRUE(got.ok()) << i << " " << got.status().ToString();
  }
  EXPECT_EQ(resident, static_cast<int>(b.live_entries()));
  EXPECT_GT(resident, 40);  // most keys survive
}

TEST_F(BackendFixture, DataRegionGrowsOnDemand) {
  CellOptions o = TinyCell();
  o.backend.initial_buckets = 256;  // no index pressure: isolate data growth
  Init(std::move(o));
  Backend& b = cell->backend(0);
  const uint64_t populated_before = b.data_populated();
  // Write well past the initial 128KB data region.
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(Set("big-" + std::to_string(i), 8 * 1024).ok()) << i;
  }
  sim.Run();
  EXPECT_GT(b.data_populated(), populated_before);
  EXPECT_GE(b.stats().data_grows, 1);
  // Old windows remain live: entries written before the growth still read.
  for (int i = 0; i < 80; ++i) {
    EXPECT_TRUE(Get("big-" + std::to_string(i)).ok()) << i;
  }
}

// The data region is reserved, not allocated: populating all of it costs
// address space, and memory only where a DataEntry is written.
TEST(DataPool, PopulatedButUnwrittenRegionIsNotResident) {
  sim::Simulator sim;
  CellOptions o = TinyCell();
  o.backend.data_initial_bytes = 256ull << 20;
  o.backend.data_max_bytes = 256ull << 20;
  Cell cell(sim, std::move(o));
  const int64_t before = ResidentBytes();
  cell.Start();
  const int64_t grown = ResidentBytes() - before;
  EXPECT_EQ(cell.backend(0).data_populated(), 256ull << 20);
  EXPECT_LT(grown, int64_t{32} << 20);
}

// Memory a destroyed backend wrote never shows through a later backend's
// window: a populated offset that holds no DataEntry reads as zeros.
TEST_F(BackendFixture, UnwrittenDataReadsZeroAfterEarlierCell) {
  {
    sim::Simulator first_sim;
    Cell first(first_sim, TinyCell());
    first.Start();
    Client* writer = first.AddClient();
    ASSERT_TRUE(RunOp(first_sim, writer->Connect()).ok());
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(RunOp(first_sim, writer->Set("old-" + std::to_string(i),
                                               Bytes(8 * 1024,
                                                     std::byte{0x5A})))
                      .ok());
    }
  }
  Init(TinyCell());
  ASSERT_EQ(cell->backend(0).stats().data_grows, 0);  // one data window
  const rma::RegionId region = FirstDataRegion();
  const uint64_t populated = cell->backend(0).data_populated();
  ASSERT_GT(populated, 0u);
  constexpr uint32_t kStep = 4096;
  for (uint64_t off = 0; off + kStep <= populated; off += kStep) {
    auto got = RunOp(sim, cell->transport()->Read(client->host(),
                                                  cell->backend(0).host(),
                                                  region, off, kStep));
    ASSERT_TRUE(got.ok()) << off << " " << got.status().ToString();
    ASSERT_EQ(*got, Bytes(kStep)) << "non-zero bytes at offset " << off;
  }
}

TEST_F(BackendFixture, EntriesReadBackIdenticalAfterDataGrow) {
  CellOptions o = TinyCell();
  o.backend.initial_buckets = 256;  // no index pressure: isolate data growth
  Init(std::move(o));
  Backend& b = cell->backend(0);
  const uint64_t populated_before = b.data_populated();
  constexpr size_t kValueBytes = 6 * 1024;
  // Write until the first grow has run; every key so far was allocated in
  // the initial populated prefix.
  int written = 0;
  while (b.stats().data_grows == 0) {
    ASSERT_LT(written, 64);
    ASSERT_TRUE(RunOp(sim, client->Set("pre-" + std::to_string(written),
                                       PatternValue(written, kValueBytes)))
                    .ok());
    ++written;
  }
  sim.Run();
  ASSERT_GT(b.data_populated(), populated_before);
  for (int i = 0; i < written; ++i) {
    auto got = Get("pre-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i << " " << got.status().ToString();
    EXPECT_EQ(got->value, PatternValue(i, kValueBytes)) << i;
  }
}

TEST_F(BackendFixture, CapacityEvictionWhenPoolMaxed) {
  CellOptions o = TinyCell();
  o.backend.data_initial_bytes = 128 * 1024;
  o.backend.data_max_bytes = 256 * 1024;  // hard cap: must evict
  o.backend.initial_buckets = 256;        // plenty of index space
  Init(std::move(o));
  Backend& b = cell->backend(0);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(Set("cap-" + std::to_string(i), 4 * 1024).ok()) << i;
  }
  EXPECT_GT(b.stats().evictions_capacity, 0);
  // Recent keys resident, oldest evicted (LRU default).
  EXPECT_TRUE(Get("cap-119").ok());
  EXPECT_EQ(Get("cap-0").status().code(), StatusCode::kNotFound);
}

TEST_F(BackendFixture, AssociativityEvictionOnFullBucket) {
  CellOptions o = TinyCell();
  o.backend.initial_buckets = 1;  // everything collides into one bucket
  o.backend.ways = 4;
  o.backend.index_load_limit = 10.0;  // never resize: force the conflict
  Init(std::move(o));
  Backend& b = cell->backend(0);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(Set("assoc-" + std::to_string(i), 64).ok()) << i;
  }
  EXPECT_GT(b.stats().evictions_assoc, 0);
  EXPECT_LE(b.live_entries(), 4u);
}

TEST_F(BackendFixture, OverflowRpcFallbackServesHit) {
  CellOptions o = TinyCell();
  o.backend.initial_buckets = 1;
  o.backend.ways = 2;
  o.backend.index_load_limit = 10.0;
  o.backend.rpc_fallback_on_overflow = true;  // §4.2 optional fallback
  Init(std::move(o));
  Backend& b = cell->backend(0);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(Set("ovf-" + std::to_string(i), 64).ok()) << i;
  }
  EXPECT_GT(b.stats().overflow_inserts, 0);
  const int64_t rpc_gets_before = b.stats().rpc_gets;
  // Every key is still a hit: RMA for residents, RPC for overflowed.
  for (int i = 0; i < 6; ++i) {
    auto got = Get("ovf-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i << " " << got.status().ToString();
  }
  EXPECT_GT(b.stats().rpc_gets, rpc_gets_before);
  EXPECT_GT(client->stats().rpc_fallback_gets, 0);
}

TEST_F(BackendFixture, StaleVersionSetRejected) {
  Init(TinyCell());
  // Two clients; the second's clock/sequence yields higher versions over
  // time. Simulate staleness by applying a direct InstallBulk with an old
  // version.
  ASSERT_TRUE(Set("vkey", 64).ok());
  auto v1 = cell->backend(0).LookupVersion("vkey");
  ASSERT_TRUE(v1.has_value());

  // A direct RPC SET with version below the stored one must be rejected.
  rpc::WireWriter w;
  w.PutString(proto::kTagKey, "vkey");
  w.PutBytes(proto::kTagValue, ToBytes("stale"));
  proto::PutVersion(w, VersionNumber{v1->tt_micros - 1, 0, 0});
  rpc::RpcChannel ch(cell->rpc_network(), client->host(),
                     cell->backend(0).host());
  auto resp = RunOp(sim, ch.Call(proto::kMethodSet, std::move(w).Take(),
                                 sim::Milliseconds(10)));
  ASSERT_TRUE(resp.ok());
  rpc::WireReader r(*resp);
  EXPECT_EQ(r.GetU32(proto::kTagApplied), 0u);  // not applied
  EXPECT_EQ(cell->backend(0).LookupVersion("vkey"), v1);  // unchanged
}

TEST_F(BackendFixture, TombstoneBlocksLateSet) {
  Init(TinyCell());
  ASSERT_TRUE(Set("late", 64).ok());
  auto v = cell->backend(0).LookupVersion("late");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(RunOp(sim, client->Erase("late")).ok());

  // Late-arriving SET below the erase version: must not resurrect (§5.2).
  rpc::WireWriter w;
  w.PutString(proto::kTagKey, "late");
  w.PutBytes(proto::kTagValue, ToBytes("zombie"));
  proto::PutVersion(w, *v);  // the old (pre-erase) version
  rpc::RpcChannel ch(cell->rpc_network(), client->host(),
                     cell->backend(0).host());
  auto resp = RunOp(sim, ch.Call(proto::kMethodSet, std::move(w).Take(),
                                 sim::Milliseconds(10)));
  ASSERT_TRUE(resp.ok());
  rpc::WireReader r(*resp);
  EXPECT_EQ(r.GetU32(proto::kTagApplied), 0u);
  EXPECT_EQ(Get("late").status().code(), StatusCode::kNotFound);
}

TEST_F(BackendFixture, TouchRpcFeedsEvictionPolicy) {
  CellOptions o = TinyCell();
  o.backend.data_initial_bytes = 128 * 1024;
  o.backend.data_max_bytes = 256 * 1024;
  o.backend.initial_buckets = 256;
  Init(std::move(o));
  Backend& b = cell->backend(0);
  // Fill to ~half of the pool's chunk capacity; then keep touching key 0
  // so it survives later evictions.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(Set("touch-" + std::to_string(i), 2 * 1024).ok());
  }
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(Get("touch-0").ok());
    RunOp(sim, [](Client* c) -> sim::Task<Status> {
      co_await c->FlushTouches();
      co_return OkStatus();
    }(client));
  }
  EXPECT_GT(b.stats().touches_ingested, 0);
  // Now force some evictions (fewer than the pool holds): the repeatedly
  // touched key must survive while untouched contemporaries are the LRU
  // victims.
  const int64_t evictions_before = b.stats().evictions_capacity;
  for (int i = 100; i < 180; ++i) {
    ASSERT_TRUE(Set("touch-" + std::to_string(i), 2 * 1024).ok());
  }
  ASSERT_GT(b.stats().evictions_capacity, evictions_before);
  EXPECT_TRUE(Get("touch-0").ok());
}

TEST_F(BackendFixture, InfoReportsLayout) {
  Init(TinyCell());
  rpc::RpcChannel ch(cell->rpc_network(), client->host(),
                     cell->backend(0).host());
  auto resp = RunOp(sim, ch.Call(proto::kMethodInfo, {}, sim::Milliseconds(10)));
  ASSERT_TRUE(resp.ok());
  rpc::WireReader r(*resp);
  EXPECT_EQ(r.GetU64(proto::kTagNumBuckets), cell->backend(0).num_buckets());
  EXPECT_EQ(r.GetU32(proto::kTagWays), 4u);
  EXPECT_EQ(r.GetU32(proto::kTagConfigId), cell->backend(0).config_id());
  EXPECT_TRUE(r.GetU32(proto::kTagIndexRegion).has_value());
}

TEST_F(BackendFixture, StoppedBackendRevokesWindows) {
  Init(TinyCell());
  ASSERT_TRUE(Set("k", 64).ok());
  ASSERT_TRUE(Get("k").ok());
  cell->backend(0).Stop();
  auto got = Get("k");
  EXPECT_FALSE(got.ok());
  EXPECT_NE(got.status().code(), StatusCode::kNotFound);
}

TEST_F(BackendFixture, MemoryFootprintTracksLoad) {
  Init(TinyCell());
  const uint64_t empty = cell->backend(0).memory_footprint();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(Set("mem-" + std::to_string(i), 8 * 1024).ok());
  }
  sim.Run();
  EXPECT_GT(cell->backend(0).memory_footprint(), empty);
}

}  // namespace
}  // namespace cm::cliquemap
