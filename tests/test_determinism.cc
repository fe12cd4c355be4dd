// Scheduler/buffer A/B determinism pin.
//
// The hot-path overhaul (calendar-queue scheduler + zero-copy BufferViews)
// promises ZERO behavioral diff: the (t, seq) event total order and every
// RNG draw sequence must be bit-identical to the seed implementation. This
// suite pins that promise to constants: one chaos seed and one resharding
// seed were run under the PRE-overhaul scheduler (binary heap of
// std::function, commit 2e72a17) and their fault-trace FNV-1a fingerprints,
// span fingerprints, event counts, and final Stats() snapshots recorded
// below. The same scenarios must reproduce them exactly, forever.
//
// If this test fails after a scheduler or buffer change, the change
// reordered events or moved an RNG draw — that is a correctness bug even if
// every other test passes.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cliquemap/cell.h"
#include "cliquemap/resharder.h"

namespace cm::cliquemap {
namespace {

constexpr int kKeys = 16;
constexpr int kClients = 2;
constexpr int kOpsPerClient = 120;
constexpr size_t kValueBytes = 256;

std::string KeyName(int k) { return "det-" + std::to_string(k); }

template <typename T>
T Await(sim::Simulator& sim, sim::Task<T> task) {
  auto out = std::make_shared<std::optional<T>>();
  sim.Spawn([](sim::Task<T> t,
               std::shared_ptr<std::optional<T>> out) -> sim::Task<void> {
    *out = co_await std::move(t);
  }(std::move(task), out));
  while (!out->has_value() && !sim.empty()) sim.RunSteps(256);
  EXPECT_TRUE(out->has_value()) << "op did not complete";
  return **out;
}

// Everything the scenario pins. All fields are pure functions of the seed
// under a correct scheduler.
struct Capture {
  uint64_t fault_fingerprint = 0;
  int64_t fault_trace_events = 0;
  uint64_t span_fingerprint = 0;
  int64_t spans_completed = 0;
  uint64_t sim_events = 0;
  int64_t final_now = 0;
  int64_t gets = 0;
  int64_t hits = 0;
  int64_t sets = 0;
  int64_t retries = 0;
  int64_t torn_reads = 0;
  int64_t rma_reads = 0;
  int64_t rma_scars = 0;
  int64_t sets_applied = 0;
  int64_t repairs_issued = 0;

  void Print(const char* label) const {
    std::printf(
        "%s: fault_fp=0x%llxull events=%lld span_fp=0x%llxull spans=%lld\n"
        "  sim_events=%llu final_now=%lld gets=%lld hits=%lld sets=%lld\n"
        "  retries=%lld torn=%lld rma_reads=%lld scars=%lld applied=%lld "
        "repairs=%lld\n",
        label, (unsigned long long)fault_fingerprint,
        (long long)fault_trace_events, (unsigned long long)span_fingerprint,
        (long long)spans_completed, (unsigned long long)sim_events,
        (long long)final_now, (long long)gets, (long long)hits,
        (long long)sets, (long long)retries, (long long)torn_reads,
        (long long)rma_reads, (long long)rma_scars, (long long)sets_applied,
        (long long)repairs_issued);
  }
};

void ExpectEqual(const Capture& got, const Capture& want) {
  EXPECT_EQ(got.fault_fingerprint, want.fault_fingerprint);
  EXPECT_EQ(got.fault_trace_events, want.fault_trace_events);
  EXPECT_EQ(got.span_fingerprint, want.span_fingerprint);
  EXPECT_EQ(got.spans_completed, want.spans_completed);
  EXPECT_EQ(got.sim_events, want.sim_events);
  EXPECT_EQ(got.final_now, want.final_now);
  EXPECT_EQ(got.gets, want.gets);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.sets, want.sets);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.torn_reads, want.torn_reads);
  EXPECT_EQ(got.rma_reads, want.rma_reads);
  EXPECT_EQ(got.rma_scars, want.rma_scars);
  EXPECT_EQ(got.sets_applied, want.sets_applied);
  EXPECT_EQ(got.repairs_issued, want.repairs_issued);
}

// Deterministic mixed GET/SET traffic (no invariant checking here — the
// chaos/resharding suites own that; this scenario only has to be a fixed
// function of the seed).
sim::Task<void> Traffic(sim::Simulator& sim, Client* client, uint64_t seed,
                        std::shared_ptr<sim::Notification> loaded,
                        std::shared_ptr<int> done) {
  (void)co_await client->Connect();
  co_await loaded->Wait();
  Rng rng(seed);
  for (int op = 0; op < kOpsPerClient; ++op) {
    co_await sim.Delay(sim::Microseconds(int64_t(50 + rng.NextBounded(900))));
    const int k = int(rng.NextBounded(kKeys));
    if (rng.NextBool(0.6)) {
      (void)co_await client->Get(KeyName(k));
    } else {
      const auto fill = std::byte(uint8_t(1 + rng.NextBounded(250)));
      (void)co_await client->Set(KeyName(k), Bytes(kValueBytes, fill));
    }
  }
  ++*done;
}

void FillFrom(Capture& cap, sim::Simulator& sim, Cell& cell,
              const std::vector<Client*>& clients) {
  cap.fault_fingerprint = cell.fabric().faults()->trace_fingerprint();
  cap.fault_trace_events = cell.fabric().faults()->trace_events();
  cap.span_fingerprint = cell.tracer().fingerprint();
  cap.spans_completed = cell.tracer().spans_completed();
  cap.sim_events = sim.events_processed();
  cap.final_now = sim.now();
  for (const Client* c : clients) {
    cap.gets += c->stats().gets;
    cap.hits += c->stats().hits;
    cap.sets += c->stats().sets;
    cap.retries += c->stats().retries;
    cap.torn_reads += c->stats().torn_reads;
  }
  cap.rma_reads = cell.transport()->stats().reads;
  cap.rma_scars = cell.transport()->stats().scars;
  BackendStats b = cell.AggregateBackendStats();
  cap.sets_applied = b.sets_applied;
  cap.repairs_issued = b.repairs_issued;
}

Capture RunChaosScenario(uint64_t seed) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 6;
  o.mode = ReplicationMode::kR32;
  o.seed = seed;
  o.backend.initial_buckets = 128;
  Cell cell(sim, std::move(o));
  cell.Start();
  cell.tracer().Enable(true);

  auto plan = std::make_shared<net::FaultPlan>(seed);
  net::LinkFaultRates rates;
  rates.drop = 0.01;
  rates.corrupt = 0.005;
  rates.duplicate = 0.005;
  rates.delay = 0.03;
  rates.delay_mean = sim::Microseconds(60);
  plan->SetDefaultRates(rates);
  plan->SetActiveWindow(sim::Milliseconds(10), sim::Milliseconds(120));
  plan->AddPartition(1, 2, sim::Milliseconds(30), sim::Milliseconds(80));
  plan->AddHostPause(3, sim::Milliseconds(50), sim::Milliseconds(2));
  plan->ScheduleCrash(1, sim::Milliseconds(60), sim::Milliseconds(20));
  cell.fabric().InstallFaults(plan);

  std::vector<Client*> clients;
  for (int c = 0; c < kClients; ++c) {
    ClientConfig cc;
    cc.client_id = uint32_t(c + 1);
    clients.push_back(cell.AddClient(cc));
  }

  auto loaded = std::make_shared<sim::Notification>(sim);
  sim.Spawn([](Client* client,
               std::shared_ptr<sim::Notification> loaded) -> sim::Task<void> {
    (void)co_await client->Connect();
    for (int k = 0; k < kKeys; ++k) {
      Status s = co_await client->Set(KeyName(k),
                                      Bytes(kValueBytes, std::byte{0x11}));
      EXPECT_TRUE(s.ok()) << "preload " << k << ": " << s.ToString();
    }
    loaded->Notify();
  }(clients[0], loaded));

  auto done = std::make_shared<int>(0);
  for (int c = 0; c < kClients; ++c) {
    sim.Spawn(Traffic(sim, clients[c], seed + uint64_t(c) * 7919, loaded,
                      done));
  }
  while (*done < kClients && !sim.empty()) sim.RunSteps(1024);
  EXPECT_EQ(*done, kClients);
  // Fixed quiesce horizon: lets repair scans drain so backend counters and
  // the span fingerprint cover the post-fault convergence phase too.
  sim.RunUntil(sim::Milliseconds(400));

  Capture cap;
  FillFrom(cap, sim, cell, clients);
  return cap;
}

Capture RunReshardScenario(uint64_t seed) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 3;
  o.mode = ReplicationMode::kR1;
  o.seed = seed;
  o.backend.initial_buckets = 64;
  o.backend.data_initial_bytes = 256 * 1024;
  o.backend.data_max_bytes = 8 * 1024 * 1024;
  Cell cell(sim, std::move(o));
  cell.Start();
  cell.tracer().Enable(true);

  auto plan = std::make_shared<net::FaultPlan>(seed);
  net::LinkFaultRates rates;
  rates.drop = 0.004;
  rates.delay = 0.02;
  rates.delay_mean = sim::Microseconds(40);
  plan->SetDefaultRates(rates);
  plan->SetActiveWindow(sim::Milliseconds(5), sim::Milliseconds(300));
  cell.fabric().InstallFaults(plan);

  ResharderOptions ro;
  ro.batch_bytes = 4 * 1024;
  ro.release_linger = sim::Milliseconds(10);
  Resharder resharder(cell, ro);

  std::vector<Client*> clients;
  for (int c = 0; c < kClients; ++c) {
    ClientConfig cc;
    cc.client_id = uint32_t(c + 1);
    clients.push_back(cell.AddClient(cc));
  }

  auto loaded = std::make_shared<sim::Notification>(sim);
  sim.Spawn([](Client* client,
               std::shared_ptr<sim::Notification> loaded) -> sim::Task<void> {
    (void)co_await client->Connect();
    for (int k = 0; k < kKeys; ++k) {
      Status s = co_await client->Set(KeyName(k),
                                      Bytes(kValueBytes, std::byte{0x22}));
      EXPECT_TRUE(s.ok()) << "preload " << k << ": " << s.ToString();
    }
    loaded->Notify();
  }(clients[0], loaded));

  auto done = std::make_shared<int>(0);
  for (int c = 0; c < kClients; ++c) {
    sim.Spawn(Traffic(sim, clients[c], seed + uint64_t(c) * 104729, loaded,
                      done));
  }

  // The elastic timeline rides under the traffic: grow, up-replicate,
  // replace a backend.
  auto timeline_done = std::make_shared<int>(0);
  sim.Spawn([](sim::Simulator& sim, Resharder& r,
               std::shared_ptr<sim::Notification> loaded,
               std::shared_ptr<int> done) -> sim::Task<void> {
    co_await loaded->Wait();
    Status s = co_await r.Resize(4);
    EXPECT_TRUE(s.ok()) << "resize: " << s.ToString();
    s = co_await r.SetReplication(ReplicationMode::kR32);
    EXPECT_TRUE(s.ok()) << "set-replication: " << s.ToString();
    s = co_await r.ReplaceBackend(1);
    EXPECT_TRUE(s.ok()) << "replace: " << s.ToString();
    ++*done;
  }(sim, resharder, loaded, timeline_done));

  while ((*done < kClients || *timeline_done < 1) && !sim.empty()) {
    sim.RunSteps(1024);
  }
  EXPECT_EQ(*done, kClients);
  EXPECT_EQ(*timeline_done, 1);
  sim.RunUntil(sim::Milliseconds(500));

  Capture cap;
  FillFrom(cap, sim, cell, clients);
  cap.repairs_issued += resharder.stats().records_streamed;  // fold in
  return cap;
}

// ---------------------------------------------------------------------------
// Read-path pins. The two scenarios above only drive single-key GET/SET over
// SCAR with speculation, 2xR data fetches, hedges, ejection and degraded
// reads all idle. These cells exercise every client read stage under chaos:
// single-key Gets (some forced onto 2xR) mixed with batched MultiGets of
// 2-8 keys, with speculation, hedged reads, slow-replica ejection and
// degraded reads all on, and one backend erratically slow for long enough
// to fire hedges and ejections.
// ---------------------------------------------------------------------------

// Only the first kReadPreloaded keys are preloaded: reads of the rest miss,
// and Sets that insert them grow each backend's one-bucket index mid-run,
// revoking the old index window under in-flight reads.
constexpr int kReadKeys = 48;
constexpr int kReadPreloaded = 16;
constexpr int kReadClients = 3;
constexpr int kReadOpsPerClient = 160;

struct ReadPathCapture {
  Capture base;
  int64_t multigets = 0;
  int64_t batch_slowpath_keys = 0;
  int64_t loccache_speculative_reads = 0;
  int64_t hedged_reads = 0;
  int64_t slow_ejections = 0;
  int64_t degraded_attempts = 0;
  int64_t window_errors = 0;
  int64_t op_timeouts = 0;

  void Print(const char* label) const {
    base.Print(label);
    std::printf(
        "  multigets=%lld slowpath=%lld spec_reads=%lld hedged=%lld "
        "ejections=%lld degraded=%lld window_errors=%lld op_timeouts=%lld\n",
        (long long)multigets, (long long)batch_slowpath_keys,
        (long long)loccache_speculative_reads, (long long)hedged_reads,
        (long long)slow_ejections, (long long)degraded_attempts,
        (long long)window_errors, (long long)op_timeouts);
  }

  // The read-path counters this pin exists for, each named for messages.
  std::vector<std::pair<const char*, int64_t>> ReadCounters() const {
    return {{"multigets", multigets},
            {"batch_slowpath_keys", batch_slowpath_keys},
            {"loccache_speculative_reads", loccache_speculative_reads},
            {"hedged_reads", hedged_reads},
            {"slow_ejections", slow_ejections},
            {"degraded_attempts", degraded_attempts},
            {"window_errors", window_errors},
            {"op_timeouts", op_timeouts}};
  }
};

void ExpectEqual(const ReadPathCapture& got, const ReadPathCapture& want) {
  ExpectEqual(got.base, want.base);
  const auto g = got.ReadCounters();
  const auto w = want.ReadCounters();
  for (size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g[i].second, w[i].second) << g[i].first;
  }
}

sim::Task<void> ReadTraffic(sim::Simulator& sim, Client* client,
                            uint64_t seed,
                            std::shared_ptr<sim::Notification> loaded,
                            std::shared_ptr<int> done) {
  (void)co_await client->Connect();
  co_await loaded->Wait();
  Rng rng(seed);
  for (int op = 0; op < kReadOpsPerClient; ++op) {
    co_await sim.Delay(sim::Microseconds(int64_t(50 + rng.NextBounded(600))));
    const double dice = rng.NextDouble();
    if (dice < 0.45) {
      GetOptions opts;
      // A quarter of the single-key Gets take 2xR even on a SCAR cell, so
      // both cells run the speculative data fetch and its hedge.
      if (rng.NextBool(0.25)) opts.strategy = LookupStrategy::kTwoR;
      (void)co_await client->Get(KeyName(int(rng.NextBounded(kReadKeys))),
                                 opts);
    } else if (dice < 0.75) {
      const int n = 2 + int(rng.NextBounded(7));
      std::vector<std::string> keys;
      for (int i = 0; i < n; ++i) {
        keys.push_back(KeyName(int(rng.NextBounded(kReadKeys))));
      }
      (void)co_await client->MultiGet(std::move(keys));
    } else {
      const auto fill = std::byte(uint8_t(1 + rng.NextBounded(250)));
      (void)co_await client->Set(KeyName(int(rng.NextBounded(kReadKeys))),
                                 Bytes(kValueBytes, fill));
    }
  }
  ++*done;
}

ReadPathCapture RunReadPathScenario(TransportKind transport, uint64_t seed) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 6;
  o.mode = ReplicationMode::kR32;
  o.transport = transport;
  o.seed = seed;
  o.backend.initial_buckets = 1;
  Cell cell(sim, std::move(o));
  cell.Start();
  cell.tracer().Enable(true);

  auto plan = std::make_shared<net::FaultPlan>(seed);
  net::LinkFaultRates rates;
  rates.drop = 0.01;
  rates.corrupt = 0.005;
  rates.duplicate = 0.005;
  rates.delay = 0.03;
  rates.delay_mean = sim::Microseconds(60);
  plan->SetDefaultRates(rates);
  // The delay episode: half of backend 0's messages stall ~2 ms, far past
  // hedge_delay, so hedges fire and its EWMA becomes an outlier.
  net::LinkFaultRates slow = rates;
  slow.delay = 0.5;
  slow.delay_mean = sim::Milliseconds(2);
  plan->SetHostRates(cell.backend(0).host(), slow);
  plan->SetActiveWindow(sim::Milliseconds(10), sim::Milliseconds(120));
  plan->AddPartition(1, 2, sim::Milliseconds(30), sim::Milliseconds(80));
  plan->AddHostPause(3, sim::Milliseconds(50), sim::Milliseconds(2));
  plan->ScheduleCrash(1, sim::Milliseconds(60), sim::Milliseconds(20));
  cell.fabric().InstallFaults(plan);
  for (const net::CrashEvent& ev : plan->crash_schedule()) {
    sim.Spawn([](sim::Simulator& sim, Cell* cell,
                 net::CrashEvent ev) -> sim::Task<void> {
      co_await sim.WaitUntil(ev.at);
      (void)co_await cell->CrashAndRestart(ev.shard, ev.downtime);
    }(sim, &cell, ev));
  }

  std::vector<Client*> clients;
  for (int c = 0; c < kReadClients; ++c) {
    ClientConfig cc;
    cc.client_id = uint32_t(c + 1);
    cc.hedge_reads = true;
    cc.hedge_delay = sim::Microseconds(40);
    cc.eject_slow_replicas = true;
    cc.degraded_reads = true;
    cc.loccache_ttl = sim::Milliseconds(5);
    clients.push_back(cell.AddClient(cc));
  }

  auto loaded = std::make_shared<sim::Notification>(sim);
  sim.Spawn([](Client* client,
               std::shared_ptr<sim::Notification> loaded) -> sim::Task<void> {
    (void)co_await client->Connect();
    for (int k = 0; k < kReadPreloaded; ++k) {
      (void)co_await client->Set(KeyName(k),
                                 Bytes(kValueBytes, std::byte{0x33}));
    }
    loaded->Notify();
  }(clients[0], loaded));

  auto done = std::make_shared<int>(0);
  for (int c = 0; c < kReadClients; ++c) {
    sim.Spawn(ReadTraffic(sim, clients[size_t(c)],
                          seed + uint64_t(c) * 6151, loaded, done));
  }
  while (*done < kReadClients && !sim.empty()) sim.RunSteps(1024);
  EXPECT_EQ(*done, kReadClients);
  sim.RunUntil(sim::Milliseconds(400));

  ReadPathCapture cap;
  FillFrom(cap.base, sim, cell, clients);
  for (const Client* c : clients) {
    const ClientStats& s = c->stats();
    cap.multigets += s.multigets;
    cap.batch_slowpath_keys += s.batch_slowpath_keys;
    cap.loccache_speculative_reads += s.loccache_speculative_reads;
    cap.hedged_reads += s.hedged_reads;
    cap.slow_ejections += s.slow_ejections;
    cap.degraded_attempts += s.degraded_attempts;
    cap.window_errors += s.window_errors;
    cap.op_timeouts += s.op_timeouts;
  }
  return cap;
}

// --- Recorded under the pre-overhaul scheduler (commit 2e72a17). ---------
// To re-record after an *intentional* behavior change (never for a
// scheduler/buffer refactor!), run with --gtest_also_run_disabled_tests
// and copy the printed capture lines.

TEST(DeterminismAB, ChaosSeedMatchesSeedScheduler) {
  Capture got = RunChaosScenario(0xC11Eu);
  got.Print("chaos");
  Capture want;
  want.fault_fingerprint = 0xc6acc4980426d5ffull;
  want.fault_trace_events = 52;
  want.span_fingerprint = 0xebab1043817f54ffull;
  want.spans_completed = 5012;
  want.sim_events = 9786;
  want.final_now = 400000000;
  want.gets = 134;
  want.hits = 134;
  want.sets = 122;
  want.retries = 0;
  want.torn_reads = 0;
  want.rma_reads = 0;
  want.rma_scars = 402;
  want.sets_applied = 362;
  want.repairs_issued = 0;
  ExpectEqual(got, want);
}

TEST(DeterminismAB, ReshardSeedMatchesSeedScheduler) {
  Capture got = RunReshardScenario(0x5EEDu);
  got.Print("reshard");
  Capture want;
  want.fault_fingerprint = 0xf13cadf5e4e7ad08ull;
  want.fault_trace_events = 28;
  want.span_fingerprint = 0x2b69b8a2f7db6365ull;
  want.spans_completed = 4983;
  want.sim_events = 10231;
  want.final_now = 1016507542;
  want.gets = 147;
  want.hits = 147;
  want.sets = 109;
  want.retries = 3;
  want.torn_reads = 0;
  want.rma_reads = 0;
  want.rma_scars = 439;
  want.sets_applied = 354;
  want.repairs_issued = 47;
  ExpectEqual(got, want);
}

// --- Read-path pins, recorded before the client's read steps were merged
// into shared helpers, again once Get's config refresh was bounded by the
// op's remaining deadline, and (SCAR cell) once the connect handshake was
// too. Any refactor of the read path must leave them untouched. ------------

ReadPathCapture WantReadPathHwRma() {
  ReadPathCapture want;
  want.base.fault_fingerprint = 0x7c90a8bc977c8832ull;
  want.base.fault_trace_events = 207;
  want.base.span_fingerprint = 0x4de219717384c2c6ull;
  want.base.spans_completed = 14199;
  want.base.sim_events = 27718;
  want.base.final_now = 400000000;
  want.base.gets = 946;
  want.base.hits = 679;
  want.base.sets = 133;
  want.base.retries = 41;
  want.base.torn_reads = 11;
  want.base.rma_reads = 799;
  want.base.rma_scars = 0;
  want.base.sets_applied = 410;
  want.base.repairs_issued = 20;
  want.multigets = 154;
  want.batch_slowpath_keys = 23;
  want.loccache_speculative_reads = 166;
  want.hedged_reads = 5;
  want.slow_ejections = 112;
  want.degraded_attempts = 5;
  want.window_errors = 42;
  want.op_timeouts = 30;
  return want;
}

ReadPathCapture WantReadPathSoftNic() {
  ReadPathCapture want;
  want.base.fault_fingerprint = 0xc29b2a7fd245a91cull;
  want.base.fault_trace_events = 192;
  want.base.span_fingerprint = 0x60e66e6874980e1cull;
  want.base.spans_completed = 10970;
  want.base.sim_events = 23264;
  want.base.final_now = 400000000;
  want.base.gets = 887;
  want.base.hits = 575;
  want.base.sets = 137;
  want.base.retries = 24;
  want.base.torn_reads = 8;
  want.base.rma_reads = 172;
  want.base.rma_scars = 444;
  want.base.sets_applied = 419;
  want.base.repairs_issued = 17;
  want.multigets = 142;
  want.batch_slowpath_keys = 17;
  want.loccache_speculative_reads = 152;
  want.hedged_reads = 1;
  want.slow_ejections = 77;
  want.degraded_attempts = 6;
  want.window_errors = 49;
  want.op_timeouts = 8;
  return want;
}

// A pinned counter of 0 would pass against code that never reaches that
// stage; every read-path counter must be exercised by its scenario.
TEST(DeterminismReadPath, PinsExerciseEveryReadStage) {
  for (const ReadPathCapture& want :
       {WantReadPathHwRma(), WantReadPathSoftNic()}) {
    for (const auto& [name, value] : want.ReadCounters()) {
      EXPECT_GT(value, 0) << name;
    }
  }
}

TEST(DeterminismReadPath, TwoRCellMatchesPin) {
  ReadPathCapture got = RunReadPathScenario(TransportKind::kOneRma, 0x2E4Du);
  got.Print("read-2xr");
  ExpectEqual(got, WantReadPathHwRma());
}

TEST(DeterminismReadPath, ScarCellMatchesPin) {
  ReadPathCapture got = RunReadPathScenario(TransportKind::kSoftNic, 0x5CA2u);
  got.Print("read-scar");
  ExpectEqual(got, WantReadPathSoftNic());
}

// Same-process replay stability: the scenario is a pure function of its
// seed regardless of allocator / pool state left over from prior runs.
TEST(DeterminismAB, ChaosScenarioReplaysIdentically) {
  Capture a = RunChaosScenario(0xAB1Eu);
  Capture b = RunChaosScenario(0xAB1Eu);
  ExpectEqual(a, b);
}

}  // namespace
}  // namespace cm::cliquemap
