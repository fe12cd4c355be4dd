// End-to-end benchmark of a CliqueMap cell.
//
// Deploys a Cell (R=3.2, 6 shards) in one process, preloads it, and plays a
// seeded open-loop op stream from 4 clients. Arrivals are Poisson,
// pre-generated with workload::GenerateOpStream, and each op is spawned at
// its due sim time; latency is timed from that due time. The oracle
// (oracle.h) checks every hit. Metrics come on two clocks: sim time (the
// paper's claims; identical for a given seed) and host wall time (how fast
// the simulator runs). With --trace 1, a traced replay of the stream gives
// the per-layer metrics. README.md lists the workloads, the metric
// definitions and which end-to-end metric each per-layer metric should move.
//
//   cm_perfbench --workload hot-read|ads-batch|write-churn --seed N
//                --seconds S --trace 0|1
//                [--inject flip|alien|rollback] [--qps X] [--measure-ms M]
//
// The last stdout line is one JSON object with the keys correct, attempted,
// failed and metrics. The exit code is non-zero on any failed check.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "cliquemap/cell.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "layers.h"
#include "oracle.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using cm::Bytes;
using cm::Status;
using cm::StatusCode;
using cm::StatusOr;
using cm::cliquemap::Cell;
using cm::cliquemap::CellOptions;
using cm::cliquemap::Client;
using cm::cliquemap::ClientConfig;
using cm::cliquemap::GetResult;
using cm::cliquemap::MultiGetResult;
using cm::cliquemap::TransportKind;
using cm::cliquemap::VersionNumber;
namespace sim = cm::sim;
namespace workload = cm::workload;
using WallClock = std::chrono::steady_clock;

constexpr int kClients = 4;
constexpr uint32_t kShards = 6;
// Open-loop shed gate: an arrival that finds this many of its client's ops
// in flight is dropped and counted as failed.
constexpr int kMaxOutstandingPerClient = 4096;
constexpr uint64_t kPreloadTag = 0;  // WriterTag(0, 0)

int64_t WallNs(WallClock::time_point a, WallClock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads (README.md says why each was chosen)
// ---------------------------------------------------------------------------

struct Spec {
  std::string name;
  TransportKind transport = TransportKind::kSoftNic;
  uint64_t num_keys = 0;
  double zipf_theta = 0.99;
  workload::SizeDistribution sizes = workload::SizeDistribution::Fixed(64);
  workload::BatchDistribution batches = workload::BatchDistribution::Single();
  bool multiget = false;
  double read_fraction = 0.99;
  // Measured stream: total rate over all clients, and the sim time it
  // spans per second of --seconds (sized so one run takes about --seconds
  // of wall time on a 4-core x86 host).
  double qps = 0;
  double sim_s_per_run_s = 0;
  // Deployment knobs.
  sim::Duration loccache_ttl = 0;  // 0 = ClientConfig default
  uint64_t data_initial_bytes = 4ull << 20;
  uint64_t data_max_bytes = 256ull << 20;
  uint64_t slab_bytes = 0;  // 0 = SlabConfig default
  // Tracing keeps 1 root in k, with k chosen so that the sampled trees of
  // a stream fill half the ring at this many spans per op.
  double trace_spans_per_op = 0;
};

constexpr size_t kTraceRing = 1 << 20;

std::optional<Spec> MakeSpec(const std::string& name) {
  Spec w;
  w.name = name;
  if (name == "hot-read") {
    w.transport = TransportKind::kSoftNic;
    w.num_keys = 2000;  // fits the 4096-entry location cache
    w.zipf_theta = 0.99;
    w.sizes = workload::SizeDistribution::Geo();
    w.read_fraction = 0.99;
    w.qps = 40000;
    w.sim_s_per_run_s = 3.0;
    // The hot-key lease of bench_fig16_17 (ClientConfig::loccache_ttl).
    w.loccache_ttl = sim::Milliseconds(50);
    w.slab_bytes = 256ull << 10;  // Geo's tail reaches 128 KiB
    w.trace_spans_per_op = 15;
  } else if (name == "ads-batch") {
    w.transport = TransportKind::kOneRma;
    w.num_keys = 20000;
    w.zipf_theta = 0.99;
    w.sizes = workload::SizeDistribution::Ads();
    w.batches = workload::BatchDistribution(24, 300);
    w.multiget = true;
    w.read_fraction = 0.97;
    w.qps = 4000;
    w.sim_s_per_run_s = 0.4;
    w.data_initial_bytes = 16ull << 20;
    w.slab_bytes = 2ull << 20;  // Ads' tail reaches 1 MiB
    w.trace_spans_per_op = 50;
  } else if (name == "write-churn") {
    w.transport = TransportKind::kSoftNic;
    w.num_keys = 40000;
    w.zipf_theta = 0.5;
    w.sizes = workload::SizeDistribution::Fixed(4096);
    w.read_fraction = 0.5;
    // High enough that Sets queue on backend CPU now and then (~9% busy).
    w.qps = 100000;
    w.sim_s_per_run_s = 0.28;
    // ~2.5x less data capacity than the key set needs: LRU runs throughout.
    w.data_max_bytes = 32ull << 20;
    w.trace_spans_per_op = 25;
  } else {
    return std::nullopt;
  }
  return w;
}

std::string KeyName(const Spec& w, uint64_t key) {
  return w.name + "/" + std::to_string(key);
}

struct Op {
  sim::Time at = 0;  // due time, relative to the stream start
  uint32_t key_begin = 0;  // keys[key_begin, key_begin + key_count) of the
  uint32_t key_count = 0;  // stream: one key, or a MultiGet batch
  uint8_t client = 0;
  bool read = true;
};

struct Stream {
  std::vector<Op> ops;
  std::vector<uint64_t> keys;

  std::span<const uint64_t> KeysOf(const Op& op) const {
    return {keys.data() + op.key_begin, op.key_count};
  }
};

// The seeded open-loop stream of `duration` sim time: one Poisson
// sub-stream per client (the profile's tenant field carries the client
// index), merged in time order.
Stream MakeStream(const Spec& w, sim::Duration duration, uint64_t seed) {
  std::vector<workload::TenantMix> mix;
  for (int c = 0; c < kClients; ++c) {
    workload::WorkloadProfile p;
    p.name = w.name;
    p.num_keys = w.num_keys;
    p.zipf_theta = w.zipf_theta;
    p.sizes = w.sizes;
    p.get_fraction = w.read_fraction;
    p.tenant = static_cast<uint32_t>(c);
    mix.push_back({p, w.qps / kClients});
  }
  const std::vector<workload::OpRecord> records =
      workload::GenerateOpStream(mix, duration, seed);
  cm::Rng batch_rng(seed ^ 0xB47C4E5D00000001ull);
  cm::ZipfSampler zipf(w.num_keys, w.zipf_theta);
  Stream s;
  s.ops.reserve(records.size());
  for (const workload::OpRecord& r : records) {
    Op op;
    op.at = r.at;
    op.client = static_cast<uint8_t>(r.tenant);
    op.read = r.is_get;
    op.key_begin = static_cast<uint32_t>(s.keys.size());
    s.keys.push_back(r.key_idx);
    if (op.read && w.multiget) {
      const uint32_t n = w.batches.Sample(batch_rng);
      for (uint32_t i = 1; i < n; ++i) s.keys.push_back(zipf.Sample(batch_rng));
    }
    op.key_count = static_cast<uint32_t>(s.keys.size()) - op.key_begin;
    s.ops.push_back(op);
  }
  return s;
}

// The value size of each key, for the preload and every later Set. The
// corpus is the same for every seed (only the op stream is seeded): under
// Zipf a few hot keys carry much of the traffic, so seeded sizes would make
// every metric hinge on the sizes those few keys happened to draw.
std::vector<uint32_t> CorpusSizes(const Spec& w) {
  std::vector<uint32_t> sizes(w.num_keys);
  cm::Rng rng(0x5EED0F0ADull);
  for (uint32_t& s : sizes) {
    s = std::max<uint32_t>(w.sizes.Sample(rng), kValueHeaderBytes);
  }
  return sizes;
}

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

struct Deployment {
  sim::Simulator sim;
  std::unique_ptr<Cell> cell;
  std::vector<Client*> clients;
  // Registry names of the per-host gauges this benchmark reads.
  std::vector<std::string> client_cpu, backend_cpu, backend_engine;
  std::vector<uint32_t> set_seq = std::vector<uint32_t>(kClients, 0);
};

// Steps the simulator until `done` (the cell's periodic actors never let
// the event queue drain). False if the queue drained first.
bool RunUntil(sim::Simulator& sim, const bool& done) {
  while (!done) {
    if (sim.empty()) return false;
    sim.RunSteps(1);
  }
  return true;
}

sim::Task<void> ConnectAll(std::vector<Client*> clients, Status* out,
                           bool* done) {
  for (Client* c : clients) {
    Status s = co_await c->Connect();
    if (!s.ok() && out->ok()) *out = s;
  }
  *done = true;
}

sim::Task<void> PreloadSlice(Client* client, const Spec* w,
                             const std::vector<uint32_t>* sizes, int slice,
                             Status* out, int* remaining, bool* done) {
  for (uint64_t k = static_cast<uint64_t>(slice); k < w->num_keys;
       k += kClients) {
    Status s = co_await client->Set(KeyName(*w, k),
                                    MakeValue(k, kPreloadTag, (*sizes)[k]));
    if (!s.ok() && out->ok()) {
      *out = Status(s.code(), "preload of " + KeyName(*w, k) + ": " +
                                  std::string(s.message()));
    }
  }
  if (--*remaining == 0) *done = true;
}

// Starts the cell, connects the clients and writes every key once; the
// oracle learns every preloaded value. Null (with `err`) on any failure.
std::unique_ptr<Deployment> Deploy(const Spec& w, uint64_t seed,
                                   const std::vector<uint32_t>& sizes,
                                   Oracle* oracle, std::string* err) {
  auto d = std::make_unique<Deployment>();
  CellOptions o;
  o.num_shards = kShards;
  o.mode = cm::cliquemap::ReplicationMode::kR32;
  o.transport = w.transport;
  o.seed = seed;
  o.backend.initial_buckets = 1024;
  o.backend.data_initial_bytes = w.data_initial_bytes;
  o.backend.data_max_bytes = w.data_max_bytes;
  if (w.slab_bytes != 0) o.backend.slab.slab_bytes = w.slab_bytes;
  d->cell = std::make_unique<Cell>(d->sim, std::move(o));
  d->cell->Start();
  for (int c = 0; c < kClients; ++c) {
    ClientConfig cc;
    cc.client_id = static_cast<uint32_t>(c + 1);
    if (w.loccache_ttl != 0) cc.loccache_ttl = w.loccache_ttl;
    d->clients.push_back(d->cell->AddClient(cc));
    d->client_cpu.push_back("cm.host.cpu_busy_ns{host=" +
                            std::to_string(d->clients.back()->host()) + "}");
  }
  for (uint32_t s = 0; s < kShards; ++s) {
    const std::string host = std::to_string(d->cell->backend(s).host());
    d->backend_cpu.push_back("cm.host.cpu_busy_ns{host=" + host + "}");
    d->backend_engine.push_back("cm.rma.engine_busy_ns{host=" + host +
                                ",transport=softnic}");
  }

  Status status;
  bool connected = false;
  d->sim.Spawn(ConnectAll(d->clients, &status, &connected));
  if (!RunUntil(d->sim, connected) || !status.ok()) {
    *err = "connect failed: " + status.ToString();
    return nullptr;
  }
  for (uint64_t k = 0; k < w.num_keys; ++k) {
    oracle->SetInvoked(k, kPreloadTag, sizes[k]);
  }
  int remaining = kClients;
  bool preloaded = false;
  for (int c = 0; c < kClients; ++c) {
    d->sim.Spawn(PreloadSlice(d->clients[static_cast<size_t>(c)], &w, &sizes,
                              c, &status, &remaining, &preloaded));
  }
  if (!RunUntil(d->sim, preloaded) || !status.ok()) {
    *err = "preload failed: " + status.ToString();
    return nullptr;
  }
  return d;
}

// ---------------------------------------------------------------------------
// One measured stream
// ---------------------------------------------------------------------------

enum class Inject { kNone, kFlip, kAlien, kRollback };

constexpr uint64_t kFnvBasis = 1469598103934665603ull;
uint64_t Fold(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

struct Phase {
  Deployment* dep = nullptr;
  const Spec* w = nullptr;
  Oracle* oracle = nullptr;
  const Stream* stream = nullptr;
  const std::vector<uint32_t>* sizes = nullptr;  // CorpusSizes()
  sim::Time t0 = 0;
  Inject inject = Inject::kNone;
  bool injected = false;

  // Progress.
  std::vector<int> inflight = std::vector<int>(kClients, 0);
  size_t finished = 0;
  bool done = false;
  int64_t late_ns = 0;

  // Outcomes, on the sim clock.
  std::vector<int64_t> read_ns, set_ns;
  int64_t attempted = 0, failed = 0, shed = 0;
  int64_t gets = 0, multigets = 0, sets = 0;
  int64_t keys_looked = 0, unique_keys = 0, keys_found = 0;
  int64_t value_bytes = 0;
  // Bytes of the distinct hits of each read (a MultiGet validates a key
  // once, however often the batch names it).
  int64_t validated_bytes = 0;
  uint64_t digest = kFnvBasis;
  sim::Time end = 0;
  uint64_t events = 0;

  // Host clock. The stream is cut into windows of equal op counts;
  // `window_ns_per_op` holds each window's wall time per op, less
  // `harness_ns`, the benchmark's own work inside the measured loop (value
  // generation, oracle checks).
  int64_t harness_ns = 0;
  std::vector<double> window_ns_per_op;
};

constexpr size_t kWallWindows = 16;

void Finish(Phase* p, int client) {
  --p->inflight[static_cast<size_t>(client)];
  if (++p->finished == p->stream->ops.size()) p->done = true;
}

// Replaces a real hit with a seeded defect (--inject), once per run.
void MaybeInject(Phase* p, uint64_t key, const VersionNumber& floor,
                 cm::ByteSpan* value, VersionNumber* version, Bytes* storage) {
  if (p->inject == Inject::kNone || p->injected) return;
  switch (p->inject) {
    case Inject::kFlip:
      storage->assign(value->begin(), value->end());
      (*storage)[storage->size() / 2] ^= std::byte{0x10};
      break;
    case Inject::kAlien:
      *storage = MakeValue((key + 1) % p->w->num_keys, kPreloadTag,
                           static_cast<uint32_t>(value->size()));
      break;
    case Inject::kRollback:
      if (floor.tt_micros == 0) return;  // needs an earlier completed read
      *version = floor;
      --version->tt_micros;
      p->injected = true;
      return;
    case Inject::kNone:
      return;
  }
  *value = *storage;
  p->injected = true;
}

sim::Task<void> DoRead(Phase* p, const Op* op, uint64_t idx) {
  sim::Simulator& sim = p->dep->sim;
  Client* client = p->dep->clients[op->client];
  const std::span<const uint64_t> keys = p->stream->KeysOf(*op);
  const size_t n = keys.size();
  // Rollback floors are taken when the read is invoked.
  std::vector<VersionNumber> floors(n);
  for (size_t i = 0; i < n; ++i) {
    floors[i] = p->oracle->Floor(op->client, keys[i]);
  }
  std::vector<StatusOr<GetResult>> results;
  if (!p->w->multiget) {
    ++p->gets;
    results.push_back(co_await client->Get(KeyName(*p->w, keys[0])));
  } else {
    ++p->multigets;
    std::vector<std::string> names;
    names.reserve(n);
    for (uint64_t k : keys) names.push_back(KeyName(*p->w, k));
    MultiGetResult r = co_await client->MultiGet(std::move(names));
    results = std::move(r.results);
  }
  const auto h0 = WallClock::now();
  std::unordered_set<uint64_t> distinct(keys.begin(), keys.end());
  p->unique_keys += static_cast<int64_t>(distinct.size());
  uint64_t h = Fold(Fold(p->digest, idx), uint64_t(sim.now() - p->t0));
  bool failed = results.size() != n;
  for (size_t i = 0; i < results.size() && i < n; ++i) {
    const StatusOr<GetResult>& r = results[i];
    ++p->keys_looked;
    if (r.ok()) {
      ++p->keys_found;
      p->value_bytes += static_cast<int64_t>(r->value.size());
      if (distinct.erase(keys[i]) != 0) {
        p->validated_bytes += static_cast<int64_t>(r->value.size());
      }
      cm::ByteSpan value = r->value.span();
      VersionNumber version = r->version;
      Bytes storage;
      MaybeInject(p, keys[i], floors[i], &value, &version, &storage);
      p->oracle->CheckHit(op->client, keys[i], floors[i], value, version);
      h = Fold(h, r->version.tt_micros);
      h = Fold(h, (uint64_t{r->version.client_id} << 32) | r->version.seq);
      h = Fold(h, r->value.size());
    } else if (r.status().code() == StatusCode::kNotFound) {
      h = Fold(h, 1);
    } else {
      failed = true;
      h = Fold(h, 2 + static_cast<uint64_t>(r.status().code()));
    }
  }
  p->digest = h;
  p->read_ns.push_back(sim.now() - (p->t0 + op->at));
  if (failed) ++p->failed;
  p->harness_ns += WallNs(h0, WallClock::now());
  Finish(p, op->client);
}

sim::Task<void> DoSet(Phase* p, const Op* op, uint64_t idx) {
  sim::Simulator& sim = p->dep->sim;
  Client* client = p->dep->clients[op->client];
  const uint64_t key = p->stream->keys[op->key_begin];
  uint32_t& seq = p->dep->set_seq[op->client];
  const uint64_t tag = WriterTag(static_cast<uint32_t>(op->client + 1), ++seq);
  const auto h0 = WallClock::now();
  Bytes value = MakeValue(key, tag, (*p->sizes)[key]);
  // Recorded at invocation: a Set that fails or times out may still apply.
  p->oracle->SetInvoked(key, tag, static_cast<uint32_t>(value.size()));
  p->harness_ns += WallNs(h0, WallClock::now());
  ++p->sets;
  Status s = co_await client->Set(KeyName(*p->w, key), std::move(value));
  p->digest = Fold(Fold(Fold(p->digest, idx), uint64_t(sim.now() - p->t0)),
                   static_cast<uint64_t>(s.code()));
  p->set_ns.push_back(sim.now() - (p->t0 + op->at));
  if (!s.ok()) ++p->failed;
  Finish(p, op->client);
}

// Spawns each op at its due time (the open loop never waits for replies)
// and reads the host clock at every window edge.
sim::Task<void> Drive(Phase* p) {
  sim::Simulator& sim = p->dep->sim;
  const std::vector<Op>& ops = p->stream->ops;
  const size_t window = std::max<size_t>(1, ops.size() / kWallWindows);
  auto edge_wall = WallClock::now();
  int64_t edge_harness = p->harness_ns;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const sim::Time due = p->t0 + op.at;
    co_await sim.WaitUntil(due);
    if (i > 0 && i % window == 0) {
      const auto now = WallClock::now();
      p->window_ns_per_op.push_back(
          double(WallNs(edge_wall, now) - (p->harness_ns - edge_harness)) /
          double(window));
      edge_wall = now;
      edge_harness = p->harness_ns;
    }
    p->late_ns = std::max<int64_t>(p->late_ns, sim.now() - due);
    ++p->attempted;
    int& mine = p->inflight[op.client];
    if (mine >= kMaxOutstandingPerClient) {
      ++p->shed;
      ++p->failed;
      ++mine;  // Finish() takes it back
      Finish(p, op.client);
      continue;
    }
    ++mine;
    if (op.read) {
      sim.Spawn(DoRead(p, &op, i));
    } else {
      sim.Spawn(DoSet(p, &op, i));
    }
  }
}

// Plays the stream against the deployment; false if the simulator stalled.
bool RunPhase(Phase* p) {
  sim::Simulator& sim = p->dep->sim;
  p->t0 = sim.now();
  p->done = p->stream->ops.empty();
  const uint64_t ev0 = sim.events_processed();
  sim.Spawn(Drive(p));
  const bool ok = RunUntil(sim, p->done);
  p->events = sim.events_processed() - ev0;
  p->end = sim.now();
  return ok;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  const size_t k =
      std::min(v.size() - 1, static_cast<size_t>(q * double(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return double(v[k]);
}

double MeanOf(const std::vector<int64_t>& v) {
  double sum = 0;
  for (int64_t x : v) sum += double(x);
  return v.empty() ? 0 : sum / double(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double Ratio(double a, double b) { return b != 0 ? a / b : 0; }

// Registry deltas over one phase. Counters and gauges are both read as
// after - before (Snapshot::DeltaFrom keeps a gauge's later value).
class Delta {
 public:
  Delta(cm::metrics::Snapshot before, cm::metrics::Snapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}
  double Of(const std::string& name) const {
    return double(after_.value(name) - before_.value(name));
  }
  double OfAll(const std::vector<std::string>& names) const {
    double t = 0;
    for (const std::string& n : names) t += Of(n);
    return t;
  }
  // Summed over a labeled family, e.g. "cm.client.gets{".
  double OfFamily(const std::string& prefix) const {
    return double(after_.SumPrefix(prefix) - before_.SumPrefix(prefix));
  }

 private:
  cm::metrics::Snapshot before_, after_;
};

// The sim-time end-to-end results of one phase.
struct SimResults {
  double read_mean_us = 0, read_p50_us = 0, read_p99_us = 0;
  double read_p999_us = 0;
  double set_mean_us = 0, set_p50_us = 0, set_p90_us = 0, set_p99_us = 0;
  double fail_frac = 0, hit_ratio = 0, cpu_us_per_op = 0;
};

SimResults Summarize(const Phase& p, const Delta& d) {
  SimResults m;
  m.read_mean_us = MeanOf(p.read_ns) / 1e3;
  m.read_p50_us = Percentile(p.read_ns, 0.50) / 1e3;
  m.read_p99_us = Percentile(p.read_ns, 0.99) / 1e3;
  m.read_p999_us = Percentile(p.read_ns, 0.999) / 1e3;
  m.set_mean_us = MeanOf(p.set_ns) / 1e3;
  m.set_p50_us = Percentile(p.set_ns, 0.50) / 1e3;
  m.set_p90_us = Percentile(p.set_ns, 0.90) / 1e3;
  m.set_p99_us = Percentile(p.set_ns, 0.99) / 1e3;
  m.fail_frac = Ratio(double(p.failed), double(p.attempted));
  m.hit_ratio = Ratio(double(p.keys_found), double(p.keys_looked));
  const double cpu_ns =
      d.OfAll(p.dep->client_cpu) + d.OfAll(p.dep->backend_cpu);
  m.cpu_us_per_op = Ratio(cpu_ns / 1e3, double(p.attempted - p.shed));
  return m;
}

// Digest of every sim-time outcome of a phase (per-op completion times,
// statuses and versions) and of the sim-time results derived from them.
uint64_t SimDigest(const Phase& p, const SimResults& m) {
  uint64_t h = Fold(p.digest, uint64_t(p.end - p.t0));
  for (double v :
       {m.read_mean_us, m.read_p50_us, m.read_p99_us, m.read_p999_us,
        m.set_mean_us, m.set_p50_us, m.set_p90_us, m.set_p99_us, m.fail_frac,
        m.hit_ratio, m.cpu_us_per_op}) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    h = Fold(h, bits);
  }
  return Fold(h, p.events);
}

// The benchmark's own op counts must equal the registry deltas.
std::string Reconcile(const Phase& p, const Delta& d) {
  std::string out;
  auto check = [&](const char* what, double registry, int64_t ours) {
    if (registry != double(ours)) {
      out += std::string(what) + " registry=" + std::to_string(registry) +
             " benchmark=" + std::to_string(ours) + "; ";
    }
  };
  // A single-key Get and each distinct key of a MultiGet batch is one
  // cm.client.gets (a batch of one takes the single-key path).
  check("cm.client.gets", d.OfFamily("cm.client.gets{"),
        p.w->multiget ? p.unique_keys : p.gets);
  check("cm.client.multigets", d.OfFamily("cm.client.multigets{"),
        p.multigets);
  check("cm.client.sets", d.OfFamily("cm.client.sets{"), p.sets);
  return out;
}

// Per-layer metrics that depend only on the sim clock: registry deltas and
// the span fold of a traced phase.
std::vector<Metric> SimLayerMetrics(const Phase& p, const Delta& d,
                                    const SpanFold& f,
                                    const CellOptions& cell) {
  const double reads = double(p.gets + p.multigets);
  const double keys = double(p.keys_looked);
  const double sets = double(p.sets);
  const double ops = double(p.attempted - p.shed);
  const double span_ns = double(p.end - p.t0);
  const double read_roots = double(f.read_roots);
  const double rma_ops =
      d.OfFamily("cm.rma.reads{") + d.OfFamily("cm.rma.scars{") +
      d.OfFamily("cm.rma.vector_reads{") + d.OfFamily("cm.rma.vector_scars{");
  const double spec_reads =
      d.OfFamily("cm.client.loccache.speculative_reads{");
  const double backend_cpu_ns = d.OfAll(p.dep->backend_cpu);
  const double engine_ns = d.OfAll(p.dep->backend_engine);
  const double rpc_calls = d.Of("cm.rpc.calls");
  return {
      {"client.self_us_per_get", Ratio(double(f.read_root_self_ns) / 1e3,
                                       read_roots), "us"},
      {"client.validate_us_per_get",
       Ratio(d.OfFamily("cm.client.validate_cpu_ns{") / 1e3, reads), "us"},
      {"client.issue_us_per_op",
       Ratio(d.OfFamily("cm.client.issue_cpu_ns{") / 1e3, ops), "us"},
      {"client.retries_per_get", Ratio(d.OfFamily("cm.client.retries{"), reads),
       "count"},
      {"client.torn_per_kget",
       1e3 * Ratio(d.OfFamily("cm.client.torn_reads{"), reads), "count"},
      {"client.batch.entries_per_vector_op",
       Ratio(d.OfFamily("cm.client.batch.vector_entries{"),
             d.OfFamily("cm.client.batch.vector_ops{")), "count"},
      {"client.batch.slowpath_key_frac",
       Ratio(d.OfFamily("cm.client.batch.slowpath_keys{"),
             d.OfFamily("cm.client.batch.keys{")), "fraction"},
      {"client.batch.inflight_waits_per_op",
       Ratio(d.OfFamily("cm.client.batch.inflight_waits{"), reads), "count"},
      {"loccache.spec_share", Ratio(spec_reads, keys), "fraction"},
      {"loccache.spec_success_ratio",
       spec_reads > 0
           ? 1.0 - d.OfFamily("cm.client.loccache.speculative_failures{") /
                       spec_reads
           : 0.0,
       "fraction"},
      {"loccache.invalidations_per_kop",
       1e3 * Ratio(d.OfFamily("cm.client.loccache.invalidations{"), ops),
       "count"},
      {"rma.ops_per_get", Ratio(rma_ops, keys), "count"},
      {"rma.self_us_per_get", Ratio(double(f.read_rma_self_ns) / 1e3,
                                    read_roots), "us"},
      {"rma.engine_busy_frac",
       Ratio(engine_ns, span_ns * kShards * cell.softnic.max_engines),
       "fraction"},
      {"rma.failed_per_kop", 1e3 * Ratio(d.OfFamily("cm.rma.failed_ops{"), ops),
       "count"},
      {"rpc.calls_per_set", Ratio(double(f.set_rpc_calls), double(f.set_roots)),
       "count"},
      {"rpc.self_us_per_set", Ratio(double(f.set_rpc_self_ns) / 1e3,
                                    double(f.set_roots)), "us"},
      {"rpc.errors_per_kcall", 1e3 * Ratio(d.Of("cm.rpc.call_errors"),
                                           rpc_calls), "count"},
      {"backend.cpu_us_per_set", Ratio(backend_cpu_ns / 1e3, sets), "us"},
      {"backend.cpu_busy_frac",
       Ratio(backend_cpu_ns, span_ns * kShards * cell.backend_host.cpu.cores),
       "fraction"},
      {"backend.evictions_per_set",
       Ratio(d.OfFamily("cm.backend.evictions_capacity{") +
                 d.OfFamily("cm.backend.evictions_assoc{"),
             sets), "count"},
      {"backend.stale_rejects_per_kset",
       1e3 * Ratio(d.OfFamily("cm.backend.sets_rejected_stale{"), sets),
       "count"},
      {"net.wire_bytes_per_op", Ratio(d.Of("cm.fabric.wire_bytes"), ops), "B"},
      {"net.fabric_us_per_get", Ratio(double(f.read_fabric_ns) / 1e3,
                                      read_roots), "us"},
      {"net.bytes_copied_per_value_byte",
       Ratio(d.Of("cm.net.bytes_copied"), double(p.value_bytes)), "ratio"},
      {"sim.events_per_op", Ratio(double(p.events), ops), "count"},
      {"trace.unattributed_frac", Ratio(double(f.root_self_ns),
                                        double(f.root_ns)), "fraction"},
  };
}

void PrintMetric(const Metric& m) {
  std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void EmitResult(bool correct, int64_t attempted, int64_t failed,
                const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  Inject inject = Inject::kNone;
  double qps = 0;          // overrides Spec::qps (sizing, reproductions)
  int64_t measure_ms = 0;  // overrides the stream's sim length
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (k == "--qps") {
      a.qps = std::strtod(v.c_str(), nullptr);
    } else if (k == "--measure-ms") {
      a.measure_ms = std::strtoll(v.c_str(), nullptr, 10);
    } else if (k == "--inject" && v == "flip") {
      a.inject = Inject::kFlip;
    } else if (k == "--inject" && v == "alien") {
      a.inject = Inject::kAlien;
    } else if (k == "--inject" && v == "rollback") {
      a.inject = Inject::kRollback;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || a.seconds <= 0 ||
      (a.trace != 0 && a.trace != 1)) {
    return std::nullopt;
  }
  return a;
}

// The characterisation each workload was built for (README.md). Reported,
// not enforced: a later change may move a workload on purpose.
std::vector<std::string> Characterise(const std::string& workload,
                                      double spec_share,
                                      double evictions_per_set,
                                      double crc_share) {
  std::vector<std::string> out;
  auto line = [&](bool ok, const std::string& what) {
    out.push_back(std::string(ok ? "holds: " : "DOES NOT HOLD: ") + what);
  };
  // Between hot-read's CRC32C share (about 0.4) and ads-batch's (about 0.8)
  // on a 4-core x86 host.
  constexpr double kCrcShareSplit = 0.5;
  if (workload == "hot-read") {
    line(spec_share >= 0.5, "loccache.spec_share >= 0.5");
    line(crc_share < kCrcShareSplit, "common.crc_share_of_wall < 0.5");
  } else if (workload == "write-churn") {
    line(spec_share <= 0.05, "loccache.spec_share <= 0.05");
    line(evictions_per_set > 0, "backend.evictions_per_set > 0");
  } else if (workload == "ads-batch") {
    line(crc_share >= kCrcShareSplit, "common.crc_share_of_wall >= 0.5");
  }
  return out;
}

int Main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: cm_perfbench --workload hot-read|ads-batch|"
                 "write-churn --seed N --seconds S --trace 0|1 "
                 "[--inject flip|alien|rollback] [--qps X] "
                 "[--measure-ms M]\n");
    return 2;
  }
  std::optional<Spec> spec = MakeSpec(args->workload);
  if (!spec) {
    std::fprintf(stderr, "unknown workload %s\n", args->workload.c_str());
    return 2;
  }
  Spec& w = *spec;
  if (args->qps > 0) w.qps = args->qps;

  const std::string selftest = OracleSelfTest();
  if (!selftest.empty()) {
    std::fprintf(stderr, "oracle self-test failed: %s\n", selftest.c_str());
    return 1;
  }
  std::printf("oracle self-test: ok (flipped byte, other key's value, "
              "unwritten value and rollback caught; overlapping reads "
              "pass)\n");

  // --trace 1 plays the stream twice (untraced, then traced), so each play
  // gets half the time.
  const bool tracing = args->trace == 1;
  const sim::Duration length =
      args->measure_ms > 0
          ? sim::Milliseconds(args->measure_ms)
          : static_cast<sim::Duration>(w.sim_s_per_run_s * args->seconds *
                                       (tracing ? 0.5 : 1.0) * 1e9);
  const Stream stream = MakeStream(w, length, args->seed);
  const std::vector<uint32_t> sizes = CorpusSizes(w);
  std::printf("workload %s seed %llu: %zu ops over %.3f sim-s at %.0f op/s "
              "from %d clients, %llu keys preloaded\n",
              w.name.c_str(), static_cast<unsigned long long>(args->seed),
              stream.ops.size(), double(length) / 1e9, w.qps, kClients,
              static_cast<unsigned long long>(w.num_keys));

  // --trace 0 sets up kSetups cells (setup_s is their median) and plays the
  // stream on the last. --trace 1 plays it on two fresh cells, untraced and
  // then traced; the tracer only observes, so both plays must produce the
  // same sim digest.
  constexpr int kSetups = 3;
  const int cells = tracing ? 2 : kSetups;
  std::vector<double> setups;
  std::vector<std::string> problems;
  std::optional<Phase> measured;  // the untraced play
  std::optional<SimResults> results;
  uint64_t digest = 0;
  double traced_wall_ns_per_op = 0;
  std::vector<Metric> layer_metrics;
  int64_t integrity = 0, rollback = 0, hits_checked = 0;
  std::string first_violation;
  const auto run_start = WallClock::now();

  for (int c = 0; c < cells; ++c) {
    Oracle oracle(kClients, w.num_keys);
    std::string err;
    const auto s0 = WallClock::now();
    std::unique_ptr<Deployment> dep =
        Deploy(w, args->seed, sizes, &oracle, &err);
    setups.push_back(double(WallNs(s0, WallClock::now())) / 1e9);
    if (!dep) {
      std::fprintf(stderr, "setup failed: %s\n", err.c_str());
      return 1;
    }
    std::printf("cell %d: setup %.3f s\n", c, setups.back());
    if (!tracing && c + 1 < cells) continue;

    const bool traced = tracing && c == 1;
    cm::trace::Tracer& tracer = dep->cell->tracer();
    const uint32_t sample_every = static_cast<uint32_t>(
        std::ceil(double(stream.ops.size()) * w.trace_spans_per_op /
                  double(kTraceRing / 2)));
    if (traced) {
      tracer.SetRingCapacity(kTraceRing);
      tracer.SetSampleEvery(sample_every);
      tracer.Reset();
      tracer.Enable(true);
    }
    Phase p;
    p.dep = dep.get();
    p.w = &w;
    p.oracle = &oracle;
    p.stream = &stream;
    p.sizes = &sizes;
    p.inject = traced ? Inject::kNone : args->inject;
    cm::metrics::Snapshot before = dep->cell->metrics().TakeSnapshot();
    if (!RunPhase(&p)) {
      std::fprintf(stderr, "simulator stalled with %zu of %zu ops finished\n",
                   p.finished, stream.ops.size());
      return 1;
    }
    const Delta delta(std::move(before), dep->cell->metrics().TakeSnapshot());
    const SimResults m = Summarize(p, delta);
    const uint64_t d = SimDigest(p, m);
    const double wall_ns_per_op = Median(p.window_ns_per_op);
    std::printf("  %s play: %.1f wall-ns/op (median of %zu windows), sim "
                "digest %016llx\n",
                traced ? "traced" : "untraced", wall_ns_per_op,
                p.window_ns_per_op.size(),
                static_cast<unsigned long long>(d));

    integrity += oracle.integrity_violations();
    rollback += oracle.rollback_violations();
    hits_checked += oracle.hits_checked();
    if (first_violation.empty()) first_violation = oracle.first_violation();
    const std::string rec = Reconcile(p, delta);
    if (!rec.empty()) problems.push_back("reconciliation: " + rec);
    if (p.late_ns != 0) {
      problems.push_back("generator late by " + std::to_string(p.late_ns) +
                         " ns");
    }
    if (!traced) {
      results = m;
      digest = d;
      measured = std::move(p);
      measured->dep = nullptr;
      measured->oracle = nullptr;
      continue;
    }
    traced_wall_ns_per_op = wall_ns_per_op;
    if (d != digest) {
      problems.push_back("traced play's sim digest differs from the "
                         "untraced play's");
    }
    tracer.Enable(false);
    const std::vector<cm::trace::Span> spans = tracer.Completed();
    // Root sampling keeps whole trees; the ring must hold all of them.
    const int64_t evicted =
        tracer.spans_completed() - static_cast<int64_t>(spans.size());
    if (evicted != 0) {
      problems.push_back("tracer ring evicted " + std::to_string(evicted) +
                         " spans of sampled trees");
    }
    layer_metrics =
        SimLayerMetrics(p, delta, FoldSpans(spans), dep->cell->options());
    std::printf("  traced %lld roots (1 in %u), %lld spans, none evicted: "
                "%s\n",
                static_cast<long long>(tracer.roots_started()),
                std::max<uint32_t>(sample_every, 1),
                static_cast<long long>(tracer.spans_completed()),
                evicted == 0 ? "yes" : "no");
  }
  const double run_wall_s = double(WallNs(run_start, WallClock::now())) / 1e9;

  if (integrity != 0 || rollback != 0) {
    problems.push_back("oracle: " + std::to_string(integrity) +
                       " integrity and " + std::to_string(rollback) +
                       " rollback violations; first: " + first_violation);
  }
  if (args->inject != Inject::kNone && !measured->injected) {
    problems.push_back("the requested defect found no hit to replace");
  }

  const Phase& p = *measured;
  const SimResults& m = *results;
  const double wall_ns_per_op = Median(p.window_ns_per_op);
  std::printf("\nsim digest %016llx (%.1f wall-s in all)\n",
              static_cast<unsigned long long>(digest), run_wall_s);
  std::printf("oracle checked %lld hits: %lld integrity, %lld rollback "
              "violations\n",
              static_cast<long long>(hits_checked),
              static_cast<long long>(integrity),
              static_cast<long long>(rollback));
  std::printf("reads %zu (p50 %.3f us, p99.9 %.3f us), sets %zu (p50 %.3f "
              "us, p99 %.3f us), failed %lld (fail_frac %.6f), shed %lld, "
              "generator late %lld ns\n",
              p.read_ns.size(), m.read_p50_us, m.read_p999_us, p.set_ns.size(),
              m.set_p50_us, m.set_p99_us,
              static_cast<long long>(p.failed), m.fail_frac,
              static_cast<long long>(p.shed),
              static_cast<long long>(p.late_ns));

  std::vector<Metric> result;
  if (!tracing) {
    result = {
        {"get_mean_us", m.read_mean_us, "us"},
        {"get_p99_us", m.read_p99_us, "us"},
        {"set_mean_us", m.set_mean_us, "us"},
        {"set_p90_us", m.set_p90_us, "us"},
        {"ok_frac", 1.0 - m.fail_frac, "fraction"},
        {"hit_ratio", m.hit_ratio, "fraction"},
        {"cpu_us_per_op", m.cpu_us_per_op, "us"},
        {"wall_ns_per_op", wall_ns_per_op, "ns"},
        {"setup_s", Median(setups), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    // Host-clock helper costs on this workload's own keys and values.
    std::vector<std::string> keys;
    std::vector<Bytes> values;
    for (uint64_t k = 0; k < std::min<uint64_t>(w.num_keys, 1024); ++k) {
      keys.push_back(KeyName(w, k));
      values.push_back(MakeValue(k, kPreloadTag, sizes[k]));
    }
    const HelperTimings t = TimeHelpers(keys, values);
    if (t.revalidate_ns_per_entry < 0) {
      problems.push_back("an encoded DataEntry failed to revalidate");
    }
    const double events_per_op =
        Ratio(double(p.events), double(p.attempted - p.shed));
    // CRC32C cost of the bytes a read validates, at the measured speed, as
    // a share of the wall time per op.
    double timed_bytes = 0;
    for (const Bytes& v : values) timed_bytes += double(v.size());
    const double crc_ns_per_byte =
        Ratio(t.crc32c_ns_per_value * double(values.size()), timed_bytes);
    const double crc_share =
        Ratio(crc_ns_per_byte * double(p.validated_bytes),
              wall_ns_per_op * double(p.attempted));
    result = layer_metrics;
    result.insert(
        result.end(),
        {
            {"sim.wall_ns_per_event", Ratio(wall_ns_per_op, events_per_op),
             "ns"},
            {"common.crc32c_ns_per_value", t.crc32c_ns_per_value, "ns"},
            {"common.hashkey_ns_per_key", t.hashkey_ns_per_key, "ns"},
            {"layout.encode_ns_per_entry", t.encode_ns_per_entry, "ns"},
            {"layout.revalidate_ns_per_entry", t.revalidate_ns_per_entry,
             "ns"},
            {"common.crc_share_of_wall", crc_share, "fraction"},
            {"trace.wall_overhead_frac",
             Ratio(traced_wall_ns_per_op, wall_ns_per_op) - 1.0, "fraction"},
        });
    auto find = [&](const char* name) {
      for (const Metric& x : result) {
        if (x.name == name) return x.value;
      }
      return 0.0;
    };
    std::printf("\ncharacterisation of %s:\n", w.name.c_str());
    for (const std::string& c :
         Characterise(w.name, find("loccache.spec_share"),
                      find("backend.evictions_per_set"), crc_share)) {
      std::printf("  %s\n", c.c_str());
    }
  }

  std::printf("\n%s metrics:\n", tracing ? "per-layer" : "end-to-end");
  for (const Metric& x : result) PrintMetric(x);
  for (const std::string& pr : problems) {
    std::printf("CHECK FAILED: %s\n", pr.c_str());
  }
  EmitResult(problems.empty(), p.attempted, p.failed, result);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
