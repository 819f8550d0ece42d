// Pipeline benchmark: mines, stores, serves and updates CSPM models through
// the public APIs only (engine::MiningSession, store::ModelStore,
// net::ModelHost, an in-process net::Server on loopback TCP, net::Client)
// and prints one JSON result line. perfbench/README.md describes the
// workloads, every metric and the per-layer ledger.
//
//   pipeline_bench --workload mine|serve|tenants --seed N --seconds S
//                  --trace 0|1 --workdir DIR [--scale full|tiny]
//                  [--inject corrupt-score|skip-wal] [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same workload
// with the benchmark's own spans around the public calls, resets and
// snapshots obs::MetricsRegistry at phase boundaries, and prints the
// per-layer ledger instead. --inject plants a fault that the output checks
// must catch (the self-test uses it). The exit status is 0 only when every
// operation succeeded and every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datasets/synthetic.h"
#include "engine/session.h"
#include "graph/graph_delta.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/model_host.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "store/model_store.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace cspm::perfbench {
namespace {

// --- configuration ----------------------------------------------------------

/// How much of each stage one run does. Every timing aggregates many
/// samples of a run, so the counts trade run time for steadiness.
struct Sizes {
  uint32_t big_vertices;        ///< the Pokec-like model each workload mines
  uint32_t small_vertices;      ///< each small model
  uint32_t small_models;        ///< small models served
  uint32_t big_rewires;         ///< edge rewires per big-model update (1%)
  uint32_t big_mines;           ///< `mine`: cold mines of the big graph
  uint32_t big_exact;           ///< `mine`: kExact updates of the big model
  uint32_t big_fast;            ///< `mine`: kFast updates of the big model
  uint32_t probe_graphs;        ///< small graphs re-mined in-process
  uint32_t probe_exact;         ///< in-process kExact updates of them
  uint32_t probe_fast;          ///< in-process kFast updates of them
  uint32_t write_pairs;         ///< update + paired score over the wire
  uint32_t rounds;              ///< the measured stages run interleaved
  uint32_t setup_reps;          ///< set-ups per run; setup_s is the median
  uint32_t restarts;            ///< restarts, spread evenly over the rounds
  uint32_t check_every;         ///< every Nth load request is checked
  uint32_t percentile_tail;     ///< samples required beyond a percentile
};

constexpr Sizes kMine = {8000, 200, 1, 40, 2, 2, 10, 0, 0, 0,
                         208, 8, 3, 8, 25, 10};
constexpr Sizes kServe = {8000, 200, 1, 40, 0, 0, 0, 8, 16, 256,
                          160, 8, 3, 4, 25, 10};
constexpr Sizes kTenants = {8000, 200, 8, 40, 0, 0, 0, 8, 16, 256,
                            160, 8, 3, 4, 25, 10};

/// The self-test's sizes: every stage runs, in well under a second.
Sizes Tiny(Sizes s) {
  s.big_vertices = 300;
  s.small_vertices = 60;
  s.small_models = std::min<uint32_t>(s.small_models, 2);
  s.big_rewires = 2;
  s.big_mines = std::min<uint32_t>(s.big_mines, 1);
  s.big_exact = std::min<uint32_t>(s.big_exact, 1);
  s.big_fast = std::min<uint32_t>(s.big_fast, 4);
  s.probe_graphs = std::min<uint32_t>(s.probe_graphs, 2);
  s.probe_exact = std::min<uint32_t>(s.probe_exact, 4);
  s.probe_fast = std::min<uint32_t>(s.probe_fast, 8);
  s.write_pairs = 12;
  s.rounds = 2;
  s.setup_reps = 2;
  s.restarts = 2;
  s.check_every = 5;
  s.percentile_tail = 0;
  return s;
}

constexpr uint32_t kScoreVertices = 8;  ///< vertices per score request
constexpr uint32_t kTopK = 10;
constexpr uint32_t kServeConnections = 3;
constexpr uint32_t kReadConnections = 2;
constexpr char kBigModel[] = "big";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string inject;  ///< "", "corrupt-score" or "skip-wal"
  std::string workdir;
  std::string trace_out;
};

/// Library defaults plus what a live, served model needs — the serial
/// configuration ModelHost mines with.
engine::MiningOptions MineOptions() {
  engine::MiningOptions opts;
  opts.enable_updates = true;
  opts.record_iteration_stats = false;
  return opts;
}

// --- outcome accounting -----------------------------------------------------

/// Counts operations and failures: ok_ratio and the result line's
/// attempted / failed come from here.
class Outcome {
 public:
  void Op(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!ok) FailLocked(what);
  }
  /// A check failed on an operation that was already counted.
  void CheckFailed(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    FailLocked(what);
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return std::min(failed_, attempted_); }

 private:
  void FailLocked(const std::string& what) {
    if (++failed_ <= 20) {
      std::fprintf(stderr, "pipeline_bench: FAILED %s\n", what.c_str());
    }
  }
  std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// --- statistics -------------------------------------------------------------

/// Nearest-rank percentile.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return Ratio(sum, static_cast<double>(values.size()));
}

/// Mean without the lowest and the highest value (when there are at least
/// four). Over the rounds of a run it averages the machine's drift across
/// the whole run, as a median of the rounds would not, while one round
/// that a stall of the shared VM slowed down (a round's score p90 jumping
/// from 17 to 27 ms was seen) is dropped, as it would move a plain mean.
double TrimmedMean(std::vector<double> values) {
  if (values.size() >= 4) {
    std::sort(values.begin(), values.end());
    values = std::vector<double>(values.begin() + 1, values.end() - 1);
  }
  return Mean(values);
}

// --- tracing ----------------------------------------------------------------

/// The benchmark's own spans, one per public call, kept in memory and
/// written out when the run ends. Recording costs a vector append; the
/// durations themselves are measured in every run, traced or not.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  uint64_t Now() const { return clock_.ElapsedNanos(); }

  void Record(const char* name, uint64_t start_ns, uint64_t end_ns) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start_ns, end_ns});
  }

  /// Times `fn`, recording it as one span unless `record` is false;
  /// returns the duration in seconds.
  double Time(const char* name, const std::function<void()>& fn,
              bool record = true) {
    const uint64_t start = Now();
    fn();
    const uint64_t end = Now();
    if (record) Record(name, start, end);
    return static_cast<double>(end - start) / 1e9;
  }

  void Write(const std::string& path) const {
    if (!on_ || path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    for (const Span& s : spans_) {
      std::fprintf(f, "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   s.name, static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    std::fclose(f);
  }

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  bool on_;
  WallTimer clock_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// The registry's counters and histogram totals over one phase. Traced runs
/// reset the registry when a phase starts, so the snapshot at its end holds
/// the phase's own values. Phases never nest.
class PhaseMetrics {
 public:
  void Capture() {
    const obs::MetricsRegistry::Snapshot snap =
        obs::MetricsRegistry::Global().Snap();
    for (const auto& [name, v] : snap.counters) counters_[name] = v;
    for (const auto& [name, h] : snap.histograms) hists_[name] = h;
  }
  /// Accumulates another phase (counts and totals; quantiles do not add).
  void Add(const PhaseMetrics& other) {
    for (const auto& [name, v] : other.counters_) counters_[name] += v;
    for (const auto& [name, h] : other.hists_) {
      obs::Histogram::Snapshot& mine = hists_[name];
      mine.count += h.count;
      mine.sum_ns += h.sum_ns;
    }
  }
  double Counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : static_cast<double>(it->second);
  }
  double Count(const std::string& name) const {
    auto it = hists_.find(name);
    return it == hists_.end() ? 0.0 : static_cast<double>(it->second.count);
  }
  double SumMs(const std::string& name) const {
    auto it = hists_.find(name);
    return it == hists_.end() ? 0.0
                              : static_cast<double>(it->second.sum_ns) / 1e6;
  }
  double MeanMs(const std::string& name) const {
    return Ratio(SumMs(name), Count(name));
  }
 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, obs::Histogram::Snapshot> hists_;
};

/// Resets the registry when constructed and captures it in End(), in
/// traced runs only: untraced runs never touch the registry.
class Phase {
 public:
  explicit Phase(const Tracer& tracer) : on_(tracer.on()) {
    if (on_) obs::MetricsRegistry::Global().Reset();
  }
  PhaseMetrics End() const {
    PhaseMetrics m;
    if (on_) m.Capture();
    return m;
  }

 private:
  bool on_;
};

// --- inputs -----------------------------------------------------------------

/// `count` edge-rewire deltas of `ops` rewires each, every one valid on the
/// graph the previous ones produce. Generated on a copy of the graph, so
/// the program under test receives only the deltas.
std::vector<graph::GraphDelta> RewireChain(const graph::AttributedGraph& g,
                                           uint32_t count, uint32_t ops,
                                           uint64_t seed) {
  std::vector<graph::GraphDelta> chain;
  graph::AttributedGraph current = g;
  for (uint32_t i = 0; i < count; ++i) {
    graph::GraphDelta delta =
        graph::MakeRandomEdgeRewires(current, ops, seed * 1000003 + i).value();
    current = graph::ApplyDelta(current, delta).value().graph;
    chain.push_back(std::move(delta));
  }
  return chain;
}

std::vector<graph::VertexId> RandomVertices(Rng* rng, uint32_t n,
                                            uint32_t count) {
  std::vector<graph::VertexId> out;
  for (uint32_t i = 0; i < count; ++i) {
    out.push_back(graph::VertexId(static_cast<uint32_t>(rng->Uniform(n))));
  }
  return out;
}

std::vector<graph::VertexId> AllVertices(uint32_t n) {
  std::vector<graph::VertexId> out;
  for (uint32_t v = 0; v < n; ++v) out.push_back(graph::VertexId(v));
  return out;
}

// --- output checks ----------------------------------------------------------

using Ranked = std::vector<net::ScoreResponse::Entry>;

/// Bit-for-bit equality of two top-k rankings.
bool SameRanking(const Ranked& a, const Ranked& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].attr != b[i].attr ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Rankings from a set of in-process scores, ranked the way the server
/// ranks them.
std::vector<Ranked> Rank(const std::vector<core::AttributeScores>& scores) {
  std::vector<Ranked> out;
  for (const core::AttributeScores& s : scores) {
    out.push_back(net::TopKScores(s, kTopK));
  }
  return out;
}

// --- the pipeline -----------------------------------------------------------

/// One model the benchmark mined and serves. `mirror` is the in-process
/// session it was mined in, kept in the state the server holds (every
/// update sent over the wire is applied to it too, after the timed loop):
/// the wire-vs-engine checks score against it.
struct Served {
  std::string name;
  std::shared_ptr<const graph::AttributedGraph> graph;
  std::unique_ptr<engine::MiningSession> mirror;
  double initial_dl = 0.0;
  double final_dl = 0.0;
  /// Small models: the warm-up delta, then the write stage's deltas.
  std::vector<graph::GraphDelta> writes;
  uint32_t num_vertices() const { return graph->num_vertices().value(); }
};

/// The served side of a workload: a store file, a ModelHost behind an
/// in-process Server, and the models in it.
struct Pipeline {
  std::string store_path;
  std::vector<Served> models;
  std::unique_ptr<net::Server> server;
};

/// A sampled score request and the wire's reply, checked after its stage so
/// the load loop times only the round trip.
struct Sample {
  size_t model = 0;
  std::vector<graph::VertexId> vertices;
  std::vector<Ranked> wire;
};

/// Runs one workload. After set-up, the measured stages run in `rounds`
/// interleaved slices (each round: its share of the mining steps, the score
/// load, the writes and the in-process re-mines, then a restart), so every
/// metric samples the whole run rather than one short window of it.
class Bench {
 public:
  Bench(Args args, const Sizes& sizes)
      : args_(std::move(args)), sz_(sizes), tracer_(args_.trace) {}

  int Run();

 private:
  /// Generate → mine → save into a fresh store → ModelHost::Open under a
  /// Server → warm-up. Only the kept set-up's inputs and mining stats are
  /// used by the measured stages.
  Pipeline SetUp(uint32_t rep, bool with_big, bool keep);
  /// Mines the small graphs of the in-process re-mines (after set-up: they
  /// are the benchmark's instrument, not part of the served pipeline).
  void PrepareProbes();
  Served Mine(const std::string& name,
              std::shared_ptr<const graph::AttributedGraph> g,
              double* seconds);

  void MineRound(uint32_t round);
  void ProbeRound(uint32_t round);
  void LoadRound(Pipeline* p, uint32_t round, bool big_model,
                 uint32_t connections, double seconds,
                 bool primary);
  void WriteRound(Pipeline* p, uint32_t begin, uint32_t end, bool primary);
  void RestartRound(Pipeline* p, bool first);
  /// Takes the round's own latency percentiles and throughput from the
  /// samples it added.
  void EndRound(uint32_t round, size_t scores_before, size_t updates_before,
                size_t fast_before, double vertices_before,
                double wall_before);
  void CheckSamples(const Pipeline& p, std::vector<Sample>* samples);
  /// Times one ApplyUpdates as a span and counts it.
  engine::UpdateStats TimeUpdate(engine::MiningSession* session,
                                 const graph::GraphDelta& delta,
                                 engine::UpdateMode mode, bool record,
                                 std::vector<double>* out_ms);

  net::ScoreRequest Request(const Served& m,
                            std::vector<graph::VertexId> vertices) const {
    net::ScoreRequest req;
    req.model = m.name;
    req.k = kTopK;
    req.vertices = std::move(vertices);
    return req;
  }

  void Emit(const char* name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void EmitEndToEnd();
  void EmitLayers();
  void PrintResult() const;

  Args args_;
  Sizes sz_;
  Tracer tracer_;
  Outcome outcome_;
  struct Metric {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;

  // `mine`: the big graph mined in the measured stage, and its deltas.
  std::shared_ptr<const graph::AttributedGraph> big_graph_;
  std::vector<graph::GraphDelta> big_deltas_;
  std::optional<Served> big_;
  // Other workloads: small graphs re-mined in-process (the first half only
  // ever takes kExact updates, so each is the exact-warm path; the second
  // half takes kFast ones).
  std::vector<Served> probes_;
  std::vector<std::vector<graph::GraphDelta>> probe_deltas_;
  std::vector<size_t> probe_next_;

  // End-to-end measurements.
  std::vector<double> setup_s_;
  std::vector<double> mine_s_;
  std::vector<double> exact_s_;
  std::vector<double> fast_ms_;
  std::vector<double> score_ms_;
  double load_wall_s_ = 0.0;
  double load_vertices_ = 0.0;
  std::vector<double> update_ms_;
  std::vector<double> behind_ms_;
  std::vector<double> restart_s_;
  // Per round: the round's score throughput and latency percentiles and its
  // update, paired-score and kFast re-mine medians. The end-to-end latency
  // and throughput metrics are their trimmed means over the rounds
  // (TrimmedMean).
  std::vector<double> round_fast_p50_;
  std::vector<double> round_vps_;
  std::vector<double> round_score_p50_;
  std::vector<double> round_score_p90_;
  std::vector<double> round_update_p50_;
  std::vector<double> round_behind_p50_;
  double initial_dl_ = 0.0;  ///< summed over the run's cold mines
  double final_dl_ = 0.0;    ///< summed over the same models' final state

  // Per-layer ledger inputs (traced runs).
  core::MiningStats big_stats_;
  PhaseMetrics big_mine_;  ///< a cold mine of the big model
  PhaseMetrics fast_;      ///< in-process kFast updates
  PhaseMetrics load_;      ///< the score load
  PhaseMetrics writes_;    ///< updates and paired scores over the wire
  PhaseMetrics restart_;   ///< ModelHost::Open
  PhaseMetrics primary_;   ///< the workload's dominant stage
  double primary_span_ms_ = 0.0;  ///< bench span time in that stage
  double primary_ops_ = 0.0;
  std::vector<double> traced_op_ms_;    ///< primary ops recorded as spans
  std::vector<double> untraced_op_ms_;  ///< primary ops not recorded
  double fast_reseeded_pairs_ = 0.0;
  double store_file_mb_ = 0.0;
};

Served Bench::Mine(const std::string& name,
                   std::shared_ptr<const graph::AttributedGraph> g,
                   double* seconds) {
  Served m;
  m.name = name;
  m.graph = g;
  m.mirror = std::make_unique<engine::MiningSession>(
      engine::MiningSession::Create(g, MineOptions()).value());
  Status mined = Status::OK();
  const double s = tracer_.Time("engine.MiningSession.Mine",
                                [&] { mined = m.mirror->Mine(); });
  outcome_.Op(mined.ok(), "mine " + name);
  CSPM_CHECK(mined.ok());
  if (seconds != nullptr) *seconds = s;
  m.initial_dl = m.mirror->stats().initial_dl_bits;
  m.final_dl = m.mirror->stats().final_dl_bits;
  return m;
}

Pipeline Bench::SetUp(uint32_t rep, bool with_big, bool keep) {
  const uint32_t small_models = sz_.small_models;
  Pipeline p;
  p.store_path = args_.workdir + "/store-" + std::to_string(rep) + ".cspm";
  std::filesystem::remove(p.store_path);
  if (with_big) {
    auto g = std::make_shared<const graph::AttributedGraph>(
        datasets::MakePokecLike(args_.seed, sz_.big_vertices).value());
    const Phase phase(tracer_);
    double seconds = 0.0;
    p.models.push_back(Mine(kBigModel, g, &seconds));
    mine_s_.push_back(seconds);
    if (keep) {
      big_mine_ = phase.End();
      big_stats_ = p.models.back().mirror->stats();
    }
  } else {
    // Every session of the measured stage starts from this graph and
    // takes the same deltas.
    auto g = std::make_shared<const graph::AttributedGraph>(
        datasets::MakePokecLike(args_.seed, sz_.big_vertices).value());
    std::vector<graph::GraphDelta> deltas =
        RewireChain(*g, (sz_.big_exact + sz_.big_fast) / sz_.big_mines,
                    sz_.big_rewires, args_.seed * 17);
    if (keep) {
      big_graph_ = std::move(g);
      big_deltas_ = std::move(deltas);
    }
  }
  // A warm-up delta plus this model's share of the writes, one rewire each
  // (1% of a 200-vertex model's vertices dirty).
  const uint32_t per_model =
      1 + (sz_.write_pairs + small_models - 1) / small_models;
  for (uint32_t i = 0; i < small_models; ++i) {
    auto g = std::make_shared<const graph::AttributedGraph>(
        datasets::MakePokecLike(args_.seed + 1 + i, sz_.small_vertices)
            .value());
    Served m = Mine("tenant" + std::to_string(i), g, nullptr);
    m.writes = RewireChain(*g, per_model, 1, args_.seed * 31 + i);
    p.models.push_back(std::move(m));
  }
  std::vector<std::pair<std::string, store::StoredModel>> records;
  for (const Served& m : p.models) {
    store::StoredModel stored;
    stored.model = m.mirror->model();
    stored.dict = m.graph->dict();
    stored.graph = *m.graph;
    records.emplace_back(m.name, std::move(stored));
  }
  Status saved = Status::OK();
  tracer_.Time("store.ModelStore.PutMany", [&] {
    auto store = store::ModelStore::Create(p.store_path);
    saved = store.ok() ? store.value().PutMany(records) : store.status();
  });
  CSPM_CHECK(saved.ok());

  std::unique_ptr<net::ModelHost> host;
  tracer_.Time("net.ModelHost.Open", [&] {
    host = std::move(net::ModelHost::Open(p.store_path)).value();
  });
  p.server = net::Server::Start(std::move(host), net::ServerOptions()).value();

  // Warm-up: one score per model; one fast update per small model (the
  // first update to a model served off its record re-mines it cold, a
  // once-per-process cost).
  auto client = net::Client::Connect("127.0.0.1", p.server->port()).value();
  for (Served& m : p.models) {
    CSPM_CHECK(client.Score(Request(m, {graph::VertexId(0)})).ok());
    if (m.writes.empty()) continue;
    net::UpdateRequest up;
    up.model = m.name;
    up.mode = 1;
    up.delta = m.writes.front();
    auto ack = client.Update(up);
    CSPM_CHECK(ack.ok() && ack.value().fast_path);
    engine::UpdateStats stats;
    CSPM_CHECK(m.mirror
                   ->ApplyUpdates(up.delta, engine::UpdateMode::kFast, &stats)
                   .ok());
    m.final_dl = stats.dl_after_bits;
  }
  return p;
}

void Bench::PrepareProbes() {
  const uint32_t half = sz_.probe_graphs / 2;
  for (uint32_t i = 0; i < sz_.probe_graphs; ++i) {
    auto g = std::make_shared<const graph::AttributedGraph>(
        datasets::MakePokecLike(args_.seed + 101 + i, sz_.small_vertices)
            .value());
    const uint32_t updates = i < half ? (sz_.probe_exact + half - 1) / half
                                      : (sz_.probe_fast + half - 1) / half;
    probe_deltas_.push_back(RewireChain(*g, updates, 1, args_.seed * 7 + i));
    probes_.push_back(Mine("probe", g, nullptr));
  }
  probe_next_.assign(sz_.probe_graphs, 0);
}

engine::UpdateStats Bench::TimeUpdate(engine::MiningSession* session,
                                      const graph::GraphDelta& delta,
                                      engine::UpdateMode mode, bool record,
                                      std::vector<double>* out_ms) {
  engine::UpdateStats us;
  Status st = Status::OK();
  const double ms =
      1e3 * tracer_.Time("engine.MiningSession.ApplyUpdates",
                         [&] { st = session->ApplyUpdates(delta, mode, &us); },
                         record);
  const bool fast = mode == engine::UpdateMode::kFast;
  outcome_.Op(st.ok() && (!fast || us.fast_path),
              fast ? "kFast update" : "kExact update");
  out_ms->push_back(ms);
  if (fast) fast_reseeded_pairs_ += static_cast<double>(us.reseeded_pairs);
  return us;
}

/// `mine`, in-process on the big graph with no store and no network, in
/// `big_mines` identical sessions, one after another: a cold Mine() in a
/// fresh session, its kExact updates with no fast update before them, then
/// its kFast updates. The sessions' steps are shared out in order over the
/// rounds, so each session's cold mine samples its own part of the run.
void Bench::MineRound(uint32_t round) {
  const uint32_t exact = sz_.big_exact / sz_.big_mines;
  const uint32_t per_session = 1 + static_cast<uint32_t>(big_deltas_.size());
  const uint32_t ops = sz_.big_mines * per_session;
  const auto count_primary = [&](double ms) {
    primary_span_ms_ += ms;
    primary_ops_ += 1;
  };
  for (uint32_t op = ops * round / sz_.rounds;
       op < ops * (round + 1) / sz_.rounds; ++op) {
    const Phase phase(tracer_);
    const uint32_t step = op % per_session;
    if (step == 0) {
      double seconds = 0.0;
      big_.emplace(Mine(kBigModel, big_graph_, &seconds));
      big_mine_ = phase.End();
      primary_.Add(big_mine_);
      count_primary(seconds * 1e3);
      mine_s_.push_back(seconds);
      big_stats_ = big_->mirror->stats();
      if (op + per_session == ops) initial_dl_ += big_->initial_dl;
      continue;
    }
    const size_t delta = step - 1;
    if (delta < exact) {
      std::vector<double> ms;
      const engine::UpdateStats us =
          TimeUpdate(big_->mirror.get(), big_deltas_[delta],
                     engine::UpdateMode::kExact, true, &ms);
      primary_.Add(phase.End());
      count_primary(ms.back());
      exact_s_.push_back(ms.back() / 1e3);
      if (op + 1 == ops) final_dl_ += us.dl_after_bits;
      if (tracer_.on() && op == 1) {
        // The exact contract: the DL of a cold mine of the mutated graph.
        auto cold = engine::MiningSession::Create(big_->mirror->graph(),
                                                  MineOptions());
        const bool same =
            cold.ok() && cold.value().Mine().ok() &&
            cold.value().stats().final_dl_bits == us.dl_after_bits;
        outcome_.Op(same, "kExact DL equals a cold mine of the mutated graph");
      }
      continue;
    }
    const bool record = fast_ms_.size() % 2 == 0;
    const engine::UpdateStats us =
        TimeUpdate(big_->mirror.get(), big_deltas_[delta],
                   engine::UpdateMode::kFast, record, &fast_ms_);
    const PhaseMetrics metrics = phase.End();
    fast_.Add(metrics);
    primary_.Add(metrics);
    count_primary(fast_ms_.back());
    (record ? traced_op_ms_ : untraced_op_ms_).push_back(fast_ms_.back());
    if (op + 1 == ops) final_dl_ += us.dl_after_bits;
  }
}

/// In-process kExact and kFast updates of the small probe graphs (the
/// re-mine metrics of `serve` and `tenants`), one round's share.
void Bench::ProbeRound(uint32_t round) {
  const uint32_t half = sz_.probe_graphs / 2;
  const auto share = [&](uint32_t total, uint32_t r) {
    return total * r / sz_.rounds;
  };
  std::vector<double> exact_ms;
  for (uint32_t k = share(sz_.probe_exact, round);
       k < share(sz_.probe_exact, round + 1); ++k) {
    const uint32_t g = k % half;
    TimeUpdate(probes_[g].mirror.get(), probe_deltas_[g][probe_next_[g]++],
               engine::UpdateMode::kExact, true, &exact_ms);
  }
  for (double ms : exact_ms) exact_s_.push_back(ms / 1e3);
  const Phase phase(tracer_);
  for (uint32_t k = share(sz_.probe_fast, round);
       k < share(sz_.probe_fast, round + 1); ++k) {
    const uint32_t g = half + k % half;
    TimeUpdate(probes_[g].mirror.get(), probe_deltas_[g][probe_next_[g]++],
               engine::UpdateMode::kFast, true, &fast_ms_);
  }
  fast_.Add(phase.End());
}

/// Closed-loop score load: `connections` clients, one request of
/// kScoreVertices seeded-uniform vertices in flight on each, against the
/// big model or a seeded-random small one, for `seconds`.
void Bench::LoadRound(Pipeline* p, uint32_t round, bool big_model,
                      uint32_t connections, double seconds,
                      bool primary) {
  std::vector<size_t> targets;
  for (size_t i = 0; i < p->models.size(); ++i) {
    if ((p->models[i].name == kBigModel) == big_model) targets.push_back(i);
  }
  std::mutex mu;
  std::vector<Sample> samples;
  const size_t before = score_ms_.size();
  const Phase phase(tracer_);
  const uint64_t start = tracer_.Now();
  const auto deadline = start + static_cast<uint64_t>(seconds * 1e9);
  // A timed round runs on past its deadline until the round holds enough
  // samples for its p90.
  const uint32_t quota =
      (10 * sz_.percentile_tail + connections - 1) / connections;
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      auto client = net::Client::Connect("127.0.0.1", p->server->port());
      CSPM_CHECK(client.ok());
      Rng rng(args_.seed * 7919 + 101 * round + c);
      std::vector<double> local_ms, traced, untraced;
      std::vector<Sample> local_samples;
      double local_vertices = 0.0;
      for (uint32_t i = 0;; ++i) {
        if (tracer_.Now() >= deadline && i >= quota) break;
        const size_t model = targets[rng.Uniform(targets.size())];
        const Served& m = p->models[model];
        net::ScoreRequest req = Request(
            m, RandomVertices(&rng, m.num_vertices(), kScoreVertices));
        const bool record = !primary || i % 2 == 0;
        const uint64_t t0 = tracer_.Now();
        auto resp = client.value().Score(req);
        const uint64_t t1 = tracer_.Now();
        if (record) tracer_.Record("net.Client.Score", t0, t1);
        const bool ok =
            resp.ok() && resp.value().results.size() == req.vertices.size();
        outcome_.Op(ok, "score " + m.name +
                            (resp.ok() ? "" : ": " + resp.status().ToString()));
        if (!ok) continue;
        const double ms = static_cast<double>(t1 - t0) / 1e6;
        local_ms.push_back(ms);
        if (primary) (record ? traced : untraced).push_back(ms);
        local_vertices += static_cast<double>(req.vertices.size());
        if (i % sz_.check_every == 0) {
          local_samples.push_back(
              {model, std::move(req.vertices), resp.value().results});
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      score_ms_.insert(score_ms_.end(), local_ms.begin(), local_ms.end());
      traced_op_ms_.insert(traced_op_ms_.end(), traced.begin(), traced.end());
      untraced_op_ms_.insert(untraced_op_ms_.end(), untraced.begin(),
                             untraced.end());
      for (Sample& s : local_samples) samples.push_back(std::move(s));
      load_vertices_ += local_vertices;
    });
  }
  for (std::thread& t : threads) t.join();
  load_wall_s_ += static_cast<double>(tracer_.Now() - start) / 1e9;
  const PhaseMetrics metrics = phase.End();
  load_.Add(metrics);
  if (primary) {
    primary_.Add(metrics);
    for (size_t i = before; i < score_ms_.size(); ++i) {
      primary_span_ms_ += score_ms_[i];
    }
    primary_ops_ += static_cast<double>(score_ms_.size() - before);
  }
  CheckSamples(*p, &samples);
}

/// Wire replies of sampled load requests must equal an in-process
/// ServingEngine::ScoreBatch of the same model state, bit for bit.
void Bench::CheckSamples(const Pipeline& p, std::vector<Sample>* samples) {
  if (args_.inject == "corrupt-score" && !samples->empty() &&
      !samples->front().wire.empty() &&
      !samples->front().wire.front().empty()) {
    double& score = samples->front().wire.front().front().score;
    uint64_t bits = 0;
    std::memcpy(&bits, &score, sizeof(bits));
    bits ^= 1;
    std::memcpy(&score, &bits, sizeof(bits));
  }
  std::vector<engine::ServingEngine> engines;
  for (const Served& m : p.models) engines.push_back(m.mirror->Serve().value());
  for (const Sample& s : *samples) {
    auto scores = engines[s.model].ScoreBatch(s.vertices);
    bool same = scores.ok() && scores.value().size() == s.wire.size();
    if (same) {
      const std::vector<Ranked> local = Rank(scores.value());
      for (size_t i = 0; same && i < local.size(); ++i) {
        same = SameRanking(local[i], s.wire[i]);
      }
    }
    if (!same) {
      outcome_.CheckFailed("wire scores of " + p.models[s.model].name +
                           " differ from in-process ScoreBatch");
    }
  }
}

/// Writes [begin, end): kFast updates of one rewire, round-robin over the
/// small models, on one connection; right behind each, a second connection
/// sends a 1-vertex score of the same model. Both replies are awaited
/// before the next pair.
void Bench::WriteRound(Pipeline* p, uint32_t begin, uint32_t end,
                       bool primary) {
  std::vector<Served*> smalls;
  for (Served& m : p->models) {
    if (!m.writes.empty()) smalls.push_back(&m);
  }
  auto updater = net::Client::Connect("127.0.0.1", p->server->port()).value();
  auto scorer = net::Client::Connect("127.0.0.1", p->server->port()).value();
  Rng rng(args_.seed * 104729 + begin);
  const Phase phase(tracer_);
  for (uint32_t i = begin; i < end; ++i) {
    Served& m = *smalls[i % smalls.size()];
    net::UpdateRequest up;
    up.model = m.name;
    up.mode = 1;
    up.delta = m.writes[1 + i / smalls.size()];
    const std::string payload = net::EncodeUpdateRequest(up);
    const net::ScoreRequest req =
        Request(m, RandomVertices(&rng, m.num_vertices(), 1));
    const bool record = !primary || i % 2 == 0;

    const uint64_t u0 = tracer_.Now();
    const bool sent = updater.Send(net::Verb::kUpdate, payload).ok();
    uint64_t s0 = 0, s1 = 0;
    bool score_ok = false;
    std::thread behind([&] {
      s0 = tracer_.Now();
      auto r = scorer.Score(req);
      s1 = tracer_.Now();
      score_ok = r.ok() && r.value().results.size() == 1;
    });
    auto reply = sent ? updater.Receive()
                      : StatusOr<net::Frame>(Status::IOError("send failed"));
    const uint64_t u1 = tracer_.Now();
    behind.join();

    bool update_ok = reply.ok() && reply.value().status == net::WireStatus::kOk;
    if (update_ok) {
      auto ack = net::DecodeUpdateResponse(reply.value().payload);
      update_ok = ack.ok() && ack.value().fast_path;
      if (update_ok) m.final_dl = ack.value().dl_after_bits;
    }
    outcome_.Op(update_ok, "update " + m.name);
    outcome_.Op(score_ok, "score behind update " + m.name);
    if (record) {
      tracer_.Record("net.Client.Update", u0, u1);
      tracer_.Record("net.Client.Score", s0, s1);
    }
    const double update_ms = static_cast<double>(u1 - u0) / 1e6;
    update_ms_.push_back(update_ms);
    behind_ms_.push_back(static_cast<double>(s1 - s0) / 1e6);
    if (primary) {
      (record ? traced_op_ms_ : untraced_op_ms_).push_back(update_ms);
      primary_span_ms_ += update_ms;
      primary_ops_ += 1;
    }
  }
  const PhaseMetrics metrics = phase.End();
  writes_.Add(metrics);
  if (primary) primary_.Add(metrics);
  store_file_mb_ =
      static_cast<double>(std::filesystem::file_size(p->store_path)) /
      (1024.0 * 1024.0);
  // Keep the mirrors in the state the server now holds (untimed).
  for (uint32_t i = begin; i < end; ++i) {
    Served& m = *smalls[i % smalls.size()];
    CSPM_CHECK(m.mirror
                   ->ApplyUpdates(m.writes[1 + i / smalls.size()],
                                  engine::UpdateMode::kFast)
                   .ok());
  }
}

/// Restart: record every small model's served scores, stop the server,
/// time ModelHost::Open of the same store (it replays each model's WAL),
/// check that the reopened host serves the scores served before the stop,
/// and serve on from it.
void Bench::RestartRound(Pipeline* p, bool first) {
  std::vector<std::vector<Ranked>> before;
  {
    auto client = net::Client::Connect("127.0.0.1", p->server->port()).value();
    for (const Served& m : p->models) {
      if (m.writes.empty()) continue;
      auto resp = client.Score(Request(m, AllVertices(m.num_vertices())));
      outcome_.Op(resp.ok(), "pre-stop score " + m.name);
      before.push_back(resp.ok() ? resp.value().results
                                 : std::vector<Ranked>());
    }
  }
  p->server->Stop();
  p->server.reset();

  if (first && args_.inject == "skip-wal") {
    // Drop the newest WAL record of the first small model.
    for (const Served& m : p->models) {
      if (m.writes.empty()) continue;
      auto store = store::ModelStore::Open(p->store_path).value();
      store::ModelStore::WalReplay wal = store.ReadWal(m.name).value();
      CSPM_CHECK(store.ClearWal(m.name).ok());
      for (size_t i = 0; i + 1 < wal.deltas.size(); ++i) {
        CSPM_CHECK(store.AppendDelta(m.name, wal.deltas[i], wal.modes[i]).ok());
      }
      break;
    }
  }

  StatusOr<std::unique_ptr<net::ModelHost>> host =
      Status::Internal("not opened");
  const Phase phase(tracer_);
  restart_s_.push_back(tracer_.Time("net.ModelHost.Open", [&] {
    host = net::ModelHost::Open(p->store_path);
  }));
  restart_.Add(phase.End());
  outcome_.Op(host.ok(), "restart: ModelHost::Open");
  CSPM_CHECK(host.ok());
  size_t next = 0;
  for (const Served& m : p->models) {
    if (m.writes.empty()) continue;
    const std::vector<Ranked>& served = before[next++];
    auto scores = host.value()->Score(m.name, AllVertices(m.num_vertices()));
    bool same = scores.ok() && served.size() == m.num_vertices();
    if (same) {
      const std::vector<Ranked> now = Rank(scores.value());
      for (size_t v = 0; same && v < now.size(); ++v) {
        same = SameRanking(now[v], served[v]);
      }
    }
    if (!same) {
      outcome_.CheckFailed("after restart " + m.name +
                           " serves other scores than before the stop");
    }
  }
  p->server =
      net::Server::Start(std::move(host).value(), net::ServerOptions()).value();
}

void Bench::EndRound(uint32_t round, size_t scores_before,
                     size_t updates_before, size_t fast_before,
                     double vertices_before, double wall_before) {
  const std::vector<double> scores(score_ms_.begin() + scores_before,
                                   score_ms_.end());
  const std::vector<double> updates(update_ms_.begin() + updates_before,
                                    update_ms_.end());
  const std::vector<double> behind(behind_ms_.begin() + updates_before,
                                   behind_ms_.end());
  // Score latency reports a p90, update latency a p50.
  if (scores.size() < 10 * sz_.percentile_tail ||
      updates.size() < 2 * sz_.percentile_tail) {
    outcome_.CheckFailed("too few latency samples in round " +
                         std::to_string(round) + " for the percentiles");
  }
  // `mine` runs no kFast update in the rounds of its cold mines.
  if (fast_ms_.size() > fast_before) {
    round_fast_p50_.push_back(Percentile(
        std::vector<double>(fast_ms_.begin() + fast_before, fast_ms_.end()),
        0.50));
  }
  round_vps_.push_back(
      Ratio(load_vertices_ - vertices_before, load_wall_s_ - wall_before));
  round_score_p50_.push_back(Percentile(scores, 0.50));
  round_score_p90_.push_back(Percentile(scores, 0.90));
  round_update_p50_.push_back(Percentile(updates, 0.50));
  round_behind_p50_.push_back(Percentile(behind, 0.50));
  std::fprintf(stderr,
               "pipeline_bench: round %u: %.0f vertices/s, score p50 %.3f "
               "p90 %.3f ms (%zu), update p50 %.3f ms (%zu)\n",
               round, round_vps_.back(), round_score_p50_.back(),
               round_score_p90_.back(), scores.size(),
               round_update_p50_.back(), updates.size());
}

int Bench::Run() {
  const std::string& w = args_.workload;
  const bool mine = w == "mine";
  const bool serve = w == "serve";
  const bool tenants = w == "tenants";
  if (!mine && !serve && !tenants) {
    std::fprintf(stderr, "pipeline_bench: unknown workload '%s'\n", w.c_str());
    return 2;
  }

  // Set-up, several times; the first one is kept. The others run between
  // rounds and are stopped and removed right after: the VM's speed drifts
  // over tens of seconds, so the rounds sample the whole run rather than
  // the part after every set-up. `mine` mines its big graph in the measured
  // stages, so its set-up generates that graph and its deltas and serves
  // one small model.
  const auto timed_set_up = [&](uint32_t rep) {
    const uint64_t t0 = tracer_.Now();
    Pipeline p = SetUp(rep, /*with_big=*/!mine, /*keep=*/rep == 0);
    setup_s_.push_back(static_cast<double>(tracer_.Now() - t0) / 1e9);
    return p;
  };
  Pipeline p = timed_set_up(0);
  if (!mine) PrepareProbes();
  for (const Served& m : p.models) initial_dl_ += m.initial_dl;

  const uint32_t rounds = sz_.rounds;
  for (uint32_t r = 0; r < rounds; ++r) {
    for (uint32_t rep = 1; rep < sz_.setup_reps; ++rep) {
      if (rep * rounds / sz_.setup_reps != r) continue;
      Pipeline extra = timed_set_up(rep);
      extra.server->Stop();
      std::filesystem::remove(extra.store_path);
    }
    const size_t scores_before = score_ms_.size();
    const size_t updates_before = update_ms_.size();
    const size_t fast_before = fast_ms_.size();
    const double vertices_before = load_vertices_;
    const double wall_before = load_wall_s_;
    if (mine) MineRound(r);
    if (serve) {
      LoadRound(&p, r, /*big_model=*/true, kServeConnections,
                args_.seconds / rounds, /*primary=*/true);
    } else {
      // On `mine` the reads only ride along: half the time buys their
      // steadiness at less cost to the run.
      LoadRound(&p, r, /*big_model=*/false, kReadConnections,
                args_.seconds / rounds / (mine ? 2 : 1), /*primary=*/false);
    }
    WriteRound(&p, sz_.write_pairs * r / rounds,
               sz_.write_pairs * (r + 1) / rounds, /*primary=*/tenants);
    if (!mine) ProbeRound(r);
    if ((r + 1) * sz_.restarts / rounds > r * sz_.restarts / rounds) {
      RestartRound(&p, restart_s_.empty());
    }
    EndRound(r, scores_before, updates_before, fast_before, vertices_before,
             wall_before);
  }
  p.server->Stop();
  for (const Served& m : p.models) final_dl_ += m.final_dl;
  std::error_code ec;
  std::filesystem::remove_all(args_.workdir, ec);

  if (tracer_.on()) {
    EmitLayers();
  } else {
    EmitEndToEnd();
  }
  tracer_.Write(args_.trace_out);
  PrintResult();
  return outcome_.failed() == 0 ? 0 : 1;
}

void Bench::EmitEndToEnd() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double attempted = static_cast<double>(outcome_.attempted());
  Emit("setup_s", Median(setup_s_), "s");
  Emit("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  Emit("ok_ratio",
       Ratio(attempted - static_cast<double>(outcome_.failed()), attempted),
       "ratio");
  Emit("compression_ratio", Ratio(final_dl_, initial_dl_), "ratio");
  Emit("mine_s", Median(mine_s_), "s");
  Emit("remine_exact_s", Median(exact_s_), "s");
  Emit("remine_fast_ms", TrimmedMean(round_fast_p50_), "ms");
  Emit("score_vps", TrimmedMean(round_vps_), "vertices/s");
  Emit("score_p50_ms", TrimmedMean(round_score_p50_), "ms");
  Emit("score_p90_ms", TrimmedMean(round_score_p90_), "ms");
  Emit("update_p50_ms", TrimmedMean(round_update_p50_), "ms");
  Emit("score_behind_update_ms", TrimmedMean(round_behind_p50_), "ms");
}

void Bench::EmitLayers() {
  // cspm, mining: one cold mine of the big model.
  Emit("cspm.db_build_ms", big_mine_.MeanMs("phase.mine.db_build"), "ms");
  Emit("cspm.candidate_gen_ms", big_mine_.MeanMs("phase.mine.candidate_gen"),
       "ms");
  Emit("cspm.merge_loop_ms", big_mine_.MeanMs("phase.mine.merge_loop"), "ms");
  Emit("cspm.gain_computations",
       static_cast<double>(big_stats_.total_gain_computations), "count");
  Emit("cspm.merges", static_cast<double>(big_stats_.iterations), "count");

  // cspm and graph, updates: per in-process kFast update.
  const double n = fast_.Count("phase.update");
  Emit("cspm.db_patch_ms", Ratio(fast_.SumMs("phase.update.db_patch"), n),
       "ms");
  Emit("cspm.unmerge_ms",
       Ratio(fast_.SumMs("phase.update.resume.unmerge"), n), "ms");
  Emit("cspm.reseed_ms", Ratio(fast_.SumMs("phase.update.resume.reseed"), n),
       "ms");
  Emit("cspm.resume_merge_loop_ms",
       Ratio(fast_.SumMs("phase.update.resume.merge_loop"), n), "ms");
  Emit("cspm.reseeded_pairs",
       Ratio(fast_reseeded_pairs_, static_cast<double>(fast_ms_.size())),
       "count");
  Emit("cspm.plan_compile_ms",
       Ratio(fast_.SumMs("phase.update.plan_recompile"), n), "ms");
  Emit("graph.patch_ms", Ratio(fast_.SumMs("phase.update.graph_patch"), n),
       "ms");

  // engine.
  const double scored = load_.Counter("serving.vertices_scored");
  Emit("engine.score_batch_ms", load_.MeanMs("phase.serving.score_batch"),
       "ms");
  Emit("engine.us_per_vertex",
       Ratio(load_.SumMs("phase.serving.score_batch") * 1e3, scored), "us");
  Emit("engine.batch_vertices",
       Ratio(scored, load_.Counter("serving.batches")), "vertices");
  Emit("engine.hot_swap_ms", writes_.MeanMs("phase.registry.hot_swap"), "ms");
  Emit("engine.plan_cache_misses",
       Ratio(restart_.Counter("registry.plan_cache.misses"),
             static_cast<double>(restart_s_.size())),
       "count");

  // net.
  double client_ms = 0.0;
  for (double ms : score_ms_) client_ms += ms;
  Emit("net.batch_wait_ms", load_.MeanMs("net.batch.wait"), "ms");
  Emit("net.server_score_ms", load_.MeanMs("net.request.score"), "ms");
  Emit("net.client_overhead_ms",
       Ratio(client_ms, static_cast<double>(score_ms_.size())) -
           load_.MeanMs("net.request.score"),
       "ms");
  Emit("net.bytes_per_vertex",
       Ratio(load_.Counter("net.bytes_written"), load_vertices_), "bytes");
  Emit("net.server_update_ms", writes_.MeanMs("net.request.update"), "ms");
  Emit("net.overloaded",
       load_.Counter("net.score_overloaded") +
           writes_.Counter("net.score_overloaded") +
           writes_.Counter("net.update_overloaded"),
       "count");

  // store.
  const double opens = static_cast<double>(restart_s_.size());
  Emit("store.wal_append_ms", writes_.MeanMs("phase.store.wal_append"), "ms");
  Emit("store.commit_ms", writes_.MeanMs("phase.store.commit"), "ms");
  Emit("store.pages_written_per_append",
       Ratio(writes_.Counter("store.pages_written"),
             writes_.Counter("store.wal_appends")),
       "pages");
  Emit("store.file_mb", store_file_mb_, "MB");
  Emit("store.wal_replay_ms", restart_.MeanMs("phase.store.wal_replay"),
       "ms");
  Emit("store.replayed_records",
       Ratio(restart_.Counter("store.wal_replayed_records"), opens),
       "records");
  Emit("store.page_reads", Ratio(restart_.Counter("store.page_reads"), opens),
       "pages");

  // Ledger over the workload's dominant stage: each layer's self time per
  // operation and its share of the benchmark's spans there (README.md).
  const PhaseMetrics& q = primary_;
  const double spans = primary_span_ms_;
  double cspm = 0.0, graph = 0.0, engine = 0.0, net = 0.0, store = 0.0;
  double covered = 0.0;  ///< span time inside some library-side span
  const double patch = q.SumMs("phase.update.graph_patch");
  const double update_children = patch + q.SumMs("phase.update.db_patch") +
                                 q.SumMs("phase.update.resume") +
                                 q.SumMs("phase.update.plan_recompile");
  const double update_self = q.SumMs("phase.update") - update_children;
  if (args_.workload == "mine") {
    cspm = q.SumMs("phase.mine") + update_children - patch;
    graph = patch;
    engine = update_self;
    covered = q.SumMs("phase.mine") + q.SumMs("phase.update");
  } else if (args_.workload == "serve") {
    const double server = q.SumMs("net.request.score");
    // Every request in a coalesced batch waits for the whole batch.
    const double per_batch = Ratio(q.Counter("net.coalesced_requests"),
                                   q.Counter("net.batches_flushed"));
    engine = q.SumMs("phase.serving.score_batch") * per_batch;
    net = spans - server + q.SumMs("net.batch.wait");
    covered = net + engine;
  } else {
    const double server = q.SumMs("net.request.update");
    cspm = update_children - patch;
    graph = patch;
    engine = update_self + q.SumMs("phase.registry.hot_swap");
    store = q.SumMs("phase.store.wal_append");
    net = spans - server;
    covered = net + q.SumMs("phase.update") +
              q.SumMs("phase.registry.hot_swap") + store;
  }
  const double unattributed = std::max(0.0, spans - covered);
  const double ops = primary_ops_;
  Emit("ledger.cspm_self_ms", Ratio(cspm, ops), "ms");
  Emit("ledger.graph_self_ms", Ratio(graph, ops), "ms");
  Emit("ledger.engine_self_ms", Ratio(engine, ops), "ms");
  Emit("ledger.net_self_ms", Ratio(net, ops), "ms");
  Emit("ledger.store_self_ms", Ratio(store, ops), "ms");
  Emit("ledger.cspm_share", Ratio(cspm, spans), "ratio");
  Emit("ledger.graph_share", Ratio(graph, spans), "ratio");
  Emit("ledger.engine_share", Ratio(engine, spans), "ratio");
  Emit("ledger.net_share", Ratio(net, spans), "ratio");
  Emit("ledger.store_share", Ratio(store, spans), "ratio");
  Emit("ledger.unattributed_share", Ratio(unattributed, spans), "ratio");
  Emit("ledger.tracing_overhead",
       Ratio(Median(traced_op_ms_), Median(untraced_op_ms_)), "ratio");
}

void Bench::PrintResult() const {
  std::string json = "{\"correct\": ";
  json += outcome_.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome_.attempted());
  json += ", \"failed\": " + std::to_string(outcome_.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name, v, metrics_[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scale") {
      args->tiny = value == "tiny";
    } else if (key == "--inject") {
      args->inject = value;
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && !args->workdir.empty();
}

}  // namespace
}  // namespace cspm::perfbench

int main(int argc, char** argv) {
  namespace pb = cspm::perfbench;
  pb::Args args;
  if (!pb::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload mine|serve|tenants "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--scale full|tiny] [--inject corrupt-score|skip-wal] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  std::filesystem::create_directories(args.workdir);
  const pb::Sizes sizes = args.workload == "mine"    ? pb::kMine
                          : args.workload == "serve" ? pb::kServe
                                                     : pb::kTenants;
  pb::Bench bench(args, args.tiny ? pb::Tiny(sizes) : sizes);
  return bench.Run();
}
