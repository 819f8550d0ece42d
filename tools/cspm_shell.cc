// Interactive serving shell over the model store, in the spirit of the
// classic database REPLs: mine a model, persist it to a paged store file,
// reopen it in another process, and serve scores — without ever touching
// the miner again.
//
//   $ cspm_shell [--threads N] [store.cspm]
//   cspm> mine dblp 500
//   cspm> save demo
//   cspm> ls
//   cspm> load demo
//   cspm> score 0 5
//   cspm> score-all 10
//
// Scoring goes through the batch serving engine (one compiled plan per
// model; `--threads N` shards score/score-all batches, 0 = auto).
//
// Commands read from stdin line by line, so the shell doubles as a batch
// driver: `printf 'mine dblp\nsave m\nexit\n' | cspm_shell store.cspm`.
// When stdin is not a terminal, any failing command exits with status 1
// (CI smoke tests rely on this).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "datasets/synthetic.h"
#include "engine/live_model.h"
#include "engine/model_registry.h"
#include "engine/session.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "obs/metrics.h"
#include "store/model_store.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace cspm::shell {
namespace {

constexpr const char* kHistoryFile = ".cspm_shell_history";

struct Shell {
  std::optional<store::ModelStore> store;
  engine::ModelRegistry registry;
  /// The model commands act on: last mined or last loaded.
  engine::ModelRegistry::Handle current;
  std::string current_name;
  /// The live mining session behind `update` / `replay`: co-owns the
  /// mined graph and its update state. Scoring still goes through the
  /// registry handle, which hot-swaps on every update.
  std::optional<engine::MiningSession> session;
  /// Registry name the live session publishes under.
  std::string session_name;
  /// The session's latest published handle — identifies whether `current`
  /// is the live session's model (vs a loaded snapshot).
  engine::ModelRegistry::Handle session_handle;
  bool interactive = false;
  /// Shards for score / score-all batches (0 = one per hardware core).
  uint32_t threads = 1;
};

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  open <path>              open or create a store file\n"
      "  mine <dataset> [n] [seed]  mine a synthetic graph; datasets:\n"
      "                           dblp dblp-trend usflight pokec cora\n"
      "                           citeseer er\n"
      "  save <name>              save the current model (+graph) to the store\n"
      "  load <name>              load a model from the store and make it current\n"
      "  ls                       list models in the store\n"
      "  rm <name>                delete a model from the store\n"
      "  score <v1> [v2 ...] [k=N]  top-N (default 5) attribute scores per\n"
      "                           listed vertex, computed as one serving batch\n"
      "  score-all [k]            batch-score every vertex; print the k best\n"
      "                           (vertex, attribute) pairs and throughput\n"
      "  update [--mode=exact|fast] <edge-ops> [seed]\n"
      "                           apply that many random edge rewires to the\n"
      "                           live graph, re-mine, hot-swap the served\n"
      "                           model, and append the delta (and mode) to\n"
      "                           the store's WAL (when saved).\n"
      "                           exact (default) = mine the new graph cold;\n"
      "                           fast = continue from the final model, DL\n"
      "                           within ~epsilon of cold\n"
      "  replay <name>            rebuild <name> from its store snapshot and\n"
      "                           re-apply its pending WAL deltas, each in\n"
      "                           the mode it was originally applied with\n"
      "  stats [--json]           mining statistics of the current model\n"
      "  metrics [--json]         process-wide metrics: counters, gauges,\n"
      "                           and phase-latency histograms (p50/p99);\n"
      "                           --json emits the stable one-line schema\n"
      "  fsck <path>              deep-verify a store file: page-chain\n"
      "                           ownership, catalog consistency, record and\n"
      "                           WAL decodability (beyond the page CRCs)\n"
      "  help                     this text\n"
      "  exit | quit | .exit      leave\n"
      "\n"
      "score and score-all shard across --threads N workers (0 = auto;\n"
      "results are identical at any thread count). Every command's latency\n"
      "feeds a shell.cmd.* histogram, so `metrics` shows this session's\n"
      "own command timing profile.\n");
}

/// "N a-stars, DL A -> B bits (+D)" — the model summary fragment every
/// command prints; mine, update, replay, and stats all funnel through it
/// so the numbers render identically everywhere.
std::string DlSummary(size_t astars, double before_bits, double after_bits) {
  return StrFormat("%zu a-stars, DL %.1f -> %.1f bits (%+.1f)", astars,
                   before_bits, after_bits, after_bits - before_bits);
}

/// Scales a nanosecond quantity into a human unit for the metrics table.
std::string FormatNanos(double ns) {
  if (ns >= 1e9) return StrFormat("%.2fs", ns / 1e9);
  if (ns >= 1e6) return StrFormat("%.2fms", ns / 1e6);
  if (ns >= 1e3) return StrFormat("%.2fus", ns / 1e3);
  return StrFormat("%.0fns", ns);
}

Status RequireStore(const Shell& sh) {
  if (!sh.store.has_value()) {
    return Status::FailedPrecondition("no store open; use: open <path>");
  }
  return Status::OK();
}

Status RequireCurrent(const Shell& sh) {
  if (sh.current == nullptr) {
    return Status::FailedPrecondition(
        "no current model; mine one or load one first");
  }
  return Status::OK();
}

StatusOr<graph::AttributedGraph> MakeDataset(const std::string& name,
                                             uint32_t n, uint64_t seed) {
  if (name == "dblp") {
    return n == 0 ? datasets::MakeDblpLike(seed)
                  : datasets::MakeDblpLike(seed, n);
  }
  if (name == "dblp-trend") {
    return n == 0 ? datasets::MakeDblpTrendLike(seed)
                  : datasets::MakeDblpTrendLike(seed, n);
  }
  if (name == "usflight") {
    return n == 0 ? datasets::MakeUsflightLike(seed)
                  : datasets::MakeUsflightLike(seed, n);
  }
  if (name == "pokec") {
    return n == 0 ? datasets::MakePokecLike(seed)
                  : datasets::MakePokecLike(seed, n);
  }
  if (name == "cora") return datasets::MakeCoraLike(seed);
  if (name == "citeseer") return datasets::MakeCiteseerLike(seed);
  if (name == "er") {
    Rng rng(seed);
    return graph::ErdosRenyi(n == 0 ? 500 : n, 0.02, 20, 3, &rng);
  }
  return Status::InvalidArgument(
      "unknown dataset '" + name +
      "' (try: dblp dblp-trend usflight pokec cora citeseer er)");
}

Status CmdOpen(Shell& sh, const std::vector<std::string>& args) {
  if (args.size() != 2) return Status::InvalidArgument("usage: open <path>");
  auto store_or = store::ModelStore::OpenOrCreate(args[1]);
  if (!store_or.ok()) return store_or.status();
  sh.store.emplace(std::move(store_or).value());
  std::printf("store %s: %zu model(s)\n", sh.store->path().c_str(),
              sh.store->size());
  return Status::OK();
}

/// Makes `session` the live session and publishes its model to the
/// registry under `name` (hot-swapping any previous handle).
Status AdoptSession(Shell& sh, engine::MiningSession session,
                    const std::string& name) {
  sh.session.emplace(std::move(session));
  auto handle_or = sh.session->Publish(sh.registry, name);
  if (!handle_or.ok()) return handle_or.status();
  sh.current = std::move(handle_or).value();
  sh.session_handle = sh.current;
  sh.current_name = name;
  sh.session_name = name;
  return Status::OK();
}

/// (Re)creates the live session over `graph`, mines, and publishes the
/// result under `name`.
Status MineAndPublish(Shell& sh, graph::AttributedGraph graph,
                      const std::string& name) {
  sh.session.reset();
  CSPM_ASSIGN_OR_RETURN(
      engine::MiningSession session,
      engine::MiningSession::Create(
          std::make_shared<const graph::AttributedGraph>(std::move(graph)),
          engine::LiveModelOptions()));
  CSPM_RETURN_IF_ERROR(session.Mine());
  return AdoptSession(sh, std::move(session), name);
}

Status CmdMine(Shell& sh, const std::vector<std::string>& args) {
  if (args.size() < 2 || args.size() > 4) {
    return Status::InvalidArgument("usage: mine <dataset> [n] [seed]");
  }
  const uint32_t n =
      args.size() > 2
          ? static_cast<uint32_t>(std::strtoul(args[2].c_str(), nullptr, 10))
          : 0;
  const uint64_t seed =
      args.size() > 3 ? std::strtoull(args[3].c_str(), nullptr, 10) : 1;
  auto graph_or = MakeDataset(args[1], n, seed);
  if (!graph_or.ok()) return graph_or.status();
  CSPM_RETURN_IF_ERROR(
      MineAndPublish(sh, std::move(graph_or).value(), args[1]));
  const auto& m = sh.current->model;
  std::printf(
      "mined %s: %u vertices, %llu edges, %s (%.3fs)\n", args[1].c_str(),
      sh.current->graph->num_vertices().value(),
      static_cast<unsigned long long>(sh.current->graph->num_edges()),
      DlSummary(m.astars.size(), m.stats.initial_dl_bits,
                m.stats.final_dl_bits)
          .c_str(),
      m.stats.runtime_seconds);
  return Status::OK();
}

Status CmdUpdate(Shell& sh, const std::vector<std::string>& args) {
  engine::UpdateMode mode = engine::UpdateMode::kExact;
  std::vector<std::string> positional;
  for (size_t i = 1; i < args.size(); ++i) {
    if (StartsWith(args[i], "--mode=")) {
      const std::string value = args[i].substr(7);
      if (value == "exact") {
        mode = engine::UpdateMode::kExact;
      } else if (value == "fast") {
        mode = engine::UpdateMode::kFast;
      } else {
        return Status::InvalidArgument("bad --mode '" + value +
                                       "' (exact or fast)");
      }
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.empty() || positional.size() > 2) {
    return Status::InvalidArgument(
        "usage: update [--mode=exact|fast] <edge-ops> [seed]");
  }
  uint32_t ops = 0;
  if (!ParseUint32(positional[0], &ops) || ops == 0) {
    return Status::InvalidArgument("bad edge-op count '" + positional[0] +
                                   "'");
  }
  const uint64_t seed =
      positional.size() > 1 ? std::strtoull(positional[1].c_str(), nullptr, 10)
                            : 1;
  if (!sh.session.has_value()) {
    return Status::FailedPrecondition(
        "no live session; mine (or replay) first — loaded models have no "
        "update state");
  }
  CSPM_ASSIGN_OR_RETURN(
      graph::GraphDelta delta,
      graph::MakeRandomEdgeRewires(sh.session->graph(), ops, seed));
  // The delta is logged only once the model is saved under the session's
  // name; an unsaved session has no WAL to append to.
  const bool logged =
      sh.store.has_value() && sh.store->Contains(sh.session_name);
  StatusOr<engine::UpdateStats> updated =
      engine::UpdateAndLog(*sh.session, delta, mode,
                           logged ? &*sh.store : nullptr, sh.registry,
                           sh.session_name);
  if (!updated.ok()) {
    if (logged && updated.status().code() == StatusCode::kIOError) {
      // The session holds the delta the store lacks: a save resyncs them.
      return Status::IOError(updated.status().message() +
                             " — re-save it to resync the store (save " +
                             sh.session_name + "), then retry");
    }
    return updated.status();
  }
  const engine::UpdateStats& stats = updated.value();
  // Hot swap: in-flight batches finish on the old handle's triple; the
  // next score command sees the updated model.
  sh.current = sh.registry.Get(sh.session_name);
  sh.session_handle = sh.current;
  sh.current_name = sh.session_name;
  const auto& m = sh.current->model;
  std::printf(
      "updated '%s' with %zu edge op(s): %zu dirty vertices, %llu "
      "reseeded, %llu split undo(s), %s re-mine in %.3fs%s\n",
      sh.session_name.c_str(), delta.num_ops(), stats.dirty_vertices,
      static_cast<unsigned long long>(stats.reseeded_pairs),
      static_cast<unsigned long long>(stats.split_undos),
      stats.fast_path ? "fast" : "exact",
      stats.apply_seconds, logged ? "; delta appended to WAL" : "");
  std::printf("  now %s\n", DlSummary(m.astars.size(), stats.dl_before_bits,
                                      stats.dl_after_bits)
                                .c_str());
  return Status::OK();
}

Status CmdReplay(Shell& sh, const std::vector<std::string>& args) {
  if (args.size() != 2) return Status::InvalidArgument("usage: replay <name>");
  CSPM_RETURN_IF_ERROR(RequireStore(sh));
  CSPM_ASSIGN_OR_RETURN(engine::ReplayedModel replayed,
                        engine::ReplayModel(*sh.store, args[1]));
  CSPM_RETURN_IF_ERROR(
      AdoptSession(sh, std::move(replayed.session), args[1]));
  if (replayed.truncated) {
    CSPM_RETURN_IF_ERROR(sh.store->TruncateWal(args[1], replayed.deltas));
    std::printf(
        "warning: WAL tail unreadable, %zu record(s) dropped — replayed "
        "the valid prefix and truncated the WAL to it\n",
        replayed.dropped);
  }
  const auto& m = sh.current->model;
  std::printf(
      "replayed '%s': snapshot + %zu delta(s) -> %u vertices, %s\n",
      args[1].c_str(), replayed.deltas,
      sh.current->graph->num_vertices().value(),
      DlSummary(m.astars.size(), m.stats.initial_dl_bits,
                m.stats.final_dl_bits)
          .c_str());
  return Status::OK();
}

Status CmdSave(Shell& sh, const std::vector<std::string>& args) {
  if (args.size() != 2) return Status::InvalidArgument("usage: save <name>");
  CSPM_RETURN_IF_ERROR(RequireStore(sh));
  CSPM_RETURN_IF_ERROR(RequireCurrent(sh));
  store::StoredModel stored;
  stored.model = sh.current->model;
  stored.dict = sh.current->dict;
  if (sh.current->graph != nullptr) stored.graph = *sh.current->graph;
  CSPM_RETURN_IF_ERROR(sh.store->Put(args[1], stored));
  if (sh.session.has_value() && sh.current == sh.session_handle) {
    // The live session's own model is now persisted under this name:
    // later updates append their deltas to its WAL. (Handle identity, not
    // name equality — saving a loaded snapshot must not re-bind the WAL.)
    sh.session_name = args[1];
    sh.current_name = args[1];
  }
  std::printf("saved '%s' (%zu a-stars) to %s\n", args[1].c_str(),
              stored.model.astars.size(), sh.store->path().c_str());
  return Status::OK();
}

Status CmdLoad(Shell& sh, const std::vector<std::string>& args) {
  if (args.size() != 2) return Status::InvalidArgument("usage: load <name>");
  CSPM_RETURN_IF_ERROR(RequireStore(sh));
  CSPM_RETURN_IF_ERROR(sh.registry.LoadModel(*sh.store, args[1]));
  sh.current = sh.registry.Get(args[1]);
  sh.current_name = args[1];
  std::printf("loaded '%s': %zu a-stars, %zu attribute values%s%s\n",
              args[1].c_str(), sh.current->model.astars.size(),
              sh.current->dict.size(),
              sh.current->graph != nullptr ? ", graph snapshot" : "",
              sh.current->plan != nullptr && sh.current->plan->is_view()
                  ? ", mmap plan"
                  : "");
  return Status::OK();
}

Status CmdLs(Shell& sh, const std::vector<std::string>&) {
  CSPM_RETURN_IF_ERROR(RequireStore(sh));
  const auto infos = sh.store->List();
  if (infos.empty()) {
    std::printf("(store is empty)\n");
    return Status::OK();
  }
  std::printf("%-24s %10s %8s %6s %4s %10s\n", "name", "bytes", "a-stars",
              "graph", "wal", "plan");
  for (const auto& info : infos) {
    std::printf("%-24s %10llu %8llu %6s %4llu %10llu\n", info.name.c_str(),
                static_cast<unsigned long long>(info.bytes),
                static_cast<unsigned long long>(info.num_astars),
                info.has_graph ? "yes" : "no",
                static_cast<unsigned long long>(info.wal_records),
                static_cast<unsigned long long>(info.plan_bytes));
  }
  return Status::OK();
}

Status CmdRm(Shell& sh, const std::vector<std::string>& args) {
  if (args.size() != 2) return Status::InvalidArgument("usage: rm <name>");
  CSPM_RETURN_IF_ERROR(RequireStore(sh));
  CSPM_RETURN_IF_ERROR(sh.store->Delete(args[1]));
  sh.registry.Remove(args[1]);
  std::printf("removed '%s'\n", args[1].c_str());
  return Status::OK();
}

/// Prints the top-k normalized scores of one vertex.
void PrintTopScores(const Shell& sh, graph::VertexId v,
                    const engine::AttributeScores& scores, size_t k) {
  const auto& normalized = scores.normalized;
  std::vector<size_t> order(normalized.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return normalized[a] != normalized[b] ? normalized[a] > normalized[b]
                                          : a < b;
  });
  std::printf("top-%zu scores for vertex %u of '%s':\n",
              std::min(k, order.size()), v.value(), sh.current_name.c_str());
  for (size_t i = 0; i < order.size() && i < k; ++i) {
    std::printf("  %-20s %.6f\n", sh.current->dict.Name(
                                      static_cast<graph::AttrId>(order[i]))
                                      .c_str(),
                normalized[order[i]]);
  }
}

StatusOr<engine::ServingEngine> MakeEngine(const Shell& sh) {
  engine::ServingOptions options;
  options.num_threads = sh.threads;
  return sh.current->Serve(options);
}

Status CmdScore(Shell& sh, const std::vector<std::string>& args) {
  std::vector<graph::VertexId> vertices;
  uint32_t k = 5;
  for (size_t i = 1; i < args.size(); ++i) {
    if (StartsWith(args[i], "k=")) {
      if (!ParseUint32(args[i].substr(2), &k)) {
        return Status::InvalidArgument("bad top-k '" + args[i] + "'");
      }
    } else {
      uint32_t v = 0;
      if (!ParseUint32(args[i], &v)) {
        return Status::InvalidArgument("bad vertex id '" + args[i] + "'");
      }
      vertices.push_back(graph::VertexId(v));
    }
  }
  if (vertices.empty() || k == 0) {
    return Status::InvalidArgument("usage: score <v1> [v2 ...] [k=N]");
  }
  CSPM_RETURN_IF_ERROR(RequireCurrent(sh));
  CSPM_ASSIGN_OR_RETURN(engine::ServingEngine engine, MakeEngine(sh));
  CSPM_ASSIGN_OR_RETURN(std::vector<engine::AttributeScores> batch,
                        engine.ScoreBatch(vertices));
  for (size_t i = 0; i < vertices.size(); ++i) {
    PrintTopScores(sh, vertices[i], batch[i], k);
  }
  return Status::OK();
}

Status CmdScoreAll(Shell& sh, const std::vector<std::string>& args) {
  if (args.size() > 2) return Status::InvalidArgument("usage: score-all [k]");
  CSPM_RETURN_IF_ERROR(RequireCurrent(sh));
  uint32_t k = 5;
  if (args.size() > 1 && !ParseUint32(args[1], &k)) {
    return Status::InvalidArgument("bad top-k '" + args[1] + "'");
  }
  CSPM_ASSIGN_OR_RETURN(engine::ServingEngine engine, MakeEngine(sh));
  WallTimer timer;
  const std::vector<engine::AttributeScores> batch = engine.ScoreAll();
  const double seconds = timer.ElapsedSeconds();

  // Global best (vertex, attribute) pairs; ties break on (vertex, attr)
  // so output is deterministic at any thread count.
  struct Best {
    double score;
    graph::VertexId v;
    graph::AttrId a;
  };
  std::vector<Best> best;
  for (graph::VertexId v(0); v.index() < batch.size(); ++v) {
    const auto& normalized = batch[v.index()].normalized;
    for (size_t a = 0; a < normalized.size(); ++a) {
      if (normalized[a] <= 0.0) continue;
      best.push_back(
          {normalized[a], v, graph::AttrId(static_cast<uint32_t>(a))});
    }
  }
  const size_t keep = std::min<size_t>(k, best.size());
  std::partial_sort(best.begin(), best.begin() + keep, best.end(),
                    [](const Best& x, const Best& y) {
                      if (x.score != y.score) return x.score > y.score;
                      if (x.v != y.v) return x.v < y.v;
                      return x.a < y.a;
                    });
  std::printf("scored %zu vertices in %.3fs (%.0f vertices/s, %zu threads)\n",
              batch.size(), seconds,
              seconds > 0 ? static_cast<double>(batch.size()) / seconds : 0.0,
              engine.num_threads());
  for (size_t i = 0; i < keep; ++i) {
    std::printf("  v%-8u %-20s %.6f\n", best[i].v.value(),
                sh.current->dict.Name(best[i].a).c_str(), best[i].score);
  }
  return Status::OK();
}

Status CmdStats(Shell& sh, const std::vector<std::string>& args) {
  if (args.size() > 2 || (args.size() == 2 && args[1] != "--json")) {
    return Status::InvalidArgument("usage: stats [--json]");
  }
  CSPM_RETURN_IF_ERROR(RequireCurrent(sh));
  const core::MiningStats& s = sh.current->model.stats;
  if (args.size() == 2) {
    // The mdl.* values are read back from the obs registry, so `stats
    // --json` and `metrics --json` report the same gauges.
    std::string out = StrFormat(
        "{\"model\":\"%s\",\"astars\":%zu,\"initial_dl_bits\":%.12g,"
        "\"final_dl_bits\":%.12g,\"compression_ratio\":%.12g,"
        "\"iterations\":%llu,\"gain_computations\":%llu,"
        "\"initial_leafsets\":%llu,\"final_leafsets\":%llu,"
        "\"initial_lines\":%llu,\"final_lines\":%llu,"
        "\"runtime_seconds\":%.12g,",
        sh.current_name.c_str(), sh.current->model.astars.size(),
        s.initial_dl_bits, s.final_dl_bits, s.CompressionRatio(),
        static_cast<unsigned long long>(s.iterations),
        static_cast<unsigned long long>(s.total_gain_computations),
        static_cast<unsigned long long>(s.initial_leafsets),
        static_cast<unsigned long long>(s.final_leafsets),
        static_cast<unsigned long long>(s.initial_lines),
        static_cast<unsigned long long>(s.final_lines), s.runtime_seconds);
    // Resident plan footprint of the current model: bytes the plan's
    // slabs occupy, and whether they are an mmap view of the store file
    // (zero-copy) or a heap compile.
    const auto& plan = sh.current->plan;
    out += StrFormat(
        "\"plan_resident_bytes\":%zu,\"plan_mmap\":%s,",
        plan != nullptr ? plan->ApproxBytes() : size_t{0},
        plan != nullptr && plan->is_view() ? "true" : "false");
    out += StrFormat(
        "\"obs\":{\"mdl.current_dl_bits\":%.12g,"
        "\"mdl.last_update_dl_delta_bits\":%.12g,\"registry.models\":%.12g}}",
        obs::GetGauge("mdl.current_dl_bits")->Value(),
        obs::GetGauge("mdl.last_update_dl_delta_bits")->Value(),
        obs::GetGauge("registry.models")->Value());
    std::printf("%s\n", out.c_str());
    return Status::OK();
  }
  std::printf("model '%s': %s\n", sh.current_name.c_str(),
              DlSummary(sh.current->model.astars.size(), s.initial_dl_bits,
                        s.final_dl_bits)
                  .c_str());
  std::printf("  ratio       %.4f\n", s.CompressionRatio());
  std::printf("  iterations  %llu (%llu gain computations)\n",
              static_cast<unsigned long long>(s.iterations),
              static_cast<unsigned long long>(s.total_gain_computations));
  std::printf("  leafsets    %llu -> %llu, lines %llu -> %llu\n",
              static_cast<unsigned long long>(s.initial_leafsets),
              static_cast<unsigned long long>(s.final_leafsets),
              static_cast<unsigned long long>(s.initial_lines),
              static_cast<unsigned long long>(s.final_lines));
  std::printf("  runtime     %.3fs\n", s.runtime_seconds);
  if (sh.current->plan != nullptr) {
    const core::ScoringPlan& plan = *sh.current->plan;
    std::printf("  plan        %zu bytes resident (%s)\n", plan.ApproxBytes(),
                plan.is_view() ? "mmap view" : "compiled");
    std::printf("  postings    %zu singleton, %zu multi-leaf over %zu units\n",
                plan.slabs().singleton_cores.size(),
                plan.slabs().multi_units.size(), plan.num_units());
  }
  return Status::OK();
}

Status CmdMetrics(Shell&, const std::vector<std::string>& args) {
  if (args.size() > 2 || (args.size() == 2 && args[1] != "--json")) {
    return Status::InvalidArgument("usage: metrics [--json]");
  }
  if (args.size() == 2) {
    std::printf("%s\n", obs::MetricsRegistry::Global().SnapshotJson().c_str());
    return Status::OK();
  }
  const obs::MetricsRegistry::Snapshot snap =
      obs::MetricsRegistry::Global().Snap();
  if (snap.counters.empty() && snap.gauges.empty() &&
      snap.histograms.empty()) {
    std::printf("(no metrics recorded yet)\n");
    return Status::OK();
  }
  if (!snap.counters.empty()) {
    std::printf("counters:\n");
    for (const auto& [name, value] : snap.counters) {
      std::printf("  %-36s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  if (!snap.gauges.empty()) {
    std::printf("gauges:\n");
    for (const auto& [name, value] : snap.gauges) {
      std::printf("  %-36s %.4f\n", name.c_str(), value);
    }
  }
  if (!snap.histograms.empty()) {
    std::printf("histograms:%27s %8s %10s %10s %10s\n", "", "count", "p50",
                "p99", "max");
    for (const auto& [name, h] : snap.histograms) {
      std::printf("  %-36s %8llu %10s %10s %10s\n", name.c_str(),
                  static_cast<unsigned long long>(h.count),
                  FormatNanos(h.p50_ns).c_str(), FormatNanos(h.p99_ns).c_str(),
                  FormatNanos(static_cast<double>(h.max_ns)).c_str());
    }
  }
  return Status::OK();
}

Status CmdFsck(Shell&, const std::vector<std::string>& args) {
  if (args.size() != 2) {
    return Status::InvalidArgument("usage: fsck <store.cspm>");
  }
  // Opens its own handle: fsck must see the committed image, not any
  // session state, and must work with no store open in the shell.
  CSPM_ASSIGN_OR_RETURN(store::ModelStore store,
                        store::ModelStore::Open(args[1]));
  CSPM_RETURN_IF_ERROR(store.Fsck());
  uint64_t wal_records = 0;
  for (const auto& info : store.List()) wal_records += info.wal_records;
  std::printf("%s: ok (%zu models, %llu pending WAL records)\n",
              args[1].c_str(), store.size(),
              static_cast<unsigned long long>(wal_records));
  return Status::OK();
}

/// Dispatches one command line; returns false to exit the loop.
bool Dispatch(Shell& sh, const std::string& line, Status* status) {
  *status = Status::OK();
  const auto args = SplitString(StripWhitespace(line), ' ');
  if (args.empty()) return true;
  const std::string& cmd = args[0];
  if (cmd == "exit" || cmd == "quit" || cmd == ".exit") return false;
  WallTimer cmd_timer;
  if (cmd == "help") {
    PrintHelp();
  } else if (cmd == "open") {
    *status = CmdOpen(sh, args);
  } else if (cmd == "mine") {
    *status = CmdMine(sh, args);
  } else if (cmd == "save") {
    *status = CmdSave(sh, args);
  } else if (cmd == "load") {
    *status = CmdLoad(sh, args);
  } else if (cmd == "ls") {
    *status = CmdLs(sh, args);
  } else if (cmd == "rm") {
    *status = CmdRm(sh, args);
  } else if (cmd == "score") {
    *status = CmdScore(sh, args);
  } else if (cmd == "score-all") {
    *status = CmdScoreAll(sh, args);
  } else if (cmd == "update") {
    *status = CmdUpdate(sh, args);
  } else if (cmd == "replay") {
    *status = CmdReplay(sh, args);
  } else if (cmd == "stats") {
    *status = CmdStats(sh, args);
  } else if (cmd == "metrics") {
    *status = CmdMetrics(sh, args);
  } else if (cmd == "fsck") {
    *status = CmdFsck(sh, args);
  } else {
    *status =
        Status::InvalidArgument("unknown command '" + cmd + "' (try: help)");
    return true;  // no shell.cmd.* histogram for typos
  }
  // Every recognised command feeds a shell.cmd.<name> histogram, so the
  // `metrics` command reports the shell's own latency profile; interactive
  // sessions also get an inline timing line.
  obs::GetHistogram("shell.cmd." + cmd)->Record(cmd_timer.ElapsedNanos());
  if (sh.interactive) {
    std::printf("(%s: %.3fs)\n", cmd.c_str(), cmd_timer.ElapsedSeconds());
  }
  return true;
}

int Run(int argc, char** argv) {
  Shell sh;
  sh.interactive = ::isatty(::fileno(stdin)) != 0;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string threads_value;
    switch (MatchFlagWithValue(argc, argv, &i, "--threads", &threads_value)) {
      case 0:
        positional.push_back(argv[i]);
        break;
      case -1:
        std::fprintf(stderr, "--threads needs a value\n");
        return 2;
      default:
        if (!ParseUint32(threads_value, &sh.threads)) {
          std::fprintf(stderr,
                       "--threads needs a non-negative integer, got '%s'\n",
                       threads_value.c_str());
          return 2;
        }
    }
  }
  // One-shot verification mode: `cspm_shell fsck <file>` audits the store
  // and exits (0 healthy, 1 corrupt) without entering the REPL.
  if (!positional.empty() && positional[0] == "fsck") {
    if (positional.size() != 2) {
      std::fprintf(stderr, "usage: cspm_shell fsck <store.cspm>\n");
      return 2;
    }
    Status st = CmdFsck(sh, {"fsck", positional[1]});
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (positional.size() > 1) {
    std::fprintf(stderr, "usage: cspm_shell [--threads N] [store.cspm]\n");
    return 2;
  }
  if (positional.size() == 1) {
    Status st = CmdOpen(sh, {"open", positional[0]});
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (sh.interactive) {
    std::printf("cspm_shell — 'help' lists commands\n");
  }

  std::ofstream history(kHistoryFile, std::ios::app);
  std::string line;
  while (true) {
    if (sh.interactive) {
      std::printf("cspm> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    if (!StripWhitespace(line).empty() && history) history << line << "\n";
    Status status;
    const bool keep_going = Dispatch(sh, line, &status);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      // Batch mode (piped commands) must not plough on after a failure.
      if (!sh.interactive) return 1;
    }
    if (!keep_going) break;
  }
  return 0;
}

}  // namespace
}  // namespace cspm::shell

int main(int argc, char** argv) { return cspm::shell::Run(argc, argv); }
