// Google-benchmark microbenchmarks for the CSPM core primitives:
// inverted-database construction, gain computation (one pair, and the
// co-occurrence sweep that candidate generation runs), merge application,
// end-to-end mining and the Algorithm 5 scoring path. The primitives are
// called directly on the core; mining and scoring go through the engine.
#include <benchmark/benchmark.h>

#include <span>
#include <utility>

#include "cspm/code_model.h"
#include "cspm/gain.h"
#include "cspm/inverted_database.h"
#include "engine/session.h"
#include "graph/generators.h"

namespace {

using namespace cspm;

graph::AttributedGraph MakeBenchGraph(uint32_t n) {
  Rng rng(7);
  return graph::ErdosRenyi(n, 8.0 / n, 40, 3, &rng).value();
}

core::InvertedDatabase BuildDatabase(const graph::AttributedGraph& g) {
  return core::InvertedDatabase::FromGraph(g).value();
}

void BM_InvertedDbBuild(benchmark::State& state) {
  auto g = MakeBenchGraph(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildDatabase(g).num_lines());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_InvertedDbBuild)->Arg(500)->Arg(2000)->Arg(8000);

/// One ComputeMergeGain call per iteration, round-robin over the active
/// pairs.
void BM_GainComputation(benchmark::State& state) {
  auto g = MakeBenchGraph(2000);
  const core::InvertedDatabase idb = BuildDatabase(g);
  const core::CodeModel cm(g, idb);
  const auto& actives = idb.active_leafsets();
  size_t i = 0;
  size_t j = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ComputeMergeGain(idb, cm, actives[i], actives[j]).feasible);
    if (++j == actives.size()) {
      if (++i == actives.size() - 1) i = 0;
      j = i + 1;
    }
  }
}
BENCHMARK(BM_GainComputation);

/// The gain of every co-occurring active pair, as candidate generation
/// computes it: one SweepMergeGains call.
void BM_SweepMergeGains(benchmark::State& state) {
  auto g = MakeBenchGraph(2000);
  const core::InvertedDatabase idb = BuildDatabase(g);
  const core::CodeModel cm(g, idb);
  uint64_t feasible = 0;
  const auto count = [&](core::LeafsetId,
                         std::span<const core::PairGain> partners) {
    for (const core::PairGain& p : partners) feasible += p.gain.feasible;
  };
  uint64_t pairs = 0;
  for (auto _ : state) {
    pairs += core::SweepMergeGains(idb, cm, core::XLogTable(idb),
                                   idb.active_leafsets(), count);
  }
  benchmark::DoNotOptimize(feasible);
  state.SetItemsProcessed(static_cast<int64_t>(pairs));
}
BENCHMARK(BM_SweepMergeGains)->Unit(benchmark::kMillisecond);

/// MergeLeafsets on the first feasible pair (in active order) of a fresh
/// database; the rebuild runs untimed.
void BM_MergeApply(benchmark::State& state) {
  auto g = MakeBenchGraph(2000);
  core::InvertedDatabase idb = BuildDatabase(g);
  const auto pair = [&]() -> std::pair<core::LeafsetId, core::LeafsetId> {
    const core::CodeModel cm(g, idb);
    const auto& actives = idb.active_leafsets();
    for (size_t a = 0; a < actives.size(); ++a) {
      for (size_t b = a + 1; b < actives.size(); ++b) {
        if (core::ComputeMergeGain(idb, cm, actives[a], actives[b])
                .feasible) {
          return {actives[a], actives[b]};
        }
      }
    }
    return {};
  }();
  if (pair.first == pair.second) {
    state.SkipWithError("no feasible pair");
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    idb = BuildDatabase(g);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        idb.MergeLeafsets(pair.first, pair.second).moved_positions);
  }
}
BENCHMARK(BM_MergeApply)->Iterations(20);

void BM_MineEndToEnd(benchmark::State& state) {
  auto g = MakeBenchGraph(static_cast<uint32_t>(state.range(0)));
  engine::MiningOptions options;
  options.record_iteration_stats = false;
  for (auto _ : state) {
    auto model = engine::MineModel(g, options).value();
    benchmark::DoNotOptimize(model.astars.size());
  }
}
BENCHMARK(BM_MineEndToEnd)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_MineBasic(benchmark::State& state) {
  auto g = MakeBenchGraph(500);
  engine::MiningOptions options;
  options.strategy = engine::SearchStrategy::kBasic;
  options.record_iteration_stats = false;
  for (auto _ : state) {
    auto model = engine::MineModel(g, options).value();
    benchmark::DoNotOptimize(model.astars.size());
  }
}
BENCHMARK(BM_MineBasic)->Unit(benchmark::kMillisecond);

void BM_ScoringModule(benchmark::State& state) {
  auto g = MakeBenchGraph(2000);
  engine::MiningOptions options;
  options.record_iteration_stats = false;
  auto session = engine::MiningSession::Create(g, options).value();
  if (!session.Mine().ok()) {
    state.SkipWithError("mining failed");
    return;
  }
  graph::VertexId v(0);
  for (auto _ : state) {
    auto scores = session.Score(v);
    benchmark::DoNotOptimize(scores.normalized.data());
    v = graph::VertexId((v.value() + 1) % g.num_vertices().value());
  }
}
BENCHMARK(BM_ScoringModule);

}  // namespace

BENCHMARK_MAIN();
