// Live-update benchmark: end-to-end MiningSession::ApplyUpdates against
// a cold re-mine of the mutated graph on the n=8000 pokec stand-in
// (CSPM_BENCH_UPDATE_VERTICES overrides). Update ratio is expressed in
// edge rewires; one op dirties two vertices, so 4 / 40 ops = 0.1% / 1%
// dirty vertices.
//
//  - BM_WarmRemine/<ops> (kExact) splices the graph and mines it cold, so
//    it is bit-identical to BM_ColdRemine by construction and runs at
//    about the cold time (DESIGN.md §9); it is reported, not gated.
//  - BM_FastRemine/<ops> continues from the final mined model (patch the
//    merged database, undo flipped merges, re-evaluate only pairs of
//    stale leafsets), trading bit-identity for a DL-within-ε contract —
//    this is the ratio the CI gate holds to >= 5x at 1% dirty, alongside
//    the dl_ratio_vs_cold quality counter it holds to <= 1.01.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <utility>

#include "bench_common.h"
#include "engine/session.h"
#include "graph/graph_delta.h"
#include "util/check.h"
#include "util/rng.h"

namespace cspm::bench {
namespace {

uint32_t UpdateBenchVertices() {
  if (const char* env = std::getenv("CSPM_BENCH_UPDATE_VERTICES")) {
    return static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
  }
  return 8000;
}

/// The shared update workload (graph::MakeRandomEdgeRewires), asserted
/// to sample every op so "k ops" really is k rewires.
graph::GraphDelta MakeEdgeDelta(const graph::AttributedGraph& g, uint32_t ops,
                                uint64_t seed) {
  auto delta = graph::MakeRandomEdgeRewires(g, ops, seed);
  CSPM_CHECK(delta.ok());
  return std::move(delta).value();
}

struct UpdateFixture {
  graph::AttributedGraph base;

  static const UpdateFixture& Get() {
    static UpdateFixture* fixture = [] {
      // Leaky singleton: benches share one fixture graph and never
      // destroy it (destruction order vs static bench registration).
      auto* f = new UpdateFixture();  // lint:allow naked-new
      f->base = datasets::MakePokecLike(1, UpdateBenchVertices()).value();
      return f;
    }();
    return *fixture;
  }
};

engine::MiningOptions UpdateMiningOptions() {
  engine::MiningOptions opts;
  opts.record_iteration_stats = false;
  opts.enable_updates = true;
  return opts;
}

/// End-to-end exact update: ApplyUpdates(kExact) on a live session.
void BM_WarmRemine(benchmark::State& state) {
  const UpdateFixture& f = UpdateFixture::Get();
  const auto ops = static_cast<uint32_t>(state.range(0));
  const graph::GraphDelta delta = MakeEdgeDelta(f.base, ops, 1234 + ops);
  engine::UpdateStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    auto session =
        std::move(engine::MiningSession::Create(f.base, UpdateMiningOptions()))
            .value();
    CSPM_CHECK(session.Mine().ok());
    state.ResumeTiming();
    CSPM_CHECK(session.ApplyUpdates(delta, &stats).ok());
    benchmark::DoNotOptimize(session.stats().final_dl_bits);
  }
  CSPM_CHECK(!stats.fast_path);
}
BENCHMARK(BM_WarmRemine)->Arg(4)->Arg(40)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// End-to-end continue-from-final-model update: ApplyUpdates(kFast) on a
/// live session. The dl_ratio_vs_cold counter is the quality side of the
/// fast contract (fast model DL / cold model DL on the same mutated
/// graph); splits and seeded expose what the repair actually did.
void BM_FastRemine(benchmark::State& state) {
  const UpdateFixture& f = UpdateFixture::Get();
  const auto ops = static_cast<uint32_t>(state.range(0));
  const graph::GraphDelta delta = MakeEdgeDelta(f.base, ops, 1234 + ops);
  // The cold-mine DL of the mutated graph, computed once: the quality
  // denominator, not part of the timed region.
  const double cold_dl = [&] {
    const graph::AttributedGraph mutated =
        std::move(graph::ApplyDelta(f.base, delta).value().graph);
    auto session =
        std::move(engine::MiningSession::Create(mutated, UpdateMiningOptions()))
            .value();
    CSPM_CHECK(session.Mine().ok());
    return session.stats().final_dl_bits;
  }();
  engine::UpdateStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    auto session =
        std::move(engine::MiningSession::Create(f.base, UpdateMiningOptions()))
            .value();
    CSPM_CHECK(session.Mine().ok());
    state.ResumeTiming();
    CSPM_CHECK(
        session.ApplyUpdates(delta, engine::UpdateMode::kFast, &stats).ok());
    benchmark::DoNotOptimize(session.stats().final_dl_bits);
  }
  CSPM_CHECK(stats.fast_path);
  state.counters["dl_ratio_vs_cold"] = stats.dl_after_bits / cold_dl;
  state.counters["splits"] = static_cast<double>(stats.split_undos);
  state.counters["seeded"] = static_cast<double>(stats.reseeded_pairs);
}
BENCHMARK(BM_FastRemine)->Arg(4)->Arg(40)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Cold counterpart: re-mine the mutated graph from scratch (same options,
/// so the exact path above is bit-identical to this model).
void BM_ColdRemine(benchmark::State& state) {
  const UpdateFixture& f = UpdateFixture::Get();
  const auto ops = static_cast<uint32_t>(state.range(0));
  const graph::GraphDelta delta = MakeEdgeDelta(f.base, ops, 1234 + ops);
  const graph::AttributedGraph mutated =
      std::move(graph::ApplyDelta(f.base, delta).value().graph);
  for (auto _ : state) {
    auto session =
        std::move(engine::MiningSession::Create(mutated, UpdateMiningOptions()))
            .value();
    CSPM_CHECK(session.Mine().ok());
    benchmark::DoNotOptimize(session.stats().final_dl_bits);
  }
}
BENCHMARK(BM_ColdRemine)->Arg(4)->Arg(40)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace cspm::bench

BENCHMARK_MAIN();
