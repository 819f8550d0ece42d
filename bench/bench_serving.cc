// Serving-path benchmark: vertices/sec for the legacy per-vertex
// ScoreAttributes walk vs the compiled-plan batch path, serial and
// sharded across a ScorePool. The headline number backing the batch
// serving design: the compiled plan must beat the legacy path by >= 2x
// single-threaded on the n=8000 synthetic pokec stand-in (postings turn
// the per-leafset scan into intersection counting, and ScoreInto recycles
// buffers).
//
// CSPM_BENCH_SERVING_VERTICES overrides the graph size (CI smoke-runs
// with a tiny n so the batch path is exercised in Release on every push).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <numeric>
#include <vector>

#include "bench_common.h"
#include "cspm/scoring.h"
#include "cspm/scoring_plan.h"
#include "engine/serving.h"
#include "engine/session.h"
#include "util/check.h"

namespace cspm::bench {
namespace {

uint32_t ServingBenchVertices() {
  if (const char* env = std::getenv("CSPM_BENCH_SERVING_VERTICES")) {
    return static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
  }
  return 8000;
}

/// Mined-once fixture shared by all serving benches.
struct ServingFixture {
  graph::AttributedGraph graph;
  core::CspmModel model;
  std::vector<graph::VertexId> all_vertices;

  static const ServingFixture& Get() {
    static ServingFixture* fixture = [] {
      // Leaky singleton: benches share one mined fixture and never
      // destroy it (destruction order vs static bench registration).
      auto* f = new ServingFixture();  // lint:allow naked-new
      f->graph = datasets::MakePokecLike(1, ServingBenchVertices()).value();
      engine::MiningOptions opts;
      opts.record_iteration_stats = false;
      f->model = engine::MineModel(f->graph, opts).value();
      for (graph::VertexId v(0); v < f->graph.num_vertices(); ++v) {
        f->all_vertices.push_back(v);
      }
      return f;
    }();
    return *fixture;
  }
};

/// The pre-plan serving path: one ScoreAttributes model walk per vertex,
/// re-deriving the neighbourhood and re-scanning every leafset each call.
void BM_LegacyPerVertex(benchmark::State& state) {
  const ServingFixture& f = ServingFixture::Get();
  for (auto _ : state) {
    for (graph::VertexId v : f.all_vertices) {
      auto scores = core::ScoreAttributes(f.graph, f.model, v);
      benchmark::DoNotOptimize(scores.raw.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.all_vertices.size()));
}
BENCHMARK(BM_LegacyPerVertex)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Compiled plan, serial: one ScoreBatch over every vertex.
void BM_PlanBatchSerial(benchmark::State& state) {
  const ServingFixture& f = ServingFixture::Get();
  auto engine = engine::ServingEngine::Create(f.graph, f.model).value();
  state.counters["plan_bytes"] =
      static_cast<double>(engine.plan().ApproxBytes());
  for (auto _ : state) {
    auto batch = engine.ScoreBatch(f.all_vertices);
    CSPM_CHECK(batch.ok());
    benchmark::DoNotOptimize(batch->data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.all_vertices.size()));
}
BENCHMARK(BM_PlanBatchSerial)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Compiled plan sharded across a ScorePool (arg = slots, 0 = auto). CI
/// gates the 2-slot pool's vertices/s over BM_PlanBatchSerial's.
void BM_PlanBatchThreads(benchmark::State& state) {
  const ServingFixture& f = ServingFixture::Get();
  engine::ServingOptions options;
  options.pool = std::make_shared<engine::ScorePool>(
      static_cast<uint32_t>(state.range(0)));
  auto engine = engine::ServingEngine::Create(f.graph, f.model, options).value();
  state.counters["threads"] = static_cast<double>(engine.num_threads());
  for (auto _ : state) {
    auto batch = engine.ScoreBatch(f.all_vertices);
    CSPM_CHECK(batch.ok());
    benchmark::DoNotOptimize(batch->data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.all_vertices.size()));
}
BENCHMARK(BM_PlanBatchThreads)->Arg(2)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Plan compile cost (amortized once per model load / hot swap).
void BM_PlanCompile(benchmark::State& state) {
  const ServingFixture& f = ServingFixture::Get();
  for (auto _ : state) {
    core::ScoringPlan plan =
        core::ScoringPlan::Compile(f.model, f.graph.num_attribute_values());
    benchmark::DoNotOptimize(plan.num_units());
  }
}
BENCHMARK(BM_PlanCompile)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cspm::bench

BENCHMARK_MAIN();
