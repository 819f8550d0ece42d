#include "engine/serving.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/string_util.h"

namespace cspm::engine {

ScorePool::ScorePool(uint32_t num_threads)
    : slots_(num_threads == 0 ? util::ThreadPool::AutoThreads()
                              : num_threads) {
  if (slots_.size() > 1) {
    workers_ = std::make_unique<util::ThreadPool>(slots_.size());
  }
}

void ScorePool::Run(const core::ScoringPlan& plan, size_t num_shards,
                    const ShardFn& fn) {
  CSPM_CHECK(num_shards <= slots_.size());
  if (num_shards == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t s = 0; s < num_shards; ++s) plan.PrepareScratch(&slots_[s]);
  if (num_shards == 1) {
    fn(0, &slots_[0]);
    return;
  }
  workers_->ParallelFor(num_shards,
                        [&](size_t shard) { fn(shard, &slots_[shard]); });
}

ServingEngine::ServingEngine(const graph::AttributedGraph& graph,
                             std::shared_ptr<const core::ScoringPlan> plan,
                             ServingOptions options,
                             std::shared_ptr<const void> keep_alive)
    : graph_(&graph),
      plan_(std::move(plan)),
      keep_alive_(std::move(keep_alive)),
      options_(std::move(options)) {}

StatusOr<ServingEngine> ServingEngine::Create(
    const graph::AttributedGraph& graph,
    std::shared_ptr<const core::ScoringPlan> plan, ServingOptions options,
    std::shared_ptr<const void> keep_alive) {
  if (plan == nullptr) {
    return Status::InvalidArgument("ServingEngine needs a non-null plan");
  }
  if (plan->num_attribute_values() != graph.num_attribute_values()) {
    return Status::FailedPrecondition(StrFormat(
        "model dictionary does not cover the graph: plan compiled for %zu "
        "attribute values, graph has %zu",
        plan->num_attribute_values(), graph.num_attribute_values()));
  }
  return ServingEngine(graph, std::move(plan), std::move(options),
                       std::move(keep_alive));
}

StatusOr<ServingEngine> ServingEngine::Create(
    const graph::AttributedGraph& graph, const core::CspmModel& model,
    ServingOptions options) {
  return Create(graph,
                core::CompileSharedPlan(model, graph.num_attribute_values()),
                std::move(options));
}

size_t ServingEngine::num_threads() const {
  return options_.pool == nullptr ? 1 : options_.pool->num_threads();
}

void ServingEngine::ScoreRange(std::span<const graph::VertexId> vertices,
                               size_t begin, size_t end,
                               core::ScoringScratch* scratch,
                               std::vector<core::AttributeScores>* results)
    const {
  for (size_t i = begin; i < end; ++i) {
    core::GatherNeighbourhoodAttrs(*graph_, vertices[i],
                                   &scratch->neighbourhood);
    plan_->ScoreInto(scratch->neighbourhood, options_.scoring, scratch,
                     &(*results)[i]);
  }
}

std::vector<core::AttributeScores> ServingEngine::ScoreValidated(
    std::span<const graph::VertexId> vertices) const {
  // Pre-resolved handles: the whole obs cost per batch is one scoped timer
  // plus two relaxed adds (plus one timer per shard of a sharded batch).
  static auto* const batch_hist =
      obs::GetHistogram("phase.serving.score_batch");
  static auto* const shard_hist =
      obs::GetHistogram("phase.serving.score_shard");
  static auto* const batches = obs::GetCounter("serving.batches");
  static auto* const scored = obs::GetCounter("serving.vertices_scored");
  obs::ScopedPhaseTimer batch_timer(batch_hist);
  batches->Add(1);
  scored->Add(vertices.size());
  // Every result is sized here, on the dispatching thread, so a shard
  // only overwrites memory it was handed (ScoreInto's assign reuses it).
  std::vector<core::AttributeScores> results(vertices.size());
  const size_t num_attrs = plan_->num_attribute_values();
  for (core::AttributeScores& r : results) {
    r.raw.reserve(num_attrs);
    r.normalized.reserve(num_attrs);
  }
  if (options_.pool == nullptr) {
    core::ScoringScratch scratch;
    plan_->PrepareScratch(&scratch);
    ScoreRange(vertices, 0, vertices.size(), &scratch, &results);
    return results;
  }
  // One contiguous shard per slot; output slot i is written only by the
  // shard owning i, so the result ordering is deterministic regardless of
  // which worker runs which shard. A batch of one vertex is one shard,
  // scored on this thread with a pooled scratch.
  const size_t num_shards =
      std::min(options_.pool->num_threads(), vertices.size());
  obs::Histogram* const timed_shards = num_shards > 1 ? shard_hist : nullptr;
  options_.pool->Run(
      *plan_, num_shards, [&](size_t shard, core::ScoringScratch* scratch) {
        obs::ScopedPhaseTimer shard_timer(timed_shards);
        const size_t begin = vertices.size() * shard / num_shards;
        const size_t end = vertices.size() * (shard + 1) / num_shards;
        ScoreRange(vertices, begin, end, scratch, &results);
      });
  return results;
}

StatusOr<std::vector<core::AttributeScores>> ServingEngine::ScoreBatch(
    std::span<const graph::VertexId> vertices) const {
  for (size_t i = 0; i < vertices.size(); ++i) {
    if (vertices[i] >= graph_->num_vertices()) {
      return Status::OutOfRange(
          StrFormat("batch slot %zu: vertex %u out of range (%u vertices)", i,
                    vertices[i].value(), graph_->num_vertices().value()));
    }
  }
  return ScoreValidated(vertices);
}

std::vector<core::AttributeScores> ServingEngine::ScoreAll() const {
  std::vector<graph::VertexId> vertices;
  vertices.reserve(graph_->num_vertices().index());
  for (graph::VertexId v(0); v < graph_->num_vertices(); ++v) {
    vertices.push_back(v);
  }
  return ScoreValidated(vertices);
}

StatusOr<core::AttributeScores> ServingEngine::ScoreVertex(
    graph::VertexId v) const {
  if (v >= graph_->num_vertices()) {
    return Status::OutOfRange(StrFormat("vertex %u out of range (%u vertices)",
                                        v.value(),
                                        graph_->num_vertices().value()));
  }
  // A batch of one: single-element batches take the serial path.
  std::vector<core::AttributeScores> results = ScoreValidated({&v, 1});
  return std::move(results.front());
}

}  // namespace cspm::engine
