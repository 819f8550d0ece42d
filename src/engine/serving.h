// Batch-first serving over a compiled ScoringPlan: the execution layer the
// ROADMAP's serving traffic goes through. A ServingEngine binds one
// immutable plan to one graph and scores vertex batches, either serially
// on the calling thread or sharded across a borrowed ScorePool.
//
// Determinism contract: ScoreBatch(vertices)[i] depends only on
// vertices[i], the plan and the scoring options — never on the pool, the
// shard layout or the thread count — so results are bit-identical without
// a pool, with pools of 1, 2, 4 and auto workers, and to the legacy
// per-vertex ScoreAttributes path (see DESIGN.md §7).
//
// Threads: an engine never starts one. A ScorePool owns the workers and
// one ScoringScratch per shard slot; every engine built with the same
// pool (a server's engines across models and hot swaps) shares them, so
// rebuilding an engine costs no thread start-up and a batch allocates no
// scratch. A pool of one starts no worker: it scores on the calling
// thread with its one slot's scratch.
//
// Thread safety: the const scoring calls are safe to invoke from
// multiple caller threads. A serial engine shares nothing between calls;
// a pooled engine dispatches under the pool's mutex (one batch at a time
// per pool), so concurrent batches queue rather than corrupt each other.
//
// Lifetime: the engine holds a reference to the graph and shared_ptrs to
// the plan and its pool. Engines built through ServableModel::Serve also
// retain the ServableModel that owns the graph snapshot — so registry
// hot-reloads or removals never invalidate a live engine, even if the
// caller dropped its Handle. For the raw Create(graph, ...) entry points
// the graph must outlive the engine (or be passed as `keep_alive`).
#ifndef CSPM_ENGINE_SERVING_H_
#define CSPM_ENGINE_SERVING_H_

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cspm/model.h"
#include "cspm/scoring.h"
#include "cspm/scoring_plan.h"
#include "graph/attributed_graph.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cspm::engine {

// Result vocabulary, re-exported for consumers that only see the batch
// facade (mirrors engine/session.h).
using core::AttributeScores;
using core::ScoringOptions;

/// Workers plus one scoring scratch per shard slot, shared by every
/// engine built with it. The pool runs one batch at a time: a dispatch
/// holds its mutex from sizing the slots' scratch until the last shard
/// is done.
class ScorePool {
 public:
  /// A shard function: scores shard `shard` of a batch with `scratch`,
  /// which is prepared for the dispatching plan and used by no other
  /// shard meanwhile.
  using ShardFn = std::function<void(size_t shard, core::ScoringScratch*)>;

  /// `num_threads` shard slots: 0 = one per hardware core. A pool of one
  /// starts no worker thread.
  explicit ScorePool(uint32_t num_threads);

  ScorePool(const ScorePool&) = delete;
  ScorePool& operator=(const ScorePool&) = delete;

  /// Shard slots: the most shards one batch can be split into.
  size_t num_threads() const { return slots_.size(); }

  /// Sizes the scratch of slots [0, num_shards) for `plan`, then runs
  /// fn(shard, &slot scratch) for every shard: one shard on the calling
  /// thread, more on the workers (the caller blocks until all are done).
  /// Requires num_shards <= num_threads(). Concurrent callers queue.
  void Run(const core::ScoringPlan& plan, size_t num_shards,
           const ShardFn& fn);

 private:
  std::mutex mu_;
  /// One scratch per slot, kept across batches and plans: PrepareScratch
  /// only resizes, and ScoreInto leaves every array zeroed. Guarded by mu_.
  std::vector<core::ScoringScratch> slots_;
  /// Null for a pool of one.
  std::unique_ptr<util::ThreadPool> workers_;
};

struct ServingOptions {
  /// Shards ScoreBatch / ScoreAll across this pool's slots; null scores
  /// serially on the calling thread with a fresh scratch per batch.
  /// Results are bit-identical either way.
  std::shared_ptr<ScorePool> pool;
  core::ScoringOptions scoring;
};

class ServingEngine {
 public:
  /// Builds an engine over an already compiled plan (the registry path:
  /// handles share one immutable plan per registered model). `keep_alive`
  /// is an optional owner of the graph (e.g. the ServableModel handle the
  /// plan came from) retained for the engine's lifetime, so callers need
  /// not hold it themselves.
  static StatusOr<ServingEngine> Create(
      const graph::AttributedGraph& graph,
      std::shared_ptr<const core::ScoringPlan> plan,
      ServingOptions options = {},
      std::shared_ptr<const void> keep_alive = nullptr);

  /// Compiles a fresh plan from the model against the graph's dictionary.
  static StatusOr<ServingEngine> Create(const graph::AttributedGraph& graph,
                                        const core::CspmModel& model,
                                        ServingOptions options = {});

  ServingEngine(ServingEngine&&) noexcept = default;
  ServingEngine& operator=(ServingEngine&&) noexcept = default;

  /// Scores every vertex of `vertices` (duplicates allowed, any order).
  /// Output slot i holds the scores of vertices[i]. Fails with OutOfRange
  /// if any id is not a vertex of the graph; on failure nothing is scored.
  StatusOr<std::vector<core::AttributeScores>> ScoreBatch(
      std::span<const graph::VertexId> vertices) const;

  /// Scores all vertices of the graph, in vertex-id order.
  std::vector<core::AttributeScores> ScoreAll() const;

  /// Single-vertex convenience with the same validation as ScoreBatch.
  StatusOr<core::AttributeScores> ScoreVertex(graph::VertexId v) const;

  const core::ScoringPlan& plan() const { return *plan_; }
  const std::shared_ptr<const core::ScoringPlan>& shared_plan() const {
    return plan_;
  }
  /// Shards a batch can use: the pool's size, or 1 without a pool.
  size_t num_threads() const;
  const ServingOptions& options() const { return options_; }

 private:
  ServingEngine(const graph::AttributedGraph& graph,
                std::shared_ptr<const core::ScoringPlan> plan,
                ServingOptions options,
                std::shared_ptr<const void> keep_alive);

  /// Scores vertices[begin, end) of `vertices` into results[begin, end).
  void ScoreRange(std::span<const graph::VertexId> vertices, size_t begin,
                  size_t end, core::ScoringScratch* scratch,
                  std::vector<core::AttributeScores>* results) const;

  std::vector<core::AttributeScores> ScoreValidated(
      std::span<const graph::VertexId> vertices) const;

  const graph::AttributedGraph* graph_;
  std::shared_ptr<const core::ScoringPlan> plan_;
  /// Optional owner of `*graph_` (e.g. the ServableModel behind a
  /// registry handle), held so the graph cannot be freed under the engine.
  std::shared_ptr<const void> keep_alive_;
  ServingOptions options_;
};

}  // namespace cspm::engine

#endif  // CSPM_ENGINE_SERVING_H_
