// Concurrent registry of servable models, the in-memory face of the store
// layer: serving paths (completion, alarm triage, the shell) look models
// up by name and score against an immutable snapshot while loads/reloads
// happen behind a shared_mutex.
//
// Concurrency contract (see DESIGN.md §6):
//  - A ServableModel is immutable once registered; Get() hands out a
//    shared_ptr<const ServableModel> (a copy-on-write handle). Replacing a
//    name swaps the pointer — readers holding the old handle keep scoring
//    against a consistent model for as long as they like.
//  - Lookups take a shared lock; Put/Remove/Load take an exclusive lock
//    only for the map mutation (record decoding happens outside the lock).
//  - The registry also runs the process-wide plan cache: OpenPlan() hands
//    out mmap-backed ScoringPlan views keyed by (store path, model name),
//    LRU-bounded by SetPlanCacheCapacity(). Evicting an entry only drops
//    the cache's reference — in-flight ServableModels and ServingEngines
//    hold their own shared_ptr, so the mapping stays valid until the last
//    user is done (eviction-while-serving is safe by construction).
#ifndef CSPM_ENGINE_MODEL_REGISTRY_H_
#define CSPM_ENGINE_MODEL_REGISTRY_H_

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cspm/model.h"
#include "cspm/scoring.h"
#include "cspm/scoring_plan.h"
#include "engine/serving.h"
#include "graph/attribute_dictionary.h"
#include "graph/attributed_graph.h"
#include "util/status.h"

namespace cspm::store {
class ModelStore;
}  // namespace cspm::store

namespace cspm::engine {

/// A self-contained, immutable model ready to serve scoring traffic: the
/// pattern model, the dictionary its attribute ids refer to, the scoring
/// plan compiled from them, and (when the store record carried a
/// snapshot) the graph it was mined on. Registering a model compiles its
/// plan, so a hot reload swaps plan + model together: handles always see
/// a matching pair.
struct ServableModel : std::enable_shared_from_this<ServableModel> {
  core::CspmModel model;
  graph::AttributeDictionary dict;
  /// Graph snapshot for vertex-level scoring; shared so a hot swap from a
  /// live session costs no copy and in-flight engines keep the old graph
  /// alive on their own. Null when the model has no snapshot.
  std::shared_ptr<const graph::AttributedGraph> graph;
  /// Compiled from `model` against `dict` by CompilePlan(), or mapped from
  /// the store's plan section. Every registry handle has one: Put and
  /// PutPrecompiled compile it, LoadStore and LoadModel map (or compile)
  /// it. Scoring requires it.
  std::shared_ptr<const core::ScoringPlan> plan;

  /// Compiles `plan` from the current model + dict (no-op when already
  /// compiled).
  void CompilePlan();

  /// Scores vertex `v` of the embedded graph snapshot. Clean Status (not
  /// a crash) for a missing snapshot, an out-of-range vertex, or a
  /// dictionary that does not cover the snapshot's attribute space.
  StatusOr<core::AttributeScores> ScoreVertex(
      graph::VertexId v, const core::ScoringOptions& options = {}) const;

  /// A batch engine over the embedded graph snapshot, sharing this
  /// model's plan. A shared-owned ServableModel (every registry Handle)
  /// is retained by the engine itself, so the engine stays valid across
  /// hot reloads and removals even if the Handle is dropped; only a
  /// stack-allocated ServableModel must outlive its engines.
  StatusOr<ServingEngine> Serve(ServingOptions options = {}) const;
};

class ModelRegistry {
 public:
  using Handle = std::shared_ptr<const ServableModel>;

  /// Loads every model of a store file into the registry (names taken from
  /// the store catalog; existing entries with the same name are replaced).
  Status LoadStore(const std::string& path);

  /// Loads one named model from a store file.
  Status LoadModel(const std::string& path, const std::string& name);

  /// Registers (or replaces) a model under `name`. Handles previously
  /// returned by Get() are unaffected.
  Handle Put(const std::string& name, ServableModel model);

  /// Put() for the hot-swap path: trusts an already-compiled plan instead
  /// of recompiling (compiles only when `model.plan` is null). Use only
  /// when the plan is guaranteed in sync with the model — e.g.
  /// MiningSession::Publish, whose session compiled both together.
  Handle PutPrecompiled(const std::string& name, ServableModel model);

  /// The current handle for `name`, or nullptr if absent.
  Handle Get(const std::string& name) const;

  /// Removes `name`; returns false if it was absent.
  bool Remove(const std::string& name);

  /// Registered names, sorted.
  std::vector<std::string> List() const;

  size_t size() const;

  // --- plan cache ---------------------------------------------------------

  /// The plan for a store-resident model, through the LRU plan cache.
  /// Cache miss: the model's mmap-native plan section is opened (zero
  /// decode, microseconds); a v2 entry without a section falls back to
  /// decode + compile — either way the result is cached. Scores are
  /// bit-identical across both paths. NotFound when the store has no such
  /// model.
  StatusOr<std::shared_ptr<const core::ScoringPlan>> OpenPlan(
      store::ModelStore& store, const std::string& name);

  /// Caps the plan cache's resident bytes (sum of ApproxBytes over cached
  /// plans), evicting least-recently-used entries immediately if the new
  /// cap is already exceeded. Default: 256 MiB.
  void SetPlanCacheCapacity(size_t bytes);

  /// Drops the cached plan for (store path, name) if present — call after
  /// re-saving a model so the next OpenPlan maps the fresh section.
  /// Handles already served keep the old plan alive; new opens see the
  /// new bytes.
  void InvalidateCachedPlan(const std::string& store_path,
                            const std::string& name);

  /// Bytes currently resident in the plan cache (the gauge
  /// `registry.plan_cache.resident_bytes` tracks the same value).
  size_t plan_cache_resident_bytes() const;

 private:
  struct CachedPlan {
    std::shared_ptr<const core::ScoringPlan> plan;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  static constexpr size_t kDefaultPlanCacheBytes = size_t{256} << 20;

  /// Evicts LRU entries until resident bytes fit the capacity. Requires
  /// plan_mu_ held.
  void EvictPlansLocked();

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Handle> models_;

  mutable std::mutex plan_mu_;
  /// Most-recently-used at the front; values are plan cache keys.
  std::list<std::string> plan_lru_;
  std::unordered_map<std::string, CachedPlan> plan_cache_;
  size_t plan_cache_capacity_ = kDefaultPlanCacheBytes;
  size_t plan_cache_bytes_ = 0;
};

}  // namespace cspm::engine

#endif  // CSPM_ENGINE_MODEL_REGISTRY_H_
