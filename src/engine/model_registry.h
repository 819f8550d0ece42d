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
//  - LoadModel() maps a stored model's plan section. The handle is the
//    only pin on that mapping: it stays valid, even after the store is
//    closed or the model re-saved, until the last handle and engine drop
//    it.
#ifndef CSPM_ENGINE_MODEL_REGISTRY_H_
#define CSPM_ENGINE_MODEL_REGISTRY_H_

#include <cstddef>
#include <memory>
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
  /// PutPrecompiled compile it, LoadModel maps it. Scoring requires it.
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

  /// Loads one named model from the caller's open store, replacing any
  /// entry of that name. The record is decoded once; the plan is the
  /// store's mmap plan section, never a compile. Returns the store's error
  /// (NotFound when it has no such model) and registers nothing then.
  Status LoadModel(store::ModelStore& store, const std::string& name);

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

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Handle> models_;
};

}  // namespace cspm::engine

#endif  // CSPM_ENGINE_MODEL_REGISTRY_H_
