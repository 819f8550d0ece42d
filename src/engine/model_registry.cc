#include "engine/model_registry.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/model_store.h"
#include "util/check.h"
#include "util/string_util.h"

namespace cspm::engine {
namespace {

/// Builds a ServableModel from a decoded record and its mapped plan.
ServableModel FromStored(store::StoredModel stored,
                         std::shared_ptr<const core::ScoringPlan> plan) {
  ServableModel m;
  m.model = std::move(stored.model);
  m.dict = std::move(stored.dict);
  if (stored.graph.has_value()) {
    m.graph = std::make_shared<const graph::AttributedGraph>(
        std::move(*stored.graph));
  }
  m.plan = std::move(plan);
  return m;
}

}  // namespace

void ServableModel::CompilePlan() {
  if (plan != nullptr) return;
  plan = core::CompileSharedPlan(model, dict.size());
}

StatusOr<core::AttributeScores> ServableModel::ScoreVertex(
    graph::VertexId v, const core::ScoringOptions& options) const {
  if (graph == nullptr) {
    return Status::FailedPrecondition("model has no graph snapshot");
  }
  if (v >= graph->num_vertices()) {
    return Status::OutOfRange(
        StrFormat("vertex %u out of range (%u vertices)", v.value(),
                  graph->num_vertices().value()));
  }
  if (graph->num_attribute_values() != dict.size()) {
    return Status::FailedPrecondition(StrFormat(
        "model dictionary does not cover the graph snapshot: %zu attribute "
        "values vs %zu in the graph",
        dict.size(), graph->num_attribute_values()));
  }
  CSPM_CHECK_MSG(plan != nullptr, "register the model to compile its plan");
  std::vector<graph::AttrId> neighbourhood;
  core::GatherNeighbourhoodAttrs(*graph, v, &neighbourhood);
  return plan->Score(neighbourhood, options);
}

StatusOr<ServingEngine> ServableModel::Serve(ServingOptions options) const {
  if (graph == nullptr) {
    return Status::FailedPrecondition(
        "model has no graph snapshot; batch serving needs one");
  }
  // Shared-owned instances (registry handles) are retained by the engine;
  // lock() is null for stack instances, whose graph shared_ptr keeps the
  // snapshot alive on its own.
  std::shared_ptr<const void> keep_alive = weak_from_this().lock();
  if (keep_alive == nullptr) keep_alive = graph;
  return ServingEngine::Create(*graph, plan, std::move(options),
                               std::move(keep_alive));
}

Status ModelRegistry::LoadModel(store::ModelStore& store,
                                const std::string& name) {
  CSPM_ASSIGN_OR_RETURN(store::StoredModel stored, store.Get(name));
  CSPM_ASSIGN_OR_RETURN(std::shared_ptr<const core::ScoringPlan> plan,
                        store.OpenPlan(name));
  auto handle = std::make_shared<const ServableModel>(
      FromStored(std::move(stored), std::move(plan)));
  std::unique_lock lock(mu_);
  models_[name] = std::move(handle);
  obs::GetGauge("registry.models")->Set(static_cast<double>(models_.size()));
  return Status::OK();
}

ModelRegistry::Handle ModelRegistry::Put(const std::string& name,
                                         ServableModel model) {
  // Registration compiles the plan (outside the lock), so every handle
  // serves batch traffic without a per-request compile and a replacement
  // swaps plan + model atomically with the pointer. Always recompiled:
  // the caller may have mutated `model`/`dict` after an earlier compile,
  // and a stale plan would silently serve the old model's scores.
  model.plan = nullptr;
  obs::ScopedPhaseTimer swap_timer(
      obs::GetHistogram("phase.registry.hot_swap"));
  model.CompilePlan();
  auto handle = std::make_shared<const ServableModel>(std::move(model));
  std::unique_lock lock(mu_);
  models_[name] = handle;
  obs::GetGauge("registry.models")->Set(static_cast<double>(models_.size()));
  return handle;
}

ModelRegistry::Handle ModelRegistry::PutPrecompiled(const std::string& name,
                                                    ServableModel model) {
  obs::ScopedPhaseTimer swap_timer(
      obs::GetHistogram("phase.registry.hot_swap"));
  model.CompilePlan();  // no-op when the caller supplied a plan
  auto handle = std::make_shared<const ServableModel>(std::move(model));
  std::unique_lock lock(mu_);
  models_[name] = handle;
  obs::GetGauge("registry.models")->Set(static_cast<double>(models_.size()));
  return handle;
}

ModelRegistry::Handle ModelRegistry::Get(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

bool ModelRegistry::Remove(const std::string& name) {
  std::unique_lock lock(mu_);
  const bool removed = models_.erase(name) > 0;
  obs::GetGauge("registry.models")->Set(static_cast<double>(models_.size()));
  return removed;
}

std::vector<std::string> ModelRegistry::List() const {
  std::vector<std::string> names;
  {
    std::shared_lock lock(mu_);
    names.reserve(models_.size());
    for (const auto& [name, handle] : models_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

size_t ModelRegistry::size() const {
  std::shared_lock lock(mu_);
  return models_.size();
}

}  // namespace cspm::engine
