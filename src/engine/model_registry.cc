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

/// Builds a ServableModel from a decoded record. `plan` is the mapped (or
/// cached) plan when the caller already opened one — then no compile
/// happens; null falls back to compiling here.
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
  m.CompilePlan();  // no-op when a plan was supplied
  return m;
}

/// Plan cache key: store path and model name, NUL-joined (page paths
/// cannot contain NUL, so the pair is unambiguous).
std::string PlanCacheKey(const std::string& store_path,
                         const std::string& name) {
  std::string key;
  key.reserve(store_path.size() + 1 + name.size());
  key += store_path;
  key += '\0';
  key += name;
  return key;
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
  return ServingEngine::Create(*graph, plan, options, std::move(keep_alive));
}

Status ModelRegistry::LoadStore(const std::string& path) {
  CSPM_ASSIGN_OR_RETURN(store::ModelStore store, store::ModelStore::Open(path));
  // Decode every record before touching the map, so a corrupt store never
  // leaves the registry partially updated. Plans come through the plan
  // cache — v3 entries map their on-disk section instead of compiling.
  std::vector<std::pair<std::string, Handle>> loaded;
  for (const store::ModelStore::Info& info : store.List()) {
    CSPM_ASSIGN_OR_RETURN(store::StoredModel stored, store.Get(info.name));
    CSPM_ASSIGN_OR_RETURN(auto plan, OpenPlan(store, info.name));
    loaded.emplace_back(info.name,
                        std::make_shared<const ServableModel>(FromStored(
                            std::move(stored), std::move(plan))));
  }
  std::unique_lock lock(mu_);
  for (auto& [name, handle] : loaded) {
    models_[name] = std::move(handle);
  }
  obs::GetGauge("registry.models")->Set(static_cast<double>(models_.size()));
  return Status::OK();
}

Status ModelRegistry::LoadModel(const std::string& path,
                                const std::string& name) {
  CSPM_ASSIGN_OR_RETURN(store::ModelStore store, store::ModelStore::Open(path));
  CSPM_ASSIGN_OR_RETURN(store::StoredModel stored, store.Get(name));
  CSPM_ASSIGN_OR_RETURN(auto plan, OpenPlan(store, name));
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

StatusOr<std::shared_ptr<const core::ScoringPlan>> ModelRegistry::OpenPlan(
    store::ModelStore& store, const std::string& name) {
  const std::string key = PlanCacheKey(store.path(), name);
  {
    std::lock_guard lock(plan_mu_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second.lru_it);
      obs::GetCounter("registry.plan_cache.hits")->Add();
      return it->second.plan;
    }
  }
  obs::GetCounter("registry.plan_cache.misses")->Add();

  // Open (or build) outside the cache lock: mapping is cheap, but the v2
  // fallback decodes a record, and either way there is no reason to hold
  // other lookups up.
  std::shared_ptr<const core::ScoringPlan> plan;
  auto mapped = store.OpenPlan(name);
  if (mapped.ok()) {
    plan = *std::move(mapped);
  } else if (mapped.status().code() == StatusCode::kNotFound) {
    // Either the model does not exist (then Get fails the same way), the
    // entry predates v3, or its section is a legacy version — decode +
    // compile, and cache the result so the fallback also pays once.
    CSPM_ASSIGN_OR_RETURN(store::StoredModel stored, store.Get(name));
    plan = core::CompileSharedPlan(stored.model, stored.dict.size());
  } else {
    return mapped.status();
  }

  std::lock_guard lock(plan_mu_);
  auto it = plan_cache_.find(key);
  if (it != plan_cache_.end()) {
    // Raced with a concurrent opener; keep the incumbent (any handles
    // already holding our copy stay valid on their own).
    plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second.lru_it);
    return it->second.plan;
  }
  const size_t bytes = plan->ApproxBytes();
  plan_lru_.push_front(key);
  plan_cache_[key] = CachedPlan{plan, bytes, plan_lru_.begin()};
  plan_cache_bytes_ += bytes;
  EvictPlansLocked();
  obs::GetGauge("registry.plan_cache.resident_bytes")
      ->Set(static_cast<double>(plan_cache_bytes_));
  return plan;
}

void ModelRegistry::SetPlanCacheCapacity(size_t bytes) {
  std::lock_guard lock(plan_mu_);
  plan_cache_capacity_ = bytes;
  EvictPlansLocked();
  obs::GetGauge("registry.plan_cache.resident_bytes")
      ->Set(static_cast<double>(plan_cache_bytes_));
}

void ModelRegistry::InvalidateCachedPlan(const std::string& store_path,
                                         const std::string& name) {
  std::lock_guard lock(plan_mu_);
  auto it = plan_cache_.find(PlanCacheKey(store_path, name));
  if (it == plan_cache_.end()) return;
  plan_cache_bytes_ -= it->second.bytes;
  plan_lru_.erase(it->second.lru_it);
  plan_cache_.erase(it);
  obs::GetGauge("registry.plan_cache.resident_bytes")
      ->Set(static_cast<double>(plan_cache_bytes_));
}

size_t ModelRegistry::plan_cache_resident_bytes() const {
  std::lock_guard lock(plan_mu_);
  return plan_cache_bytes_;
}

void ModelRegistry::EvictPlansLocked() {
  while (plan_cache_bytes_ > plan_cache_capacity_ && !plan_lru_.empty()) {
    auto it = plan_cache_.find(plan_lru_.back());
    plan_cache_bytes_ -= it->second.bytes;
    plan_cache_.erase(it);
    plan_lru_.pop_back();
    obs::GetCounter("registry.plan_cache.evictions")->Add();
  }
}

}  // namespace cspm::engine
