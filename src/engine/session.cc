#include "engine/session.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "cspm/miner.h"
#include "cspm/serialization.h"
#include "cspm/verify.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/codec.h"
#include "store/model_store.h"
#include "util/check.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace cspm::engine {
struct MiningSession::Impl {
  /// The session's current graph. Create() aliases the caller's graph
  /// (non-owning); ApplyUpdates replaces it with an owned mutated graph.
  /// Shared so serving engines built before an update keep the graph they
  /// were scoring alive.
  std::shared_ptr<const graph::AttributedGraph> graph;
  MiningOptions options;
  CspmModel model;
  bool has_model = false;
  /// Compiled scoring plan of `model`; rebuilt whenever the model changes.
  /// Shared so ServingEngines and registry handles can outlive a re-mine.
  std::shared_ptr<const core::ScoringPlan> plan;
  /// Final inverted database of the last mine or fast re-mine, kept under
  /// options.enable_updates (the kFast starting point, and what
  /// VerifyLossless checks).
  std::optional<core::InvertedDatabase> database;

  /// Installs `m` as the current model and compiles its plan.
  void SetModel(CspmModel m) {
    model = std::move(m);
    {
      // Nested under whatever phase is active ("phase.update.plan_recompile"
      // during ApplyUpdates); the flat compile histogram is recorded inside
      // ScoringPlan::Compile itself.
      obs::TraceSpan recompile_span("plan_recompile");
      plan = core::CompileSharedPlan(model, graph->num_attribute_values());
    }
    obs::GetGauge("mdl.current_dl_bits")->Set(model.stats.final_dl_bits);
    has_model = true;
    database.reset();
  }

  /// Installs a full mining result, keeping its database under
  /// options.enable_updates.
  void SetArtifacts(core::CspmMiner::MineArtifacts artifacts) {
    SetModel(std::move(artifacts.model));
    if (options.enable_updates) {
      database.emplace(std::move(artifacts.inverted_db));
    }
  }
};

MiningSession::MiningSession(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
MiningSession::MiningSession(MiningSession&&) noexcept = default;
MiningSession& MiningSession::operator=(MiningSession&&) noexcept = default;
MiningSession::~MiningSession() = default;

StatusOr<MiningSession> MiningSession::Create(const graph::AttributedGraph& g,
                                              MiningOptions options) {
  // Aliasing handle: the caller owns the graph (and must keep it alive),
  // exactly as before — shared ownership starts at the first ApplyUpdates.
  return Create(std::shared_ptr<const graph::AttributedGraph>(
                    std::shared_ptr<const void>(), &g),
                std::move(options));
}

StatusOr<MiningSession> MiningSession::Create(
    std::shared_ptr<const graph::AttributedGraph> g, MiningOptions options) {
  if (g == nullptr) {
    return Status::InvalidArgument("MiningSession needs a non-null graph");
  }
  auto impl = std::make_unique<Impl>();
  impl->graph = std::move(g);
  impl->options = std::move(options);
  return MiningSession(std::move(impl));
}

Status MiningSession::Mine() {
  auto artifacts_or =
      core::CspmMiner(impl_->options).MineWithArtifacts(*impl_->graph);
  if (!artifacts_or.ok()) return artifacts_or.status();
  impl_->SetArtifacts(std::move(artifacts_or).value());
  return Status::OK();
}

Status MiningSession::ApplyUpdates(const graph::GraphDelta& delta,
                                   UpdateStats* stats) {
  return ApplyUpdates(delta, UpdateMode::kExact, stats);
}

Status MiningSession::ApplyUpdates(const graph::GraphDelta& delta,
                                   UpdateMode mode, UpdateStats* stats) {
  WallTimer timer;
  obs::TraceSpan update_span("update");
  obs::GetCounter("update.deltas")->Add(1);
  UpdateStats local;
  UpdateStats& out = stats != nullptr ? *stats : local;
  out = {};
  if (!impl_->has_model) {
    return Status::FailedPrecondition(
        "ApplyUpdates needs a mined model: Mine() first");
  }
  out.dl_before_bits = impl_->model.stats.final_dl_bits;
  auto applied_or = [&] {
    obs::TraceSpan graph_patch_span("graph_patch");
    return graph::ApplyDelta(*impl_->graph, delta);
  }();
  if (!applied_or.ok()) return applied_or.status();
  graph::DeltaApplication applied = std::move(applied_or).value();
  out.dirty_vertices = applied.dirty_vertices.size();
  obs::GetCounter("update.dirty_vertices")->Add(applied.dirty_vertices.size());
  auto new_graph = std::make_shared<const graph::AttributedGraph>(
      std::move(applied.graph));

  // kFast continues from the final database (DESIGN.md §9), which SLIM
  // covers cannot patch; its contract only covers kPartial (the
  // convergence argument needs the drained store). Everything else, kExact
  // included, re-mines the spliced graph cold: bit-identical to a cold
  // mine by construction.
  const bool fast = mode == UpdateMode::kFast &&
                    !impl_->options.multi_value_coresets &&
                    impl_->options.strategy == SearchStrategy::kPartial &&
                    impl_->database.has_value() &&
                    impl_->database->num_coresets() > 0;
  core::CspmMiner miner(impl_->options);
  core::FastResumeStats fast_stats;
  auto artifacts_or = [&]() -> StatusOr<core::CspmMiner::MineArtifacts> {
    if (!fast) {
      obs::TraceSpan resume_span("resume");
      return miner.MineWithArtifacts(*new_graph);
    }
    core::DeltaPatchStats patch;
    {
      obs::TraceSpan db_patch_span("db_patch");
      CSPM_RETURN_IF_ERROR(impl_->database->ApplyDeltaMerged(
          *impl_->graph, *new_graph, applied.dirty_vertices, &patch));
    }
    obs::TraceSpan resume_span("resume");
    return miner.ResumeFast(*new_graph, *std::move(impl_->database), patch,
                            /*all_dirty=*/applied.attributes_changed,
                            &fast_stats);
  }();
  if (!artifacts_or.ok()) {
    // A failed fast path leaves the final database half patched (or moved
    // out): drop it, so later updates re-mine cold.
    if (fast) impl_->database.reset();
    return artifacts_or.status();
  }
  if (fast) {
    out.fast_path = true;
    out.split_undos = fast_stats.splits;
    out.reseeded_pairs = fast_stats.seeded_pairs;
    obs::GetCounter("update.unmerge_splits")->Add(fast_stats.splits);
    obs::GetCounter("update.reseeded_pairs")->Add(fast_stats.seeded_pairs);
  }
  // Swap the graph before SetArtifacts: the plan compiles against the new
  // attribute space. Serving engines built earlier hold the old shared
  // graph + plan.
  impl_->graph = std::move(new_graph);
  impl_->SetArtifacts(std::move(artifacts_or).value());
  out.dl_after_bits = impl_->model.stats.final_dl_bits;
  out.apply_seconds = timer.ElapsedSeconds();
  // DL delta per update: the drift signal (encoded-length trajectory
  // under live deltas).
  obs::GetGauge("mdl.last_update_dl_delta_bits")
      ->Set(out.dl_after_bits - out.dl_before_bits);
  return Status::OK();
}

bool MiningSession::has_model() const { return impl_->has_model; }

const CspmModel& MiningSession::model() const {
  CSPM_CHECK_MSG(impl_->has_model, "Mine() or LoadModel() first");
  return impl_->model;
}

const MiningStats& MiningSession::stats() const { return model().stats; }

const graph::AttributedGraph& MiningSession::graph() const {
  return *impl_->graph;
}

std::shared_ptr<const graph::AttributedGraph> MiningSession::shared_graph()
    const {
  return impl_->graph;
}

AttributeScores MiningSession::Score(graph::VertexId v,
                                     const ScoringOptions& options) const {
  CSPM_CHECK_MSG(impl_->has_model, "Mine() or LoadModel() first");
  std::vector<graph::AttrId> neighbourhood;
  core::GatherNeighbourhoodAttrs(*impl_->graph, v, &neighbourhood);
  return impl_->plan->Score(neighbourhood, options);
}

StatusOr<std::vector<AttributeScores>> MiningSession::ScoreBatch(
    std::span<const graph::VertexId> vertices,
    const ServingOptions& options) const {
  CSPM_ASSIGN_OR_RETURN(ServingEngine engine, Serve(options));
  return engine.ScoreBatch(vertices);
}

StatusOr<ServingEngine> MiningSession::Serve(ServingOptions options) const {
  if (!impl_->has_model) {
    return Status::FailedPrecondition("no model: Mine() or LoadModel() first");
  }
  // The engine retains the session's current graph: after an
  // ApplyUpdates hot swap it keeps scoring the graph it was built on.
  return ServingEngine::Create(*impl_->graph, impl_->plan, std::move(options),
                               impl_->graph);
}

std::shared_ptr<const core::ScoringPlan> MiningSession::plan() const {
  return impl_->plan;
}

StatusOr<ModelRegistry::Handle> MiningSession::Publish(
    ModelRegistry& registry, const std::string& name) const {
  if (!impl_->has_model) {
    return Status::FailedPrecondition("no model: Mine() or LoadModel() first");
  }
  ServableModel servable;
  servable.model = impl_->model;
  servable.dict = impl_->graph->dict();
  servable.graph = impl_->graph;
  if (servable.graph.use_count() == 0) {
    // Pre-update sessions alias the caller's graph without owning it; the
    // registry handle can outlive that scope, so snapshot-copy the graph
    // rather than handing out a pointer that dangles with the caller.
    servable.graph =
        std::make_shared<const graph::AttributedGraph>(*impl_->graph);
  }
  servable.plan = impl_->plan;
  return registry.PutPrecompiled(name, std::move(servable));
}

std::string MiningSession::SerializeModel() const {
  return core::ModelToText(model(), impl_->graph->dict());
}

Status MiningSession::DeserializeModel(const std::string& text) {
  auto model_or = core::ModelFromText(text, impl_->graph->dict());
  if (!model_or.ok()) return model_or.status();
  impl_->SetModel(std::move(model_or).value());
  return Status::OK();
}

namespace {

bool WantsBinaryStore(const std::string& path, ModelFileFormat format) {
  if (format == ModelFileFormat::kBinaryStore) return true;
  if (format == ModelFileFormat::kText) return false;
  return path.size() >= 5 && path.compare(path.size() - 5, 5, ".cspm") == 0;
}

}  // namespace

Status MiningSession::SaveModel(const std::string& path,
                                const SaveModelOptions& options) const {
  if (!WantsBinaryStore(path, options.format)) {
    return core::SaveModelToFile(model(), impl_->graph->dict(), path);
  }
  auto store_or = store::ModelStore::OpenOrCreate(path);
  if (!store_or.ok()) return store_or.status();
  store::StoredModel stored;
  stored.model = model();
  stored.dict = impl_->graph->dict();
  if (options.include_graph) stored.graph = *impl_->graph;
  return store_or->Put(options.model_name, stored);
}

namespace {

// A store record carries its own dictionary; rewrite the attribute ids
// onto the session graph's (exactly what the text loader does by name).
StatusOr<core::CspmModel> GetRemapped(store::ModelStore& store,
                                      const std::string& model_name,
                                      const graph::AttributeDictionary& dict) {
  CSPM_ASSIGN_OR_RETURN(store::StoredModel stored, store.Get(model_name));
  return store::RemapModelAttributes(stored.model, stored.dict, dict);
}

}  // namespace

Status MiningSession::LoadModel(const std::string& path) {
  if (!store::ModelStore::IsStoreFile(path)) {
    auto model_or = core::LoadModelFromFile(path, impl_->graph->dict());
    if (!model_or.ok()) return model_or.status();
    impl_->SetModel(std::move(model_or).value());
    return Status::OK();
  }
  auto store_or = store::ModelStore::Open(path);
  if (!store_or.ok()) return store_or.status();
  std::string name = "default";
  if (!store_or->Contains(name)) {
    if (store_or->size() != 1) {
      return Status::InvalidArgument(StrFormat(
          "store %s holds %zu models and none named 'default'; pick one "
          "with LoadModel(path, model_name)",
          path.c_str(), store_or->size()));
    }
    name = store_or->List().front().name;
  }
  auto model_or = GetRemapped(*store_or, name, impl_->graph->dict());
  if (!model_or.ok()) return model_or.status();
  impl_->SetModel(std::move(model_or).value());
  return Status::OK();
}

Status MiningSession::LoadModel(const std::string& path,
                                const std::string& model_name) {
  auto store_or = store::ModelStore::Open(path);
  if (!store_or.ok()) return store_or.status();
  auto model_or = GetRemapped(*store_or, model_name, impl_->graph->dict());
  if (!model_or.ok()) return model_or.status();
  impl_->SetModel(std::move(model_or).value());
  return Status::OK();
}

Status MiningSession::VerifyLossless() const {
  if (!impl_->has_model) {
    return Status::FailedPrecondition("no mined model to verify");
  }
  if (!impl_->database.has_value()) {
    return Status::FailedPrecondition(
        "VerifyLossless requires MiningOptions::enable_updates");
  }
  return core::VerifyLossless(*impl_->graph, *impl_->database);
}

StatusOr<CspmModel> MineModel(const graph::AttributedGraph& g,
                              const MiningOptions& options) {
  // Runs the miner directly rather than through a session: the model moves
  // straight out instead of being copied from session state.
  return core::CspmMiner(options).Mine(g);
}

}  // namespace cspm::engine
