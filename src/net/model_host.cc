#include "net/model_host.h"

#include <utility>

#include "engine/live_model.h"
#include "graph/graph_delta.h"
#include "util/string_util.h"

namespace cspm::net {

StatusOr<std::unique_ptr<ModelHost>> ModelHost::Open(
    const std::string& store_path, Options options) {
  CSPM_ASSIGN_OR_RETURN(store::ModelStore store,
                        store::ModelStore::Open(store_path));
  // unique_ptr: the registry's shared_mutex makes the host immovable.
  std::unique_ptr<ModelHost> host(
      new ModelHost(std::move(store), options));  // lint:allow naked-new (private ctor)
  for (const store::ModelStore::Info& info : host->store_->List()) {
    if (info.wal_records == 0) {
      // Clean record: serve straight off the store (mmap plan section —
      // no decode of the model, no mine). A session is created lazily on
      // the first update.
      CSPM_RETURN_IF_ERROR(
          host->registry_.LoadModel(*host->store_, info.name));
      continue;
    }
    // Pending deltas: the record alone is stale. Rebuild the acknowledged
    // state exactly as `cspm_shell replay` would.
    CSPM_RETURN_IF_ERROR(host->EnsureLive(info.name));
  }
  return host;
}

Status ModelHost::EnsureLive(const std::string& model) {
  if (sessions_.find(model) != sessions_.end()) return Status::OK();
  // Open() replays models with pending deltas here; Update() the first
  // time a model served straight off its record is updated. A torn WAL
  // tail is truncated to the valid prefix that was replayed, so the record
  // plus the kept deltas replay to exactly the session served from here
  // on, and later updates append after them. Known gap (ROADMAP,
  // "Recovery that reproduces what was acknowledged"): the replay mines
  // the snapshot cold, so when the record itself was saved after kFast
  // updates, the live session's model is a cold mine, not the
  // path-dependent fast model the registry was serving. Only a record
  // whose model came from a cold mine or a kExact update replays
  // bit-identically.
  CSPM_ASSIGN_OR_RETURN(engine::ReplayedModel replayed,
                        engine::ReplayModel(*store_, model));
  if (replayed.truncated) {
    CSPM_RETURN_IF_ERROR(store_->TruncateWal(model, replayed.deltas));
  }
  CSPM_RETURN_IF_ERROR(replayed.session.Publish(registry_, model).status());
  sessions_.insert_or_assign(model, std::move(replayed.session));
  return Status::OK();
}

Status ModelHost::ValidateScore(
    const std::string& model,
    std::span<const graph::VertexId> vertices) const {
  const engine::ModelRegistry::Handle handle = registry_.Get(model);
  if (handle == nullptr) {
    return Status::NotFound("no model named '" + model + "'");
  }
  if (handle->graph == nullptr) {
    return Status::FailedPrecondition(
        "model '" + model +
        "' has no graph snapshot; vertex scoring unavailable");
  }
  const uint32_t n = handle->graph->num_vertices().value();
  for (const graph::VertexId v : vertices) {
    if (v.value() >= n) {
      return Status::OutOfRange(
          StrFormat("vertex %u out of range (graph has %u vertices)",
                          v.value(), n));
    }
  }
  return Status::OK();
}

StatusOr<const engine::ServingEngine*> ModelHost::EngineFor(
    const std::string& model) {
  const engine::ModelRegistry::Handle handle = registry_.Get(model);
  if (handle == nullptr) {
    return Status::NotFound("no model named '" + model + "'");
  }
  auto it = engines_.find(model);
  if (it != engines_.end() && it->second.built_from == handle.get()) {
    return &it->second.engine;
  }
  engine::ServingOptions serve_opts;
  serve_opts.pool = pool_;
  CSPM_ASSIGN_OR_RETURN(engine::ServingEngine engine,
                        handle->Serve(serve_opts));
  // The engine retains the ServableModel it was built from, so dropping
  // the previous cache entry after a hot swap is safe even if a batch on
  // the old handle were still in flight elsewhere.
  auto [pos, inserted] = engines_.insert_or_assign(
      model, CachedEngine{handle.get(), std::move(engine)});
  (void)inserted;
  return &pos->second.engine;
}

StatusOr<std::vector<core::AttributeScores>> ModelHost::Score(
    const std::string& model, std::span<const graph::VertexId> vertices) {
  CSPM_ASSIGN_OR_RETURN(const engine::ServingEngine* engine,
                        EngineFor(model));
  return engine->ScoreBatch(vertices);
}

StatusOr<engine::UpdateStats> ModelHost::Update(
    const std::string& model, const graph::GraphDelta& delta,
    engine::UpdateMode mode) {
  CSPM_RETURN_IF_ERROR(EnsureLive(model));
  engine::MiningSession& session = sessions_.at(model);
  // Held so the identity check below cannot see a reused address.
  const std::shared_ptr<const graph::AttributedGraph> before =
      session.shared_graph();
  StatusOr<engine::UpdateStats> stats = engine::UpdateAndLog(
      session, delta, mode, store_.get(), registry_, model);
  if (!stats.ok() && session.shared_graph() != before) {
    // The session took the delta but the store or the registry did not:
    // drop it, so the next update replays what the store holds.
    sessions_.erase(model);
  }
  return stats;
}

}  // namespace cspm::net
