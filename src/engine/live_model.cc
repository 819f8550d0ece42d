#include "engine/live_model.h"

#include <memory>
#include <utility>

namespace cspm::engine {
namespace {

UpdateMode UpdateModeOf(store::WalDeltaMode mode) {
  return mode == store::WalDeltaMode::kFast ? UpdateMode::kFast
                                            : UpdateMode::kExact;
}

/// The mode a WAL record must carry so replay reproduces `stats`' path.
store::WalDeltaMode WalDeltaModeOf(const UpdateStats& stats) {
  return stats.fast_path ? store::WalDeltaMode::kFast
                         : store::WalDeltaMode::kExact;
}

}  // namespace

MiningOptions LiveModelOptions() {
  MiningOptions opts;
  opts.record_iteration_stats = false;
  opts.enable_updates = true;
  return opts;
}

StatusOr<ReplayedModel> ReplayModel(store::ModelStore& store,
                                    const std::string& name) {
  CSPM_ASSIGN_OR_RETURN(store::StoredModel stored, store.Get(name));
  if (!stored.graph.has_value()) {
    return Status::FailedPrecondition(
        "model '" + name +
        "' has no graph snapshot, so it cannot be mined or replayed; "
        "re-save it with one (cspm_shell: save " + name + ")");
  }
  CSPM_ASSIGN_OR_RETURN(store::ModelStore::WalReplay wal, store.ReadWal(name));
  CSPM_ASSIGN_OR_RETURN(
      MiningSession session,
      MiningSession::Create(std::make_shared<const graph::AttributedGraph>(
                                std::move(*stored.graph)),
                            LiveModelOptions()));
  CSPM_RETURN_IF_ERROR(session.Mine());
  for (size_t i = 0; i < wal.deltas.size(); ++i) {
    CSPM_RETURN_IF_ERROR(session.ApplyUpdates(
        wal.deltas[i], UpdateModeOf(wal.modes[i]), nullptr));
  }
  return ReplayedModel{std::move(session), wal.deltas.size(), wal.truncated,
                       wal.dropped};
}

StatusOr<UpdateStats> UpdateAndLog(MiningSession& session,
                                   const graph::GraphDelta& delta,
                                   UpdateMode mode, store::ModelStore* store,
                                   ModelRegistry& registry,
                                   const std::string& name) {
  UpdateStats stats;
  CSPM_RETURN_IF_ERROR(session.ApplyUpdates(delta, mode, &stats));
  if (store != nullptr) {
    Status appended = store->AppendDelta(name, delta, WalDeltaModeOf(stats));
    if (!appended.ok()) {
      return Status::IOError(
          "update applied to the live session but its delta could not be "
          "logged (" +
          appended.ToString() + "); still serving the previous model");
    }
  }
  CSPM_RETURN_IF_ERROR(session.Publish(registry, name).status());
  return stats;
}

}  // namespace cspm::engine
