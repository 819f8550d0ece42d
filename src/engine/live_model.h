// The store-backed live model: one recipe for a model that is mined from a
// store snapshot, rolled forward through the store's WAL, updated, logged
// and hot-swapped. cspm_shell, the server's ModelHost and cspm_client all
// go through it, so the three agree on the session options, on how a WAL
// record's mode maps to an update mode, and on the update → log →
// publish order (DESIGN.md §9).
#ifndef CSPM_ENGINE_LIVE_MODEL_H_
#define CSPM_ENGINE_LIVE_MODEL_H_

#include <cstddef>
#include <string>

#include "engine/model_registry.h"
#include "engine/session.h"
#include "graph/graph_delta.h"
#include "store/model_store.h"
#include "util/status.h"

namespace cspm::engine {

/// The MiningOptions of a live session: the final database is kept for
/// kFast updates, and per-iteration stats (which nothing reads after a
/// live mine) are not recorded.
MiningOptions LiveModelOptions();

/// A live session rebuilt from a store record.
struct ReplayedModel {
  MiningSession session;
  /// WAL records rolled forward.
  size_t deltas = 0;
  /// True when a corrupt or truncated tail record stopped the WAL walk:
  /// the session reflects the valid prefix, `dropped` records were lost.
  bool truncated = false;
  size_t dropped = 0;
};

/// Mines `name`'s graph snapshot under LiveModelOptions(), then rolls its
/// pending WAL deltas forward, each in the mode it was logged with: a fast
/// update's model is path-dependent, so reproducing the acknowledged state
/// means reproducing its path. Never writes to `store` (a client may
/// replay a server's file); the owner of the store drops a salvaged torn
/// tail with ModelStore::TruncateWal(name, deltas) — otherwise later
/// updates would append after the unreadable records and be lost at the
/// next replay.
StatusOr<ReplayedModel> ReplayModel(store::ModelStore& store,
                                    const std::string& name);

/// One live update: ApplyUpdates, then (when `store` is non-null) the
/// delta is appended to `name`'s WAL in the mode that actually ran (a kFast
/// request can fall back to a cold re-mine), then the session is published
/// to `registry` under `name`. The publish happens only after the append
/// succeeded: if logging fails, the registry keeps serving the model the
/// store can reproduce, and the error says so.
StatusOr<UpdateStats> UpdateAndLog(MiningSession& session,
                                   const graph::GraphDelta& delta,
                                   UpdateMode mode, store::ModelStore* store,
                                   ModelRegistry& registry,
                                   const std::string& name);

}  // namespace cspm::engine

#endif  // CSPM_ENGINE_LIVE_MODEL_H_
