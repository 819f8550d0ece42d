// The server's model plane: everything between a store file on disk and
// a scoreable, updatable set of named models. cspm_serve's data plane
// (src/net/server.cc) stays pure transport — it parses frames, batches
// requests and calls into this host.
//
// Open() loads every cataloged model. A model with no pending WAL loads
// through ModelRegistry::LoadModel (mmap plan section, microseconds); a
// model with pending WAL records is rebuilt by engine::ReplayModel, as
// `cspm_shell replay` does — deterministic Mine() from the snapshot, then
// each delta rolled forward in its recorded mode — so the served model
// reflects every update that was acknowledged before a crash (DESIGN.md
// §9, §13).
//
// Threading contract (enforced by the server, documented here):
//  - List() / ValidateScore() are safe from any thread: they only touch
//    the internally synchronized registry and immutable handles.
//  - Score() / Update() must be called from one thread at a time (the
//    server's executor thread). Update is a write to the live session;
//    Score reuses a cached ServingEngine keyed by the registry handle,
//    rebuilt after a hot swap.
//  - Scoring parallelism is per host, not per model: Open builds one
//    engine::ScorePool of `score_threads` slots, and every cached engine
//    borrows it, so an engine rebuilt after a hot swap starts no thread
//    and allocates no scratch.
#ifndef CSPM_NET_MODEL_HOST_H_
#define CSPM_NET_MODEL_HOST_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/model_registry.h"
#include "engine/serving.h"
#include "engine/session.h"
#include "store/model_store.h"
#include "util/status.h"

namespace cspm::net {

class ModelHost {
 public:
  struct Options {
    /// Slots of the host's one ScorePool, which shards every model's
    /// batches: 0 = one per hardware core (default), 1 = serial on the
    /// executor thread. Results are bit-identical at any setting.
    uint32_t score_threads = 0;
  };

  /// Opens the store and brings every cataloged model live (WAL replay
  /// where needed, see above). Fails if any model cannot be served — a
  /// server that silently drops a tenant at startup is worse than one
  /// that refuses to start.
  static StatusOr<std::unique_ptr<ModelHost>> Open(
      const std::string& store_path, Options options);
  static StatusOr<std::unique_ptr<ModelHost>> Open(
      const std::string& store_path) {
    return Open(store_path, Options());
  }

  /// Registered model names, sorted.
  std::vector<std::string> List() const { return registry_.List(); }

  /// Admission-time validation (any thread): the model exists, carries a
  /// graph snapshot, and every vertex id is in range. Running this before
  /// enqueueing means a coalesced batch cannot fail validation mid-flush
  /// — one bad request never poisons its batchmates. Deltas never remove
  /// vertices, so an id that validates here stays valid across hot swaps.
  Status ValidateScore(const std::string& model,
                       std::span<const graph::VertexId> vertices) const;

  /// Scores a batch (executor thread only). Output slot i holds
  /// vertices[i]; results are bit-identical to an in-process
  /// session.ScoreBatch over the same model state.
  StatusOr<std::vector<core::AttributeScores>> Score(
      const std::string& model, std::span<const graph::VertexId> vertices);

  /// Applies a graph delta (executor thread only) through
  /// engine::UpdateAndLog, the shell's update sequence: ApplyUpdates →
  /// AppendDelta in the mode that actually ran → Publish (hot swap). If
  /// the WAL append fails the swap does not happen and the error says so;
  /// the session, which already holds the unlogged delta, is dropped, so
  /// the next update first replays the model from the store (EnsureLive).
  /// The registry thus keeps serving the model the store can reproduce,
  /// now and after that update. A delta the session rejects changes
  /// nothing and keeps the session.
  StatusOr<engine::UpdateStats> Update(const std::string& model,
                                       const graph::GraphDelta& delta,
                                       engine::UpdateMode mode);

  engine::ModelRegistry& registry() { return registry_; }
  store::ModelStore& store() { return *store_; }

 private:
  ModelHost(store::ModelStore store, Options options)
      : store_(std::make_unique<store::ModelStore>(std::move(store))),
        pool_(std::make_shared<engine::ScorePool>(options.score_threads)) {}

  /// Ensures a live MiningSession exists for `model`, replaying it from
  /// the store (engine::ReplayModel) and publishing it when it does not.
  /// A salvaged torn WAL tail is dropped (ModelStore::TruncateWal) before
  /// the publish.
  Status EnsureLive(const std::string& model);

  /// The cached engine for `model`, rebuilt when the registry handle
  /// changed since it was built (hot swap invalidation by pointer
  /// identity). Executor thread only.
  StatusOr<const engine::ServingEngine*> EngineFor(const std::string& model);

  std::unique_ptr<store::ModelStore> store_;
  /// Shared by every cached engine; used only from the executor thread.
  std::shared_ptr<engine::ScorePool> pool_;
  engine::ModelRegistry registry_;
  /// Live sessions (update state); mutated only on the executor thread
  /// (and in Open, before the server threads exist).
  std::map<std::string, engine::MiningSession> sessions_;
  struct CachedEngine {
    /// Identity of the handle the engine was built from; a hot swap
    /// changes it, invalidating the cache entry.
    const engine::ServableModel* built_from = nullptr;
    engine::ServingEngine engine;
  };
  std::map<std::string, CachedEngine> engines_;
};

}  // namespace cspm::net

#endif  // CSPM_NET_MODEL_HOST_H_
