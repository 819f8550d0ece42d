// The engine facade: the single entry point application layers use to run
// CSPM. Consumers (examples, the completion and alarm apps, the tools)
// build a MiningSession from a graph, mine, score, and serialize through
// it, and never call the storage (InvertedDatabase / PosListPool) or
// search (CspmMiner / candidates) layers (see DESIGN.md §1).
//
// Mining options are the core's own (core::CspmOptions plus one session
// field), and the result types (CspmModel, AStarTable, AStarRef, AStar,
// MiningStats, AttributeScores) are the stable model-level vocabulary;
// both are re-exported here.
#ifndef CSPM_ENGINE_SESSION_H_
#define CSPM_ENGINE_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cspm/miner.h"
#include "cspm/model.h"
#include "cspm/scoring.h"
#include "cspm/scoring_plan.h"
#include "engine/model_registry.h"
#include "engine/serving.h"
#include "graph/attributed_graph.h"
#include "graph/graph_delta.h"
#include "util/status.h"

namespace cspm::engine {

// Model-level result vocabulary, re-exported for consumers.
using core::AStar;
using core::AStarRef;
using core::AStarTable;
using core::AttributeScores;
using core::CspmModel;
using core::IterationStats;
using core::MiningStats;
using core::ScoringOptions;

// Option vocabulary of MiningOptions, re-exported likewise.
using core::GainPolicy;
using core::SearchStrategy;

/// On-disk format for SaveModel. Loading always auto-detects by magic.
enum class ModelFileFormat {
  kAuto,         ///< ".cspm" extension → binary store, anything else → text
  kText,         ///< line-oriented text (cspm/serialization.h)
  kBinaryStore,  ///< paged binary store (store/model_store.h)
};

/// Knobs for MiningSession::SaveModel when writing a binary store.
struct SaveModelOptions {
  ModelFileFormat format = ModelFileFormat::kAuto;
  /// Catalog name of the record (stores hold many models per file).
  std::string model_name = "default";
  /// Embed a snapshot of the session's graph so the record can serve
  /// vertex-level scoring with no external data at all.
  bool include_graph = false;
};

/// Mining knobs: the core's options (the search strategy, the gain
/// policy, SLIM coresets, budgets) plus what only a session
/// does with the result.
struct MiningOptions : core::CspmOptions {
  /// Retain the final inverted database: UpdateMode::kFast continues from
  /// it instead of re-mining cold, and VerifyLossless() checks it. Off by
  /// default: the database can dwarf the model. Under
  /// multi_value_coresets kFast still re-mines cold (SLIM covers cannot
  /// be patched).
  bool enable_updates = false;
};

/// How ApplyUpdates re-mines after splicing the graph.
enum class UpdateMode {
  /// Mine the spliced graph cold: the model is bit-identical to a cold
  /// mine of the mutated graph by construction (the default). CSPM is
  /// parameter-free, so an exact model depends on the graph alone.
  kExact,
  /// Continue from the *final* mined model: patch its merged database,
  /// undo merges whose gain went negative, re-evaluate only dirty-core
  /// pairs, and merge from there. Path-dependent — the description length
  /// tracks a cold mine within a small ε but the bits may differ. Falls
  /// back to kExact without MiningOptions::enable_updates, under
  /// multi_value_coresets, or when the strategy is not kPartial.
  kFast,
};

/// What one ApplyUpdates call did (observability for benches / the shell).
struct UpdateStats {
  /// Vertices whose neighbourhood the delta changed (graph::ApplyDelta's
  /// dirty set).
  size_t dirty_vertices = 0;
  /// kFast only: the repair-scope pairs seeded into the candidate store.
  /// 0 when the update re-mined cold (kExact, or a kFast fallback).
  uint64_t reseeded_pairs = 0;
  /// True when the continue-from-final-model path actually ran (kFast
  /// requested and eligible); false when the update re-mined cold.
  bool fast_path = false;
  /// kFast only: merged lines undone because the delta flipped their gain.
  uint64_t split_undos = 0;
  /// Total description length of the model before / after the update, in
  /// bits (the shell's DL-delta report).
  double dl_before_bits = 0.0;
  double dl_after_bits = 0.0;
  /// End-to-end wall time of the update: graph splice + (kFast) database
  /// patch + re-mine + plan recompile.
  double apply_seconds = 0.0;
};

/// One mining run over one graph: build from the graph, mine, then score
/// vertices and serialize the model. The graph must outlive the session.
/// Move-only.
class MiningSession {
 public:
  static StatusOr<MiningSession> Create(const graph::AttributedGraph& g,
                                        MiningOptions options = {});

  /// Shared-ownership variant: the session co-owns the graph, so
  /// Publish() shares it with registry handles instead of snapshotting a
  /// copy, and the caller's scope no longer bounds the session's.
  static StatusOr<MiningSession> Create(
      std::shared_ptr<const graph::AttributedGraph> g,
      MiningOptions options = {});

  MiningSession(MiningSession&&) noexcept;
  MiningSession& operator=(MiningSession&&) noexcept;
  ~MiningSession();

  /// Runs CSPM. Replaces any previously mined or loaded model.
  Status Mine();

  /// Applies a graph delta transactionally and re-mines. The graph is
  /// spliced with graph::ApplyDelta; under UpdateMode::kExact (the
  /// default) the spliced graph is then mined cold, so the model is
  /// bit-identical to a cold mine of the mutated graph. Under
  /// UpdateMode::kFast with MiningOptions::enable_updates the re-mine
  /// continues from the final mined model instead (see UpdateMode). The
  /// session then owns the mutated graph; previously built ServingEngines
  /// keep scoring the old graph+model+plan triple until they are dropped,
  /// while new Serve()/Score calls see the update (hot swap). On error
  /// nothing changes (though a failed kFast update drops the final
  /// database, so later updates re-mine cold).
  Status ApplyUpdates(const graph::GraphDelta& delta,
                      UpdateStats* stats = nullptr);
  Status ApplyUpdates(const graph::GraphDelta& delta, UpdateMode mode,
                      UpdateStats* stats = nullptr);

  /// True once Mine() succeeded or a model was loaded.
  bool has_model() const;
  /// The mined (or loaded) model. Requires has_model().
  const CspmModel& model() const;
  /// Statistics of the last Mine() run. Requires has_model().
  const MiningStats& stats() const;

  const graph::AttributedGraph& graph() const;

  /// Shared ownership of the session's current graph. After ApplyUpdates
  /// the session points at the mutated graph; holders of the old pointer
  /// (e.g. in-flight serving engines) keep the old graph alive.
  std::shared_ptr<const graph::AttributedGraph> shared_graph() const;

  // --- scoring (Algorithm 5) ----------------------------------------------
  //
  // All scoring goes through a ScoringPlan compiled whenever the model is
  // mined or loaded, bit-identical to the reference scorer
  // core::ScoreAttributes (the tests' oracle).

  /// Per-attribute-value scores for vertex v from its neighbourhood.
  AttributeScores Score(graph::VertexId v,
                        const ScoringOptions& options = {}) const;

  /// Batch scoring through a one-shot ServingEngine (sharded across
  /// `options.pool` when set). Output slot i holds the scores of
  /// vertices[i] at any thread count.
  StatusOr<std::vector<AttributeScores>> ScoreBatch(
      std::span<const graph::VertexId> vertices,
      const ServingOptions& options = {}) const;

  /// A ServingEngine sharing this session's compiled plan (the session's
  /// graph and plan must outlive the engine; re-mining compiles a fresh
  /// plan and does not disturb engines already built).
  StatusOr<ServingEngine> Serve(ServingOptions options = {}) const;

  /// The compiled plan of the current model (null before Mine/LoadModel).
  std::shared_ptr<const core::ScoringPlan> plan() const;

  /// Publishes the current model to a registry under `name` (the serving
  /// hot-swap path): the handle shares this session's graph and compiled
  /// plan — no graph copy, no plan recompile. In-flight batches on a
  /// previously published handle finish against the old triple; new
  /// Get()s see this one.
  StatusOr<ModelRegistry::Handle> Publish(ModelRegistry& registry,
                                          const std::string& name) const;

  // --- model persistence --------------------------------------------------

  std::string SerializeModel() const;
  Status DeserializeModel(const std::string& text);

  /// Saves the model. With the default options, a path ending in ".cspm"
  /// writes (or updates) a binary store file; anything else writes the v1
  /// text format.
  Status SaveModel(const std::string& path,
                   const SaveModelOptions& options = {}) const;

  /// Loads a model, auto-detecting the format by magic: a binary store is
  /// read through its embedded dictionary and remapped onto this session's
  /// graph; anything else is parsed as text. A store file must hold
  /// exactly one model or one named "default" — use the two-argument
  /// overload otherwise.
  Status LoadModel(const std::string& path);
  /// Loads the named record from a binary store file.
  Status LoadModel(const std::string& path, const std::string& model_name);

  // --- verification -------------------------------------------------------

  /// Checks the losslessness invariant of the final database against the
  /// graph. Requires MiningOptions::enable_updates and a mined model.
  Status VerifyLossless() const;

 private:
  struct Impl;
  explicit MiningSession(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

/// One-shot convenience: Create + Mine, returning the model.
StatusOr<CspmModel> MineModel(const graph::AttributedGraph& g,
                              const MiningOptions& options = {});

}  // namespace cspm::engine

#endif  // CSPM_ENGINE_SESSION_H_
