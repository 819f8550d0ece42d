// The engine facade: the single entry point application layers use to run
// CSPM. Consumers (examples, benches, the completion and alarm apps) build
// a MiningSession from a graph, mine, score, and serialize through it, and
// never see the storage (InvertedDatabase / PosListPool) or search
// (CspmMiner / candidates) layers — so those can be reworked, swapped, or
// sharded without touching any consumer (see DESIGN.md §2).
//
// Result types (CspmModel, AStarTable, AStarRef, AStar, MiningStats,
// AttributeScores) are the stable model-level vocabulary and are
// re-exported here.
#ifndef CSPM_ENGINE_SESSION_H_
#define CSPM_ENGINE_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cspm/model.h"
#include "cspm/scoring.h"
#include "cspm/scoring_plan.h"
#include "engine/model_registry.h"
#include "engine/serving.h"
#include "graph/attributed_graph.h"
#include "graph/graph_delta.h"
#include "itemset/slim.h"
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

/// Search strategy (mirrors the paper's two algorithms).
enum class Search {
  kBasic,    ///< Algorithms 1-2: regenerate all candidate gains per merge.
  kPartial,  ///< Algorithms 3-4: incremental updates through the rdict.
};

/// Which terms the merge-acceptance test uses.
enum class Gain {
  kDataOnly,       ///< pure data gain ΔL (Algorithm 2's check)
  kDataPlusModel,  ///< ΔL minus the model-cost delta (MDL-faithful default)
};

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

/// Mining knobs. A deliberate copy of the core options rather than an
/// alias: the facade contract must not move when internals do.
struct MiningOptions {
  Search strategy = Search::kPartial;
  Gain gain_policy = Gain::kDataPlusModel;

  /// When true, Step 1 mines multi-value coresets from the vertex-attribute
  /// transactions with SLIM (Section IV-F); otherwise every attribute value
  /// is its own coreset.
  bool multi_value_coresets = false;
  itemset::SlimOptions slim;

  /// Safety valve; 0 = run to convergence (the parameter-free default).
  uint64_t max_iterations = 0;

  /// Wall-clock budget in seconds; 0 = unlimited. When exceeded the search
  /// stops early and MiningStats::hit_time_budget is set.
  double max_seconds = 0.0;

  /// A merge must improve the DL by strictly more than this (bits).
  double min_gain_bits = 1e-9;

  /// Record per-iteration stats (Fig. 5 instrumentation).
  bool record_iteration_stats = true;

  /// Partial only: recompute the popped pair's gain before merging (guards
  /// against f_e drift making a stored gain stale; see DESIGN.md §5).
  bool revalidate_on_pop = true;

  /// Keep single-leaf-value a-stars in the returned model.
  bool include_singleton_leafsets = true;

  /// Threads for the gain-evaluation fan-outs. 1 = serial (default),
  /// 0 = one per hardware core. Parallel runs are bit-identical to serial.
  uint32_t num_threads = 1;

  /// Retain the final inverted database so VerifyLossless() can run
  /// (enable_updates retains it too). Off by default: the database can
  /// dwarf the model.
  bool keep_database = false;

  /// Retain the final inverted database so UpdateMode::kFast can
  /// continue from the mined model instead of re-mining cold (the same
  /// database keep_database retains; it is held once). Ignored under
  /// multi_value_coresets (SLIM covers cannot be patched — every update
  /// re-mines cold).
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
  /// back to kExact when the final database is not kept
  /// (MiningOptions::enable_updates) or the strategy is not kPartial.
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
  // mined or loaded, bit-identical to the legacy per-vertex
  // core::ScoreAttributes path.

  /// Per-attribute-value scores for vertex v from its neighbourhood.
  AttributeScores Score(graph::VertexId v,
                        const ScoringOptions& options = {}) const;

  /// Same, against an explicit neighbour-attribute set (used when the
  /// graph's own attributes are partially masked).
  AttributeScores ScoreWithNeighbourhood(
      const std::vector<graph::AttrId>& neighbourhood_attrs,
      const ScoringOptions& options = {}) const;

  /// Batch scoring through a one-shot ServingEngine. Output slot i holds
  /// the scores of vertices[i] at any thread count. Callers scoring many
  /// batches should hold a Serve() engine instead: this spawns (and
  /// joins) the shard pool per call.
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
  /// graph. Requires MiningOptions::keep_database and a mined model.
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
