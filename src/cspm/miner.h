// The CSPM algorithm (Section IV-F): parameter-free mining of compressing
// a-star patterns. Two search strategies are provided:
//  - kBasic:   Algorithms 1-2 — regenerate all candidate pair gains after
//              every merge.
//  - kPartial: Algorithms 3-4 — maintain candidates incrementally through
//              the related-leafset dictionary (rdict).
#ifndef CSPM_CSPM_MINER_H_
#define CSPM_CSPM_MINER_H_

#include "cspm/gain.h"
#include "cspm/inverted_database.h"
#include "cspm/model.h"
#include "util/status.h"

namespace cspm::core {

/// What the fast resume did beyond the ordinary merge loop.
struct FastResumeStats {
  /// Merged leafsets undone (every line split back to the member
  /// singletons) because their global gain went negative under the delta.
  uint64_t splits = 0;
  /// Candidate pairs seeded into the store (pairs involving a leafset
  /// whose lines the delta or the unmerge pass actually changed).
  uint64_t seeded_pairs = 0;
};

enum class SearchStrategy { kBasic, kPartial };

struct CspmOptions {
  SearchStrategy strategy = SearchStrategy::kPartial;
  GainPolicy gain_policy = GainPolicy::kDataPlusModel;

  /// When true, Step 1 mines multi-value coresets from the vertex-attribute
  /// transactions with SLIM (Section IV-F); otherwise every attribute value
  /// is its own coreset.
  bool multi_value_coresets = false;

  /// Safety valve; 0 = run to convergence (the parameter-free default).
  uint64_t max_iterations = 0;

  /// Wall-clock budget in seconds; 0 = unlimited. When exceeded the search
  /// stops early and MiningStats::hit_time_budget is set (used by the
  /// runtime benches to bound CSPM-Basic on large inputs).
  double max_seconds = 0.0;

  /// Record per-iteration stats (Fig. 5 instrumentation).
  bool record_iteration_stats = true;

  /// Partial only: recompute the popped pair's gain before merging (guards
  /// against f_e drift making a stored gain stale; see DESIGN.md).
  bool revalidate_on_pop = true;

  /// Keep single-leaf-value a-stars in the returned model. They are part of
  /// the code table; disabling returns only merged patterns.
  bool include_singleton_leafsets = true;
};

/// The pre-merge inverted database a mine starts from: single-value
/// coresets, or SLIM's multi-value coresets under
/// options.multi_value_coresets (Section IV-F Step 1).
StatusOr<InvertedDatabase> BuildInitialDatabase(
    const graph::AttributedGraph& g, const CspmOptions& options);

/// Runs CSPM on an attributed graph.
class CspmMiner {
 public:
  explicit CspmMiner(CspmOptions options) : options_(options) {}

  /// Mines a model. The graph must outlive the call (not the result).
  StatusOr<CspmModel> Mine(const graph::AttributedGraph& g) const;

  /// Mines and also exposes the final inverted database (the
  /// losslessness verifier's input and the fast re-mine's starting
  /// point).
  struct MineArtifacts {
    CspmModel model;
    InvertedDatabase inverted_db;
  };
  StatusOr<MineArtifacts> MineWithArtifacts(
      const graph::AttributedGraph& g) const;

  /// Continue-from-final-model re-mine (DESIGN.md §9): `final_db` is the
  /// final database of the last mine or fast re-mine, already patched to
  /// `g` via ApplyDeltaMerged, whose DeltaPatchStats is `patch`. Unmerges
  /// leafsets (under dirty cores) whose global gain went negative under
  /// the delta (to a fixpoint), then seeds the candidate store with
  /// repair-scope pairs — both members stale, i.e. a meaningful share of
  /// their positions moved (patch.touched_leafsets weighted by
  /// touched_position_moves) or the unmerge pass fed them — and runs the
  /// ordinary partial merge loop. Pairs with an up-to-date member are NOT
  /// re-evaluated even when a shared core's totals drifted: those
  /// second-order shifts are exactly what the DL-ε contract absorbs
  /// (anything broader degenerates into a near-cold seed, because dirty
  /// cores are popular attributes). The result is path-dependent: its
  /// description length tracks a cold mine within a small ε but the model
  /// need not be bit-identical. The database is repaired and returned as
  /// `artifacts.inverted_db` — the next fast update's starting point; on
  /// error it is discarded. kPartial + single-value coresets only.
  StatusOr<MineArtifacts> ResumeFast(const graph::AttributedGraph& g,
                                     InvertedDatabase final_db,
                                     const DeltaPatchStats& patch,
                                     bool all_dirty,
                                     FastResumeStats* fast_stats) const;

 private:
  CspmOptions options_;
};

}  // namespace cspm::core

#endif  // CSPM_CSPM_MINER_H_
