// The inverted database representation of Section IV-B: a table of lines
// (leafset SL, coreset Sc, positions). Initially every line is a basic
// a-star with a single leaf value; mining proceeds by merging leafset pairs.
//
// Storage layout (the "storage" layer of the engine): position lists live
// in a flat PosListPool arena and the lines of a leafset are two parallel
// sorted vectors (coresets, pool refs). Line lookup is a binary search and
// the merge/gain hot path is two-pointer scans over contiguous memory — no
// hashing and no per-line heap vectors.
//
// The search layer (miner / candidates / gain) consumes this class only
// through the narrow interface below: active_leafsets / CoresOf / FindLine
// / ForEachSharedCore / ForEachLineOf / ForEachLine for iteration,
// MergeLeafsets for mutation, and the f_e / frequency accessors for the
// gain formulas. Keep it that way — it is what lets the storage be swapped
// or sharded without touching the search layer (see DESIGN.md §2).
#ifndef CSPM_CSPM_INVERTED_DATABASE_H_
#define CSPM_CSPM_INVERTED_DATABASE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cspm/leafset_registry.h"
#include "cspm/types.h"
#include "util/pos_list_pool.h"
#include "util/status.h"

namespace cspm::core {

/// What an ApplyDeltaMerged patch touched — the facts the fast re-seed
/// consumes (DESIGN.md §9). A core is dirty when any line under it was
/// created, erased, or resized (its f_e and/or line composition moved);
/// a leafset is touched when one of its own lines changed.
struct DeltaPatchStats {
  std::vector<CoreId> dirty_cores;          ///< sorted, deduplicated
  std::vector<LeafsetId> touched_leafsets;  ///< sorted, deduplicated
  /// Parallel to touched_leafsets: how many of that leafset's positions
  /// the patch moved (adds + removes); the fast re-mine scales a
  /// leafset's staleness by it.
  std::vector<uint32_t> touched_position_moves;
  uint64_t positions_added = 0;
  uint64_t positions_removed = 0;
};

/// Outcome of merging the leafsets of a candidate pair.
struct MergeOutcome {
  LeafsetId merged_id{};
  /// Members of the merged pair whose last line vanished (Algorithm 4's
  /// l_total).
  std::vector<LeafsetId> totally_merged;
  /// Members of the merged pair that still have lines (l_part).
  std::vector<LeafsetId> partly_merged;
  /// Shared coresets with a non-empty position intersection.
  uint32_t cores_touched = 0;
  /// Those coresets, ascending. Everything the merge changed (x / y / u
  /// lines, f_e totals) lives under them, so a pair whose members have no
  /// line under any of these keeps a bit-identical gain — the search uses
  /// this to skip provably unchanged rescores (Algorithm 4 step 3).
  std::vector<CoreId> touched_cores;
  /// Sum of xy_e over touched coresets.
  uint64_t moved_positions = 0;
  /// True if no shared coreset had a non-empty intersection (nothing done).
  bool no_op = true;
};

/// The inverted database. Lines are keyed by (coreset, leafset); positions
/// are sorted vertex lists in pooled flat storage. Per-coreset dynamic
/// totals f_e (the sum of line frequencies, which the gain formula P1
/// consumes) are maintained incrementally.
class InvertedDatabase {
 public:
  /// Builds the single-core-value inverted database: every attribute value
  /// is a coreset; line (c, {y}) holds every vertex that carries c and has
  /// a neighbour carrying y.
  static StatusOr<InvertedDatabase> FromGraph(const graph::AttributedGraph& g);

  /// Builds the multi-value-coreset inverted database: `vertex_coresets[v]`
  /// lists the coresets covering vertex v (from a Krimp/SLIM cover of the
  /// vertex-attribute transactions, Section IV-F Step 1) and
  /// `coreset_values[c]` the attribute values of coreset c.
  static StatusOr<InvertedDatabase> FromGraphWithCoresets(
      const graph::AttributedGraph& g,
      std::vector<std::vector<AttrId>> coreset_values,
      const std::vector<std::vector<CoreId>>& vertex_coresets);

  /// An empty database (no coresets, no lines) — the value-member
  /// default before a FromGraph result is assigned in.
  InvertedDatabase() = default;

  InvertedDatabase(InvertedDatabase&&) = default;
  InvertedDatabase& operator=(InvertedDatabase&&) = default;

  // --- structure access ---------------------------------------------------

  size_t num_coresets() const { return coreset_values_.size(); }
  size_t num_lines() const { return num_lines_; }
  /// Number of leafsets that currently have at least one line.
  size_t num_active_leafsets() const { return active_leafsets_.size(); }
  /// Sorted ids of leafsets with at least one line.
  const std::vector<LeafsetId>& active_leafsets() const {
    return active_leafsets_;
  }

  const LeafsetRegistry& leafsets() const { return leafsets_; }

  /// Attribute values of coreset c.
  const std::vector<AttrId>& CoresetValues(CoreId c) const {
    return coreset_values_[c.index()];
  }
  /// Static mapping-table frequency of coreset c (number of vertices it
  /// covers), used by ST / Code_c (Eq. 5).
  uint64_t CoresetFrequency(CoreId c) const { return coreset_freq_[c.index()]; }
  /// Sum of CoresetFrequency over all coresets.
  uint64_t total_coreset_frequency() const { return total_coreset_freq_; }

  /// Dynamic total f_e = sum of line frequencies under coreset e (the c_j of
  /// Eq. 8; decreases by xy_e at each merge).
  uint64_t CoreLineTotal(CoreId e) const { return core_line_total_[e.index()]; }

  /// Positions of line (e, l); an empty view when the line does not exist
  /// (lines never have empty position lists).
  PosListView FindLine(CoreId e, LeafsetId l) const {
    if (l.index() >= lines_of_.size()) return {};
    const LeafsetLines& lines = lines_of_[l.index()];
    const size_t i = LowerBoundCore(lines, e);
    if (i == lines.cores.size() || lines.cores[i] != e) return {};
    return pool_.View(lines.refs[i]);
  }

  /// Sorted coresets that have a line with leafset l (empty vector for
  /// inactive leafsets).
  const std::vector<CoreId>& CoresOf(LeafsetId l) const {
    static const std::vector<CoreId> kEmptyCores;
    if (l.index() >= lines_of_.size()) return kEmptyCores;
    return lines_of_[l.index()].cores;
  }

  /// Iterates the shared coresets of leafsets x and y in ascending order,
  /// handing both position-list views: fn(CoreId, PosListView x_positions,
  /// PosListView y_positions). This is the gain formula's inner loop.
  template <typename Fn>
  void ForEachSharedCore(LeafsetId x, LeafsetId y, Fn&& fn) const {
    if (x.index() >= lines_of_.size() || y.index() >= lines_of_.size()) {
      return;
    }
    const LeafsetLines& lx = lines_of_[x.index()];
    const LeafsetLines& ly = lines_of_[y.index()];
    size_t i = 0;
    size_t j = 0;
    while (i < lx.cores.size() && j < ly.cores.size()) {
      if (lx.cores[i] < ly.cores[j]) {
        ++i;
      } else if (ly.cores[j] < lx.cores[i]) {
        ++j;
      } else {
        fn(lx.cores[i], pool_.View(lx.refs[i]), pool_.View(ly.refs[j]));
        ++i;
        ++j;
      }
    }
  }

  /// Iterates the lines of leafset l in ascending coreset order:
  /// fn(CoreId, PosListView). Nothing for inactive leafsets.
  template <typename Fn>
  void ForEachLineOf(LeafsetId l, Fn&& fn) const {
    if (l.index() >= lines_of_.size()) return;
    const LeafsetLines& lines = lines_of_[l.index()];
    for (size_t i = 0; i < lines.cores.size(); ++i) {
      fn(lines.cores[i], pool_.View(lines.refs[i]));
    }
  }

  /// Iterates over all lines, in ascending (leafset, coreset) order:
  /// fn(CoreId, LeafsetId, PosListView).
  template <typename Fn>
  void ForEachLine(Fn&& fn) const {
    for (LeafsetId l(0); l.index() < lines_of_.size(); ++l) {
      ForEachLineOf(l, [&](CoreId e, PosListView view) { fn(e, l, view); });
    }
  }

  /// Coresets assigned to each vertex (identity for single-core mode).
  const std::vector<std::vector<CoreId>>& vertex_coresets() const {
    return vertex_coresets_;
  }

  /// Values currently reserved by the position-list arena (observability).
  size_t pool_reserved_values() const { return pool_.reserved_values(); }

  // --- mutation -----------------------------------------------------------

  /// Merges leafsets x and y (Section IV-E): for every shared coreset e with
  /// a non-empty position intersection I, moves I into the line
  /// (e, x ∪ y) and shrinks the x / y lines by I. Updates f_e totals and
  /// active-leafset bookkeeping.
  MergeOutcome MergeLeafsets(LeafsetId x, LeafsetId y);

  /// Patches a *merged* single-value-coreset database (the final state of
  /// a mine) from `old_graph` to `new_graph`. Merges only ever touch
  /// leafsets, so coreset id == attr id still holds here; what no longer
  /// holds is the one-leafset-per-line-value shape, so each dirty vertex
  /// is first removed from every line under its old cores (sound by the
  /// partition invariant: under a core, the leafsets whose line holds a
  /// vertex partition that vertex's distinct neighbour values) and then
  /// re-covered under its new cores by a deterministic greedy cover that
  /// prefers existing leafsets (largest first, then lowest id) and sends
  /// leftover values to singleton lines. The result is a valid, lossless
  /// database for `new_graph` that keeps as much of the mined structure
  /// as possible — it is NOT the database a cold mine would produce; the
  /// fast re-mine path (CspmMiner::ResumeFast) repairs it by splitting
  /// and merging until the DL criterion is converged again.
  Status ApplyDeltaMerged(const graph::AttributedGraph& old_graph,
                          const graph::AttributedGraph& new_graph,
                          std::span<const VertexId> dirty_vertices,
                          DeltaPatchStats* stats);

  /// Undoes line (e, l) of a merged leafset: its positions move back into
  /// the member singleton lines (e, {a}) for every a in l's values —
  /// disjoint merges by the partition invariant. f_e grows by
  /// (|values| - 1) * fL. InvalidArgument when the line does not exist or
  /// l is a singleton.
  Status SplitLine(CoreId e, LeafsetId l);

  // --- description length -------------------------------------------------

  /// L(I|M) of Eq. 8: sum_e f_e log2 f_e - sum_lines fL log2 fL.
  double DataCostBits() const;

 private:
  /// All lines of one leafset: parallel vectors sorted by coreset id.
  struct LeafsetLines {
    std::vector<CoreId> cores;
    std::vector<util::PosListPool::Ref> refs;
  };

  static size_t LowerBoundCore(const LeafsetLines& lines, CoreId e);

  void ActivateLeafset(LeafsetId l);
  void DeactivateLeafset(LeafsetId l);
  /// Removes the line at index i of leafset l and frees its extent.
  void EraseLineAt(LeafsetId l, size_t i);

  LeafsetRegistry leafsets_;
  std::vector<std::vector<AttrId>> coreset_values_;
  std::vector<uint64_t> coreset_freq_;
  uint64_t total_coreset_freq_ = 0;
  std::vector<uint64_t> core_line_total_;
  std::vector<std::vector<CoreId>> vertex_coresets_;

  util::PosListPool pool_;
  std::vector<LeafsetLines> lines_of_;      // indexed by LeafsetId
  std::vector<LeafsetId> active_leafsets_;  // sorted
  size_t num_lines_ = 0;
};

}  // namespace cspm::core

#endif  // CSPM_CSPM_INVERTED_DATABASE_H_
