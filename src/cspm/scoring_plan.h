// Compiled execution form of Algorithm 5: a CspmModel is compiled once
// into a ScoringPlan and applied to many vertices (Krimp/SLIM-style "code
// table compiled once, applied per transaction"). The MDL model itself is
// untouched — only the execution layout changes.
//
// The layout is built from scoring units, one per (star, in-range core):
//
//  - a singleton star (|SL| = 1) scores similarity 1 whenever its leaf is
//    in the neighbourhood, so each of its units is inlined as a
//    (core, code length) posting under that leaf attribute and raises
//    raw[core] straight from the posting walk — no counter, no division;
//  - a multi-leaf star gets one unit per core; each in-range leaf holds a
//    (unit, core, code length) posting, and a per-unit leaf-size slab
//    supplies the similarity denominator.
//
// ScoreInto runs three passes: dedup the neighbourhood while applying the
// singleton postings, count multi-leaf units, score the counted units. The
// count pass skips any posting whose unit cannot beat the core's score so
// far: its code length CL is >= 0 and w = 1/similarity >= 1, so its score
// -w*CL is at most -CL, and a unit with -CL <= raw[core] never raises
// raw[core] (DESIGN.md §7). All writes go to caller-provided buffers
// (AttributeScores is reused across calls; per-call scratch lives in a
// ScoringScratch that each serving thread owns).
//
// Contract: for every neighbourhood and every ScoringOptions, ScoreInto
// produces bit-identical raw and normalized scores to
// ScoreAttributesWithNeighbourhood (regression-tested per vertex, per
// value). The plan is immutable after Compile and safe to share across
// threads; only the scratch is per-thread.
//
// View/owner split (plan section, DESIGN.md §12): the execution state is
// eight flat slabs accessed through spans. Compile() materialises owned
// slabs on the heap; FromSlabs() wraps externally owned memory — in
// particular an mmap'd plan section, where the bytes on disk are exactly
// the bytes ScoreInto reads (zero decode, zero allocation). Either way a
// type-erased shared owner keeps the slab bytes alive for the plan and
// all of its copies, so evicting a plan from a cache while an engine
// still scores through it is safe by construction.
#ifndef CSPM_CSPM_SCORING_PLAN_H_
#define CSPM_CSPM_SCORING_PLAN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cspm/model.h"
#include "cspm/scoring.h"
#include "util/status.h"

namespace cspm::core {

/// Per-thread mutable state for ScoringPlan::ScoreInto. All arrays are
/// restored to zero before ScoreInto returns, so one scratch serves any
/// number of sequential calls without re-clearing.
struct ScoringScratch {
  /// Per-unit intersection counters (|SL ∩ N_attrs| accumulation).
  std::vector<uint32_t> matched;
  /// For each unit counted in the current call, the index of its first
  /// counted multi-leaf posting (which names its core and code length).
  /// Sized num_units() + 1 by PrepareScratch: the count pass writes one
  /// candidate slot past the last counted unit.
  std::vector<uint32_t> touched_postings;
  /// Per-attribute dedup flags for the neighbourhood set.
  std::vector<uint8_t> attr_seen;
  /// Attrs flagged in the current call.
  std::vector<AttrId> seen_attrs;
  /// Neighbour-attribute gather buffer for the vertex-level entry points.
  std::vector<AttrId> neighbourhood;
};

class ScoringPlan {
 public:
  /// The eight flat slabs of the compiled layout, in the order the plan
  /// section lays them out on disk (DESIGN.md §12). Each attribute owns
  /// one singleton and one multi-leaf posting range; the per-posting
  /// slabs of a kind are parallel arrays.
  struct Slabs {
    std::span<const uint32_t> singleton_offsets;     ///< num_attrs + 1
    std::span<const AttrId> singleton_cores;         ///< core of the unit
    std::span<const double> singleton_code_lengths;  ///< L(S_code) >= 0
    std::span<const uint32_t> multi_offsets;         ///< num_attrs + 1
    std::span<const uint32_t> multi_units;           ///< unit id
    std::span<const AttrId> multi_cores;             ///< core of the unit
    std::span<const double> multi_code_lengths;      ///< L(S_code) >= 0
    std::span<const uint32_t> unit_leaf_size;        ///< |SL| per unit
  };

  ScoringPlan() = default;

  /// Compiles the model against a dictionary of `num_attribute_values`
  /// attribute values in one counting-scatter pass. Stars with an empty
  /// leafset are dropped (they can never contribute evidence), and so are
  /// cores outside the attribute space; every remaining (star, core) pair
  /// becomes a unit laid out flat.
  static ScoringPlan Compile(const CspmModel& model,
                             size_t num_attribute_values);

  /// Wraps externally owned slabs — the mmap-native plan section — behind
  /// the same interface as a compiled plan, with zero decode and zero
  /// allocation. Only the O(1) geometry (offset-table shapes and covering
  /// totals) is validated here; run CheckInvariants for the deep audit.
  /// `storage` keeps the slab bytes alive for the plan's lifetime and the
  /// lifetime of every copy made from it.
  static StatusOr<ScoringPlan> FromSlabs(size_t num_attribute_values,
                                         const Slabs& slabs,
                                         std::shared_ptr<const void> storage);

  size_t num_attribute_values() const { return num_attrs_; }
  /// Multi-leaf scoring units (singleton stars are inlined as postings).
  size_t num_units() const { return slabs_.unit_leaf_size.size(); }
  /// Resident bytes of the slab layout. For a compiled plan this is the
  /// heap footprint; for an mmap view it is the mapped section's working
  /// set — the same value either way, so cache accounting is uniform.
  size_t ApproxBytes() const;

  /// Read access to the slab layout (the plan-section encoder and the
  /// store's fsck cross-check read the plan exactly as ScoreInto does).
  const Slabs& slabs() const { return slabs_; }
  /// True when the slabs alias externally owned memory (an mmap view)
  /// rather than heap vectors built by Compile.
  bool is_view() const { return view_; }

  /// Sizes `scratch` for this plan (idempotent; cheap when already sized).
  void PrepareScratch(ScoringScratch* scratch) const;

  /// Scores one neighbourhood-attribute set into `out`, bit-identically to
  /// ScoreAttributesWithNeighbourhood. `neighbourhood_attrs` need not be
  /// sorted or deduplicated; ids >= num_attribute_values() are ignored.
  /// `scratch` must have been sized with PrepareScratch.
  void ScoreInto(std::span<const AttrId> neighbourhood_attrs,
                 const ScoringOptions& options, ScoringScratch* scratch,
                 AttributeScores* out) const;

  /// Convenience allocating wrapper around ScoreInto.
  AttributeScores Score(std::span<const AttrId> neighbourhood_attrs,
                        const ScoringOptions& options = {}) const;

  /// Deep structural validation of the compiled layout: monotone offset
  /// tables, in-range unit and core ids, finite non-negative code lengths
  /// (the pruning bound relies on them), multi-leaf units of leaf size
  /// >= 2 whose postings agree on core and code length, and no unit
  /// referenced more often than its leaf size.
  /// Run under CSPM_DCHECK after Compile and by `cspm_shell fsck`.
  Status CheckInvariants() const;

 private:
  uint32_t num_attrs_ = 0;
  /// True for FromSlabs views (mmap-backed), false for compiled plans.
  bool view_ = false;
  /// Spans into either the owned slab block or external (mmap) memory.
  Slabs slabs_;
  /// Type-erased owner of the slab bytes: the heap block Compile built,
  /// or the mapping a view was opened over. Shared by plan copies.
  std::shared_ptr<const void> storage_;
};

/// Compiles a plan ready for sharing across engines, registry handles and
/// threads (the one way every layer builds plans, so the attribute-space
/// source cannot drift between call sites).
std::shared_ptr<const ScoringPlan> CompileSharedPlan(
    const CspmModel& model, size_t num_attribute_values);

/// Appends the attribute values of every neighbour of `v` to `out`
/// (cleared first; not sorted, not deduplicated — ScoreInto treats the
/// list as a set). The single definition of "neighbourhood" used by all
/// plan-based vertex scoring paths.
void GatherNeighbourhoodAttrs(const graph::AttributedGraph& g, VertexId v,
                              std::vector<AttrId>* out);

}  // namespace cspm::core

#endif  // CSPM_CSPM_SCORING_PLAN_H_
