// The mined model: a ranked set of a-star patterns plus mining statistics.
#ifndef CSPM_CSPM_MODEL_H_
#define CSPM_CSPM_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "cspm/types.h"
#include "graph/attributed_graph.h"

namespace cspm::core {

/// A read-only view of one attribute-star pattern S = (Sc, SL) with its
/// encoding statistics. The value lists point into the AStarTable (or the
/// AStar) that owns them, so a view lives no longer than its owner.
struct AStarRef {
  std::span<const AttrId> core_values;  ///< Sc, sorted
  std::span<const AttrId> leaf_values;  ///< SL, sorted
  uint64_t frequency = 0;               ///< fL: line frequency (|positions|)
  uint64_t core_total = 0;              ///< f_e: dynamic coreset total
  uint64_t coreset_frequency = 0;  ///< static mapping-table frequency of Sc
  /// L(S_code) = L(Code_c) + L(Code_L) (Eq. 4); patterns are ranked by this
  /// ascending — shorter code = more informative.
  double code_length_bits = 0.0;

  /// Human-readable "({a,b} -> {c,d})  fL=.. code=..bits".
  std::string ToString(const graph::AttributeDictionary& dict) const;
};

/// One a-star that owns its value lists: what hand-built models push into
/// an AStarTable.
struct AStar {
  std::vector<AttrId> core_values;  ///< Sc, sorted
  std::vector<AttrId> leaf_values;  ///< SL, sorted
  uint64_t frequency = 0;
  uint64_t core_total = 0;
  uint64_t coreset_frequency = 0;
  double code_length_bits = 0.0;

  AStarRef ref() const {
    return {core_values, leaf_values,       frequency,
            core_total,  coreset_frequency, code_length_bits};
  }
};

/// The a-stars of a model, flat: every value list lives in one AttrId slab
/// and each star is one fixed-size record (its slab offset, value counts
/// and scalars). Copying, moving or destroying a table costs two buffers,
/// not one heap object per star. Reads hand out AStarRef views; there is
/// no conversion back to an owning AStar.
class AStarTable {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = AStarRef;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = AStarRef;

    Iterator() = default;
    Iterator(const AStarTable* table, size_t i) : table_(table), i_(i) {}
    AStarRef operator*() const { return (*table_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const Iterator& o) const { return i_ == o.i_; }

   private:
    const AStarTable* table_ = nullptr;
    size_t i_ = 0;
  };

  AStarTable() = default;
  AStarTable(std::initializer_list<AStar> stars);

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  AStarRef operator[](size_t i) const {
    const Record& r = records_[i];
    const AttrId* core = values_.data() + r.value_offset;
    return {{core, r.num_core},
            {core + r.num_core, r.num_leaf},
            r.frequency,
            r.core_total,
            r.coreset_frequency,
            r.code_length_bits};
  }
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, records_.size()}; }

  void reserve(size_t stars, size_t values) {
    records_.reserve(stars);
    values_.reserve(values);
  }
  /// Appends a copy of `s` (its value lists are copied into the slab).
  /// `s` must not view this table.
  void push_back(const AStarRef& s);
  void push_back(const AStar& s) { push_back(s.ref()); }
  void clear() {
    records_.clear();
    values_.clear();
  }

  /// Writable value lists of star i (for remapping ids in place; the
  /// caller keeps each list sorted).
  std::span<AttrId> MutableCoreValues(size_t i) {
    const Record& r = records_[i];
    return {values_.data() + r.value_offset, r.num_core};
  }
  std::span<AttrId> MutableLeafValues(size_t i) {
    const Record& r = records_[i];
    return {values_.data() + r.value_offset + r.num_core, r.num_leaf};
  }

 private:
  struct Record {
    uint64_t value_offset;  ///< core values, then leaf values, in the slab
    uint32_t num_core;
    uint32_t num_leaf;
    uint64_t frequency;
    uint64_t core_total;
    uint64_t coreset_frequency;
    double code_length_bits;
  };

  std::vector<AttrId> values_;
  std::vector<Record> records_;
};

/// Per-iteration instrumentation (drives the Fig. 5 reproduction).
struct IterationStats {
  uint64_t iteration = 0;
  /// Pair gains evaluated during this iteration: the pairs the merge
  /// loop rescored or revalidated, plus the pairs a gain sweep evaluated
  /// (the pairs that co-occur; a sweep skips the rest at no cost).
  uint64_t gain_computations = 0;
  /// C(#active leafsets, 2) at the start of the iteration.
  uint64_t possible_pairs = 0;
  /// Gain (bits) of the accepted merge.
  double accepted_gain_bits = 0.0;
  uint64_t active_leafsets = 0;
  uint64_t num_lines = 0;

  double UpdateRatio() const {
    return possible_pairs == 0
               ? 0.0
               : static_cast<double>(gain_computations) /
                     static_cast<double>(possible_pairs);
  }
};

/// Aggregate statistics of one mining run.
struct MiningStats {
  double initial_dl_bits = 0.0;
  double final_dl_bits = 0.0;
  uint64_t iterations = 0;           ///< accepted merges
  /// Sum of IterationStats::gain_computations over the run, including
  /// the seed (iteration 0): the pairs actually evaluated. Serial and
  /// thread-pooled runs evaluate the same pairs, so they report the same
  /// count.
  uint64_t total_gain_computations = 0;
  uint64_t initial_leafsets = 0;
  uint64_t final_leafsets = 0;
  uint64_t initial_lines = 0;
  uint64_t final_lines = 0;
  double runtime_seconds = 0.0;
  /// True if the search stopped because CspmOptions::max_seconds expired.
  bool hit_time_budget = false;
  std::vector<IterationStats> per_iteration;

  double CompressionRatio() const {
    return initial_dl_bits > 0 ? final_dl_bits / initial_dl_bits : 1.0;
  }
};

/// The output of CSPM: a-stars sorted by ascending code length.
struct CspmModel {
  AStarTable astars;
  MiningStats stats;

  /// A-stars whose leafset has at least `min_leaf_values` values (merged
  /// patterns; the initial single-leaf lines are trivially present).
  std::vector<AStarRef> PatternsWithMinLeaves(size_t min_leaf_values) const;

  /// Renders the top-k patterns.
  std::string Describe(const graph::AttributeDictionary& dict,
                       size_t top_k) const;
};

}  // namespace cspm::core

#endif  // CSPM_CSPM_MODEL_H_
