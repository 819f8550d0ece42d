// The mined model: a ranked set of a-star patterns plus mining statistics.
#ifndef CSPM_CSPM_MODEL_H_
#define CSPM_CSPM_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cspm/types.h"
#include "graph/attributed_graph.h"

namespace cspm::core {

/// One attribute-star pattern S = (Sc, SL) with its encoding statistics.
struct AStar {
  std::vector<AttrId> core_values;  ///< Sc, sorted
  std::vector<AttrId> leaf_values;  ///< SL, sorted
  uint64_t frequency = 0;           ///< fL: line frequency (|positions|)
  uint64_t core_total = 0;          ///< f_e: dynamic coreset total
  uint64_t coreset_frequency = 0;   ///< static mapping-table frequency of Sc
  /// L(S_code) = L(Code_c) + L(Code_L) (Eq. 4); patterns are ranked by this
  /// ascending — shorter code = more informative.
  double code_length_bits = 0.0;

  /// Human-readable "({a,b} -> {c,d})  fL=.. code=..bits".
  std::string ToString(const graph::AttributeDictionary& dict) const;
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
  std::vector<AStar> astars;
  MiningStats stats;

  /// A-stars whose leafset has at least `min_leaf_values` values (merged
  /// patterns; the initial single-leaf lines are trivially present).
  std::vector<AStar> PatternsWithMinLeaves(size_t min_leaf_values) const;

  /// Renders the top-k patterns.
  std::string Describe(const graph::AttributeDictionary& dict,
                       size_t top_k) const;
};

}  // namespace cspm::core

#endif  // CSPM_CSPM_MODEL_H_
