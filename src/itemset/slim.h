// The SLIM algorithm (Smets & Vreeken, SDM 2012): a Krimp-style code
// table compressor that generates candidates on the fly by pairwise union
// of code table entries, ranked by estimated gain, keeping the first union
// that actually shrinks the MDL total. This is the runtime baseline of the
// paper's Table III and the multi-value coreset encoder of Section IV-F.
#ifndef CSPM_ITEMSET_SLIM_H_
#define CSPM_ITEMSET_SLIM_H_

#include <cstdint>
#include <memory>

#include "itemset/code_table.h"
#include "itemset/transaction_db.h"
#include "util/status.h"

namespace cspm::itemset {

struct SlimOptions {
  /// Cap on exact evaluations per iteration (estimated-best first).
  uint32_t max_exact_evaluations_per_iteration = 24;
  /// Hard cap on accepted patterns (0 = unlimited).
  uint64_t max_patterns = 0;
  /// Stop when the best estimated gain is below this many bits.
  double min_estimated_gain_bits = 0.0;
  /// Wall-clock budget in seconds; 0 = unlimited. Sets
  /// CompressionResult::hit_time_budget when exceeded.
  double max_seconds = 0.0;
};

/// Result of a SLIM run.
struct CompressionResult {
  /// Final code table (owns a copy of nothing; references the input db).
  std::unique_ptr<CodeTable> code_table;
  /// Baseline length with the standard code table only.
  double standard_length = 0.0;
  /// Final total length L(CT, D).
  double final_length = 0.0;
  /// final / standard (lower is better).
  double compression_ratio = 1.0;
  /// Number of non-singleton patterns accepted.
  uint64_t accepted_patterns = 0;
  /// Number of candidates evaluated.
  uint64_t evaluated_candidates = 0;
  /// True if the wall-clock budget stopped the search early.
  bool hit_time_budget = false;
};

/// Runs SLIM. `db` must outlive the result.
StatusOr<CompressionResult> RunSlim(const TransactionDb& db,
                                    const SlimOptions& options);

}  // namespace cspm::itemset

#endif  // CSPM_ITEMSET_SLIM_H_
