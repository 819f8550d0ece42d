// Gain of merging a pair of leafsets (Section IV-E, Eqs. 9-15).
#ifndef CSPM_CSPM_GAIN_H_
#define CSPM_CSPM_GAIN_H_

#include <cstdint>
#include <functional>
#include <span>

#include "cspm/code_model.h"
#include "cspm/inverted_database.h"

namespace cspm::util {
class ThreadPool;
}  // namespace cspm::util

namespace cspm::core {

/// Which terms the acceptance test uses.
enum class GainPolicy {
  /// Pure data gain ΔL of Eq. 9 (the check used by Algorithm 2).
  kDataOnly,
  /// ΔL minus the code-table cost delta of materializing the new leafset
  /// (the "cost increase of the new pattern's leafset ... obtained through
  /// ST" the paper discusses); the MDL-faithful default.
  kDataPlusModel,
};

/// Decomposition of a candidate merge's effect on the description length.
struct GainResult {
  /// ΔL = P1 - P2 of Eq. 9, in bits (positive = data term shrinks).
  double data_gain_bits = 0.0;
  /// Net change of the CTL model cost in bits (positive = model grows).
  double model_delta_bits = 0.0;
  /// Shared coresets with non-empty position intersection.
  uint32_t cores_with_overlap = 0;
  /// Sum of xy_e over those coresets.
  uint64_t total_overlap = 0;
  /// True if at least one shared coreset has a non-empty intersection; an
  /// infeasible pair can never be merged (the paper's "gain is equal to
  /// zero" case).
  bool feasible = false;

  /// The gain under a policy.
  double Total(GainPolicy policy) const {
    return policy == GainPolicy::kDataOnly
               ? data_gain_bits
               : data_gain_bits - model_delta_bits;
  }
};

/// Computes the exact gain of merging leafsets x and y against the current
/// inverted database (no mutation). Handles all three cases of Eqs. 12-15
/// plus the fold-into-existing-union-line extension.
GainResult ComputeMergeGain(const InvertedDatabase& idb, const CodeModel& cm,
                            LeafsetId x, LeafsetId y);

/// One pair of a set-wide sweep: partner y of the row it was emitted for,
/// with the gain ComputeMergeGain(row, y) returns.
struct PairGain {
  LeafsetId y{};
  GainResult gain;
};

/// Receives one row's pairs: every partner y > x of `rows` that shares a
/// position with x under some coreset, ascending by y.
using PairGainSink =
    std::function<void(LeafsetId x, std::span<const PairGain> partners)>;

/// The co-occurrence gain sweep: ComputeMergeGain(x, y) for every pair
/// x < y of `rows` (sorted, distinct, active leafsets) whose members
/// co-occur, i.e. share a position under some coreset. Every other pair
/// is infeasible under ComputeMergeGain and costs nothing here. Each row
/// walks its own lines once over a per-(coreset, vertex) index of the
/// rows' lines, counting |P_x ∩ P_y| for every partner, then evaluates
/// Eqs. 10-15 per shared coreset in ascending coreset order from those
/// integer counts, with XLog2X read from a table over 0..max f_e. Same
/// integer inputs, same per-pair operation order and a tabulated pure
/// function: every result is bit-identical to the single-pair call
/// (DESIGN.md §4). `sink` is called for each row with at least one
/// partner, in ascending row order; with a pool, rows are evaluated
/// concurrently (each task with its own scratch) and still delivered in
/// row order, so the output never depends on threading. Returns the
/// number of pairs evaluated (the pairs delivered to `sink`).
uint64_t SweepMergeGains(const InvertedDatabase& idb, const CodeModel& cm,
                         std::span<const LeafsetId> rows,
                         util::ThreadPool* pool, const PairGainSink& sink);

/// Computes the exact gain of *undoing* line (e, l) of a merged leafset
/// via InvertedDatabase::SplitLine (no mutation): its positions return to
/// the member singleton lines, so f_e grows by (|values| - 1) * fL. Uses
/// the same conventions as ComputeMergeGain — data_gain_bits is the exact
/// drop of Eq. 8's data term (positive = splitting shrinks it) and
/// model_delta_bits counts ST + Code_c per created/removed line, ignoring
/// Code_L drift. Infeasible when the line does not exist or l is a
/// singleton. Total(policy) > 0 means the split pays for itself — the
/// fast re-mine's undo criterion.
GainResult ComputeSplitGain(const InvertedDatabase& idb, const CodeModel& cm,
                            CoreId e, LeafsetId l);

}  // namespace cspm::core

#endif  // CSPM_CSPM_GAIN_H_
