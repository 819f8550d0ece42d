// Gain of merging a pair of leafsets (Section IV-E, Eqs. 9-15).
#ifndef CSPM_CSPM_GAIN_H_
#define CSPM_CSPM_GAIN_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cspm/code_model.h"
#include "cspm/inverted_database.h"

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
/// partner, in ascending row order. Returns the number of pairs evaluated
/// (the pairs delivered to `sink`).
uint64_t SweepMergeGains(const InvertedDatabase& idb, const CodeModel& cm,
                         std::span<const LeafsetId> rows,
                         const PairGainSink& sink);

/// Which member of each pair a rescored row is: the pair is (row, y) under
/// kX and (y, row) under kY. ComputeMergeGain's two model-delta
/// subtractions run in x-then-y order, so the side decides the bits.
enum class RowSide { kX, kY };

/// The merge loop's rescoring (Algorithm 4 steps 2-3): scores one row
/// leafset against its whole partner list in one pass instead of one
/// ComputeMergeGain call per pair. The row's lines are indexed once (a
/// dense core→slot map, and each row line's vertices stamped into a
/// vertex-indexed mark array); each partner's lines under a row core are
/// bucketed by slot (a counting scatter); then, core by core in ascending
/// order, overlaps are counted against the marks and Eqs. 10-15
/// accumulated. Same integers, same per-pair orientation, same ascending
/// core order and XLog2X from a table: every result is bit-identical to
/// the single-pair call (DESIGN.md §4). Holds scratch sized to the
/// database; not thread-safe.
class RowRescorer {
 public:
  /// Tabulates XLog2X over 0..max f_e of `idb` as it is now. Merges only
  /// shrink f_e, so the table covers a whole merge loop over `idb`; it
  /// does not cover a SplitLine (which grows f_e).
  RowRescorer(const InvertedDatabase& idb, const CodeModel& cm);

  /// Replaces `out` with one result per partner, in partner order:
  /// ComputeMergeGain(row, partners[j]) under RowSide::kX, and
  /// ComputeMergeGain(partners[j], row) under kY. Partners that share no
  /// position with the row, whose union is one of the pair, that have no
  /// lines or that equal the row come back infeasible.
  void Score(LeafsetId row, RowSide side, std::span<const LeafsetId> partners,
             std::vector<GainResult>* out);

 private:
  /// One partner line under a row core.
  struct Entry {
    uint32_t partner;
    PosListView positions;
  };
  /// Pair-level inputs, computed at the partner's first overlap.
  struct Partner {
    LeafsetId union_id = LeafsetRegistry::kNotFound;
    double union_st_cost = 0.0;
    double st_cost = 0.0;
    bool met = false;
    /// The union is the row or the partner itself: infeasible.
    bool subset = false;
  };
  static constexpr uint32_t kNoSlot = ~0u;

  void Meet(LeafsetId row, LeafsetId y, Partner* p);

  const InvertedDatabase& idb_;
  const CodeModel& cm_;
  std::vector<double> xlog_table_;
  std::vector<uint32_t> core_slot_;  // per coreset; kNoSlot off the row
  std::vector<uint32_t> mark_;       // per vertex; == stamp_ on the row line
  uint32_t stamp_ = 0;
  std::vector<PosListView> row_lines_;  // per slot
  std::vector<uint32_t> slot_begin_;    // per slot, plus an end sentinel
  std::vector<Entry> bucketed_;         // partner lines, grouped by slot
  std::vector<Partner> partners_;
  std::vector<AttrId> union_;
};

/// Computes the exact gain of *undoing* line (e, l) of a merged leafset
/// via InvertedDatabase::SplitLine (no mutation): its positions return to
/// the member singleton lines, so f_e grows by (|values| - 1) * fL. Uses
/// the same conventions as ComputeMergeGain — data_gain_bits is the exact
/// drop of Eq. 8's data term (positive = splitting shrinks it) and
/// model_delta_bits counts ST + Code_c per created/removed line, ignoring
/// Code_L drift. Infeasible when the line does not exist or l is a
/// singleton. Total(policy) > 0 means the split pays for itself — the
/// fast re-mine's undo criterion.
///
/// `xlog_table`, when given, holds XLog2X over 0..size-1 (see
/// TabulateXLog2X); arguments beyond it are computed directly. A table
/// read returns the same bits as the call, so the result is the same.
GainResult ComputeSplitGain(const InvertedDatabase& idb, const CodeModel& cm,
                            CoreId e, LeafsetId l,
                            std::span<const double> xlog_table = {});

/// mdl::XLog2X of 0..max f_e of `idb`, indexed by n. XLog2X is a pure
/// function of an integer, so a table read returns the bits of the direct
/// call.
std::vector<double> TabulateXLog2X(const InvertedDatabase& idb);

}  // namespace cspm::core

#endif  // CSPM_CSPM_GAIN_H_
