// Gain of merging a pair of leafsets (Section IV-E, Eqs. 9-15).
#ifndef CSPM_CSPM_GAIN_H_
#define CSPM_CSPM_GAIN_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cspm/code_model.h"
#include "cspm/inverted_database.h"
#include "mdl/codes.h"

namespace cspm::core {

/// mdl::XLog2X over 0..max f_e of a database, indexed by n. A mine and a
/// fast resume each build one and share it between the unmerge pass, the
/// candidate sweep and the merge loop's RowRescorer. XLog2X is a pure
/// function of an integer, so a read returns the bits of the direct call.
class XLogTable {
 public:
  /// Tabulates 0..max f_e of `idb` as it is now.
  explicit XLogTable(const InvertedDatabase& idb);

  /// Extends the table to 0..max f_e of `idb`. Merges only shrink f_e; a
  /// SplitLine grows it, so a resume calls this after its unmerge pass.
  void Cover(const InvertedDatabase& idb);

  /// XLog2X(n); arguments past the end are computed directly.
  double operator()(uint64_t n) const {
    return n < table_.size() ? table_[n] : mdl::XLog2X(static_cast<double>(n));
  }

  /// The table itself, for the sweep's and the rescorer's inner loops:
  /// they read it unchecked (a bounds check there costs ~15% of a sweep),
  /// so their database's f_e must be covered.
  std::span<const double> values() const { return table_; }

 private:
  std::vector<double> table_;
};

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
/// integer counts, with XLog2X read from `xlog`, which must cover max f_e
/// of `idb`. Same integer inputs, same per-pair operation order and a
/// tabulated pure function: every result is bit-identical to the
/// single-pair call (DESIGN.md §4). `sink` is called for each row with at
/// least one partner, in ascending row order. Returns the number of pairs
/// evaluated (the pairs delivered to `sink`).
uint64_t SweepMergeGains(const InvertedDatabase& idb, const CodeModel& cm,
                         const XLogTable& xlog,
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
  /// Reads XLog2X from `xlog`, which must outlive the rescorer and cover
  /// max f_e of `idb` (merges only shrink it).
  RowRescorer(const InvertedDatabase& idb, const CodeModel& cm,
              const XLogTable& xlog);
  RowRescorer(const InvertedDatabase&, const CodeModel&, XLogTable&&) = delete;

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
  const XLogTable& xlog_;
  std::vector<uint32_t> core_slot_;  // per coreset; kNoSlot off the row
  std::vector<uint32_t> mark_;       // per vertex; == stamp_ on the row line
  uint32_t stamp_ = 0;
  std::vector<PosListView> row_lines_;  // per slot
  std::vector<uint32_t> slot_begin_;    // per slot, plus an end sentinel
  std::vector<Entry> bucketed_;         // partner lines, grouped by slot
  std::vector<Partner> partners_;
  std::vector<AttrId> union_;
};

/// Sizes of the singleton lines (e, {a}) of a single-value-coreset
/// database, one dense uint32_t cell per (coreset, attribute value): 4·A²
/// bytes for A attribute values (attribute ids are coreset ids here).
/// Cells without a line read 0. Built from the singleton lines; the
/// caller keeps it current across its own SplitLine calls with AddSplit.
/// The unmerge pass reads it instead of binary-searching each member's
/// line: one split term costs O(|values|).
class SingletonLineSizes {
 public:
  explicit SingletonLineSizes(const InvertedDatabase& idb);

  uint32_t Get(CoreId e, AttrId a) const {
    return sizes_[e.index() * num_attrs_ + a.index()];
  }

  /// Records InvertedDatabase::SplitLine(e, l) of a line of `fl`
  /// positions: each member singleton line of `values` (l's values) grew
  /// by fl.
  void AddSplit(CoreId e, std::span<const AttrId> values, uint64_t fl);

 private:
  size_t num_attrs_;
  std::vector<uint32_t> sizes_;  // [coreset][attribute value]
};

/// Computes the exact gain of *undoing* line (e, l) of `fl` positions via
/// InvertedDatabase::SplitLine (no mutation): its positions return to the
/// member singleton lines, so f_e grows by (|values| - 1) * fl. Uses the
/// same conventions as ComputeMergeGain — data_gain_bits is the exact
/// drop of Eq. 8's data term (positive = splitting shrinks it) and
/// model_delta_bits counts ST + Code_c per created/removed line, ignoring
/// Code_L drift. Infeasible when fl is 0 (no line) or l is a singleton.
/// Total(policy) > 0 means the split pays for itself — the fast re-mine's
/// undo criterion. The member singleton line sizes come from `singles`,
/// which must match `idb`.
GainResult ComputeSplitGain(const InvertedDatabase& idb, const CodeModel& cm,
                            const SingletonLineSizes& singles,
                            const XLogTable& xlog, CoreId e, LeafsetId l,
                            uint64_t fl);

}  // namespace cspm::core

#endif  // CSPM_CSPM_GAIN_H_
