// The model M of Section IV-C: the standard code table ST over attribute
// values, the coreset code table CTc (Eq. 5), and the per-line leafset code
// CTL (Eq. 6). Provides the model-cost terms of the two-part MDL.
#ifndef CSPM_CSPM_CODE_MODEL_H_
#define CSPM_CSPM_CODE_MODEL_H_

#include <span>
#include <vector>

#include "cspm/inverted_database.h"
#include "cspm/types.h"

namespace cspm::core {

/// Immutable code-length oracle built from the graph's attribute frequencies
/// and the inverted database's coreset frequencies.
class CodeModel {
 public:
  /// Builds ST from the graph's (vertex, attribute) occurrence counts and
  /// CTc from the inverted database's static coreset frequencies.
  CodeModel(const graph::AttributedGraph& g, const InvertedDatabase& idb);

  /// ST code length of one attribute value: -log2(freq / total occurrences).
  double StCodeLength(AttrId a) const { return st_len_[a.index()]; }

  /// Cost of spelling a value set in ST codes (left column of CTL / CTc).
  double StCost(std::span<const AttrId> values) const;

  /// Code_c of Eq. 5 for a coreset.
  double CoreCodeLength(CoreId c) const { return core_len_[c.index()]; }

  /// Code_L of Eq. 6 for a line with frequency fl under a coreset whose
  /// dynamic total is fe.
  static double LeafCodeLength(uint64_t fl, uint64_t fe);

  /// L(CTc|I): every coreset spelled in ST codes plus its own code.
  double CoresetTableCostBits(const InvertedDatabase& idb) const;

  /// L(CTL|I): every line's leafset spelled in ST codes, plus the pointer to
  /// its coreset (Code_c), plus its own conditional code (Code_L).
  double LeafsetTableCostBits(const InvertedDatabase& idb) const {
    return LeafsetTableCostBits(
        idb, [](CoreId, LeafsetId, PosListView, double) {});
  }

  /// L(CTL|I), also handing every line to fn(CoreId, LeafsetId,
  /// PosListView, double code_length_bits) in ForEachLine order, where the
  /// code length is L(S_code) = Code_c + Code_L (Eq. 4). Extraction builds
  /// the model in the walk that sums the description length.
  template <typename Fn>
  double LeafsetTableCostBits(const InvertedDatabase& idb, Fn&& fn) const {
    double bits = 0.0;
    // Active leafsets ascending are exactly the leafsets ForEachLine
    // visits; the ST spelling is per leafset, so it is computed once.
    for (LeafsetId l : idb.active_leafsets()) {
      const double st_cost = StCost(idb.leafsets().Values(l));
      idb.ForEachLineOf(l, [&](CoreId e, PosListView positions) {
        const double leaf_len =
            LeafCodeLength(positions.size(), idb.CoreLineTotal(e));
        bits += st_cost + CoreCodeLength(e) + leaf_len;
        fn(e, l, positions, CoreCodeLength(e) + leaf_len);
      });
    }
    return bits;
  }

  /// The per-line model cost used by the gain's model-delta term:
  /// StCost(leafset values) + CoreCodeLength(core). (The Code_L column is
  /// part of the data-dependent term and is accounted by Eq. 9.)
  double LineModelCost(std::span<const AttrId> leaf_values, CoreId core) const {
    return StCost(leaf_values) + CoreCodeLength(core);
  }

  /// Full two-part description length L(M, I) = L(CTc|I) + L(CTL|I) +
  /// L(I|M) (Eqs. 1-3, 8).
  double TotalDescriptionLengthBits(const InvertedDatabase& idb) const;

 private:
  std::vector<double> st_len_;
  std::vector<double> core_len_;
};

}  // namespace cspm::core

#endif  // CSPM_CSPM_CODE_MODEL_H_
