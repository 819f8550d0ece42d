// Extraction of the mined model: the a-stars of a final inverted database,
// ranked by code length, written into a flat AStarTable in the same walk
// that sums the final description length.
#ifndef CSPM_CSPM_EXTRACT_H_
#define CSPM_CSPM_EXTRACT_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "cspm/code_model.h"
#include "cspm/inverted_database.h"
#include "cspm/model.h"

namespace cspm::core {

/// A 16-byte sort key, ordered by (hi, lo).
struct SortKey {
  uint64_t hi = 0;
  uint64_t lo = 0;
};

/// The order key of a non-negative code length: non-negative doubles
/// order as their bit patterns do, once -0.0 (equal to +0.0) is folded
/// into +0.0.
inline uint64_t CodeLengthOrder(double bits) {
  return bits == 0.0 ? 0 : std::bit_cast<uint64_t>(bits);
}

/// Sorts `keys` by (hi, lo) ascending: an LSD radix sort, one byte per
/// pass, that skips every pass whose byte all keys share.
void RadixSortKeys(std::vector<SortKey>* keys);

/// Replaces `table` with the a-stars of the final database `idb`, sorted
/// by (code length, core values, leaf values), leaving out single-leaf
/// a-stars unless `include_singleton_leafsets`. Returns the full
/// description length, bit-identical to cm.TotalDescriptionLengthBits(idb)
/// (the same terms, summed in the same order).
double ExtractAStars(const InvertedDatabase& idb, const CodeModel& cm,
                     bool include_singleton_leafsets, AStarTable* table);

}  // namespace cspm::core

#endif  // CSPM_CSPM_EXTRACT_H_
