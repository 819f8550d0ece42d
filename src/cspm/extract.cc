#include "cspm/extract.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace cspm::core {

void RadixSortKeys(std::vector<SortKey>* keys) {
  const size_t n = keys->size();
  if (n < 2) return;
  // Byte b of the 16-byte key: bytes 0-7 are lo's, 8-15 hi's, least
  // significant first. Every histogram comes from one read pass.
  const auto byte_of = [](const SortKey& k, int b) {
    return static_cast<uint8_t>(b < 8 ? k.lo >> (8 * b)
                                      : k.hi >> (8 * (b - 8)));
  };
  // Keys already in lo order (extraction numbers its keys that way) skip
  // the lo passes: stable passes over them would leave them in place.
  bool lo_sorted = true;
  for (size_t i = 1; i < n && lo_sorted; ++i) {
    lo_sorted = (*keys)[i - 1].lo <= (*keys)[i].lo;
  }
  const int first_byte = lo_sorted ? 8 : 0;
  std::vector<std::array<size_t, 256>> counts(16);  // zero-initialized
  for (const SortKey& k : *keys) {
    for (int b = first_byte; b < 16; ++b) ++counts[b][byte_of(k, b)];
  }
  std::vector<SortKey> buffer(n);
  SortKey* src = keys->data();
  SortKey* dst = buffer.data();
  for (int b = first_byte; b < 16; ++b) {
    std::array<size_t, 256>& count = counts[b];
    if (count[byte_of(src[0], b)] == n) continue;  // every key shares it
    size_t offset = 0;
    for (size_t& c : count) {
      const size_t bucket = c;
      c = offset;
      offset += bucket;
    }
    for (size_t i = 0; i < n; ++i) dst[count[byte_of(src[i], b)]++] = src[i];
    std::swap(src, dst);
  }
  if (src != keys->data()) keys->swap(buffer);
}

double ExtractAStars(const InvertedDatabase& idb, const CodeModel& cm,
                     bool include_singleton_leafsets, AStarTable* table) {
  obs::TraceSpan extract_span("extract");
  const std::vector<LeafsetId>& actives = idb.active_leafsets();
  const size_t num_cores = idb.num_coresets();

  // One walk in ForEachLine order sums the DL's line terms and records the
  // kept lines. Active leafsets come in ascending order and each has a
  // line, so the lines of the slot-th active leafset are
  // lines[first_line[slot], first_line[slot + 1]).
  struct Line {
    CoreId e;
    LeafsetId l;
    uint64_t frequency;
    double code_length_bits;
  };
  std::vector<Line> lines;
  lines.reserve(idb.num_lines());
  std::vector<uint32_t> first_line;
  first_line.reserve(actives.size() + 1);
  std::vector<uint32_t> core_lines(num_cores, 0);
  size_t num_values = 0;
  LeafsetId current = LeafsetRegistry::kNotFound;
  const double leafset_table_bits = cm.LeafsetTableCostBits(
      idb, [&](CoreId e, LeafsetId l, PosListView positions, double bits) {
        if (l != current) {
          current = l;
          first_line.push_back(static_cast<uint32_t>(lines.size()));
        }
        const size_t num_leaf = idb.leafsets().Values(l).size();
        if (!include_singleton_leafsets && num_leaf < 2) return;
        CSPM_DCHECK(bits >= 0.0);
        lines.push_back({e, l, positions.size(), bits});
        ++core_lines[e.index()];
        num_values += idb.CoresetValues(e).size() + num_leaf;
      });
  CSPM_CHECK(first_line.size() == actives.size());
  CSPM_CHECK(lines.size() <= UINT32_MAX);
  first_line.push_back(static_cast<uint32_t>(lines.size()));

  // Ranks: coresets and active leafsets by their value lists (distinct
  // within each kind: leafsets are interned, coresets are single values
  // or distinct SLIM itemsets).
  std::vector<uint32_t> core_order(num_cores);
  std::iota(core_order.begin(), core_order.end(), 0u);
  std::sort(core_order.begin(), core_order.end(), [&](uint32_t a, uint32_t b) {
    return idb.CoresetValues(CoreId(a)) < idb.CoresetValues(CoreId(b));
  });
  std::vector<uint32_t> leaf_order(actives.size());
  std::iota(leaf_order.begin(), leaf_order.end(), 0u);
  std::sort(leaf_order.begin(), leaf_order.end(), [&](uint32_t a, uint32_t b) {
    return idb.leafsets().Values(actives[a]) <
           idb.leafsets().Values(actives[b]);
  });

  // Number the lines in (core rank, leaf rank) order with a counting
  // scatter: each core's bucket starts where the lower-ranked cores' lines
  // end, and leafsets fill the buckets in rank order. The ordinal is the
  // key's low word, so sorting by (code length, ordinal) is sorting by
  // (code length, core values, leaf values); no two lines share both.
  std::vector<uint32_t> cursor(num_cores);
  uint32_t next = 0;
  for (uint32_t c : core_order) {
    cursor[c] = next;
    next += core_lines[c];
  }
  std::vector<SortKey> keys(lines.size());
  std::vector<uint32_t> line_at(lines.size());
  for (uint32_t slot : leaf_order) {
    for (uint32_t i = first_line[slot]; i < first_line[slot + 1]; ++i) {
      const uint32_t ordinal = cursor[lines[i].e.index()]++;
      keys[ordinal] = {CodeLengthOrder(lines[i].code_length_bits), ordinal};
      line_at[ordinal] = i;
    }
  }
  RadixSortKeys(&keys);

  table->clear();
  table->reserve(lines.size(), num_values);
  for (const SortKey& k : keys) {
    const Line& line = lines[line_at[k.lo]];
    table->push_back(AStarRef{idb.CoresetValues(line.e),
                              idb.leafsets().Values(line.l), line.frequency,
                              idb.CoreLineTotal(line.e),
                              idb.CoresetFrequency(line.e),
                              line.code_length_bits});
  }
  return cm.CoresetTableCostBits(idb) + leafset_table_bits +
         idb.DataCostBits();
}

}  // namespace cspm::core
