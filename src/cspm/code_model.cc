#include "cspm/code_model.h"

#include "mdl/codes.h"

namespace cspm::core {

CodeModel::CodeModel(const graph::AttributedGraph& g,
                     const InvertedDatabase& idb) {
  const uint64_t attr_total = g.total_attribute_occurrences();
  st_len_.resize(g.num_attribute_values(), 0.0);
  for (AttrId a(0); a.index() < g.num_attribute_values(); ++a) {
    const uint64_t f = g.AttributeFrequency(a);
    st_len_[a.index()] = f > 0 ? mdl::ShannonCodeLength(f, attr_total) : 0.0;
  }
  const uint64_t core_total = idb.total_coreset_frequency();
  core_len_.resize(idb.num_coresets(), 0.0);
  for (CoreId c(0); c.index() < idb.num_coresets(); ++c) {
    const uint64_t f = idb.CoresetFrequency(c);
    core_len_[c.index()] = f > 0 ? mdl::ShannonCodeLength(f, core_total) : 0.0;
  }
}

double CodeModel::StCost(std::span<const AttrId> values) const {
  double bits = 0.0;
  for (AttrId a : values) bits += st_len_[a.index()];
  return bits;
}

double CodeModel::LeafCodeLength(uint64_t fl, uint64_t fe) {
  return mdl::ConditionalCodeLength(fl, fe);
}

double CodeModel::CoresetTableCostBits(const InvertedDatabase& idb) const {
  double bits = 0.0;
  for (CoreId c(0); c.index() < idb.num_coresets(); ++c) {
    if (idb.CoresetFrequency(c) == 0) continue;
    bits += StCost(idb.CoresetValues(c)) + CoreCodeLength(c);
  }
  return bits;
}

double CodeModel::TotalDescriptionLengthBits(
    const InvertedDatabase& idb) const {
  return CoresetTableCostBits(idb) + LeafsetTableCostBits(idb) +
         idb.DataCostBits();
}

}  // namespace cspm::core
