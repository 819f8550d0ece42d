#include "cspm/leafset_registry.h"

#include <algorithm>

#include "util/check.h"

namespace cspm::core {

LeafsetId LeafsetRegistry::Intern(std::vector<AttrId> values) {
  CSPM_DCHECK(std::is_sorted(values.begin(), values.end()));
  auto it = index_.find(values);
  if (it != index_.end()) return it->second;
  LeafsetId id(static_cast<uint32_t>(sets_.size()));
  index_.emplace(values, id);
  if (values.size() == 1) {
    const size_t a = values[0].index();
    if (a >= singletons_.size()) singletons_.resize(a + 1, kNotFound);
    singletons_[a] = id;
  }
  sets_.push_back(std::move(values));
  return id;
}

LeafsetId LeafsetRegistry::Find(const std::vector<AttrId>& values) const {
  auto it = index_.find(values);
  return it == index_.end() ? kNotFound : it->second;
}

const std::vector<AttrId>& LeafsetRegistry::Values(LeafsetId id) const {
  CSPM_CHECK(id.index() < sets_.size());
  return sets_[id.index()];
}

std::vector<AttrId> LeafsetRegistry::UnionValues(LeafsetId a,
                                                 LeafsetId b) const {
  const auto& va = Values(a);
  const auto& vb = Values(b);
  std::vector<AttrId> out;
  out.reserve(va.size() + vb.size());
  std::set_union(va.begin(), va.end(), vb.begin(), vb.end(),
                 std::back_inserter(out));
  return out;
}

LeafsetId LeafsetRegistry::InternUnion(LeafsetId a, LeafsetId b) {
  return Intern(UnionValues(a, b));
}

}  // namespace cspm::core
