#include "cspm/model.h"

#include <algorithm>

#include "util/check.h"
#include "util/string_util.h"

namespace cspm::core {
namespace {

std::string RenderValues(std::span<const AttrId> values,
                         const graph::AttributeDictionary& dict) {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out += ",";
    out += dict.Name(values[i]);
  }
  out += "}";
  return out;
}

}  // namespace

std::string AStarRef::ToString(const graph::AttributeDictionary& dict) const {
  return StrFormat(
      "(%s -> %s) fL=%llu fc=%llu code=%.3f bits",
      RenderValues(core_values, dict).c_str(),
      RenderValues(leaf_values, dict).c_str(),
      static_cast<unsigned long long>(frequency),
      static_cast<unsigned long long>(core_total), code_length_bits);
}

AStarTable::AStarTable(std::initializer_list<AStar> stars) {
  size_t values = 0;
  for (const AStar& s : stars) {
    values += s.core_values.size() + s.leaf_values.size();
  }
  reserve(stars.size(), values);
  for (const AStar& s : stars) push_back(s);
}

void AStarTable::push_back(const AStarRef& s) {
  CSPM_CHECK(s.core_values.size() <= UINT32_MAX &&
             s.leaf_values.size() <= UINT32_MAX);
  records_.push_back({values_.size(),
                      static_cast<uint32_t>(s.core_values.size()),
                      static_cast<uint32_t>(s.leaf_values.size()), s.frequency,
                      s.core_total, s.coreset_frequency, s.code_length_bits});
  values_.insert(values_.end(), s.core_values.begin(), s.core_values.end());
  values_.insert(values_.end(), s.leaf_values.begin(), s.leaf_values.end());
}

std::vector<AStarRef> CspmModel::PatternsWithMinLeaves(
    size_t min_leaf_values) const {
  std::vector<AStarRef> out;
  for (const AStarRef& s : astars) {
    if (s.leaf_values.size() >= min_leaf_values) out.push_back(s);
  }
  return out;
}

std::string CspmModel::Describe(const graph::AttributeDictionary& dict,
                                size_t top_k) const {
  std::string out;
  size_t n = std::min(top_k, astars.size());
  for (size_t i = 0; i < n; ++i) {
    out += StrFormat("%3zu. ", i + 1) + astars[i].ToString(dict) + "\n";
  }
  return out;
}

}  // namespace cspm::core
