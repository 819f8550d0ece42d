// Interning of leafsets (sets of leaf attribute values) to dense ids.
#ifndef CSPM_CSPM_LEAFSET_REGISTRY_H_
#define CSPM_CSPM_LEAFSET_REGISTRY_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "cspm/types.h"

namespace cspm::core {

/// FNV-1a over the id bytes. The registry grows to one entry per line
/// leafset (hundreds of thousands on dense graphs) and Find/InternUnion
/// sit on the merge-loop hot path, so lookups must not pay an ordered-map
/// walk with full vector comparisons at every node.
struct LeafsetHash {
  size_t operator()(const std::vector<AttrId>& values) const {
    uint64_t h = 1469598103934665603ull;
    for (AttrId v : values) {
      h = (h ^ v.value()) * 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

/// Interns sorted attribute-value sets. Ids are stable for the lifetime of
/// the registry.
class LeafsetRegistry {
 public:
  static constexpr LeafsetId kNotFound = static_cast<LeafsetId>(-1);

  /// Interns `values` (must be sorted and duplicate-free); returns its id.
  LeafsetId Intern(std::vector<AttrId> values);

  /// Id of an existing leafset, or kNotFound.
  LeafsetId Find(const std::vector<AttrId>& values) const;

  /// Id of the singleton leafset {a}, or kNotFound: a table read, where
  /// Find would hash a one-element vector.
  LeafsetId Singleton(AttrId a) const {
    return a.index() < singletons_.size() ? singletons_[a.index()]
                                          : kNotFound;
  }

  /// Values of an interned leafset.
  const std::vector<AttrId>& Values(LeafsetId id) const;

  /// Interns the union of two existing leafsets.
  LeafsetId InternUnion(LeafsetId a, LeafsetId b);

  /// Union of two existing leafsets without interning.
  std::vector<AttrId> UnionValues(LeafsetId a, LeafsetId b) const;

  size_t size() const { return sets_.size(); }

 private:
  std::vector<std::vector<AttrId>> sets_;
  std::unordered_map<std::vector<AttrId>, LeafsetId, LeafsetHash> index_;
  std::vector<LeafsetId> singletons_;  // per attribute value, or kNotFound
};

}  // namespace cspm::core

#endif  // CSPM_CSPM_LEAFSET_REGISTRY_H_
