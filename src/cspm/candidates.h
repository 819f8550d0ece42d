// Candidate bookkeeping for the greedy search: a gain-ordered pair store
// with lazy heap invalidation, and the related-leafset dictionary (rdict)
// used by CSPM-Partial (Algorithms 3-4).
#ifndef CSPM_CSPM_CANDIDATES_H_
#define CSPM_CSPM_CANDIDATES_H_

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cspm/types.h"

namespace cspm::core {

/// Canonical 64-bit key of an unordered leafset pair — the map key of the
/// CandidateStore.
inline uint64_t CandidatePairKey(LeafsetId x, LeafsetId y) {
  if (x > y) std::swap(x, y);
  return (static_cast<uint64_t>(x.value()) << 32) | y.value();
}

/// Max-gain priority store over unordered leafset pairs. Set() overwrites;
/// stale heap entries are skipped on pop via version counters.
class CandidateStore {
 public:
  /// Inserts or updates the pair's gain.
  void Set(LeafsetId x, LeafsetId y, double gain);

  /// Removes the pair if present.
  void Erase(LeafsetId x, LeafsetId y);

  /// True if no live candidates remain.
  bool empty() const { return live_.empty(); }
  size_t size() const { return live_.size(); }

  /// Pops the live pair with the maximum gain. Returns false when empty.
  bool PopBest(LeafsetId* x, LeafsetId* y, double* gain);

  /// Gain of the best live pair without popping (false when empty).
  bool PeekBest(double* gain);

 private:
  struct HeapEntry {
    double gain;
    uint64_t key;
    uint64_t version;
    bool operator<(const HeapEntry& o) const { return gain < o.gain; }
  };
  struct LiveEntry {
    double gain;
    uint64_t version;
  };

  static uint64_t PairKey(LeafsetId x, LeafsetId y) {
    return CandidatePairKey(x, y);
  }
  void DropStale();

  std::unordered_map<uint64_t, LiveEntry> live_;
  std::priority_queue<HeapEntry> heap_;
  uint64_t next_version_ = 1;
};

/// rdict of Algorithm 3: for each leafset, the set of leafsets it currently
/// forms a positive-gain candidate with.
class RelatedDict {
 public:
  void Link(LeafsetId x, LeafsetId y);
  void Unlink(LeafsetId x, LeafsetId y);

  /// Removes l and all its links; fills `former` with l's former relations.
  void RemoveLeafset(LeafsetId l, std::vector<LeafsetId>* former);

  /// Related leafsets of l (empty set if none).
  const std::unordered_set<LeafsetId>& RelatedTo(LeafsetId l) const;

  bool Contains(LeafsetId l) const { return rdict_.count(l) > 0; }
  size_t size() const { return rdict_.size(); }
  bool empty() const { return rdict_.empty(); }

  /// Sorted intersection of the relation sets of x and y (Algorithm 4,
  /// line 6).
  std::vector<LeafsetId> Intersection(LeafsetId x, LeafsetId y) const;

 private:
  std::unordered_map<LeafsetId, std::unordered_set<LeafsetId>> rdict_;
};

}  // namespace cspm::core

#endif  // CSPM_CSPM_CANDIDATES_H_
