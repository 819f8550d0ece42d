#include "alarm/acor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>

namespace cspm::alarm {
namespace {

uint64_t PairKey(AlarmType a, AlarmType b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

std::vector<RankedPair> RunAcor(const AlarmDataset& data,
                                const AcorOptions& options) {
  // Windowed occurrences: for each (window, device), the earliest firing
  // time of each type. Co-occurrence pairs a type with types on the same
  // or adjacent devices within the window; the earliest times drive the
  // cause-direction vote (causes precede their derivatives).
  std::map<std::pair<uint32_t, uint32_t>, std::map<AlarmType, double>>
      buckets;
  for (const AlarmEvent& ev : data.events) {
    const uint32_t w =
        static_cast<uint32_t>(ev.time_minutes / options.window_minutes);
    auto& bucket = buckets[{w, ev.device}];
    auto it = bucket.find(ev.type);
    if (it == bucket.end() || ev.time_minutes < it->second) {
      bucket[ev.type] = ev.time_minutes;
    }
  }

  std::unordered_map<AlarmType, uint64_t> occurrences;
  std::unordered_map<uint64_t, uint64_t> co;       // unordered key (a<b)
  std::unordered_map<uint64_t, int64_t> precede;   // votes: a-first minus
                                                   // b-first

  for (const auto& [key, types] : buckets) {
    const auto [w, device] = key;
    for (const auto& [t, time] : types) {
      (void)time;
      ++occurrences[t];
    }
    // Neighbourhood: same device plus adjacent devices, earliest time per
    // type across the neighbourhood.
    std::map<AlarmType, double> nearby = types;
    for (uint32_t nbr : data.adjacency[device]) {
      auto it = buckets.find({w, nbr});
      if (it == buckets.end()) continue;
      for (const auto& [t, time] : it->second) {
        auto nit = nearby.find(t);
        if (nit == nearby.end() || time < nit->second) nearby[t] = time;
      }
    }
    for (const auto& [a, ta] : types) {
      for (const auto& [b, tb] : nearby) {
        if (b <= a) continue;  // count unordered once, from the lower side
        ++co[PairKey(a, b)];
        if (ta < tb) {
          ++precede[PairKey(a, b)];
        } else if (tb < ta) {
          --precede[PairKey(a, b)];
        }
      }
    }
  }

  std::vector<RankedPair> ranked;
  for (const auto& [key, n] : co) {
    if (n < options.min_co_occurrences) continue;
    const AlarmType a = static_cast<AlarmType>(key >> 32);
    const AlarmType b = static_cast<AlarmType>(key);
    const double fa = static_cast<double>(occurrences[a]);
    const double fb = static_cast<double>(occurrences[b]);
    const double nn = static_cast<double>(n);
    // Correlation: Jaccard over windowed occurrences.
    const double jaccard = nn / (fa + fb - std::min(nn, fa + fb - 1.0));
    // Direction (alarm importance): the published ACOR works on windowed
    // dynamic-attributed-graph snapshots where within-window order is
    // lost; the cause is taken as the more frequent alarm of the pair (a
    // cause fires with every incident of its rule, each derivative only
    // probabilistically). The optional temporal-precedence vote is an
    // event-timestamp oracle used by an ablation bench only.
    RankedPair p;
    bool a_is_cause;
    if (options.use_temporal_precedence) {
      const int64_t votes = precede[key];
      a_is_cause = votes != 0 ? votes > 0 : fa >= fb;
    } else {
      a_is_cause = fa >= fb;
    }
    if (a_is_cause) {
      p.cause = a;
      p.derivative = b;
    } else {
      p.cause = b;
      p.derivative = a;
    }
    p.score = jaccard;
    ranked.push_back(p);
    // The reverse direction is kept at reduced confidence so a wrong
    // importance call is recoverable at larger K (coverage must be able
    // to reach 1, as in the paper's Fig. 8).
    RankedPair reverse;
    reverse.cause = p.derivative;
    reverse.derivative = p.cause;
    reverse.score = jaccard * 0.5;
    ranked.push_back(reverse);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedPair& x, const RankedPair& y) {
              if (x.score != y.score) return x.score > y.score;
              if (x.cause != y.cause) return x.cause < y.cause;
              return x.derivative < y.derivative;
            });
  return ranked;
}

std::vector<RankedPair> SplitAStarsToPairs(
    const core::CspmModel& model, const graph::AttributeDictionary& dict,
    const AStarRuleOptions& options) {
  // Best (smallest) code length per directed pair.
  std::unordered_map<uint64_t, double> best;
  for (const core::AStarRef& s : model.astars) {
    if (s.frequency < options.min_frequency) continue;
    for (graph::AttrId cv : s.core_values) {
      auto cause_or = DecodeAlarmName(dict.Name(cv));
      if (!cause_or.ok()) continue;
      for (graph::AttrId lv : s.leaf_values) {
        if (lv == cv) continue;
        auto deriv_or = DecodeAlarmName(dict.Name(lv));
        if (!deriv_or.ok()) continue;
        const uint64_t key = PairKey(cause_or.value(), deriv_or.value());
        auto it = best.find(key);
        if (it == best.end() || s.code_length_bits < it->second) {
          best[key] = s.code_length_bits;
        }
      }
    }
  }
  std::vector<RankedPair> ranked;
  ranked.reserve(best.size());
  for (const auto& [key, code_len] : best) {
    const AlarmType cause = static_cast<AlarmType>(key >> 32);
    const AlarmType derivative = static_cast<AlarmType>(key);
    if (options.single_direction_per_pair) {
      auto rit = best.find(PairKey(derivative, cause));
      if (rit != best.end()) {
        // Keep the more compressible direction; break exact ties towards
        // the lower type id so exactly one side survives.
        if (rit->second < code_len ||
            (rit->second == code_len && derivative < cause)) {
          continue;
        }
      }
    }
    RankedPair p;
    p.cause = cause;
    p.derivative = derivative;
    p.score = -code_len;  // shorter code = higher score
    ranked.push_back(p);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedPair& x, const RankedPair& y) {
              if (x.score != y.score) return x.score > y.score;
              if (x.cause != y.cause) return x.cause < y.cause;
              return x.derivative < y.derivative;
            });
  return ranked;
}

std::vector<double> CoverageAtK(const std::vector<RankedPair>& ranked,
                                const std::vector<PairRule>& valid,
                                const std::vector<size_t>& ks) {
  std::set<std::pair<AlarmType, AlarmType>> valid_set;
  for (const PairRule& r : valid) valid_set.insert({r.cause, r.derivative});
  std::vector<double> coverage;
  coverage.reserve(ks.size());
  if (valid_set.empty()) {
    coverage.assign(ks.size(), 0.0);
    return coverage;
  }
  for (size_t k : ks) {
    size_t hits = 0;
    const size_t n = std::min(k, ranked.size());
    for (size_t i = 0; i < n; ++i) {
      if (valid_set.count({ranked[i].cause, ranked[i].derivative})) ++hits;
    }
    coverage.push_back(static_cast<double>(hits) /
                       static_cast<double>(valid_set.size()));
  }
  return coverage;
}

}  // namespace cspm::alarm
