#include "cspm/scoring.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cspm::core {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

}  // namespace

AttributeScores ScoreAttributesWithNeighbourhood(
    size_t num_attribute_values, const CspmModel& model,
    const std::vector<AttrId>& neighbourhood_attrs,
    const ScoringOptions& options) {
  AttributeScores scores;
  scores.raw.assign(num_attribute_values, kNegInf);

  std::vector<bool> in_neighbourhood(num_attribute_values, false);
  for (AttrId a : neighbourhood_attrs) {
    if (a.index() < num_attribute_values) in_neighbourhood[a.index()] = true;
  }

  for (const AStarRef& s : model.astars) {
    if (s.leaf_values.empty()) continue;
    size_t matched = 0;
    for (AttrId a : s.leaf_values) {
      if (a.index() < num_attribute_values && in_neighbourhood[a.index()]) {
        ++matched;
      }
    }
    const double similarity = static_cast<double>(matched) /
                              static_cast<double>(s.leaf_values.size());
    if (similarity < options.min_similarity) continue;
    const double w = 1.0 / similarity;
    const double cl = -w * s.code_length_bits;
    for (AttrId cv : s.core_values) {
      if (cv.index() < num_attribute_values && cl > scores.raw[cv.index()]) {
        scores.raw[cv.index()] = cl;
      }
    }
  }

  // Min-max normalization of finite scores into (0, 1]; -inf -> 0.
  double lo = std::numeric_limits<double>::infinity();
  double hi = kNegInf;
  for (double s : scores.raw) {
    if (std::isfinite(s)) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
  }
  scores.normalized.assign(num_attribute_values, 0.0);
  if (hi >= lo && std::isfinite(hi)) {
    const double span = hi - lo;
    for (size_t a = 0; a < num_attribute_values; ++a) {
      if (!std::isfinite(scores.raw[a])) continue;
      scores.normalized[a] =
          span > 0 ? 0.05 + 0.95 * (scores.raw[a] - lo) / span : 1.0;
    }
  }
  return scores;
}

AttributeScores ScoreAttributes(const graph::AttributedGraph& g,
                                const CspmModel& model, VertexId v,
                                const ScoringOptions& options) {
  std::vector<AttrId> neighbourhood;
  for (VertexId w : g.Neighbors(v)) {
    auto attrs = g.Attributes(w);
    neighbourhood.insert(neighbourhood.end(), attrs.begin(), attrs.end());
  }
  std::sort(neighbourhood.begin(), neighbourhood.end());
  neighbourhood.erase(
      std::unique(neighbourhood.begin(), neighbourhood.end()),
      neighbourhood.end());
  return ScoreAttributesWithNeighbourhood(g.num_attribute_values(), model,
                                          neighbourhood, options);
}

}  // namespace cspm::core
