// The scoring module of Algorithm 5: turns a mined CSPM model into
// per-attribute-value scores for a vertex with missing attributes, based on
// the attribute values observed on its neighbours.
//
// These per-vertex model walks are the reference scorer. Serving scores
// through the compiled ScoringPlan (cspm/scoring_plan.h); the tests hold
// it bit-identical to these functions, and bench_serving times one
// against the other.
#ifndef CSPM_CSPM_SCORING_H_
#define CSPM_CSPM_SCORING_H_

#include <vector>

#include "cspm/model.h"
#include "graph/attributed_graph.h"

namespace cspm::core {

struct ScoringOptions {
  /// Leafsets whose similarity with the neighbourhood falls below this are
  /// skipped (w would diverge).
  double min_similarity = 1e-9;
};

/// Per-value scores for one vertex. Raw scores follow Algorithm 5
/// (cl = -w * Scode, higher = more likely); `normalized` maps the finite
/// raw scores to (0, 1] min-max style with 0 for values without evidence,
/// ready for the multiply-fusion of Fig. 7.
struct AttributeScores {
  std::vector<double> raw;         ///< -inf when no a-star gave evidence
  std::vector<double> normalized;  ///< in [0, 1]
};

/// Scores every attribute value for vertex v given the model M.
/// similarity(SL, neighbours) = |SL ∩ N_attrs| / |SL| and w = 1/similarity,
/// so dissimilar leafsets get large w and strongly negative scores.
AttributeScores ScoreAttributes(const graph::AttributedGraph& g,
                                const CspmModel& model, VertexId v,
                                const ScoringOptions& options = {});

/// Same, but against an explicit neighbour-attribute set (used when the
/// graph's own attributes for v's neighbours are partially masked).
AttributeScores ScoreAttributesWithNeighbourhood(
    size_t num_attribute_values, const CspmModel& model,
    const std::vector<AttrId>& neighbourhood_attrs,
    const ScoringOptions& options = {});

}  // namespace cspm::core

#endif  // CSPM_CSPM_SCORING_H_
