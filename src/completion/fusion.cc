#include "completion/fusion.h"

#include <algorithm>
#include <memory>

#include "util/check.h"

namespace cspm::completion {

nn::Matrix FuseWithCspm(const nn::Matrix& model_scores,
                        const CompletionDataset& data,
                        const engine::ServingEngine& cspm_engine,
                        const FusionOptions& options) {
  nn::Matrix fused = model_scores;
  const size_t num_attrs = data.num_attributes();

  // The engine must score the same attribute space the dataset's truth
  // matrix is indexed by, or the per-row reads below run out of bounds.
  CSPM_CHECK_MSG(
      cspm_engine.plan().num_attribute_values() == data.num_attributes(),
      "engine attribute space does not match the completion dataset");

  // One batch over every test node; slot i of the batch is test_nodes[i]
  // at any thread count.
  auto batch_or = cspm_engine.ScoreBatch(data.test_nodes);
  CSPM_CHECK_MSG(batch_or.ok(), "test_nodes outside the engine's graph");
  const std::vector<engine::AttributeScores>& cspm_batch = batch_or.value();

  for (size_t t = 0; t < data.test_nodes.size(); ++t) {
    const graph::VertexId v = data.test_nodes[t];
    const engine::AttributeScores& cspm_scores = cspm_batch[t];

    // Min-max normalize the model row (per-row, like the paper's "the two
    // vectors are normalized separately").
    double lo = model_scores(v.index(), 0);
    double hi = lo;
    for (size_t a = 1; a < num_attrs; ++a) {
      lo = std::min(lo, model_scores(v.index(), a));
      hi = std::max(hi, model_scores(v.index(), a));
    }
    const double span = hi - lo;
    for (size_t a = 0; a < num_attrs; ++a) {
      const double model_norm =
          span > 0 ? (model_scores(v.index(), a) - lo) / span : 1.0;
      const double multiplier =
          options.evidence_floor + cspm_scores.normalized[a];
      fused(v.index(), a) = model_norm * multiplier;
    }
  }
  return fused;
}

nn::Matrix FuseWithCspm(const nn::Matrix& model_scores,
                        const CompletionDataset& data,
                        const core::CspmModel& cspm_model,
                        const FusionOptions& options) {
  engine::ServingOptions serving;
  serving.pool = std::make_shared<engine::ScorePool>(options.num_threads);
  serving.scoring = options.scoring;
  // Cannot fail: the plan is compiled against this graph's own attribute
  // space. Whether cspm_model was actually mined on data.masked_graph is
  // the caller's contract (a CspmModel carries no dictionary to check).
  auto engine_or =
      engine::ServingEngine::Create(data.masked_graph, cspm_model, serving);
  CSPM_CHECK(engine_or.ok());
  return FuseWithCspm(model_scores, data, engine_or.value(), options);
}

}  // namespace cspm::completion
