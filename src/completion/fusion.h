// CSPM score fusion (Fig. 7): the model's probability vector and the CSPM
// scoring module's vector are normalized separately and multiplied.
#ifndef CSPM_COMPLETION_FUSION_H_
#define CSPM_COMPLETION_FUSION_H_

#include "completion/task.h"
#include "cspm/model.h"
#include "engine/serving.h"

namespace cspm::completion {

struct FusionOptions {
  /// Floor added to the normalized CSPM multiplier. The paper normalizes
  /// the two vectors and multiplies but does not specify the no-evidence
  /// case; with floor 1.0 the multiplier lies in [1, 2], so pattern
  /// evidence boosts a value and its absence never demotes one.
  double evidence_floor = 1.0;
  engine::ScoringOptions scoring;
  /// Slots of the ScorePool the model overload builds for the batch CSPM
  /// scoring of the test nodes (0 = one per hardware core). Results are
  /// identical at any thread count.
  uint32_t num_threads = 1;
};

/// Returns a copy of `model_scores` where every test-node row has been
/// multiplied by (evidence_floor + normalized CSPM score); observed rows
/// are left untouched. `cspm_model` must have been mined on
/// `data.masked_graph`. The CSPM scores come from one batch over the test
/// nodes through a compiled ScoringPlan (engine::ServingEngine), not a
/// per-vertex model walk. This overload compiles a plan per call; fusing
/// repeatedly, prefer the engine overload with e.g.
/// MiningSession::Serve().
nn::Matrix FuseWithCspm(const nn::Matrix& model_scores,
                        const CompletionDataset& data,
                        const core::CspmModel& cspm_model,
                        const FusionOptions& options = {});

/// Same, over a prebuilt engine (compile-once/fuse-many). The engine must
/// serve `data.masked_graph`; its own ScoringOptions and pool apply
/// (FusionOptions::scoring / num_threads are ignored).
nn::Matrix FuseWithCspm(const nn::Matrix& model_scores,
                        const CompletionDataset& data,
                        const engine::ServingEngine& cspm_engine,
                        const FusionOptions& options = {});

}  // namespace cspm::completion

#endif  // CSPM_COMPLETION_FUSION_H_
