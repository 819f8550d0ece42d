// Window-level alarm triage on the batch serving path: every (device,
// window) vertex of the window graph is scored in one ServingEngine batch
// against a mined a-star model, and the top-scoring alarm types NOT yet
// observed in the window are reported as suspected hidden causes. This is
// the serving-side companion of the Fig. 8 rule extraction: rules rank
// cause->derivative pairs offline, triage ranks likely culprit alarms per
// live window.
#ifndef CSPM_ALARM_TRIAGE_H_
#define CSPM_ALARM_TRIAGE_H_

#include <cstdint>
#include <vector>

#include "alarm/rules.h"
#include "cspm/model.h"
#include "engine/serving.h"
#include "graph/attributed_graph.h"
#include "util/status.h"

namespace cspm::alarm {

struct TriageOptions {
  /// Suspected alarm types reported per window (the best `top_k` by
  /// normalized score).
  size_t top_k = 3;
  /// Suspects scoring below this normalized threshold are dropped.
  double min_score = 0.0;
  /// Slots of the ScorePool built for the batch scoring (0 = one per
  /// hardware core). Output is identical at any thread count.
  uint32_t num_threads = 1;
  core::ScoringOptions scoring;
};

/// One suspected hidden alarm in a window.
struct SuspectedAlarm {
  AlarmType type = 0;
  double score = 0.0;  ///< normalized Algorithm 5 score, in (0, 1]
};

/// Triage result for one window-graph vertex.
struct WindowTriage {
  graph::VertexId window{};
  /// Ranked by descending score, ties by ascending alarm type.
  std::vector<SuspectedAlarm> suspected;
};

/// Scores every window vertex of `window_graph` in one batch through a
/// compiled plan of `model` and reports, per window, the top suspected
/// alarm types not already observed there. Windows with no suspect above
/// `min_score` are omitted; output is ordered by ascending window vertex.
StatusOr<std::vector<WindowTriage>> TriageWindows(
    const graph::AttributedGraph& window_graph, const core::CspmModel& model,
    const TriageOptions& options = {});

}  // namespace cspm::alarm

#endif  // CSPM_ALARM_TRIAGE_H_
