#include "alarm/triage.h"

#include <algorithm>
#include <memory>

#include "alarm/window_graph.h"

namespace cspm::alarm {

StatusOr<std::vector<WindowTriage>> TriageWindows(
    const graph::AttributedGraph& window_graph, const core::CspmModel& model,
    const TriageOptions& options) {
  engine::ServingOptions serving;
  serving.pool = std::make_shared<engine::ScorePool>(options.num_threads);
  serving.scoring = options.scoring;
  CSPM_ASSIGN_OR_RETURN(
      engine::ServingEngine engine,
      engine::ServingEngine::Create(window_graph, model, serving));
  const std::vector<core::AttributeScores> batch = engine.ScoreAll();

  // Attribute names of the window graph are "T<k>"; decode once.
  std::vector<AlarmType> attr_to_type(window_graph.num_attribute_values(), 0);
  std::vector<bool> decodes(window_graph.num_attribute_values(), false);
  for (graph::AttrId a(0); a.index() < window_graph.num_attribute_values();
       ++a) {
    auto type_or = DecodeAlarmName(window_graph.dict().Name(a));
    if (type_or.ok()) {
      attr_to_type[a.index()] = type_or.value();
      decodes[a.index()] = true;
    }
  }

  std::vector<WindowTriage> result;
  std::vector<graph::AttrId> candidates;
  for (graph::VertexId v(0); v < window_graph.num_vertices(); ++v) {
    const core::AttributeScores& scores = batch[v.index()];
    candidates.clear();
    for (graph::AttrId a(0); a.index() < scores.normalized.size(); ++a) {
      if (!decodes[a.index()]) continue;
      // No pattern evidence, or below the triage threshold.
      if (scores.normalized[a.index()] <= 0.0) continue;
      if (scores.normalized[a.index()] < options.min_score) continue;
      // Alarms already observed in the window are not "hidden causes".
      if (window_graph.HasAttribute(v, a)) continue;
      candidates.push_back(a);
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](graph::AttrId x, graph::AttrId y) {
                return scores.normalized[x.index()] !=
                               scores.normalized[y.index()]
                           ? scores.normalized[x.index()] >
                                 scores.normalized[y.index()]
                           : attr_to_type[x.index()] < attr_to_type[y.index()];
              });
    if (candidates.size() > options.top_k) candidates.resize(options.top_k);
    // After truncation, so top_k=0 cannot emit suspect-less windows.
    if (candidates.empty()) continue;

    WindowTriage wt;
    wt.window = v;
    wt.suspected.reserve(candidates.size());
    for (graph::AttrId a : candidates) {
      wt.suspected.push_back(
          {attr_to_type[a.index()], scores.normalized[a.index()]});
    }
    result.push_back(std::move(wt));
  }
  return result;
}

}  // namespace cspm::alarm
