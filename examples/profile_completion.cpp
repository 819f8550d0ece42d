// Node attribute completion (the paper's Section VI-C): hide 30% of the
// user profiles in a homophilous social graph, then compare NeighAggre
// with and without the CSPM scoring fusion.
//
// Demonstrates mine-once/serve-many through the model store: the first
// run mines and persists the model to a .cspm store file; later runs load
// it back in milliseconds instead of re-mining.
//
//   $ ./examples/profile_completion [--threads N] [model.cspm]
//
// --threads N shards the CSPM batch scoring of the test nodes across the
// serving engine's thread pool (0 = one per hardware core; scores are
// identical at any thread count).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "completion/fusion.h"
#include "completion/models.h"
#include "completion/task.h"
#include "datasets/synthetic.h"
#include "engine/serving.h"
#include "engine/session.h"
#include "util/string_util.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace cspm;
  using namespace cspm::completion;

  uint32_t threads = 1;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string threads_value;
    switch (MatchFlagWithValue(argc, argv, &i, "--threads", &threads_value)) {
      case 0:
        positional.push_back(argv[i]);
        break;
      case -1:
        std::fprintf(stderr, "--threads needs a value\n");
        return 2;
      default:
        if (!ParseUint32(threads_value, &threads)) {
          std::fprintf(stderr,
                       "--threads needs a non-negative integer, got '%s'\n",
                       threads_value.c_str());
          return 2;
        }
    }
  }
  if (positional.size() > 1) {
    std::fprintf(stderr,
                 "usage: profile_completion [--threads N] [model.cspm]\n");
    return 2;
  }
  const std::string store_path =
      !positional.empty() ? positional[0] : "profile_completion.cspm";

  auto graph_or = datasets::MakeCoraLike(/*seed=*/11);
  if (!graph_or.ok()) {
    std::fprintf(stderr, "%s\n", graph_or.status().ToString().c_str());
    return 1;
  }
  auto data_or = MakeCompletionTask(*graph_or, /*missing_fraction=*/0.3,
                                    /*seed=*/17);
  if (!data_or.ok()) {
    std::fprintf(stderr, "%s\n", data_or.status().ToString().c_str());
    return 1;
  }
  const CompletionDataset& data = *data_or;
  std::printf("citation-style graph: %u nodes, %zu test nodes with hidden "
              "attributes\n",
              data.masked_graph.num_vertices().value(), data.test_nodes.size());

  // Mine a-stars on the attribute-missing graph (what a deployment sees) —
  // or, on a warm start, load the persisted model from the store.
  engine::MiningOptions mopts;
  mopts.record_iteration_stats = false;
  auto session_or = engine::MiningSession::Create(data.masked_graph, mopts);
  if (!session_or.ok()) {
    std::fprintf(stderr, "%s\n", session_or.status().ToString().c_str());
    return 1;
  }
  engine::MiningSession& session = *session_or;
  const bool store_exists = std::ifstream(store_path).good();
  WallTimer timer;
  bool loaded = false;
  if (store_exists) {
    if (Status st = session.LoadModel(store_path); st.ok()) {
      loaded = true;
      std::printf("loaded model from %s in %.1fms (mine-once/serve-many)\n",
                  store_path.c_str(), timer.ElapsedMillis());
    } else {
      std::fprintf(stderr, "warning: could not load %s (%s); re-mining\n",
                   store_path.c_str(), st.ToString().c_str());
      timer.Reset();
    }
  }
  if (!loaded) {
    if (Status st = session.Mine(); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("mined model in %.2fs\n", timer.ElapsedSeconds());
    if (Status st = session.SaveModel(store_path); !st.ok()) {
      std::fprintf(stderr, "warning: could not persist model: %s\n",
                   st.ToString().c_str());
    } else {
      std::printf("persisted model to %s; the next run loads it instead of "
                  "mining\n",
                  store_path.c_str());
    }
  }

  auto model = MakeNeighAggre();
  nn::Matrix base_scores = model->PredictScores(data);
  // One serving batch over all test nodes, sharded across --threads; the
  // engine reuses the plan the session compiled at Mine/LoadModel time.
  engine::ServingOptions serving;
  serving.pool = std::make_shared<engine::ScorePool>(threads);
  auto engine_or = session.Serve(serving);
  if (!engine_or.ok()) {
    std::fprintf(stderr, "%s\n", engine_or.status().ToString().c_str());
    return 1;
  }
  WallTimer fuse_timer;
  nn::Matrix fused_scores = FuseWithCspm(base_scores, data, *engine_or);
  std::printf("batch-scored %zu test nodes in %.1fms (--threads %u)\n",
              data.test_nodes.size(), fuse_timer.ElapsedMillis(), threads);

  const std::vector<size_t> ks = {10, 20, 50};
  auto base = EvaluateScores(data, base_scores, ks);
  auto fused = EvaluateScores(data, fused_scores, ks);
  std::printf("%-18s %8s %8s %8s\n", "method", "Rec@10", "Rec@20", "Rec@50");
  std::printf("%-18s %8.4f %8.4f %8.4f\n", "NeighAggre", base.recall[0],
              base.recall[1], base.recall[2]);
  std::printf("%-18s %8.4f %8.4f %8.4f\n", "CSPM+NeighAggre",
              fused.recall[0], fused.recall[1], fused.recall[2]);
  return 0;
}
