// End-to-end miner tests: termination, monotone DL, Basic/Partial
// agreement, planted-pattern recovery, losslessness of the final state,
// multi-value coresets and the instrumentation required by Fig. 5.
#include "cspm/miner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cspm/verify.h"
#include "datasets/synthetic.h"
#include "graph/generators.h"
#include "testing_util.h"

namespace cspm::core {
namespace {

graph::AttributedGraph PlantedGraph(uint64_t seed) {
  graph::PlantedGraphOptions options;
  options.num_vertices = 300;
  options.noise_vocabulary = 15;
  options.seed = seed;
  std::vector<graph::PlantedAStar> rules = {
      {{"fever"}, {"cough", "fatigue"}, 0.9},
      {{"vip"}, {"premium", "churn"}, 0.85},
  };
  return graph::PlantedAStarGraph(options, rules).value();
}

TEST(CspmMinerTest, TerminatesAndCompressesPartial) {
  auto g = PlantedGraph(1);
  CspmOptions options;
  options.strategy = SearchStrategy::kPartial;
  auto model = CspmMiner(options).Mine(g).value();
  EXPECT_GT(model.stats.iterations, 0u);
  EXPECT_LT(model.stats.final_dl_bits, model.stats.initial_dl_bits);
  EXPECT_FALSE(model.astars.empty());
}

TEST(CspmMinerTest, TerminatesAndCompressesBasic) {
  auto g = PlantedGraph(1);
  CspmOptions options;
  options.strategy = SearchStrategy::kBasic;
  auto model = CspmMiner(options).Mine(g).value();
  EXPECT_GT(model.stats.iterations, 0u);
  EXPECT_LT(model.stats.final_dl_bits, model.stats.initial_dl_bits);
}

TEST(CspmMinerTest, AcceptedGainsArePositive) {
  auto g = PlantedGraph(2);
  CspmOptions options;
  options.record_iteration_stats = true;
  auto model = CspmMiner(options).Mine(g).value();
  for (const auto& it : model.stats.per_iteration) {
    if (it.iteration == 0) continue;  // initial candidate generation
    EXPECT_GT(it.accepted_gain_bits, 0.0) << "iteration " << it.iteration;
  }
}

TEST(CspmMinerTest, OutputSortedByCodeLength) {
  auto g = PlantedGraph(3);
  auto model = CspmMiner(CspmOptions{}).Mine(g).value();
  for (size_t i = 1; i < model.astars.size(); ++i) {
    EXPECT_LE(model.astars[i - 1].code_length_bits,
              model.astars[i].code_length_bits + 1e-12);
  }
}

TEST(CspmMinerTest, OutputSortedByCodeLengthThenCoreThenLeafValues) {
  // The extraction sorts flat rank keys; the published order must be the
  // full (code length, core values, leaf values) order, strictly.
  const auto by_code_core_leaf = [](const AStar& a, const AStar& b) {
    if (a.code_length_bits != b.code_length_bits) {
      return a.code_length_bits < b.code_length_bits;
    }
    if (a.core_values != b.core_values) return a.core_values < b.core_values;
    return a.leaf_values < b.leaf_values;
  };
  CspmOptions multi;
  multi.multi_value_coresets = true;
  const auto pokec = datasets::MakePokecLike(/*seed=*/2, 600).value();
  const auto planted = PlantedGraph(12);
  for (const auto& [g, options] :
       {std::pair(&pokec, CspmOptions{}), std::pair(&planted, multi)}) {
    const CspmModel model = CspmMiner(options).Mine(*g).value();
    ASSERT_GT(model.stats.iterations, 0u);
    EXPECT_TRUE(std::is_sorted(model.astars.begin(), model.astars.end(),
                               by_code_core_leaf));
    for (size_t i = 1; i < model.astars.size(); ++i) {
      EXPECT_TRUE(by_code_core_leaf(model.astars[i - 1], model.astars[i]));
    }
  }
}

TEST(CspmMinerTest, FinalStateIsLossless) {
  auto g = PlantedGraph(4);
  for (auto strategy : {SearchStrategy::kBasic, SearchStrategy::kPartial}) {
    CspmOptions options;
    options.strategy = strategy;
    auto artifacts = CspmMiner(options).MineWithArtifacts(g).value();
    EXPECT_TRUE(VerifyLossless(g, artifacts.inverted_db).ok())
        << "strategy " << static_cast<int>(strategy);
  }
}

TEST(CspmMinerTest, RecoversPlantedPattern) {
  auto g = PlantedGraph(5);
  auto model = CspmMiner(CspmOptions{}).Mine(g).value();
  const graph::AttrId fever = g.dict().Find("fever");
  const graph::AttrId cough = g.dict().Find("cough");
  const graph::AttrId fatigue = g.dict().Find("fatigue");
  ASSERT_NE(fever, graph::AttributeDictionary::kNotFound);
  // Some merged a-star with core fever must join cough and fatigue.
  bool found = false;
  for (const auto& s : model.astars) {
    const bool core_fever =
        std::find(s.core_values.begin(), s.core_values.end(), fever) !=
        s.core_values.end();
    const bool has_cough =
        std::find(s.leaf_values.begin(), s.leaf_values.end(), cough) !=
        s.leaf_values.end();
    const bool has_fatigue =
        std::find(s.leaf_values.begin(), s.leaf_values.end(), fatigue) !=
        s.leaf_values.end();
    if (core_fever && has_cough && has_fatigue) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(CspmMinerTest, BasicAndPartialReachSimilarDl) {
  // The two strategies take different greedy paths, but the final
  // description lengths should agree closely (the paper treats Partial as
  // an optimization, not a different algorithm).
  auto g = PlantedGraph(6);
  CspmOptions basic;
  basic.strategy = SearchStrategy::kBasic;
  CspmOptions partial;
  partial.strategy = SearchStrategy::kPartial;
  auto mb = CspmMiner(basic).Mine(g).value();
  auto mp = CspmMiner(partial).Mine(g).value();
  EXPECT_NEAR(mb.stats.final_dl_bits, mp.stats.final_dl_bits,
              0.05 * mb.stats.initial_dl_bits);
}

TEST(CspmMinerTest, PartialDoesFewerGainComputations) {
  auto g = PlantedGraph(7);
  CspmOptions basic;
  basic.strategy = SearchStrategy::kBasic;
  CspmOptions partial;
  partial.strategy = SearchStrategy::kPartial;
  auto mb = CspmMiner(basic).Mine(g).value();
  auto mp = CspmMiner(partial).Mine(g).value();
  if (mb.stats.iterations > 3 && mp.stats.iterations > 3) {
    EXPECT_LT(mp.stats.total_gain_computations,
              mb.stats.total_gain_computations);
  }
}

TEST(CspmMinerTest, UpdateRatioInstrumentationFilled) {
  auto g = PlantedGraph(8);
  CspmOptions options;
  options.record_iteration_stats = true;
  auto model = CspmMiner(options).Mine(g).value();
  ASSERT_FALSE(model.stats.per_iteration.empty());
  for (const auto& it : model.stats.per_iteration) {
    EXPECT_GT(it.possible_pairs, 0u);
    EXPECT_GE(it.UpdateRatio(), 0.0);
    EXPECT_LE(it.UpdateRatio(), 1.0 + 1e-9);
  }
}

TEST(CspmMinerTest, MaxIterationsRespected) {
  auto g = PlantedGraph(9);
  CspmOptions options;
  options.max_iterations = 2;
  auto model = CspmMiner(options).Mine(g).value();
  EXPECT_LE(model.stats.iterations, 2u);
}

TEST(CspmMinerTest, SingletonFilterWorks) {
  auto g = PlantedGraph(10);
  CspmOptions keep;
  keep.include_singleton_leafsets = true;
  CspmOptions drop;
  drop.include_singleton_leafsets = false;
  auto mk = CspmMiner(keep).Mine(g).value();
  auto md = CspmMiner(drop).Mine(g).value();
  EXPECT_GT(mk.astars.size(), md.astars.size());
  for (const auto& s : md.astars) EXPECT_GE(s.leaf_values.size(), 2u);
}

TEST(CspmMinerTest, DataOnlyGainPolicyCompressesAtLeastAsMuch) {
  // Without the model-cost penalty more merges are accepted, so the pure
  // data term shrinks at least as much.
  auto g = PlantedGraph(11);
  CspmOptions with_model;
  with_model.gain_policy = GainPolicy::kDataPlusModel;
  CspmOptions data_only;
  data_only.gain_policy = GainPolicy::kDataOnly;
  auto mw = CspmMiner(with_model).Mine(g).value();
  auto md = CspmMiner(data_only).Mine(g).value();
  EXPECT_GE(md.stats.iterations, mw.stats.iterations);
}

TEST(CspmMinerTest, MultiValueCoresetsRun) {
  auto g = PlantedGraph(12);
  CspmOptions options;
  options.multi_value_coresets = true;
  auto artifacts = CspmMiner(options).MineWithArtifacts(g).value();
  EXPECT_LE(artifacts.model.stats.final_dl_bits,
            artifacts.model.stats.initial_dl_bits);
  EXPECT_TRUE(VerifyLossless(g, artifacts.inverted_db).ok());
  // At least one coreset should carry multiple values when attributes
  // co-occur strongly (fever/vip vertices carry noise values too).
  bool multi = false;
  for (CoreId c(0); c.index() < artifacts.inverted_db.num_coresets(); ++c) {
    if (artifacts.inverted_db.CoresetValues(c).size() >= 2) multi = true;
  }
  EXPECT_TRUE(multi);
}

TEST(CspmMinerTest, PaperExampleMinesBCPattern) {
  // On the running example the best merge is {b},{c} (Section IV-E); the
  // final model must contain an a-star with leafset {b, c}.
  auto g = cspm::testing::PaperExampleGraph();
  CspmOptions options;
  options.gain_policy = GainPolicy::kDataOnly;  // the paper's Alg. 2 check
  auto model = CspmMiner(options).Mine(g).value();
  const graph::AttrId b = g.dict().Find("b");
  const graph::AttrId c = g.dict().Find("c");
  bool found = false;
  for (const auto& s : model.astars) {
    std::vector<graph::AttrId> bc{b, c};
    std::sort(bc.begin(), bc.end());
    if (s.leaf_values == bc) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(CspmMinerTest, DeterministicAcrossRuns) {
  auto g = PlantedGraph(13);
  auto m1 = CspmMiner(CspmOptions{}).Mine(g).value();
  auto m2 = CspmMiner(CspmOptions{}).Mine(g).value();
  ASSERT_EQ(m1.astars.size(), m2.astars.size());
  EXPECT_EQ(m1.stats.iterations, m2.stats.iterations);
  EXPECT_DOUBLE_EQ(m1.stats.final_dl_bits, m2.stats.final_dl_bits);
}

TEST(CspmMinerTest, WorksOnDatasetGenerators) {
  auto g = datasets::MakeUsflightLike(3).value();
  auto model = CspmMiner(CspmOptions{}).Mine(g).value();
  EXPECT_LT(model.stats.final_dl_bits, model.stats.initial_dl_bits);
}

}  // namespace
}  // namespace cspm::core
