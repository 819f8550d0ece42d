// End-to-end miner tests: termination, monotone DL, Basic/Partial
// agreement, planted-pattern recovery, losslessness of the final state,
// multi-value coresets and the instrumentation required by Fig. 5.
#include "cspm/miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "cspm/code_model.h"
#include "cspm/extract.h"
#include "cspm/verify.h"
#include "datasets/synthetic.h"
#include "graph/graph_delta.h"
#include "graph/generators.h"
#include "testing_util.h"
#include "util/rng.h"

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
  const auto by_code_core_leaf = [](const AStarRef& a, const AStarRef& b) {
    if (a.code_length_bits != b.code_length_bits) {
      return a.code_length_bits < b.code_length_bits;
    }
    const auto core_a = cspm::testing::Values(a.core_values);
    const auto core_b = cspm::testing::Values(b.core_values);
    if (core_a != core_b) return core_a < core_b;
    return cspm::testing::Values(a.leaf_values) <
           cspm::testing::Values(b.leaf_values);
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
    if (cspm::testing::Values(s.leaf_values) == bc) found = true;
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

// --- extraction order ------------------------------------------------------

/// The published star list of a final database rebuilt the slow way: one
/// owning AStar per line, then std::sort on (code length, core values,
/// leaf values).
std::vector<AStar> OracleStars(const graph::AttributedGraph& g,
                               const InvertedDatabase& idb,
                               bool include_singleton_leafsets) {
  const CodeModel cm(g, idb);
  std::vector<AStar> stars;
  idb.ForEachLine([&](CoreId e, LeafsetId l, PosListView positions) {
    if (!include_singleton_leafsets && idb.leafsets().Values(l).size() < 2) {
      return;
    }
    AStar s;
    s.core_values = idb.CoresetValues(e);
    s.leaf_values = idb.leafsets().Values(l);
    s.frequency = positions.size();
    s.core_total = idb.CoreLineTotal(e);
    s.coreset_frequency = idb.CoresetFrequency(e);
    s.code_length_bits =
        cm.CoreCodeLength(e) +
        CodeModel::LeafCodeLength(positions.size(), idb.CoreLineTotal(e));
    stars.push_back(std::move(s));
  });
  std::sort(stars.begin(), stars.end(), [](const AStar& a, const AStar& b) {
    if (a.code_length_bits != b.code_length_bits) {
      return a.code_length_bits < b.code_length_bits;
    }
    if (a.core_values != b.core_values) return a.core_values < b.core_values;
    return a.leaf_values < b.leaf_values;
  });
  return stars;
}

/// Asserts that the mined table is the oracle's list, star by star and
/// bit by bit, that the fused final DL is the full recompute's, and
/// returns how many neighbouring stars tie on code length across cores.
size_t ExpectExtractionMatchesOracle(const graph::AttributedGraph& g,
                                     const CspmMiner::MineArtifacts& art,
                                     bool include_singleton_leafsets,
                                     const std::string& label) {
  const std::vector<AStar> oracle =
      OracleStars(g, art.inverted_db, include_singleton_leafsets);
  const AStarTable& table = art.model.astars;
  EXPECT_EQ(table.size(), oracle.size()) << label;
  size_t ties = 0;
  for (size_t i = 0; i < std::min(table.size(), oracle.size()); ++i) {
    const AStarRef got = table[i];
    const AStar& want = oracle[i];
    EXPECT_EQ(cspm::testing::Values(got.core_values), want.core_values)
        << label << " star " << i;
    EXPECT_EQ(cspm::testing::Values(got.leaf_values), want.leaf_values)
        << label << " star " << i;
    EXPECT_EQ(got.frequency, want.frequency) << label << " star " << i;
    EXPECT_EQ(got.core_total, want.core_total) << label << " star " << i;
    EXPECT_EQ(got.coreset_frequency, want.coreset_frequency)
        << label << " star " << i;
    EXPECT_EQ(std::memcmp(&got.code_length_bits, &want.code_length_bits,
                          sizeof(double)),
              0)
        << label << " star " << i;
    if (i > 0 && oracle[i - 1].code_length_bits == want.code_length_bits &&
        oracle[i - 1].core_values != want.core_values) {
      ++ties;
    }
  }
  const double full_dl =
      CodeModel(g, art.inverted_db).TotalDescriptionLengthBits(
          art.inverted_db);
  EXPECT_EQ(std::memcmp(&art.model.stats.final_dl_bits, &full_dl,
                        sizeof(double)),
            0)
      << label;
  return ties;
}

TEST(ExtractionOrderTest, MineAndFastChainMatchTheSortOracle) {
  for (bool include_singletons : {true, false}) {
    CspmOptions options;
    options.include_singleton_leafsets = include_singletons;
    options.record_iteration_stats = false;
    const CspmMiner miner(options);
    graph::AttributedGraph g =
        datasets::MakePokecLike(/*seed=*/3, 2000).value();
    const std::string label =
        include_singletons ? "with singletons" : "merged only";
    auto art = miner.MineWithArtifacts(g).value();
    size_t ties = ExpectExtractionMatchesOracle(g, art, include_singletons,
                                                label + " cold");
    for (uint64_t step = 1; step <= 5; ++step) {
      const graph::GraphDelta delta =
          graph::MakeRandomEdgeRewires(g, 20, 40 + step).value();
      graph::DeltaApplication applied = graph::ApplyDelta(g, delta).value();
      DeltaPatchStats patch;
      ASSERT_TRUE(art.inverted_db
                      .ApplyDeltaMerged(g, applied.graph,
                                        applied.dirty_vertices, &patch)
                      .ok());
      art = miner
                .ResumeFast(applied.graph, std::move(art.inverted_db), patch,
                            applied.attributes_changed, nullptr)
                .value();
      g = std::move(applied.graph);
      ties += ExpectExtractionMatchesOracle(
          g, art, include_singletons,
          label + " fast step " + std::to_string(step));
    }
    // The order's tie-break must have been exercised.
    EXPECT_GT(ties, 0u) << label;
  }
}

TEST(ExtractionOrderTest, RadixSortMatchesStdSort) {
  const auto by_hi_lo = [](const SortKey& a, const SortKey& b) {
    return a.hi < b.hi || (a.hi == b.hi && a.lo < b.lo);
  };
  const auto expect_sorts_like_std = [&](std::vector<SortKey> keys,
                                         const std::string& label) {
    std::vector<SortKey> want = keys;
    std::sort(want.begin(), want.end(), by_hi_lo);
    RadixSortKeys(&keys);
    ASSERT_EQ(keys.size(), want.size()) << label;
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(keys[i].hi, want[i].hi) << label << " key " << i;
      EXPECT_EQ(keys[i].lo, want[i].lo) << label << " key " << i;
    }
  };
  Rng rng(17);
  std::vector<SortKey> random(5000);
  for (SortKey& k : random) k = {rng.Next(), rng.Next()};
  expect_sorts_like_std(random, "random");
  // Few distinct high words: long runs of equal hi, ordered by lo.
  std::vector<SortKey> runs(5000);
  for (SortKey& k : runs) k = {rng.Uniform(4), rng.Next()};
  expect_sorts_like_std(runs, "runs");
  // lo already ascending: the lo passes are skipped.
  std::vector<SortKey> lo_sorted(5000);
  for (size_t i = 0; i < lo_sorted.size(); ++i) {
    lo_sorted[i] = {rng.Next() >> rng.Uniform(64), i};
  }
  expect_sorts_like_std(lo_sorted, "lo ascending");
  expect_sorts_like_std(std::vector<SortKey>(300, SortKey{7, 9}), "all equal");
  expect_sorts_like_std({}, "empty");
  expect_sorts_like_std({{3, 1}}, "one key");

  // Code lengths: ±0.0 fold to one key, and the order is the doubles'.
  const std::vector<double> lengths = {2.5, -0.0, 0.0, 1e-300, 17.0,
                                       0.0, 2.5,  -0.0, 1e300, 0.5};
  std::vector<SortKey> keys;
  for (size_t i = 0; i < lengths.size(); ++i) {
    keys.push_back({CodeLengthOrder(lengths[i]), i});
  }
  EXPECT_EQ(CodeLengthOrder(-0.0), CodeLengthOrder(0.0));
  RadixSortKeys(&keys);
  std::vector<size_t> want(lengths.size());
  for (size_t i = 0; i < want.size(); ++i) want[i] = i;
  std::sort(want.begin(), want.end(), [&](size_t a, size_t b) {
    return lengths[a] < lengths[b] || (lengths[a] == lengths[b] && a < b);
  });
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i].lo, want[i]) << "position " << i;
  }
}

}  // namespace
}  // namespace cspm::core
