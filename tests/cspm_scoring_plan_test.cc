// Tests for the compiled ScoringPlan: bit-identical to the legacy
// Algorithm 5 scorer for every vertex and every value, including the
// edge cases locked in by cspm_scoring_test.cc and the inputs that probe
// the singleton bound (multi-core units, models without singletons,
// thresholds at and just over similarity 1, out-of-range leaves).
#include "cspm/scoring_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "cspm/miner.h"
#include "cspm/scoring.h"
#include "datasets/synthetic.h"
#include "graph/generators.h"
#include "testing_util.h"
#include "util/rng.h"

namespace cspm::core {
namespace {

/// Builds an AttrId list from raw values (strong ids ban implicit braces).
std::vector<AttrId> Ids(std::initializer_list<uint32_t> raw) {
  std::vector<AttrId> out;
  for (uint32_t a : raw) out.push_back(AttrId(a));
  return out;
}

CspmModel HandModel() {
  CspmModel model;
  AStar s1;
  s1.core_values = Ids({0});
  s1.leaf_values = Ids({1, 2});
  s1.code_length_bits = 2.0;
  AStar s2;
  s2.core_values = Ids({3});
  s2.leaf_values = Ids({4});
  s2.code_length_bits = 5.0;
  AStar empty;  // compiled out: no leafset, never contributes evidence
  empty.core_values = Ids({5});
  empty.code_length_bits = 1.0;
  model.astars = {s1, s2, empty};
  return model;
}

/// Stars that probe the singleton bound over 6 attribute values: a
/// singleton and multi-leaf stars sharing its core on both sides of the
/// bound, a two-core singleton, and a 2-leaf star whose second leaf is
/// out of range (leaf size 2 but one posting: it must stay a multi-leaf
/// unit, scoring similarity 1/2, never 1).
CspmModel BoundModel() {
  CspmModel model;
  const auto star = [](std::initializer_list<uint32_t> cores,
                       std::initializer_list<uint32_t> leaves, double cl) {
    AStar s;
    s.core_values = Ids(cores);
    s.leaf_values = Ids(leaves);
    s.code_length_bits = cl;
    return s;
  };
  model.astars = {
      star({3}, {4}, 5.0),     // singleton
      star({3}, {1, 4}, 1.0),  // beats the singleton's bound on core 3
      star({3}, {2, 4}, 6.0),  // pruned whenever the singleton fires
      star({3}, {2, 4}, 5.0),  // ties the bound: pruned, never raises
      star({0, 5}, {2}, 3.0),  // two-core singleton
      star({0}, {1, 7}, 1.5),  // leaf 7 is outside the attribute space
      star({5}, {1, 2}, 0.0),  // zero code length: -0.0 scores
  };
  return model;
}

/// Bitwise (memcmp) equality: tells -0.0 from 0.0 and compares -inf
/// exactly, which EXPECT_EQ on doubles would not.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void ExpectSameScores(const AttributeScores& plan_scores,
                      const AttributeScores& legacy) {
  EXPECT_TRUE(SameBits(plan_scores.raw, legacy.raw));
  EXPECT_TRUE(SameBits(plan_scores.normalized, legacy.normalized));
}

TEST(ScoringPlanTest, CompilesOutEmptyLeafsets) {
  ScoringPlan plan = ScoringPlan::Compile(HandModel(), 6);
  // s1 becomes one multi-leaf unit with a posting per leaf; s2 is inlined
  // as one singleton posting; the empty star is gone.
  EXPECT_EQ(plan.num_units(), 1u);
  EXPECT_EQ(plan.slabs().multi_units.size(), 2u);
  EXPECT_EQ(plan.slabs().singleton_cores.size(), 1u);
  EXPECT_EQ(plan.num_attribute_values(), 6u);
  EXPECT_GT(plan.ApproxBytes(), 0u);
}

TEST(ScoringPlanTest, MatchesLegacyOnHandModelNeighbourhoods) {
  CspmModel model = HandModel();
  ScoringPlan plan = ScoringPlan::Compile(model, 6);
  const std::vector<std::vector<AttrId>> neighbourhoods = {
      Ids({}),                 // empty: no evidence anywhere
      Ids({1, 2}),             // full similarity for s1
      Ids({1}),                // partial similarity
      Ids({5}),                // no overlap
      Ids({1, 1, 1}),          // duplicates count once
      Ids({1, 2, 6, 1000}),    // out-of-range ids ignored
      Ids({4, 2, 1}),          // unsorted
      Ids({0, 1, 2, 3, 4, 5})  // everything
  };
  for (const auto& n : neighbourhoods) {
    ExpectSameScores(plan.Score(n),
                     ScoreAttributesWithNeighbourhood(6, model, n));
  }
}

TEST(ScoringPlanTest, MatchesLegacyAtExactSimilarityThreshold) {
  CspmModel model = HandModel();
  ScoringPlan plan = ScoringPlan::Compile(model, 6);
  const std::vector<AttrId> neighbourhood = Ids({1});
  ScoringOptions options;
  options.min_similarity = 0.5;  // similarity of {1} vs {1,2} is exactly 0.5
  ExpectSameScores(
      plan.Score(neighbourhood, options),
      ScoreAttributesWithNeighbourhood(6, model, neighbourhood, options));
  options.min_similarity = std::nextafter(0.5, 1.0);
  ExpectSameScores(
      plan.Score(neighbourhood, options),
      ScoreAttributesWithNeighbourhood(6, model, neighbourhood, options));

  // Singletons and full multi-leaf matches sit exactly at similarity 1:
  // a threshold of 1.0 keeps them, the next double above drops them all.
  const CspmModel bound_model = BoundModel();
  const ScoringPlan bound_plan = ScoringPlan::Compile(bound_model, 6);
  EXPECT_EQ(bound_plan.slabs().singleton_cores.size(), 3u);
  EXPECT_EQ(bound_plan.num_units(), 5u);
  const std::vector<std::vector<AttrId>> bound_neighbourhoods = {
      Ids({}),                  // no evidence
      Ids({4}),                 // the singleton alone
      Ids({1}),                 // half of {1, 4}; the out-of-range star
      Ids({1, 4}),              // full match beats the singleton's bound
      Ids({2, 4}),              // matches pruned by the bound
      Ids({1, 2, 4}),           // everything on core 3
      Ids({2}),                 // two-core singleton; half of zero-length
      Ids({1, 7}),              // 7 is out of range here too
      Ids({0, 1, 2, 3, 4, 5}),  // everything
  };
  for (const double threshold : {1e-9, 0.5, 1.0, std::nextafter(1.0, 2.0)}) {
    options.min_similarity = threshold;
    for (const auto& n : bound_neighbourhoods) {
      ExpectSameScores(
          bound_plan.Score(n, options),
          ScoreAttributesWithNeighbourhood(6, bound_model, n, options));
    }
  }
}

TEST(ScoringPlanTest, ScratchAndBuffersAreReusableAcrossCalls) {
  CspmModel model = HandModel();
  ScoringPlan plan = ScoringPlan::Compile(model, 6);
  ScoringScratch scratch;
  plan.PrepareScratch(&scratch);
  AttributeScores out;
  // Alternate between evidence-rich and empty neighbourhoods: stale state
  // from one call must never leak into the next.
  const std::vector<std::vector<AttrId>> sequence = {
      Ids({1, 2}), Ids({}), Ids({4}), Ids({1}), Ids({1, 2, 4}), Ids({})};
  for (const auto& n : sequence) {
    plan.ScoreInto(n, ScoringOptions{}, &scratch, &out);
    ExpectSameScores(out, ScoreAttributesWithNeighbourhood(6, model, n));
  }
}

/// True when some star has two cores and two leaves, so its plan holds
/// multi-core, multi-leaf units.
bool HasMultiCoreMultiLeafStar(const CspmModel& model) {
  for (const AStarRef& s : model.astars) {
    if (s.core_values.size() >= 2 && s.leaf_values.size() >= 2) return true;
  }
  return false;
}

// The tentpole regression: on mined models over random graphs, the plan
// reproduces the legacy scorer bit-for-bit on every vertex and every
// attribute value (neighbourhoods fed raw, not deduplicated). The models
// cover the default miner, SLIM multi-value coresets (multi-core units)
// and a model without singleton leafsets (no bound ever applies); the
// thresholds include 1.0 and the next double above it.
TEST(ScoringPlanTest, MinedModelMatchesLegacyOnEveryVertex) {
  struct Input {
    graph::AttributedGraph graph;
    CspmModel model;
  };
  std::vector<Input> inputs;
  for (const uint64_t seed : {3u, 17u}) {
    Rng rng(seed);
    auto g = graph::ErdosRenyi(200, 0.04, 18, 3, &rng).value();
    auto model = CspmMiner(CspmOptions{}).Mine(g).value();
    inputs.push_back({std::move(g), std::move(model)});
  }
  {
    auto g = datasets::MakeDblpLike(/*seed=*/4, 300).value();
    CspmOptions slim;
    slim.multi_value_coresets = true;
    auto model = CspmMiner(slim).Mine(g).value();
    ASSERT_TRUE(HasMultiCoreMultiLeafStar(model))
        << "the SLIM model must carry multi-core units";
    inputs.push_back({std::move(g), std::move(model)});
  }
  {
    Rng rng(5);
    auto g = graph::ErdosRenyi(200, 0.04, 18, 3, &rng).value();
    CspmOptions merged_only;
    merged_only.include_singleton_leafsets = false;
    auto model = CspmMiner(merged_only).Mine(g).value();
    ASSERT_FALSE(model.astars.empty());
    inputs.push_back({std::move(g), std::move(model)});
  }

  for (size_t k = 0; k < inputs.size(); ++k) {
    const Input& in = inputs[k];
    const size_t m = in.graph.num_attribute_values();
    ScoringPlan plan = ScoringPlan::Compile(in.model, m);
    ScoringScratch scratch;
    plan.PrepareScratch(&scratch);
    AttributeScores out;
    std::vector<AttrId> neighbourhood;
    const double thresholds[] = {ScoringOptions{}.min_similarity, 1.0,
                                 std::nextafter(1.0, 2.0)};
    for (const double threshold : thresholds) {
      SCOPED_TRACE(::testing::Message() << "min_similarity " << threshold);
      ScoringOptions options;
      options.min_similarity = threshold;
      for (graph::VertexId v(0); v < in.graph.num_vertices(); ++v) {
        GatherNeighbourhoodAttrs(in.graph, v, &neighbourhood);
        plan.ScoreInto(neighbourhood, options, &scratch, &out);
        const AttributeScores legacy = ScoreAttributesWithNeighbourhood(
            m, in.model, neighbourhood, options);
        SCOPED_TRACE(::testing::Message() << "input " << k << " v " << v);
        ExpectSameScores(out, legacy);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(ScoringPlanTest, PaperExampleMatchesLegacy) {
  auto g = cspm::testing::PaperExampleGraph();
  auto model = CspmMiner(CspmOptions{}).Mine(g).value();
  ScoringPlan plan = ScoringPlan::Compile(model, g.num_attribute_values());
  for (graph::VertexId v(0); v < g.num_vertices(); ++v) {
    std::vector<AttrId> neighbourhood;
    for (graph::VertexId w : g.Neighbors(v)) {
      const auto attrs = g.Attributes(w);
      neighbourhood.insert(neighbourhood.end(), attrs.begin(), attrs.end());
    }
    ExpectSameScores(plan.Score(neighbourhood), ScoreAttributes(g, model, v));
  }
}

}  // namespace
}  // namespace cspm::core
