// Direct unit tests for the candidate store (lazy max-heap) and the
// related-leafset dictionary (rdict) used by CSPM-Partial, plus model
// serialization round-trips.
#include "cspm/candidates.h"

#include <gtest/gtest.h>

#include "cspm/miner.h"
#include "cspm/scoring.h"
#include "cspm/serialization.h"
#include "testing_util.h"

namespace cspm::core {
namespace {

TEST(CandidateStoreTest, PopsInGainOrder) {
  CandidateStore store;
  store.Set(LeafsetId(1), LeafsetId(2), 5.0);
  store.Set(LeafsetId(3), LeafsetId(4), 9.0);
  store.Set(LeafsetId(5), LeafsetId(6), 1.0);
  LeafsetId x{};
  LeafsetId y{};
  double gain = 0;
  ASSERT_TRUE(store.PopBest(&x, &y, &gain));
  EXPECT_EQ(std::min(x, y), LeafsetId(3));
  EXPECT_EQ(std::max(x, y), LeafsetId(4));
  EXPECT_DOUBLE_EQ(gain, 9.0);
  ASSERT_TRUE(store.PopBest(&x, &y, &gain));
  EXPECT_DOUBLE_EQ(gain, 5.0);
  ASSERT_TRUE(store.PopBest(&x, &y, &gain));
  EXPECT_DOUBLE_EQ(gain, 1.0);
  EXPECT_FALSE(store.PopBest(&x, &y, &gain));
}

TEST(CandidateStoreTest, PairKeyIsUnordered) {
  CandidateStore store;
  store.Set(LeafsetId(7), LeafsetId(3), 2.0);
  store.Set(LeafsetId(3), LeafsetId(7), 4.0);  // overwrites the same pair
  EXPECT_EQ(store.size(), 1u);
  double gain = 0;
  ASSERT_TRUE(store.PeekBest(&gain));
  EXPECT_DOUBLE_EQ(gain, 4.0);
}

TEST(CandidateStoreTest, UpdateInvalidatesStaleHeapEntries) {
  CandidateStore store;
  store.Set(LeafsetId(1), LeafsetId(2), 10.0);
  store.Set(LeafsetId(1), LeafsetId(2), 3.0);  // downgrade
  store.Set(LeafsetId(4), LeafsetId(5), 6.0);
  LeafsetId x{};
  LeafsetId y{};
  double gain = 0;
  ASSERT_TRUE(store.PopBest(&x, &y, &gain));
  EXPECT_DOUBLE_EQ(gain, 6.0);  // 10.0 entry is stale, skipped
  ASSERT_TRUE(store.PopBest(&x, &y, &gain));
  EXPECT_DOUBLE_EQ(gain, 3.0);
  EXPECT_TRUE(store.empty());
}

TEST(CandidateStoreTest, EraseRemovesPair) {
  CandidateStore store;
  store.Set(LeafsetId(1), LeafsetId(2), 10.0);
  store.Erase(LeafsetId(2), LeafsetId(1));  // reversed order still matches
  EXPECT_TRUE(store.empty());
  double gain = 0;
  EXPECT_FALSE(store.PeekBest(&gain));
}

TEST(CandidateStoreTest, PeekDoesNotConsume) {
  CandidateStore store;
  store.Set(LeafsetId(1), LeafsetId(2), 10.0);
  double gain = 0;
  ASSERT_TRUE(store.PeekBest(&gain));
  EXPECT_DOUBLE_EQ(gain, 10.0);
  EXPECT_EQ(store.size(), 1u);
}

TEST(RelatedDictTest, LinkAndIntersect) {
  RelatedDict rdict;
  rdict.Link(LeafsetId(1), LeafsetId(2));
  rdict.Link(LeafsetId(1), LeafsetId(3));
  rdict.Link(LeafsetId(2), LeafsetId(3));
  rdict.Link(LeafsetId(2), LeafsetId(4));
  // related(1) = {2,3}; related(2) = {1,3,4}; intersection = {3}.
  auto inter = rdict.Intersection(LeafsetId(1), LeafsetId(2));
  ASSERT_EQ(inter.size(), 1u);
  EXPECT_EQ(inter[0], LeafsetId(3));
}

TEST(RelatedDictTest, UnlinkIsSymmetric) {
  RelatedDict rdict;
  rdict.Link(LeafsetId(1), LeafsetId(2));
  rdict.Unlink(LeafsetId(2), LeafsetId(1));
  EXPECT_TRUE(rdict.RelatedTo(LeafsetId(1)).empty());
  EXPECT_TRUE(rdict.RelatedTo(LeafsetId(2)).empty());
  EXPECT_TRUE(rdict.empty());
}

TEST(RelatedDictTest, RemoveLeafsetReportsFormerRelations) {
  RelatedDict rdict;
  rdict.Link(LeafsetId(1), LeafsetId(2));
  rdict.Link(LeafsetId(1), LeafsetId(3));
  rdict.Link(LeafsetId(2), LeafsetId(3));
  std::vector<LeafsetId> former;
  rdict.RemoveLeafset(LeafsetId(1), &former);
  EXPECT_EQ(former, (std::vector<LeafsetId>{LeafsetId(2), LeafsetId(3)}));
  EXPECT_FALSE(rdict.Contains(LeafsetId(1)));
  EXPECT_EQ(rdict.RelatedTo(LeafsetId(2)).count(LeafsetId(1)), 0u);
  EXPECT_EQ(rdict.RelatedTo(LeafsetId(2)).count(LeafsetId(3)), 1u);
}

TEST(RelatedDictTest, RemoveUnknownIsNoOp) {
  RelatedDict rdict;
  std::vector<LeafsetId> former = {LeafsetId(99)};
  rdict.RemoveLeafset(LeafsetId(42), &former);
  EXPECT_TRUE(former.empty());
}

TEST(SerializationTest, RoundTripPreservesModel) {
  auto g = cspm::testing::PaperExampleGraph();
  auto model = CspmMiner(CspmOptions{}).Mine(g).value();
  std::string text = ModelToText(model, g.dict());
  auto loaded_or = ModelFromText(text, g.dict());
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const CspmModel& loaded = *loaded_or;
  ASSERT_EQ(loaded.astars.size(), model.astars.size());
  for (size_t i = 0; i < model.astars.size(); ++i) {
    EXPECT_EQ(cspm::testing::Values(loaded.astars[i].core_values),
              cspm::testing::Values(model.astars[i].core_values));
    EXPECT_EQ(cspm::testing::Values(loaded.astars[i].leaf_values),
              cspm::testing::Values(model.astars[i].leaf_values));
    EXPECT_EQ(loaded.astars[i].frequency, model.astars[i].frequency);
    EXPECT_NEAR(loaded.astars[i].code_length_bits,
                model.astars[i].code_length_bits, 1e-6);
  }
  EXPECT_EQ(loaded.stats.iterations, model.stats.iterations);
  EXPECT_NEAR(loaded.stats.final_dl_bits, model.stats.final_dl_bits, 1e-3);
}

TEST(SerializationTest, FileRoundTrip) {
  auto g = cspm::testing::PaperExampleGraph();
  auto model = CspmMiner(CspmOptions{}).Mine(g).value();
  const std::string path = ::testing::TempDir() + "/cspm_model_test.txt";
  ASSERT_TRUE(SaveModelToFile(model, g.dict(), path).ok());
  auto loaded = LoadModelFromFile(path, g.dict());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->astars.size(), model.astars.size());
}

TEST(SerializationTest, UnknownAttributeRejected) {
  auto g = cspm::testing::PaperExampleGraph();
  auto bad = ModelFromText(
      "astar 1.0 1 1 1 | doesnotexist | a\n", g.dict());
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(SerializationTest, MalformedRecordsRejected) {
  auto g = cspm::testing::PaperExampleGraph();
  EXPECT_FALSE(ModelFromText("bogus 1 2\n", g.dict()).ok());
  EXPECT_FALSE(ModelFromText("stats 1.0\n", g.dict()).ok());
  EXPECT_FALSE(ModelFromText("astar 1.0 1 1 1 a b\n", g.dict()).ok());
  EXPECT_FALSE(ModelFromText("astar 1.0 1 1 1 | | a\n", g.dict()).ok());
}

TEST(SerializationTest, LoadedModelDrivesScoring) {
  // The round-tripped model must work in the Algorithm 5 scoring path.
  auto g = cspm::testing::PaperExampleGraph();
  auto model = CspmMiner(CspmOptions{}).Mine(g).value();
  auto loaded = ModelFromText(ModelToText(model, g.dict()), g.dict()).value();
  auto s1 = ScoreAttributes(g, model, VertexId(0));
  auto s2 = ScoreAttributes(g, loaded, VertexId(0));
  ASSERT_EQ(s1.normalized.size(), s2.normalized.size());
  for (size_t a = 0; a < s1.normalized.size(); ++a) {
    EXPECT_NEAR(s1.normalized[a], s2.normalized[a], 1e-9);
  }
}

}  // namespace
}  // namespace cspm::core
