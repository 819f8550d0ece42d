// Tests for the engine facade: MiningSession build-mine-score-serialize,
// options reaching the core miner, and the losslessness verification hook.
#include "engine/session.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "cspm/serialization.h"
#include "graph/generators.h"
#include "testing_util.h"

namespace cspm::engine {
namespace {

using cspm::testing::PaperExampleGraph;

graph::AttributedGraph SmallRandomGraph(uint64_t seed) {
  Rng rng(seed);
  return graph::ErdosRenyi(120, 0.06, 12, 3, &rng).value();
}

TEST(MiningSession, MineProducesModelAndStats) {
  auto g = PaperExampleGraph();
  auto session_or = MiningSession::Create(g);
  ASSERT_TRUE(session_or.ok());
  MiningSession session = std::move(session_or).value();
  EXPECT_FALSE(session.has_model());

  ASSERT_TRUE(session.Mine().ok());
  ASSERT_TRUE(session.has_model());
  EXPECT_GT(session.model().astars.size(), 0u);
  EXPECT_GT(session.stats().initial_dl_bits, 0.0);
  EXPECT_LE(session.stats().final_dl_bits,
            session.stats().initial_dl_bits + 1e-9);
}

TEST(MiningSession, MineModelConvenienceMatchesSession) {
  auto g = SmallRandomGraph(3);
  auto direct = MineModel(g).value();
  auto session = std::move(MiningSession::Create(g)).value();
  ASSERT_TRUE(session.Mine().ok());
  EXPECT_EQ(direct.astars.size(), session.model().astars.size());
  EXPECT_EQ(direct.stats.final_dl_bits, session.model().stats.final_dl_bits);
}

TEST(MiningSession, OptionsReachTheSearch) {
  auto g = SmallRandomGraph(7);
  MiningOptions basic;
  basic.strategy = SearchStrategy::kBasic;
  basic.max_iterations = 1;
  auto model = MineModel(g, basic).value();
  EXPECT_LE(model.stats.iterations, 1u);
  // Iteration stats can be disabled.
  MiningOptions quiet;
  quiet.record_iteration_stats = false;
  EXPECT_TRUE(MineModel(g, quiet).value().stats.per_iteration.empty());
}

// A session mine and a CspmMiner given the same non-default options produce
// the same model, bit for bit: every option a session takes reaches the
// search. Both strategies run, so revalidate_on_pop (kPartial only) binds.
TEST(MiningSession, NonDefaultOptionsMineLikeTheCoreMiner) {
  const auto g = SmallRandomGraph(19);
  for (SearchStrategy strategy :
       {SearchStrategy::kBasic, SearchStrategy::kPartial}) {
    const auto configure = [strategy](core::CspmOptions* o) {
      o->strategy = strategy;
      o->gain_policy = GainPolicy::kDataOnly;
      o->revalidate_on_pop = false;
      o->include_singleton_leafsets = false;
      o->max_iterations = 50;
    };
    MiningOptions options;
    configure(&options);
    core::CspmOptions core_options;
    configure(&core_options);

    auto session = std::move(MiningSession::Create(g, options)).value();
    ASSERT_TRUE(session.Mine().ok());
    const CspmModel direct = core::CspmMiner(core_options).Mine(g).value();

    const CspmModel& mined = session.model();
    EXPECT_TRUE(core::ModelToText(mined, g.dict()) ==
                core::ModelToText(direct, g.dict()))
        << "model text differs";
    EXPECT_EQ(std::memcmp(&mined.stats.final_dl_bits,
                          &direct.stats.final_dl_bits, sizeof(double)),
              0);
    EXPECT_EQ(mined.astars.size(), direct.astars.size());
    // The options took effect: an iteration cap and no singleton a-stars.
    EXPECT_LE(mined.stats.iterations, 50u);
    EXPECT_GT(mined.astars.size(), 0u);
    for (const AStarRef& s : mined.astars) EXPECT_GT(s.leaf_values.size(), 1u);
  }
}

TEST(MiningSession, ScoreMatchesReferenceScorer) {
  auto g = SmallRandomGraph(11);
  auto session = std::move(MiningSession::Create(g)).value();
  ASSERT_TRUE(session.Mine().ok());
  for (uint32_t raw : {0u, 5u, 17u}) {
    const graph::VertexId v(raw);
    AttributeScores via_session = session.Score(v);
    AttributeScores reference = core::ScoreAttributes(g, session.model(), v);
    EXPECT_EQ(via_session.raw, reference.raw);
    EXPECT_EQ(via_session.normalized, reference.normalized);
  }
}

TEST(MiningSession, SerializeRoundTrips) {
  auto g = SmallRandomGraph(13);
  auto session = std::move(MiningSession::Create(g)).value();
  ASSERT_TRUE(session.Mine().ok());
  const std::string text = session.SerializeModel();
  ASSERT_FALSE(text.empty());

  auto other = std::move(MiningSession::Create(g)).value();
  ASSERT_TRUE(other.DeserializeModel(text).ok());
  EXPECT_EQ(other.model().astars.size(), session.model().astars.size());
  // Scoring through the reloaded model agrees (up to the text format's
  // printed precision).
  const auto reloaded = other.Score(graph::VertexId(0)).normalized;
  const auto original = session.Score(graph::VertexId(0)).normalized;
  ASSERT_EQ(reloaded.size(), original.size());
  for (size_t i = 0; i < reloaded.size(); ++i) {
    EXPECT_NEAR(reloaded[i], original[i], 1e-6) << i;
  }
}

// Regression: doubles are emitted with max_digits10, so a text round trip
// is bit-exact — stats and code lengths used to drift at the 7th digit.
TEST(MiningSession, TextRoundTripIsBitExact) {
  auto g = SmallRandomGraph(17);
  auto session = std::move(MiningSession::Create(g)).value();
  ASSERT_TRUE(session.Mine().ok());

  auto reloaded = std::move(MiningSession::Create(g)).value();
  ASSERT_TRUE(reloaded.DeserializeModel(session.SerializeModel()).ok());

  EXPECT_EQ(reloaded.stats().initial_dl_bits, session.stats().initial_dl_bits);
  EXPECT_EQ(reloaded.stats().final_dl_bits, session.stats().final_dl_bits);
  EXPECT_EQ(reloaded.stats().iterations, session.stats().iterations);
  ASSERT_EQ(reloaded.model().astars.size(), session.model().astars.size());
  for (size_t i = 0; i < session.model().astars.size(); ++i) {
    EXPECT_EQ(reloaded.model().astars[i].code_length_bits,
              session.model().astars[i].code_length_bits)
        << i;
  }
  // Scores computed through the reloaded model are therefore bit-exact too.
  for (uint32_t raw : {0u, 3u, 50u}) {
    const graph::VertexId v(raw);
    EXPECT_EQ(reloaded.Score(v).raw, session.Score(v).raw);
  }
}

TEST(MiningSession, SaveModelReportsIOErrors) {
  auto g = PaperExampleGraph();
  auto session = std::move(MiningSession::Create(g)).value();
  ASSERT_TRUE(session.Mine().ok());
  Status st = session.SaveModel("/nonexistent-dir/model.txt");
  ASSERT_FALSE(st.ok());
  // The path and the errno text both appear in the message.
  EXPECT_NE(st.message().find("/nonexistent-dir/model.txt"),
            std::string::npos);
  EXPECT_NE(st.message().find("No such file"), std::string::npos);
  EXPECT_FALSE(
      session.SaveModel("/nonexistent-dir/model.cspm").ok());  // binary too
  EXPECT_FALSE(session.LoadModel("/nonexistent-dir/model.txt").ok());
}

TEST(MiningSession, SaveAndLoadModelFile) {
  auto g = PaperExampleGraph();
  auto session = std::move(MiningSession::Create(g)).value();
  ASSERT_TRUE(session.Mine().ok());
  const std::string path = ::testing::TempDir() + "cspm_engine_model.txt";
  ASSERT_TRUE(session.SaveModel(path).ok());

  auto other = std::move(MiningSession::Create(g)).value();
  ASSERT_TRUE(other.LoadModel(path).ok());
  EXPECT_EQ(other.model().astars.size(), session.model().astars.size());
  std::remove(path.c_str());
}

TEST(MiningSession, VerifyLosslessRequiresKeptDatabase) {
  auto g = PaperExampleGraph();
  auto session = std::move(MiningSession::Create(g)).value();
  EXPECT_FALSE(session.VerifyLossless().ok());  // nothing mined yet
  ASSERT_TRUE(session.Mine().ok());
  EXPECT_FALSE(session.VerifyLossless().ok());  // database not kept

  MiningOptions keep;
  keep.enable_updates = true;
  auto keeping = std::move(MiningSession::Create(g, keep)).value();
  ASSERT_TRUE(keeping.Mine().ok());
  EXPECT_TRUE(keeping.VerifyLossless().ok());
}

}  // namespace
}  // namespace cspm::engine
