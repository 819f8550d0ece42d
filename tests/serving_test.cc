// Tests for the batch serving layer: ServingEngine sharding determinism
// (bit-identical without a pool, with pools of 1, 2, 4 and auto slots,
// and to the legacy per-vertex path), ScorePool scratch reuse across
// plans, clean Status on bad input, and the session / registry wiring.
#include "engine/serving.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "cspm/scoring.h"
#include "datasets/synthetic.h"
#include "engine/model_registry.h"
#include "engine/session.h"
#include "graph/generators.h"
#include "testing_util.h"
#include "util/rng.h"

namespace cspm::engine {
namespace {

graph::AttributedGraph SmallRandomGraph(uint64_t seed) {
  Rng rng(seed);
  return graph::ErdosRenyi(180, 0.05, 16, 3, &rng).value();
}

void ExpectSameScores(const AttributeScores& got, const AttributeScores& want,
                      graph::VertexId v) {
  ASSERT_EQ(got.raw.size(), want.raw.size());
  for (size_t i = 0; i < want.raw.size(); ++i) {
    // Bit-identical, including -inf sentinels: EXPECT_EQ, never NEAR.
    ASSERT_EQ(got.raw[i], want.raw[i]) << "v=" << v << " attr=" << i;
    ASSERT_EQ(got.normalized[i], want.normalized[i])
        << "v=" << v << " attr=" << i;
  }
}

// Memcmp-equal score vectors (bit patterns, so -inf and signed zeros
// count too).
void ExpectBitEqual(const std::vector<AttributeScores>& got,
                    const std::vector<AttributeScores>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].raw.size(), want[i].raw.size()) << "slot " << i;
    ASSERT_EQ(got[i].normalized.size(), want[i].normalized.size())
        << "slot " << i;
    ASSERT_EQ(std::memcmp(got[i].raw.data(), want[i].raw.data(),
                          want[i].raw.size() * sizeof(double)),
              0)
        << "slot " << i;
    ASSERT_EQ(std::memcmp(got[i].normalized.data(), want[i].normalized.data(),
                          want[i].normalized.size() * sizeof(double)),
              0)
        << "slot " << i;
  }
}

// The acceptance criterion: ScoreBatch is bit-identical to the legacy
// per-vertex ScoreAttributes path for every vertex/value without a pool
// and with pools of 1, 2, 4 and auto slots.
TEST(ServingEngine, BatchMatchesLegacyAtEveryThreadCount) {
  auto g = SmallRandomGraph(7);
  auto model = MineModel(g).value();
  std::vector<graph::VertexId> all;
  for (graph::VertexId v(0); v < g.num_vertices(); ++v) all.push_back(v);

  std::vector<core::AttributeScores> legacy;
  legacy.reserve(all.size());
  for (graph::VertexId v : all) {
    legacy.push_back(core::ScoreAttributes(g, model, v));
  }

  std::vector<std::shared_ptr<ScorePool>> pools = {nullptr};
  for (const uint32_t threads : {1u, 2u, 4u, 0u}) {
    pools.push_back(std::make_shared<ScorePool>(threads));
  }
  for (const std::shared_ptr<ScorePool>& pool : pools) {
    ServingOptions options;
    options.pool = pool;
    auto engine = ServingEngine::Create(g, model, options).value();
    auto batch = engine.ScoreBatch(all).value();
    ASSERT_EQ(batch.size(), all.size());
    for (size_t i = 0; i < all.size(); ++i) {
      ExpectSameScores(batch[i], legacy[i], all[i]);
    }
    auto everything = engine.ScoreAll();
    ASSERT_EQ(everything.size(), all.size());
    for (size_t i = 0; i < all.size(); ++i) {
      ExpectSameScores(everything[i], legacy[i], all[i]);
    }
  }
}

TEST(ServingEngine, BatchSlotsFollowInputOrderWithDuplicates) {
  auto g = cspm::testing::PaperExampleGraph();
  auto model = MineModel(g).value();
  auto engine = ServingEngine::Create(g, model).value();
  const std::vector<graph::VertexId> vertices = {VertexId(4), VertexId(0),
                                                 VertexId(4), VertexId(2),
                                                 VertexId(0)};
  auto batch = engine.ScoreBatch(vertices).value();
  ASSERT_EQ(batch.size(), vertices.size());
  for (size_t i = 0; i < vertices.size(); ++i) {
    ExpectSameScores(batch[i], core::ScoreAttributes(g, model, vertices[i]),
                     vertices[i]);
  }
}

// Two engines of very different plan sizes share one pool: a slot's
// scratch shrinks to the small plan and grows back to the big one between
// batches, and its zeroed arrays must carry no count from one batch into
// the next. Every slot of every batch, sharded (big, small, big) or
// serial on a pooled scratch (1-vertex batches, alternating), is
// memcmp-equal to a serial engine's.
TEST(ScorePool, ScratchReuseAcrossPlansMatchesSerial) {
  const auto big_graph = datasets::MakePokecLike(1, 8000).value();
  const auto small_graph = datasets::MakePokecLike(2, 200).value();
  const auto big_model = MineModel(big_graph).value();
  const auto small_model = MineModel(small_graph).value();
  auto pool = std::make_shared<ScorePool>(4);
  ServingOptions pooled;
  pooled.pool = pool;
  auto big = ServingEngine::Create(big_graph, big_model, pooled).value();
  auto small = ServingEngine::Create(small_graph, small_model, pooled).value();
  auto big_serial = ServingEngine::Create(big_graph, big.shared_plan()).value();
  auto small_serial =
      ServingEngine::Create(small_graph, small.shared_plan()).value();
  ASSERT_GT(big.plan().num_units(), small.plan().num_units());
  ASSERT_GT(big.plan().num_attribute_values(),
            small.plan().num_attribute_values());

  std::vector<graph::VertexId> big_batch;
  for (uint32_t v = 0; v < big_graph.num_vertices().value(); v += 13) {
    big_batch.push_back(graph::VertexId(v));
  }
  std::vector<graph::VertexId> small_batch;
  for (graph::VertexId v(0); v < small_graph.num_vertices(); ++v) {
    small_batch.push_back(v);
  }
  const auto big_want = big_serial.ScoreBatch(big_batch).value();
  const auto small_want = small_serial.ScoreBatch(small_batch).value();
  ExpectBitEqual(big.ScoreBatch(big_batch).value(), big_want);
  ExpectBitEqual(small.ScoreBatch(small_batch).value(), small_want);
  ExpectBitEqual(big.ScoreBatch(big_batch).value(), big_want);
  for (size_t i = 0; i < small_batch.size(); ++i) {
    const std::span<const graph::VertexId> one_big(&big_batch[i], 1);
    const std::span<const graph::VertexId> one_small(&small_batch[i], 1);
    ExpectBitEqual(big.ScoreBatch(one_big).value(),
                   big_serial.ScoreBatch(one_big).value());
    ExpectBitEqual(small.ScoreBatch(one_small).value(),
                   small_serial.ScoreBatch(one_small).value());
  }
}

// Concurrent const callers on one sharded engine: dispatches serialize on
// the pool, so every caller gets complete, correct batches (no clobbered
// jobs, no deadlock).
TEST(ServingEngine, ConcurrentScoreBatchCallersAreSafe) {
  auto g = SmallRandomGraph(11);
  auto model = MineModel(g).value();
  ServingOptions options;
  options.pool = std::make_shared<ScorePool>(2);
  auto engine = ServingEngine::Create(g, model, options).value();
  const auto expected = engine.ScoreAll();

  std::vector<std::thread> callers;
  std::atomic<int> mismatches{0};
  callers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        const auto got = engine.ScoreAll();
        if (got.size() != expected.size()) {
          ++mismatches;
          continue;
        }
        for (size_t v = 0; v < expected.size(); ++v) {
          if (got[v].raw != expected[v].raw ||
              got[v].normalized != expected[v].normalized) {
            ++mismatches;
            break;
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServingEngine, OutOfRangeVertexIsCleanStatus) {
  auto g = cspm::testing::PaperExampleGraph();
  auto model = MineModel(g).value();
  auto engine = ServingEngine::Create(g, model).value();

  auto batch = engine.ScoreBatch(std::vector<graph::VertexId>{VertexId(0), VertexId(99)});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kOutOfRange);

  auto single = engine.ScoreVertex(VertexId(99));
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status().code(), StatusCode::kOutOfRange);

  EXPECT_TRUE(engine.ScoreVertex(VertexId(0)).ok());
}

TEST(ServingEngine, DictionaryNotCoveringGraphIsCleanStatus) {
  auto g = cspm::testing::PaperExampleGraph();
  auto model = MineModel(g).value();
  // A plan compiled for a smaller attribute space than the graph's
  // dictionary (a mismatched model/graph pairing).
  auto narrow_plan = std::make_shared<const core::ScoringPlan>(
      core::ScoringPlan::Compile(model, g.num_attribute_values() - 1));
  auto engine = ServingEngine::Create(g, narrow_plan);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);

  auto null_plan = ServingEngine::Create(g, nullptr);
  ASSERT_FALSE(null_plan.ok());
  EXPECT_EQ(null_plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(MiningSessionServing, ScoreBatchMatchesScoreAndServeSharesPlan) {
  auto g = SmallRandomGraph(23);
  auto session = std::move(MiningSession::Create(g)).value();
  ASSERT_TRUE(session.Mine().ok());
  ASSERT_NE(session.plan(), nullptr);

  const std::vector<graph::VertexId> vertices = {VertexId(0), VertexId(17),
                                                 VertexId(3), VertexId(99),
                                                 VertexId(3)};
  auto batch = session.ScoreBatch(vertices).value();
  ASSERT_EQ(batch.size(), vertices.size());
  for (size_t i = 0; i < vertices.size(); ++i) {
    ExpectSameScores(batch[i], session.Score(vertices[i]), vertices[i]);
  }

  auto engine = session.Serve().value();
  EXPECT_EQ(&engine.plan(), session.plan().get());
  ExpectSameScores(engine.ScoreVertex(VertexId(17)).value(),
                   session.Score(VertexId(17)), VertexId(17));
}

TEST(MiningSessionServing, ServeWithoutModelIsCleanStatus) {
  auto g = cspm::testing::PaperExampleGraph();
  auto session = std::move(MiningSession::Create(g)).value();
  auto engine = session.Serve();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
  auto batch = session.ScoreBatch(std::vector<graph::VertexId>{0});
  ASSERT_FALSE(batch.ok());
}

TEST(RegistryServing, HandlesServeBatchesAndSurvivePlanSwap) {
  ModelRegistry registry;
  auto g = SmallRandomGraph(41);
  ServableModel m;
  m.model = MineModel(g).value();
  m.dict = g.dict();
  m.graph = std::make_shared<const graph::AttributedGraph>(g);
  auto handle = registry.Put("hot", m);
  ASSERT_NE(handle->plan, nullptr);

  auto engine = handle->Serve().value();
  auto batch = engine.ScoreAll();
  for (graph::VertexId v(0); v < g.num_vertices(); ++v) {
    ExpectSameScores(batch[v.index()], handle->ScoreVertex(v).value(), v);
  }

  // Hot reload: replacing the registered model must not disturb engines
  // built from the old handle — plan and model swap together.
  ServableModel replacement;
  replacement.dict = g.dict();
  replacement.graph = std::make_shared<const graph::AttributedGraph>(g);
  registry.Put("hot", std::move(replacement));
  EXPECT_EQ(registry.Get("hot")->model.astars.size(), 0u);
  auto after_swap = engine.ScoreAll();
  for (graph::VertexId v(0); v < g.num_vertices(); ++v) {
    ExpectSameScores(after_swap[v.index()], batch[v.index()], v);
  }
}

// An engine built from a registry handle retains the ServableModel
// itself: dropping the handle and removing the entry must not leave the
// engine scoring a freed graph (exercised under ASan in CI).
TEST(RegistryServing, EngineOutlivesHandleAndRegistryEntry) {
  ModelRegistry registry;
  auto g = cspm::testing::PaperExampleGraph();
  ServableModel m;
  m.model = MineModel(g).value();
  m.dict = g.dict();
  m.graph = std::make_shared<const graph::AttributedGraph>(g);
  registry.Put("ephemeral", std::move(m));

  // Temporary handle: dies at the end of the full expression.
  auto engine = registry.Get("ephemeral")->Serve().value();
  auto before = engine.ScoreAll();
  ASSERT_TRUE(registry.Remove("ephemeral"));
  auto after = engine.ScoreAll();
  ASSERT_EQ(after.size(), before.size());
  for (size_t v = 0; v < before.size(); ++v) {
    EXPECT_EQ(after[v].raw, before[v].raw);
    EXPECT_EQ(after[v].normalized, before[v].normalized);
  }
}

TEST(RegistryServing, ServeWithoutSnapshotIsCleanStatus) {
  ModelRegistry registry;
  auto g = cspm::testing::PaperExampleGraph();
  ServableModel m;
  m.model = MineModel(g).value();
  m.dict = g.dict();
  auto handle = registry.Put("no-graph", std::move(m));
  auto engine = handle->Serve();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace cspm::engine
