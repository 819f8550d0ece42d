// Tests for engine::ModelRegistry and the acceptance criterion of the
// store subsystem: a model mined via MiningSession, saved to a store file,
// reopened cold, and served through the registry scores vertices
// bit-identically to the in-memory model.
#include "engine/model_registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/session.h"
#include "graph/generators.h"
#include "store/model_store.h"
#include "testing_util.h"
#include "util/rng.h"

namespace cspm::engine {
namespace {

using cspm::testing::PaperExampleGraph;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

graph::AttributedGraph SmallRandomGraph(uint64_t seed) {
  Rng rng(seed);
  return graph::ErdosRenyi(150, 0.05, 15, 3, &rng).value();
}

TEST(ModelRegistry, PutGetListRemove) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Get("m"), nullptr);
  EXPECT_EQ(registry.size(), 0u);

  auto g = PaperExampleGraph();
  ServableModel m;
  m.model = MineModel(g).value();
  m.dict = g.dict();
  registry.Put("b-model", m);
  registry.Put("a-model", std::move(m));

  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.List(), (std::vector<std::string>{"a-model", "b-model"}));
  ASSERT_NE(registry.Get("a-model"), nullptr);
  EXPECT_TRUE(registry.Remove("a-model"));
  EXPECT_FALSE(registry.Remove("a-model"));
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistry, HandlesAreCopyOnWrite) {
  ModelRegistry registry;
  auto g = PaperExampleGraph();
  ServableModel m;
  m.model = MineModel(g).value();
  m.dict = g.dict();
  m.graph = std::make_shared<const graph::AttributedGraph>(g);
  auto old_handle = registry.Put("m", m);
  const size_t old_astars = old_handle->model.astars.size();

  // Replace with an empty model; the old handle must be unaffected.
  ServableModel replacement;
  replacement.dict = g.dict();
  registry.Put("m", std::move(replacement));
  EXPECT_EQ(old_handle->model.astars.size(), old_astars);
  EXPECT_EQ(registry.Get("m")->model.astars.size(), 0u);

  registry.Remove("m");
  // Still valid after removal.
  EXPECT_EQ(old_handle->model.astars.size(), old_astars);
}

TEST(ModelRegistry, LoadStoreLoadsEveryModel) {
  const std::string path = TempPath("registry_loadstore.cspm");
  std::remove(path.c_str());
  auto g = PaperExampleGraph();
  auto model = MineModel(g).value();
  {
    auto store = store::ModelStore::Create(path).value();
    store::StoredModel stored;
    stored.model = model;
    stored.dict = g.dict();
    ASSERT_TRUE(store.Put("one", stored).ok());
    ASSERT_TRUE(store.Put("two", stored).ok());
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadStore(path).ok());
  EXPECT_EQ(registry.List(), (std::vector<std::string>{"one", "two"}));
  EXPECT_FALSE(registry.LoadModel(path, "three").ok());
  EXPECT_FALSE(registry.LoadStore(TempPath("registry_missing.cspm")).ok());
  std::remove(path.c_str());
}

// Scoring has one path, the plan: every way into the registry leaves the
// handle with one.
TEST(ModelRegistry, EveryHandleHasAPlan) {
  const std::string path = TempPath("registry_plans.cspm");
  std::remove(path.c_str());
  auto g = PaperExampleGraph();
  ServableModel m;
  m.model = MineModel(g).value();
  m.dict = g.dict();
  {
    auto store = store::ModelStore::Create(path).value();
    store::StoredModel stored;
    stored.model = m.model;
    stored.dict = g.dict();
    ASSERT_TRUE(store.Put("one", stored).ok());
    ASSERT_TRUE(store.Put("two", stored).ok());
  }

  ModelRegistry registry;
  EXPECT_NE(registry.Put("put", m)->plan, nullptr);
  EXPECT_NE(registry.PutPrecompiled("precompiled", m)->plan, nullptr);
  auto session = std::move(MiningSession::Create(g)).value();
  ASSERT_TRUE(session.Mine().ok());
  EXPECT_NE(session.Publish(registry, "published").value()->plan, nullptr);
  ASSERT_TRUE(registry.LoadModel(path, "one").ok());
  EXPECT_NE(registry.Get("one")->plan, nullptr);

  ModelRegistry from_store;
  ASSERT_TRUE(from_store.LoadStore(path).ok());
  ASSERT_EQ(from_store.size(), 2u);
  for (const std::string& name : from_store.List()) {
    EXPECT_NE(from_store.Get(name)->plan, nullptr) << name;
  }
  std::remove(path.c_str());
}

TEST(ModelRegistry, ScoreVertexNeedsGraphSnapshot) {
  ModelRegistry registry;
  auto g = PaperExampleGraph();
  ServableModel m;
  m.model = MineModel(g).value();
  m.dict = g.dict();
  auto no_graph = registry.Put("no-graph", m);
  EXPECT_FALSE(no_graph->ScoreVertex(graph::VertexId(0)).ok());

  m.graph = std::make_shared<const graph::AttributedGraph>(g);
  auto with_graph = registry.Put("with-graph", std::move(m));
  EXPECT_TRUE(with_graph->ScoreVertex(graph::VertexId(0)).ok());
  auto out_of_range = with_graph->ScoreVertex(graph::VertexId(10000));
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kOutOfRange);
}

TEST(ModelRegistry, PutRecompilesPlanForMutatedModel) {
  ModelRegistry registry;
  auto g = PaperExampleGraph();
  ServableModel m;
  m.model = MineModel(g).value();
  m.dict = g.dict();
  m.graph = std::make_shared<const graph::AttributedGraph>(g);
  m.CompilePlan();
  // Mutate after an explicit compile: registration must recompile, not
  // serve scores from the stale pre-mutation plan.
  m.model.astars.clear();
  auto handle = registry.Put("mutated", std::move(m));
  const auto scores = handle->ScoreVertex(graph::VertexId(0)).value();
  for (double s : scores.normalized) EXPECT_EQ(s, 0.0);  // no evidence left
}

TEST(ModelRegistry, ScoreVertexRejectsDictNotCoveringGraph) {
  ModelRegistry registry;
  auto g = PaperExampleGraph();
  ServableModel m;
  m.model = MineModel(g).value();
  // A dictionary narrower than the snapshot's attribute space (a
  // mismatched store record): clean Status, not garbage scores.
  m.dict = graph::AttributeDictionary();
  m.dict.Intern("only-one");
  m.graph = std::make_shared<const graph::AttributedGraph>(g);
  auto handle = registry.Put("mismatched", std::move(m));
  auto scores = handle->ScoreVertex(graph::VertexId(0));
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kFailedPrecondition);
  // The batch path rejects the same pairing at engine construction.
  auto engine = handle->Serve();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
}

// The PR's acceptance criterion: mine → save → reopen cold → serve via the
// registry, and every score matches the in-memory session bit-for-bit.
TEST(ModelRegistry, ReloadedModelScoresBitIdentically) {
  const std::string path = TempPath("registry_acceptance.cspm");
  std::remove(path.c_str());
  auto g = SmallRandomGraph(21);
  auto session = std::move(MiningSession::Create(g)).value();
  ASSERT_TRUE(session.Mine().ok());
  SaveModelOptions save;
  save.include_graph = true;
  save.model_name = "acceptance";
  ASSERT_TRUE(session.SaveModel(path, save).ok());

  // "Fresh process": a registry that has seen neither the graph nor the
  // session — everything comes from the store file.
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel(path, "acceptance").ok());
  auto handle = registry.Get("acceptance");
  ASSERT_NE(handle, nullptr);
  ASSERT_TRUE(handle->graph != nullptr);

  for (graph::VertexId v(0); v < g.num_vertices(); ++v) {
    const AttributeScores expected = session.Score(v);
    const AttributeScores served = handle->ScoreVertex(v).value();
    ASSERT_EQ(served.raw.size(), expected.raw.size());
    for (size_t i = 0; i < expected.raw.size(); ++i) {
      // Bit-identical, including -inf sentinels: EXPECT_EQ, never NEAR.
      EXPECT_EQ(served.raw[i], expected.raw[i]) << "v=" << v << " i=" << i;
      EXPECT_EQ(served.normalized[i], expected.normalized[i])
          << "v=" << v << " i=" << i;
    }
  }
  std::remove(path.c_str());
}

// Same bit-identity through the session LoadModel path (store dictionary
// remapped onto the live graph's dictionary).
TEST(ModelRegistry, SessionReloadScoresBitIdentically) {
  const std::string path = TempPath("registry_session_reload.cspm");
  std::remove(path.c_str());
  auto g = SmallRandomGraph(33);
  auto session = std::move(MiningSession::Create(g)).value();
  ASSERT_TRUE(session.Mine().ok());
  ASSERT_TRUE(session.SaveModel(path).ok());

  auto reloaded = std::move(MiningSession::Create(g)).value();
  ASSERT_TRUE(reloaded.LoadModel(path).ok());
  for (uint32_t raw : {0u, 7u, 42u, 149u}) {
    const graph::VertexId v(raw);
    const AttributeScores expected = session.Score(v);
    const AttributeScores served = reloaded.Score(v);
    ASSERT_EQ(served.raw.size(), expected.raw.size());
    for (size_t i = 0; i < expected.raw.size(); ++i) {
      EXPECT_EQ(served.raw[i], expected.raw[i]) << "v=" << v << " i=" << i;
    }
  }
  std::remove(path.c_str());
}

// Concurrent readers scoring through handles while a writer hot-swaps the
// model — exercised under ASan/UBSan in CI.
TEST(ModelRegistry, ConcurrentGetAndReplace) {
  ModelRegistry registry;
  auto g = PaperExampleGraph();
  ServableModel m;
  m.model = MineModel(g).value();
  m.dict = g.dict();
  m.graph = std::make_shared<const graph::AttributedGraph>(g);
  registry.Put("hot", m);

  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&registry, &g] {
      for (int i = 0; i < 200; ++i) {
        auto handle = registry.Get("hot");
        if (handle == nullptr) continue;
        auto scores = handle->ScoreVertex(
            graph::VertexId(static_cast<uint32_t>(i) % g.num_vertices().value()));
        if (scores.ok()) {
          volatile double sink = scores->normalized.empty()
                                     ? 0.0
                                     : scores->normalized[0];
          (void)sink;
        }
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    registry.Put("hot", m);
    if (i % 10 == 0) registry.Remove("hot");
  }
  for (auto& t : readers) t.join();
  SUCCEED();
}

}  // namespace
}  // namespace cspm::engine
