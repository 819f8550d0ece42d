// Tests for engine::ModelRegistry and the acceptance criterion of the
// store subsystem: a model mined via MiningSession, saved to a store file,
// reopened cold, and served through the registry scores vertices
// bit-identically to the in-memory model.
#include "engine/model_registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
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

TEST(ModelRegistry, LoadModelLoadsByNameFromAnOpenStore) {
  const std::string path = TempPath("registry_loadmodel.cspm");
  std::remove(path.c_str());
  auto g = PaperExampleGraph();
  auto model = MineModel(g).value();
  auto store = store::ModelStore::Create(path).value();
  store::StoredModel stored;
  stored.model = model;
  stored.dict = g.dict();
  ASSERT_TRUE(store.Put("one", stored).ok());
  ASSERT_TRUE(store.Put("two", stored).ok());

  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel(store, "one").ok());
  ASSERT_TRUE(registry.LoadModel(store, "two").ok());
  EXPECT_EQ(registry.List(), (std::vector<std::string>{"one", "two"}));
  const Status missing = registry.LoadModel(store, "three");
  EXPECT_EQ(missing.code(), StatusCode::kNotFound) << missing.ToString();
  EXPECT_EQ(registry.size(), 2u);
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
    ASSERT_TRUE(store.Put("one", {m.model, g.dict(), std::nullopt}).ok());
  }

  ModelRegistry registry;
  EXPECT_NE(registry.Put("put", m)->plan, nullptr);
  EXPECT_NE(registry.PutPrecompiled("precompiled", m)->plan, nullptr);
  auto session = std::move(MiningSession::Create(g)).value();
  ASSERT_TRUE(session.Mine().ok());
  EXPECT_NE(session.Publish(registry, "published").value()->plan, nullptr);
  auto store = store::ModelStore::Open(path).value();
  ASSERT_TRUE(registry.LoadModel(store, "one").ok());
  ASSERT_NE(registry.Get("one")->plan, nullptr);
  EXPECT_TRUE(registry.Get("one")->plan->is_view());
  std::remove(path.c_str());
}

/// Bitwise (memcmp) equality of two score vectors.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Scores every vertex of `g` through `handle` and through a fresh
/// compile of `model`, bitwise.
void ExpectServesLikeFreshCompile(const graph::AttributedGraph& g,
                                  const core::CspmModel& model,
                                  const ModelRegistry::Handle& handle) {
  const core::ScoringPlan compiled =
      core::ScoringPlan::Compile(model, g.num_attribute_values());
  std::vector<graph::AttrId> neighbourhood;
  for (graph::VertexId v(0); v < g.num_vertices(); ++v) {
    core::GatherNeighbourhoodAttrs(g, v, &neighbourhood);
    const AttributeScores expected = compiled.Score(neighbourhood);
    const AttributeScores served = handle->ScoreVertex(v).value();
    ASSERT_TRUE(SameBits(served.raw, expected.raw)) << "v=" << v;
    ASSERT_TRUE(SameBits(served.normalized, expected.normalized))
        << "v=" << v;
  }
}

// The handle is the only pin on a mapped plan: it keeps serving the model
// it was loaded with after that model is re-saved and its store closed.
TEST(ModelRegistry, MappedPlanOutlivesItsStore) {
  const std::string path = TempPath("registry_plan_lifetime.cspm");
  std::remove(path.c_str());
  const auto g_old = SmallRandomGraph(5);
  const auto g_new = SmallRandomGraph(6);
  const core::CspmModel old_model = MineModel(g_old).value();
  const core::CspmModel new_model = MineModel(g_new).value();

  ModelRegistry registry;
  ModelRegistry::Handle old_handle;
  {
    auto store = store::ModelStore::Create(path).value();
    ASSERT_TRUE(store.Put("m", {old_model, g_old.dict(), g_old}).ok());
    ASSERT_TRUE(registry.LoadModel(store, "m").ok());
    old_handle = registry.Get("m");
    ASSERT_TRUE(old_handle->plan->is_view());
    ASSERT_TRUE(store.Put("m", {new_model, g_new.dict(), g_new}).ok());
  }
  ExpectServesLikeFreshCompile(g_old, old_model, old_handle);

  auto reopened = store::ModelStore::Open(path).value();
  ASSERT_TRUE(registry.LoadModel(reopened, "m").ok());
  const ModelRegistry::Handle new_handle = registry.Get("m");
  ASSERT_NE(new_handle, old_handle);
  EXPECT_TRUE(new_handle->plan->is_view());
  ExpectServesLikeFreshCompile(g_new, new_model, new_handle);
  // Loading the new version leaves the old handle's mapping alone.
  ExpectServesLikeFreshCompile(g_old, old_model, old_handle);
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
  auto store = store::ModelStore::Open(path).value();
  ASSERT_TRUE(registry.LoadModel(store, "acceptance").ok());
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
