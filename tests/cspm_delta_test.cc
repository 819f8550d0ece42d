// The live-update suite: transactional graph deltas, the merged
// inverted-database patch, re-mining through MiningSession::ApplyUpdates
// (kExact compared bit-for-bit against a cold re-mine of the mutated
// graph, kFast held to the DL-ε contract), serving hot-swap, and WAL
// crash recovery. Runs under the ASan job in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "cspm/code_model.h"
#include "cspm/gain.h"
#include "cspm/inverted_database.h"
#include "cspm/miner.h"
#include "cspm/serialization.h"
#include "cspm/verify.h"
#include "datasets/synthetic.h"
#include "engine/live_model.h"
#include "engine/model_registry.h"
#include "engine/session.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "store/model_store.h"
#include "testing_util.h"
#include "util/rng.h"

namespace cspm {
namespace {

using core::InvertedDatabase;
using graph::AttributedGraph;
using graph::DeltaApplication;
using graph::GraphDelta;
using graph::VertexId;
using testing::PaperExampleGraph;

// --- helpers --------------------------------------------------------------

/// Structural fingerprint of a graph, for patched-vs-rebuilt comparisons.
std::string GraphFingerprint(const AttributedGraph& g) {
  std::string out;
  for (VertexId v(0); v < g.num_vertices(); ++v) {
    // Sequential appends, not `"v" + std::to_string(...) + ":"`: the
    // temporary-chain form trips g++ 12's libstdc++ operator+ -Wrestrict
    // false positive under -Werror (GCC PR105651).
    out += "v";
    out += std::to_string(v.value());
    out += ":";
    for (graph::AttrId a : g.Attributes(v)) out += g.dict().Name(a) + ",";
    out += "|";
    for (VertexId w : g.Neighbors(v)) out += std::to_string(w.value()) + ",";
    out += "\n";
  }
  for (graph::AttrId a(0); a.index() < g.num_attribute_values(); ++a) {
    out += g.dict().Name(a) + ":";
    for (VertexId v : g.VerticesWithAttribute(a)) {
      out += std::to_string(v.value()) + ",";
    }
    out += "\n";
  }
  return out;
}

/// Rebuilds a graph from another graph's data through GraphBuilder — the
/// ground truth the CSR splice must match.
AttributedGraph RebuildFromScratch(const AttributedGraph& g) {
  graph::GraphBuilder b;
  for (graph::AttrId a(0); a.index() < g.num_attribute_values(); ++a) {
    b.InternAttribute(g.dict().Name(a));
  }
  for (VertexId v(0); v < g.num_vertices(); ++v) {
    auto attrs = g.Attributes(v);
    b.AddVertexWithIds({attrs.begin(), attrs.end()});
  }
  for (VertexId v(0); v < g.num_vertices(); ++v) {
    for (VertexId w : g.Neighbors(v)) {
      if (v < w) {
        EXPECT_TRUE(b.AddEdge(v, w).ok());
      }
    }
  }
  return std::move(std::move(b).Build()).value();
}

/// Asserts that patching the final database of a mine of `g` with
/// ApplyDeltaMerged leaves a structurally sound, lossless cover of the new
/// graph (the fast repair pass assumes both).
void ExpectMergedPatchValidAndLossless(const AttributedGraph& g,
                                       const GraphDelta& delta) {
  auto applied_or = graph::ApplyDelta(g, delta);
  ASSERT_TRUE(applied_or.ok()) << applied_or.status().ToString();
  const DeltaApplication& applied = applied_or.value();

  core::CspmMiner miner{core::CspmOptions{}};
  auto mined = miner.MineWithArtifacts(g);
  ASSERT_TRUE(mined.ok());
  InvertedDatabase& idb = mined->inverted_db;
  ASSERT_GT(idb.num_coresets(), 0u);
  core::DeltaPatchStats stats;
  Status st =
      idb.ApplyDeltaMerged(g, applied.graph, applied.dirty_vertices, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.touched_leafsets.size(),
            stats.touched_position_moves.size());
  Status invariants = core::CheckInvariants(idb);
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
  Status lossless = core::VerifyLossless(applied.graph, idb);
  EXPECT_TRUE(lossless.ok()) << lossless.ToString();
}

engine::MiningOptions UpdatableOptions() {
  engine::MiningOptions opts;
  opts.enable_updates = true;
  return opts;
}

/// Mines `g` under `options`, applies `deltas` one by one through
/// ApplyUpdates (kExact), and asserts the resulting model is bit-identical
/// (serialized text, DL, iteration count) to a cold re-mine of the final
/// mutated graph.
void ExpectExactEqualsColdRemineWith(const AttributedGraph& g,
                                     const std::vector<GraphDelta>& deltas,
                                     engine::MiningOptions options) {
  auto session_or = engine::MiningSession::Create(g, options);
  ASSERT_TRUE(session_or.ok());
  engine::MiningSession session = std::move(session_or).value();
  ASSERT_TRUE(session.Mine().ok());
  engine::UpdateStats stats;
  for (const GraphDelta& delta : deltas) {
    Status st = session.ApplyUpdates(delta, &stats);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  auto cold_or = engine::MiningSession::Create(session.graph(), options);
  ASSERT_TRUE(cold_or.ok());
  engine::MiningSession cold = std::move(cold_or).value();
  ASSERT_TRUE(cold.Mine().ok());

  EXPECT_EQ(session.SerializeModel(), cold.SerializeModel());
  EXPECT_EQ(session.stats().final_dl_bits, cold.stats().final_dl_bits);
  EXPECT_EQ(session.stats().initial_dl_bits, cold.stats().initial_dl_bits);
  EXPECT_EQ(session.stats().iterations, cold.stats().iterations);
}

void ExpectExactEqualsColdRemine(const AttributedGraph& g,
                                 const std::vector<GraphDelta>& deltas) {
  ExpectExactEqualsColdRemineWith(g, deltas, UpdatableOptions());
}

/// Mines, applies `deltas` in fast mode, and asserts the DL-ε
/// contract: the session's final description length stays within 1% of a
/// cold mine of the final mutated graph. (It may be *better* — the repair
/// re-judges neighbourhoods the partial heuristic never revisits — hence
/// the generous lower bound.)
void ExpectFastDlWithinEpsilon(const AttributedGraph& g,
                               const std::vector<GraphDelta>& deltas) {
  auto session = std::move(engine::MiningSession::Create(g, UpdatableOptions()))
                     .value();
  ASSERT_TRUE(session.Mine().ok());
  engine::UpdateStats stats;
  for (const GraphDelta& delta : deltas) {
    Status st = session.ApplyUpdates(delta, engine::UpdateMode::kFast, &stats);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(stats.fast_path);
    EXPECT_GT(stats.dl_before_bits, 0.0);
    EXPECT_GT(stats.dl_after_bits, 0.0);
  }

  auto cold_or = engine::MiningSession::Create(session.graph(),
                                               UpdatableOptions());
  ASSERT_TRUE(cold_or.ok());
  engine::MiningSession cold = std::move(cold_or).value();
  ASSERT_TRUE(cold.Mine().ok());
  const double ratio =
      session.stats().final_dl_bits / cold.stats().final_dl_bits;
  EXPECT_LE(ratio, 1.01) << "fast model DL drifted above the ε contract";
  EXPECT_GE(ratio, 0.90) << "fast model DL implausibly low — check gains";
}

AttributedGraph SmallCommunityGraph(uint64_t seed) {
  Rng rng(seed);
  return std::move(graph::ErdosRenyi(160, 0.06, 14, 3, &rng)).value();
}

GraphDelta RandomEdgeDelta(const AttributedGraph& g, uint32_t ops,
                           uint64_t seed) {
  auto delta = graph::MakeRandomEdgeRewires(g, ops, seed);
  EXPECT_TRUE(delta.ok());
  return std::move(delta).value();
}

// --- graph-level delta tests ----------------------------------------------

TEST(GraphDeltaTest, EdgeOpsMatchRebuiltGraph) {
  AttributedGraph g = SmallCommunityGraph(3);
  GraphDelta delta = RandomEdgeDelta(g, 12, 99);
  auto applied = graph::ApplyDelta(g, delta);
  ASSERT_TRUE(applied.ok());
  EXPECT_FALSE(applied->attributes_changed);
  EXPECT_EQ(GraphFingerprint(applied->graph),
            GraphFingerprint(RebuildFromScratch(applied->graph)));
  EXPECT_EQ(applied->graph.num_edges(), g.num_edges());  // rewires balance
}

TEST(GraphDeltaTest, AttributeAndVertexOpsMatchRebuiltGraph) {
  AttributedGraph g = PaperExampleGraph();
  GraphDelta delta;
  delta.SetAttribute(VertexId(0), "d");            // new attribute value
  delta.ClearAttribute(VertexId(1), "c");
  const size_t idx = delta.AddVertex({"a", "d"});
  delta.AddEdge(VertexId(g.num_vertices().value() + static_cast<uint32_t>(idx)),
                VertexId(2));
  delta.RemoveEdge(VertexId(0), VertexId(3));
  auto applied = graph::ApplyDelta(g, delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE(applied->attributes_changed);
  EXPECT_EQ(applied->first_new_vertex, g.num_vertices());
  EXPECT_EQ(applied->graph.num_vertices().value(), g.num_vertices().value() + 1);
  EXPECT_TRUE(applied->graph.HasAttribute(
      VertexId(0), applied->graph.dict().Find("d")));
  EXPECT_EQ(GraphFingerprint(applied->graph),
            GraphFingerprint(RebuildFromScratch(applied->graph)));
}

TEST(GraphDeltaTest, RejectsInvalidOpsWithoutApplying) {
  AttributedGraph g = PaperExampleGraph();
  {
    GraphDelta d;
    d.RemoveEdge(VertexId(0), VertexId(4));  // not an edge
    EXPECT_FALSE(graph::ApplyDelta(g, d).ok());
  }
  {
    GraphDelta d;
    d.AddEdge(VertexId(0), VertexId(1));  // already present
    EXPECT_FALSE(graph::ApplyDelta(g, d).ok());
  }
  {
    GraphDelta d;
    d.AddEdge(VertexId(2), VertexId(2));  // self-loop
    EXPECT_FALSE(graph::ApplyDelta(g, d).ok());
  }
  {
    GraphDelta d;
    d.SetAttribute(VertexId(1), "a");  // vertex 1 already carries a
    EXPECT_FALSE(graph::ApplyDelta(g, d).ok());
  }
  {
    GraphDelta d;
    d.ClearAttribute(VertexId(0), "b");  // vertex 0 does not carry b
    EXPECT_FALSE(graph::ApplyDelta(g, d).ok());
  }
  {
    GraphDelta d;
    d.AddEdge(VertexId(0), VertexId(99));  // unknown vertex
    EXPECT_FALSE(graph::ApplyDelta(g, d).ok());
  }
}

TEST(GraphDeltaTest, AttributeOpMarksNeighboursDirty) {
  AttributedGraph g = PaperExampleGraph();
  GraphDelta delta;
  delta.ClearAttribute(VertexId(4), "b");  // v5; neighbours v3 (2) and v4 (3)
  auto applied = graph::ApplyDelta(g, delta);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied->dirty_vertices, (std::vector<VertexId>{VertexId(2), VertexId(3), VertexId(4)}));
}

// --- merged inverted-database patch tests ---------------------------------

TEST(InvertedDeltaTest, MergedPatchValidAndLosslessAcrossGraphsAndDeltas) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    AttributedGraph g = SmallCommunityGraph(seed);
    ExpectMergedPatchValidAndLossless(g, RandomEdgeDelta(g, 10, seed * 7 + 1));
  }
  AttributedGraph dblp = std::move(datasets::MakeDblpLike(1, 250)).value();
  ExpectMergedPatchValidAndLossless(dblp, RandomEdgeDelta(dblp, 8, 5));

  // Attribute + vertex ops on the paper example.
  AttributedGraph g = PaperExampleGraph();
  GraphDelta delta;
  delta.SetAttribute(VertexId(2), "b");
  delta.ClearAttribute(VertexId(1), "a");
  delta.AddVertex({"c", "d"});
  delta.AddEdge(VertexId(5), VertexId(0));
  ExpectMergedPatchValidAndLossless(g, delta);
}

TEST(InvertedDeltaTest, RemoveLastEdgeOfStar) {
  // v0:{a} - v1:{b} plus a far pair keeping the graph non-trivial. Removing
  // v0-v1 erases the last line of leafset {b} under core a (and vice
  // versa); the leafsets must deactivate exactly as in a cold build.
  graph::GraphBuilder b;
  b.AddVertex({"a"});
  b.AddVertex({"b"});
  b.AddVertex({"c"});
  b.AddVertex({"c"});
  EXPECT_TRUE(b.AddEdge(VertexId(0), VertexId(1)).ok());
  EXPECT_TRUE(b.AddEdge(VertexId(2), VertexId(3)).ok());
  AttributedGraph g = std::move(std::move(b).Build()).value();
  GraphDelta delta;
  delta.RemoveEdge(VertexId(0), VertexId(1));
  ExpectMergedPatchValidAndLossless(g, delta);
  ExpectExactEqualsColdRemine(g, {delta});
}

TEST(InvertedDeltaTest, DeltaOnVertexAbsentFromEveryLeafset) {
  // Vertex 2 carries no attributes: it appears in no line's positions
  // under any coreset and in no leafset. Rewiring it must still patch its
  // neighbours' lines correctly, and both update modes must hold their
  // contracts.
  graph::GraphBuilder b;
  b.AddVertex({"a"});
  b.AddVertex({"b"});
  b.AddVertexWithIds({});  // attribute-less vertex 2
  b.AddVertex({"a", "b"});
  EXPECT_TRUE(b.AddEdge(VertexId(0), VertexId(1)).ok());
  EXPECT_TRUE(b.AddEdge(VertexId(1), VertexId(2)).ok());
  EXPECT_TRUE(b.AddEdge(VertexId(2), VertexId(3)).ok());
  AttributedGraph g = std::move(std::move(b).Build()).value();
  GraphDelta delta;
  delta.RemoveEdge(VertexId(1), VertexId(2));
  delta.AddEdge(VertexId(0), VertexId(2));
  ExpectMergedPatchValidAndLossless(g, delta);
  ExpectFastDlWithinEpsilon(g, {delta});
  ExpectExactEqualsColdRemine(g, {delta});
}

// --- end-to-end ApplyUpdates bit-identity ----------------------------------

TEST(ApplyUpdatesTest, EdgeDeltaBitIdenticalToColdRemine) {
  for (uint64_t seed : {1u, 4u}) {
    AttributedGraph g = SmallCommunityGraph(seed);
    ExpectExactEqualsColdRemine(g, {RandomEdgeDelta(g, 8, seed + 10)});
  }
  AttributedGraph dblp = std::move(datasets::MakeDblpLike(2, 300)).value();
  ExpectExactEqualsColdRemine(dblp, {RandomEdgeDelta(dblp, 6, 11)});
}

TEST(ApplyUpdatesTest, AttributeDeltaBitIdenticalToColdRemine) {
  // Any attribute-frequency change invalidates the whole code model; the
  // exact re-mine must stay bit-identical through it.
  AttributedGraph g = SmallCommunityGraph(2);
  GraphDelta delta;
  delta.SetAttribute(VertexId(3), "brand-new-value");
  delta.ClearAttribute(VertexId(0),
                       g.dict().Name(g.Attributes(VertexId(0))[0]));
  ExpectExactEqualsColdRemine(g, {delta});
}

TEST(ApplyUpdatesTest, AddVertexWithEdgesBitIdenticalToColdRemine) {
  AttributedGraph g = SmallCommunityGraph(5);
  GraphDelta delta;
  delta.AddVertex(
      {g.dict().Name(graph::AttrId(0)), g.dict().Name(graph::AttrId(1))});
  delta.AddEdge(g.num_vertices(), VertexId(0));
  delta.AddEdge(g.num_vertices(), VertexId(17));
  ExpectExactEqualsColdRemine(g, {delta});
}

TEST(ApplyUpdatesTest, SequentialUpdatesStayBitIdentical) {
  AttributedGraph g = SmallCommunityGraph(6);
  std::vector<GraphDelta> deltas;
  // The graph evolves between deltas, so later ops are sampled blind; the
  // helper applies them in order against the evolving session.
  deltas.push_back(RandomEdgeDelta(g, 4, 21));
  {
    GraphDelta d2;
    d2.SetAttribute(VertexId(7), "late-value");
    deltas.push_back(d2);
  }
  {
    GraphDelta d3;
    d3.ClearAttribute(VertexId(7), "late-value");
    deltas.push_back(d3);
  }
  ExpectExactEqualsColdRemine(g, deltas);
}

TEST(ApplyUpdatesTest, AttributeClearedThenReAddedRestoresModel) {
  AttributedGraph g = SmallCommunityGraph(8);
  auto session = std::move(engine::MiningSession::Create(g, UpdatableOptions()))
                     .value();
  ASSERT_TRUE(session.Mine().ok());
  const std::string original = session.SerializeModel();
  const std::string name = g.dict().Name(g.Attributes(VertexId(12))[0]);
  GraphDelta clear;
  clear.ClearAttribute(VertexId(12), name);
  ASSERT_TRUE(session.ApplyUpdates(clear, nullptr).ok());
  GraphDelta re_add;
  re_add.SetAttribute(VertexId(12), name);
  ASSERT_TRUE(session.ApplyUpdates(re_add, nullptr).ok());
  EXPECT_EQ(session.SerializeModel(), original);
}

TEST(ApplyUpdatesTest, ColdFallbackWithoutWarmState) {
  AttributedGraph g = SmallCommunityGraph(9);
  ExpectExactEqualsColdRemineWith(g, {RandomEdgeDelta(g, 4, 33)},
                                  engine::MiningOptions{});
}

TEST(ApplyUpdatesTest, RequiresAMinedModel) {
  AttributedGraph g = PaperExampleGraph();
  auto session = std::move(engine::MiningSession::Create(g, UpdatableOptions()))
                     .value();
  GraphDelta delta;
  delta.RemoveEdge(VertexId(0), VertexId(1));
  EXPECT_FALSE(session.ApplyUpdates(delta, nullptr).ok());
}

TEST(ApplyUpdatesTest, InvalidDeltaLeavesSessionUntouched) {
  AttributedGraph g = SmallCommunityGraph(10);
  auto session = std::move(engine::MiningSession::Create(g, UpdatableOptions()))
                     .value();
  ASSERT_TRUE(session.Mine().ok());
  const std::string before = session.SerializeModel();
  GraphDelta bad;
  bad.AddEdge(VertexId(0), VertexId(0));  // self-loop
  EXPECT_FALSE(session.ApplyUpdates(bad, nullptr).ok());
  EXPECT_EQ(session.SerializeModel(), before);
  EXPECT_EQ(&session.graph(), &g);  // graph not swapped
  // The session still updates fine afterwards.
  engine::UpdateStats stats;
  ASSERT_TRUE(session.ApplyUpdates(RandomEdgeDelta(g, 2, 51), &stats).ok());
}

// --- fast (continue-from-final-model) updates -------------------------------

TEST(FastUpdateTest, EdgeDeltaDlWithinEpsilon) {
  for (uint64_t seed : {1u, 4u}) {
    AttributedGraph g = SmallCommunityGraph(seed);
    ExpectFastDlWithinEpsilon(g, {RandomEdgeDelta(g, 8, seed + 10)});
  }
  AttributedGraph dblp = std::move(datasets::MakeDblpLike(2, 300)).value();
  ExpectFastDlWithinEpsilon(dblp, {RandomEdgeDelta(dblp, 6, 11)});
}

TEST(FastUpdateTest, AttributeDeltaDlWithinEpsilon) {
  // Attribute changes force the all-dirty fallback inside the fast seed
  // (every gain input may have moved with the code model); the DL-ε
  // contract must hold through it.
  AttributedGraph g = SmallCommunityGraph(2);
  GraphDelta delta;
  delta.SetAttribute(VertexId(3), "brand-new-value");
  delta.ClearAttribute(VertexId(0),
                       g.dict().Name(g.Attributes(VertexId(0))[0]));
  ExpectFastDlWithinEpsilon(g, {delta});
}

TEST(FastUpdateTest, AddVertexWithEdgesDlWithinEpsilon) {
  AttributedGraph g = SmallCommunityGraph(5);
  GraphDelta delta;
  delta.AddVertex(
      {g.dict().Name(graph::AttrId(0)), g.dict().Name(graph::AttrId(1))});
  delta.AddEdge(g.num_vertices(), VertexId(0));
  delta.AddEdge(g.num_vertices(), VertexId(17));
  ExpectFastDlWithinEpsilon(g, {delta});
}

TEST(FastUpdateTest, SequentialFastUpdatesDlWithinEpsilon) {
  // Each fast update repairs final_db in place; the next one continues
  // from the repaired state, so the ε bound must survive chaining.
  AttributedGraph g = SmallCommunityGraph(6);
  std::vector<GraphDelta> deltas;
  deltas.push_back(RandomEdgeDelta(g, 4, 21));
  {
    GraphDelta d2;
    d2.SetAttribute(VertexId(7), "late-value");
    deltas.push_back(d2);
  }
  {
    GraphDelta d3;
    d3.ClearAttribute(VertexId(7), "late-value");
    deltas.push_back(d3);
  }
  ExpectFastDlWithinEpsilon(g, deltas);
}

TEST(FastUpdateTest, RemoveLastEdgeOfStarDlWithinEpsilon) {
  // The tiny graph whose delta erases a leafset's final line; the merged
  // patch must deactivate it and the fast re-mine must stay valid.
  graph::GraphBuilder b;
  b.AddVertex({"a"});
  b.AddVertex({"b"});
  b.AddVertex({"c"});
  b.AddVertex({"c"});
  EXPECT_TRUE(b.AddEdge(VertexId(0), VertexId(1)).ok());
  EXPECT_TRUE(b.AddEdge(VertexId(2), VertexId(3)).ok());
  AttributedGraph g = std::move(std::move(b).Build()).value();
  GraphDelta delta;
  delta.RemoveEdge(VertexId(0), VertexId(1));
  ExpectFastDlWithinEpsilon(g, {delta});
}

TEST(FastUpdateTest, ExactUpdateAfterFastRebuildsBitIdentity) {
  // A fast update leaves a path-dependent model behind; the next kExact
  // update must land bit-identical to a cold mine of the final graph —
  // the two-mode contract's hard edge.
  AttributedGraph g = SmallCommunityGraph(11);
  auto session = std::move(engine::MiningSession::Create(g, UpdatableOptions()))
                     .value();
  ASSERT_TRUE(session.Mine().ok());
  engine::UpdateStats stats;
  ASSERT_TRUE(session
                  .ApplyUpdates(RandomEdgeDelta(g, 4, 61),
                                engine::UpdateMode::kFast, &stats)
                  .ok());
  ASSERT_TRUE(stats.fast_path);
  ASSERT_TRUE(session
                  .ApplyUpdates(RandomEdgeDelta(session.graph(), 4, 62),
                                engine::UpdateMode::kExact, &stats)
                  .ok());
  EXPECT_FALSE(stats.fast_path);

  auto cold = std::move(engine::MiningSession::Create(session.graph(),
                                                      UpdatableOptions()))
                  .value();
  ASSERT_TRUE(cold.Mine().ok());
  EXPECT_EQ(session.SerializeModel(), cold.SerializeModel());
  EXPECT_EQ(session.stats().final_dl_bits, cold.stats().final_dl_bits);
  EXPECT_EQ(session.stats().iterations, cold.stats().iterations);
}

TEST(FastUpdateTest, FastModeFallsBackToExactWithoutWarmState) {
  // Without enable_updates the final database is not kept: kFast degrades
  // to a cold re-mine and reports an honest fast_path=false.
  AttributedGraph g = SmallCommunityGraph(9);
  auto session =
      std::move(engine::MiningSession::Create(g, engine::MiningOptions{}))
          .value();
  ASSERT_TRUE(session.Mine().ok());
  engine::UpdateStats stats;
  ASSERT_TRUE(session
                  .ApplyUpdates(RandomEdgeDelta(g, 4, 33),
                                engine::UpdateMode::kFast, &stats)
                  .ok());
  EXPECT_FALSE(stats.fast_path);

  auto cold = std::move(engine::MiningSession::Create(session.graph(),
                                                      engine::MiningOptions{}))
                  .value();
  ASSERT_TRUE(cold.Mine().ok());
  EXPECT_EQ(session.SerializeModel(), cold.SerializeModel());
}

TEST(FastUpdateTest, ApplyDeltaMergedKeepsDbValidAndLossless) {
  // The merged-database patch must leave a structurally sound, lossless
  // cover of the new graph (the repair pass assumes both).
  for (uint64_t seed : {1u, 2u, 3u}) {
    AttributedGraph g = SmallCommunityGraph(seed);
    ExpectMergedPatchValidAndLossless(g, RandomEdgeDelta(g, 6, seed * 3 + 2));
  }
}

TEST(FastUpdateTest, ApplyDeltaMergedRefusesUnsortedDirtyVertices) {
  // The patch applies its position edits line by line after deciding them
  // vertex by vertex, which needs distinct, ascending dirty vertices; it
  // refuses anything else before touching the database.
  AttributedGraph g = SmallCommunityGraph(4);
  auto applied = graph::ApplyDelta(g, RandomEdgeDelta(g, 6, 14));
  ASSERT_TRUE(applied.ok());
  ASSERT_GE(applied->dirty_vertices.size(), 2u);
  core::CspmMiner miner{core::CspmOptions{}};
  auto mined = miner.MineWithArtifacts(g);
  ASSERT_TRUE(mined.ok());
  InvertedDatabase& idb = mined->inverted_db;
  const size_t lines = idb.num_lines();

  std::vector<VertexId> reversed(applied->dirty_vertices.rbegin(),
                                 applied->dirty_vertices.rend());
  std::vector<VertexId> repeated = applied->dirty_vertices;
  repeated.insert(repeated.begin() + 1, repeated[0]);
  for (const std::vector<VertexId>& dirty : {reversed, repeated}) {
    core::DeltaPatchStats stats;
    Status st = idb.ApplyDeltaMerged(g, applied->graph, dirty, &stats);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_EQ(idb.num_lines(), lines);
    EXPECT_EQ(idb.vertex_coresets().size(), g.num_vertices().index());
  }

  core::DeltaPatchStats stats;
  ASSERT_TRUE(idb.ApplyDeltaMerged(g, applied->graph,
                                   applied->dirty_vertices, &stats)
                  .ok());
  Status lossless = core::VerifyLossless(applied->graph, idb);
  EXPECT_TRUE(lossless.ok()) << lossless.ToString();
}

TEST(FastUpdateTest, SplitGainMatchesDataCostDelta) {
  // ComputeSplitGain's data term must be the exact negated change of
  // DataCostBits when the line is actually split.
  AttributedGraph g = SmallCommunityGraph(7);
  InvertedDatabase idb = std::move(InvertedDatabase::FromGraph(g)).value();
  const core::CodeModel cm(g, idb);

  // Merge the first feasible pair so there is a multi-value line to split.
  core::LeafsetId merged{};
  bool found = false;
  const std::vector<core::LeafsetId> actives = idb.active_leafsets();
  for (size_t i = 0; i < actives.size() && !found; ++i) {
    for (size_t j = i + 1; j < actives.size() && !found; ++j) {
      if (core::ComputeMergeGain(idb, cm, actives[i], actives[j]).feasible) {
        merged = idb.MergeLeafsets(actives[i], actives[j]).merged_id;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);

  const core::XLogTable xlog(idb);
  core::SingletonLineSizes singles(idb);
  const auto split_gain = [&](core::CoreId e, core::LeafsetId l) {
    return core::ComputeSplitGain(idb, cm, singles, xlog, e, l,
                                  idb.FindLine(e, l).size());
  };
  while (!idb.CoresOf(merged).empty()) {
    const core::CoreId e = idb.CoresOf(merged)[0];
    core::GainResult split = split_gain(e, merged);
    ASSERT_TRUE(split.feasible);
    const double before = idb.DataCostBits();
    const uint64_t fl = idb.FindLine(e, merged).size();
    ASSERT_TRUE(idb.SplitLine(e, merged).ok());
    singles.AddSplit(e, idb.leafsets().Values(merged), fl);
    EXPECT_NEAR(split.data_gain_bits, before - idb.DataCostBits(), 1e-6);
  }
  Status invariants = core::CheckInvariants(idb);
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();

  // Infeasible shapes: a singleton line and an absent line.
  const std::vector<core::LeafsetId> singletons = idb.active_leafsets();
  ASSERT_FALSE(singletons.empty());
  const core::LeafsetId s = singletons[0];
  ASSERT_FALSE(idb.CoresOf(s).empty());
  EXPECT_FALSE(split_gain(idb.CoresOf(s)[0], s).feasible);
  EXPECT_FALSE(idb.SplitLine(idb.CoresOf(s)[0], merged).ok());
}

/// Every cell of `singles` against the singleton line it stands for.
void ExpectSingletonSizesMatchLines(const InvertedDatabase& idb,
                                    const core::SingletonLineSizes& singles) {
  for (core::CoreId e(0); e.index() < idb.num_coresets(); ++e) {
    for (core::AttrId a(0); a.index() < idb.num_coresets(); ++a) {
      ASSERT_EQ(singles.Get(e, a),
                idb.FindLine(e, idb.leafsets().Singleton(a)).size())
          << "core " << e.value() << " value " << a.value();
    }
  }
}

/// Splits up to `count` random lines of multi-value leafsets, keeping
/// `singles` current as the unmerge pass does, and checks every cell after
/// each split.
void SplitRandomLines(InvertedDatabase& idb,
                      core::SingletonLineSizes& singles, uint64_t seed,
                      int count) {
  Rng rng(seed);
  for (int split = 0; split < count; ++split) {
    std::vector<core::LeafsetId> merged;
    for (core::LeafsetId l : idb.active_leafsets()) {
      if (idb.leafsets().Values(l).size() >= 2) merged.push_back(l);
    }
    if (merged.empty()) return;
    const core::LeafsetId l = merged[rng.Uniform(merged.size())];
    const std::vector<core::CoreId>& cores = idb.CoresOf(l);
    const core::CoreId e = cores[rng.Uniform(cores.size())];
    const uint64_t fl = idb.FindLine(e, l).size();
    ASSERT_TRUE(idb.SplitLine(e, l).ok());
    singles.AddSplit(e, idb.leafsets().Values(l), fl);
    ExpectSingletonSizesMatchLines(idb, singles);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FastUpdateTest, SingletonLineSizesTrackSplitsAndPatches) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    AttributedGraph g = SmallCommunityGraph(seed);
    core::CspmMiner miner{core::CspmOptions{}};
    auto mined = miner.MineWithArtifacts(g);
    ASSERT_TRUE(mined.ok());
    InvertedDatabase& idb = mined->inverted_db;

    // On the mined database, then across a random split sequence.
    core::SingletonLineSizes singles(idb);
    ExpectSingletonSizesMatchLines(idb, singles);
    SplitRandomLines(idb, singles, seed, 25);
    if (HasFatalFailure()) return;

    // On the database a merged patch leaves (singleton lines grown,
    // shrunk, created and erased), then across more splits.
    auto applied = graph::ApplyDelta(g, RandomEdgeDelta(g, 8, seed + 40));
    ASSERT_TRUE(applied.ok());
    core::DeltaPatchStats patch;
    ASSERT_TRUE(idb.ApplyDeltaMerged(g, applied->graph,
                                     applied->dirty_vertices, &patch)
                    .ok());
    core::SingletonLineSizes patched(idb);
    ExpectSingletonSizesMatchLines(idb, patched);
    SplitRandomLines(idb, patched, seed + 7, 25);
  }
}

// --- serving hot-swap -------------------------------------------------------

TEST(HotSwapTest, InFlightEngineKeepsOldTripleNewServeSeesUpdate) {
  AttributedGraph g = SmallCommunityGraph(11);
  auto session = std::move(engine::MiningSession::Create(g, UpdatableOptions()))
                     .value();
  ASSERT_TRUE(session.Mine().ok());
  auto old_engine = std::move(session.Serve()).value();
  const auto old_scores = old_engine.ScoreAll();

  engine::ModelRegistry registry;
  ASSERT_TRUE(session.Publish(registry, "live").ok());
  auto old_handle = registry.Get("live");

  GraphDelta delta = RandomEdgeDelta(g, 6, 77);
  ASSERT_TRUE(session.ApplyUpdates(delta, nullptr).ok());
  ASSERT_TRUE(session.Publish(registry, "live").ok());

  // The pre-update engine still scores the old graph+model+plan triple,
  // bit-identically, even though the session moved on.
  const auto replay = old_engine.ScoreAll();
  ASSERT_EQ(replay.size(), old_scores.size());
  for (size_t v = 0; v < replay.size(); ++v) {
    EXPECT_EQ(replay[v].raw, old_scores[v].raw) << "vertex " << v;
  }
  // The pre-update registry handle still holds the old triple; the swap
  // installed a distinct handle for new lookups.
  EXPECT_NE(old_handle, registry.Get("live"));

  // A fresh engine sees the updated model; it matches a cold session over
  // the mutated graph.
  auto new_engine = std::move(session.Serve()).value();
  auto cold = std::move(engine::MiningSession::Create(session.graph(),
                                                      UpdatableOptions()))
                  .value();
  ASSERT_TRUE(cold.Mine().ok());
  auto cold_engine = std::move(cold.Serve()).value();
  const auto new_scores = new_engine.ScoreAll();
  const auto cold_scores = cold_engine.ScoreAll();
  ASSERT_EQ(new_scores.size(), cold_scores.size());
  for (size_t v = 0; v < new_scores.size(); ++v) {
    EXPECT_EQ(new_scores[v].raw, cold_scores[v].raw) << "vertex " << v;
  }
}

TEST(HotSwapTest, PublishedHandleOutlivesCallerGraph) {
  // Pre-update sessions alias the caller's graph; Publish must snapshot
  // it so registry handles never dangle with the caller's scope (caught
  // under ASan).
  engine::ModelRegistry registry;
  {
    AttributedGraph g = SmallCommunityGraph(13);
    auto session =
        std::move(engine::MiningSession::Create(g, UpdatableOptions()))
            .value();
    ASSERT_TRUE(session.Mine().ok());
    ASSERT_TRUE(session.Publish(registry, "ephemeral").ok());
  }  // caller's graph destroyed here
  auto handle = registry.Get("ephemeral");
  ASSERT_NE(handle, nullptr);
  EXPECT_TRUE(handle->ScoreVertex(VertexId(0)).ok());
}

// --- WAL crash recovery -----------------------------------------------------

TEST(WalReplayTest, CrashTruncatedTailRecoversPrefixBitIdentical) {
  const std::string path = ::testing::TempDir() + "/cspm_wal_crash.cspm";
  std::remove(path.c_str());
  AttributedGraph g = SmallCommunityGraph(12);
  GraphDelta d1 = RandomEdgeDelta(g, 4, 41);
  // d2 carries a long marker attribute name so the test can locate its WAL
  // record's bytes in the file and corrupt them (the simulated torn tail).
  const std::string marker = "CANARY_ATTRIBUTE_VALUE_FOR_TAIL_RECORD";
  GraphDelta d2;
  d2.SetAttribute(VertexId(0), marker);

  {
    auto session =
        std::move(engine::MiningSession::Create(g, UpdatableOptions()))
            .value();
    ASSERT_TRUE(session.Mine().ok());
    engine::SaveModelOptions save;
    save.include_graph = true;
    ASSERT_TRUE(session.SaveModel(path, save).ok());
    auto store = std::move(store::ModelStore::Open(path)).value();
    ASSERT_TRUE(store.AppendDelta("default", d1).ok());
    ASSERT_TRUE(store.AppendDelta("default", d2).ok());
  }

  // Crash simulation: flip a byte inside the tail WAL record's page.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const size_t at = bytes.find(marker);
  ASSERT_NE(at, std::string::npos);
  bytes[at] ^= 0x5a;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Reopen: the valid prefix (d1) replays; the torn tail is dropped.
  auto store = std::move(store::ModelStore::Open(path)).value();
  auto replay = store.ReadWal("default");
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->truncated);
  EXPECT_EQ(replay->dropped, 1u);
  ASSERT_EQ(replay->deltas.size(), 1u);

  auto stored = std::move(store.Get("default")).value();
  ASSERT_TRUE(stored.graph.has_value());
  AttributedGraph snapshot = std::move(*stored.graph);
  auto session =
      std::move(engine::MiningSession::Create(snapshot, UpdatableOptions()))
          .value();
  ASSERT_TRUE(session.Mine().ok());
  for (const GraphDelta& delta : replay->deltas) {
    ASSERT_TRUE(session.ApplyUpdates(delta, nullptr).ok());
  }

  // Bit-identical to a cold re-mine of the mutated graph.
  auto cold_app = std::move(graph::ApplyDelta(g, d1)).value();
  auto cold = std::move(engine::MiningSession::Create(cold_app.graph,
                                                      UpdatableOptions()))
                  .value();
  ASSERT_TRUE(cold.Mine().ok());
  EXPECT_EQ(session.SerializeModel(), cold.SerializeModel());
  EXPECT_EQ(session.stats().final_dl_bits, cold.stats().final_dl_bits);
}

TEST(WalReplayTest, AppendDeltaRecordsModePerRecord) {
  // The WAL's v2 record carries how the live session re-mined, so replay
  // can roll forward each delta in its original mode.
  const std::string path = ::testing::TempDir() + "/cspm_wal_mode.cspm";
  std::remove(path.c_str());
  AttributedGraph g = SmallCommunityGraph(14);
  auto session = std::move(engine::MiningSession::Create(g, UpdatableOptions()))
                     .value();
  ASSERT_TRUE(session.Mine().ok());
  engine::SaveModelOptions save;
  save.include_graph = true;
  ASSERT_TRUE(session.SaveModel(path, save).ok());

  auto store = std::move(store::ModelStore::Open(path)).value();
  GraphDelta d1 = RandomEdgeDelta(g, 2, 71);
  GraphDelta d2 = RandomEdgeDelta(g, 2, 72);
  ASSERT_TRUE(store.AppendDelta("default", d1).ok());  // default: exact
  ASSERT_TRUE(
      store.AppendDelta("default", d2, store::WalDeltaMode::kFast).ok());

  auto replay = std::move(store.ReadWal("default")).value();
  EXPECT_FALSE(replay.truncated);
  ASSERT_EQ(replay.deltas.size(), 2u);
  ASSERT_EQ(replay.modes.size(), 2u);
  EXPECT_EQ(replay.modes[0], store::WalDeltaMode::kExact);
  EXPECT_EQ(replay.modes[1], store::WalDeltaMode::kFast);
}

TEST(WalReplayTest, MixedModeWalReplaysBitIdenticalToLiveSession) {
  // One WAL [fast, exact, fast], written by engine::UpdateAndLog as the
  // shell and the server write it, then replayed by engine::ReplayModel:
  // model and scores must be bit-identical to the live session that wrote
  // it. The exact step re-mines after a path-dependent fast model.
  const std::string path = ::testing::TempDir() + "/cspm_wal_mixed.cspm";
  std::remove(path.c_str());
  AttributedGraph g = SmallCommunityGraph(15);
  auto live = std::move(engine::MiningSession::Create(
                            g, engine::LiveModelOptions()))
                  .value();
  ASSERT_TRUE(live.Mine().ok());
  engine::SaveModelOptions save;
  save.include_graph = true;
  ASSERT_TRUE(live.SaveModel(path, save).ok());

  auto store = std::move(store::ModelStore::Open(path)).value();
  engine::ModelRegistry registry;
  const engine::UpdateMode modes[] = {engine::UpdateMode::kFast,
                                      engine::UpdateMode::kExact,
                                      engine::UpdateMode::kFast};
  for (size_t i = 0; i < 3; ++i) {
    const GraphDelta delta = RandomEdgeDelta(live.graph(), 4, 81 + i);
    auto stats =
        engine::UpdateAndLog(live, delta, modes[i], &store, registry, "default");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->fast_path, modes[i] == engine::UpdateMode::kFast);
  }
  auto wal = std::move(store.ReadWal("default")).value();
  ASSERT_EQ(wal.modes.size(), 3u);
  EXPECT_EQ(wal.modes[0], store::WalDeltaMode::kFast);
  EXPECT_EQ(wal.modes[1], store::WalDeltaMode::kExact);
  EXPECT_EQ(wal.modes[2], store::WalDeltaMode::kFast);

  const auto file_bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string before = file_bytes();
  auto replayed = engine::ReplayModel(store, "default");
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(file_bytes(), before) << "ReplayModel wrote to the store";
  EXPECT_EQ(replayed->deltas, 3u);
  EXPECT_FALSE(replayed->truncated);

  const engine::MiningSession& replay = replayed->session;
  EXPECT_EQ(replay.SerializeModel(), live.SerializeModel());
  const double live_dl = live.stats().final_dl_bits;
  const double replay_dl = replay.stats().final_dl_bits;
  EXPECT_EQ(std::memcmp(&live_dl, &replay_dl, sizeof(double)), 0);
  std::vector<VertexId> all;
  for (VertexId v(0); v < live.graph().num_vertices(); ++v) all.push_back(v);
  auto live_scores = std::move(live.ScoreBatch(all)).value();
  auto replay_scores = std::move(replay.ScoreBatch(all)).value();
  ASSERT_EQ(live_scores.size(), replay_scores.size());
  for (size_t i = 0; i < all.size(); ++i) {
    const std::vector<double>& a = live_scores[i].raw;
    const std::vector<double>& b = replay_scores[i].raw;
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "vertex " << i;
    const std::vector<double>& an = live_scores[i].normalized;
    const std::vector<double>& bn = replay_scores[i].normalized;
    ASSERT_EQ(an.size(), bn.size());
    EXPECT_EQ(std::memcmp(an.data(), bn.data(), an.size() * sizeof(double)), 0)
        << "vertex " << i;
  }
}

TEST(WalReplayTest, UpdateAndLogPublishesOnlyAfterTheAppend) {
  // The store has no record named "ghost", so the WAL append fails: the
  // update must not be published, and the error must say so.
  const std::string path = ::testing::TempDir() + "/cspm_wal_ghost.cspm";
  std::remove(path.c_str());
  AttributedGraph g = SmallCommunityGraph(16);
  auto live = std::move(engine::MiningSession::Create(
                            g, engine::LiveModelOptions()))
                  .value();
  ASSERT_TRUE(live.Mine().ok());
  auto store = std::move(store::ModelStore::Create(path)).value();
  engine::ModelRegistry registry;
  auto stats = engine::UpdateAndLog(live, RandomEdgeDelta(g, 2, 91),
                                    engine::UpdateMode::kExact, &store,
                                    registry, "ghost");
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kIOError);
  EXPECT_EQ(registry.Get("ghost"), nullptr);
}

}  // namespace
}  // namespace cspm
