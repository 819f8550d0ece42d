// Tests for the mmap-native plan section (store format v3): the on-disk
// encode/validate round trip, bit-identity of mmap-view scores against a
// freshly compiled plan on the n=8000 serving stand-in, and
// read-compatibility with committed store files produced by older
// binaries: a v2 store (no plan sections) and a v3 store whose plan
// section is the legacy version 1 layout, both served by
// ModelRegistry::LoadModel through its compile fallback.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cspm/scoring_plan.h"
#include "datasets/synthetic.h"
#include "engine/model_registry.h"
#include "engine/session.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "store/model_store.h"
#include "store/plan_section.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace cspm {
namespace {

using store::ModelStore;
using store::StoredModel;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

graph::AttributedGraph SmallGraph(uint64_t seed = 7) {
  Rng rng(seed);
  auto g = graph::BarabasiAlbert(/*n=*/200, /*m=*/3, /*vocabulary=*/20,
                                 /*attrs_per_vertex=*/3, &rng);
  CSPM_CHECK(g.ok());
  return std::move(g).value();
}

core::CspmModel Mine(const graph::AttributedGraph& g) {
  engine::MiningOptions opts;
  opts.record_iteration_stats = false;
  auto model = engine::MineModel(g, opts);
  CSPM_CHECK(model.ok());
  return std::move(model).value();
}

/// Exact (bitwise, via ==) score comparison over every vertex of `g`.
void ExpectBitIdenticalScores(const graph::AttributedGraph& g,
                              const core::ScoringPlan& a,
                              const core::ScoringPlan& b) {
  ASSERT_EQ(a.num_attribute_values(), b.num_attribute_values());
  std::vector<graph::AttrId> neighbourhood;
  for (graph::VertexId v(0); v < g.num_vertices(); ++v) {
    neighbourhood.clear();
    core::GatherNeighbourhoodAttrs(g, v, &neighbourhood);
    const core::AttributeScores sa = a.Score(neighbourhood);
    const core::AttributeScores sb = b.Score(neighbourhood);
    ASSERT_EQ(sa.raw.size(), sb.raw.size());
    for (size_t i = 0; i < sa.raw.size(); ++i) {
      // EXPECT_EQ on doubles is exact — the bit-identity contract.
      ASSERT_EQ(sa.raw[i], sb.raw[i])
          << "raw score diverged at vertex " << v.value() << " attr " << i;
      ASSERT_EQ(sa.normalized[i], sb.normalized[i])
          << "normalized score diverged at vertex " << v.value() << " attr "
          << i;
    }
  }
}

/// Bitwise (memcmp) equality of two score vectors.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Scores every vertex of `g` through `served` and through a fresh
/// compile of `model`, bitwise.
void ExpectServesLikeFreshCompile(const graph::AttributedGraph& g,
                                  const core::CspmModel& model,
                                  const core::ScoringPlan& served) {
  const core::ScoringPlan compiled =
      core::ScoringPlan::Compile(model, g.num_attribute_values());
  std::vector<graph::AttrId> neighbourhood;
  for (graph::VertexId v(0); v < g.num_vertices(); ++v) {
    core::GatherNeighbourhoodAttrs(g, v, &neighbourhood);
    const core::AttributeScores a = served.Score(neighbourhood);
    const core::AttributeScores b = compiled.Score(neighbourhood);
    ASSERT_TRUE(SameBits(a.raw, b.raw)) << "raw, vertex " << v.value();
    ASSERT_TRUE(SameBits(a.normalized, b.normalized))
        << "normalized, vertex " << v.value();
  }
}

// --- encode / validate / view round trip ----------------------------------

TEST(PlanSection, EncodeValidateRoundTrip) {
  const graph::AttributedGraph g = SmallGraph();
  const core::CspmModel model = Mine(g);
  const core::ScoringPlan plan =
      core::ScoringPlan::Compile(model, g.num_attribute_values());

  const std::string section = store::EncodePlanSection(plan);
  ASSERT_GE(section.size(), store::kPlanSectionHeaderBytes);
  EXPECT_EQ(section.compare(0, 8, store::kPlanSectionMagic), 0);
  EXPECT_TRUE(store::ValidatePlanSection(section, /*verify_slab_crcs=*/false)
                  .ok());
  EXPECT_TRUE(store::ValidatePlanSection(section, /*verify_slab_crcs=*/true)
                  .ok());

  // Wrap the encoded bytes as a view (no mmap needed — the same code path
  // serves both) and check full equivalence.
  auto holder = std::make_shared<std::string>(section);
  auto view_or =
      store::PlanFromSectionBytes(holder->data(), holder->size(), holder);
  ASSERT_TRUE(view_or.ok()) << view_or.status().ToString();
  const core::ScoringPlan& view = **view_or;
  EXPECT_TRUE(view.is_view());
  EXPECT_FALSE(plan.is_view());
  EXPECT_EQ(view.num_units(), plan.num_units());
  EXPECT_TRUE(view.CheckInvariants().ok());
  ExpectBitIdenticalScores(g, plan, view);
}

/// Row `slab` of a section's slab table: {offset, length, crc32}.
char* SlabTableRow(std::string* section, size_t slab) {
  return section->data() + store::kPlanSlabTableOffset +
         slab * store::kPlanSlabTableRowBytes;
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void PutU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }

void ResealHeader(std::string* section) {
  PutU32(section->data() + store::kPlanHeaderCrcOffset,
         Crc32(section->data(), store::kPlanHeaderCrcOffset));
}

TEST(PlanSection, ValidateRejectsTamperedBytes) {
  const graph::AttributedGraph g = SmallGraph();
  const core::ScoringPlan plan =
      core::ScoringPlan::Compile(Mine(g), g.num_attribute_values());
  std::string section = store::EncodePlanSection(plan);

  // Header flip: both tiers refuse.
  std::string bad = section;
  bad[13] ^= 0x01;
  EXPECT_FALSE(
      store::ValidatePlanSection(bad, /*verify_slab_crcs=*/false).ok());

  // Bad header CRC over an intact header: both tiers refuse.
  bad = section;
  bad[store::kPlanHeaderCrcOffset] ^= 0x01;
  EXPECT_FALSE(
      store::ValidatePlanSection(bad, /*verify_slab_crcs=*/false).ok());

  // One bit flipped in each slab: the O(1) tier accepts, the fsck tier
  // refuses and names the slab's checksum.
  for (size_t slab = 0; slab < store::kPlanSlabCount; ++slab) {
    SCOPED_TRACE(::testing::Message() << "slab " << slab);
    bad = section;
    const char* row = SlabTableRow(&bad, slab);
    const uint32_t offset = GetU32(row);
    const uint32_t length = GetU32(row + 4);
    ASSERT_GT(length, 0u);
    bad[offset + length / 2] ^= 0x01;
    EXPECT_TRUE(
        store::ValidatePlanSection(bad, /*verify_slab_crcs=*/false).ok());
    const Status fsck_tier =
        store::ValidatePlanSection(bad, /*verify_slab_crcs=*/true);
    ASSERT_FALSE(fsck_tier.ok());
    EXPECT_NE(fsck_tier.message().find("checksum mismatch"), std::string::npos)
        << fsck_tier.ToString();
  }

  // Overlapping slabs (header re-sealed, so only the geometry check sees
  // it): the second slab claims the first slab's offset.
  bad = section;
  PutU32(SlabTableRow(&bad, 1), GetU32(SlabTableRow(&bad, 0)));
  ResealHeader(&bad);
  EXPECT_FALSE(
      store::ValidatePlanSection(bad, /*verify_slab_crcs=*/false).ok());

  // Truncation: the O(1) tier refuses (geometry escapes the section).
  bad = section.substr(0, section.size() - 1);
  EXPECT_FALSE(
      store::ValidatePlanSection(bad, /*verify_slab_crcs=*/false).ok());
}

// --- mmap view through the store, n=8000 stand-in -------------------------

TEST(PlanSection, MmapViewBitIdenticalOnServingStandIn) {
  const graph::AttributedGraph g = datasets::MakePokecLike(1, 8000).value();
  const core::CspmModel model = Mine(g);
  const core::ScoringPlan compiled =
      core::ScoringPlan::Compile(model, g.num_attribute_values());

  const std::string path = TempPath("plan_section_8000.cspm");
  auto store = ModelStore::Create(path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("standin", {model, g.dict(), std::nullopt}).ok());

  // Reopen from the committed image, the way a serving process would.
  auto reopened = ModelStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  auto plan_or = reopened->OpenPlan("standin");
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  const std::shared_ptr<const core::ScoringPlan> view = *plan_or;
  EXPECT_TRUE(view->is_view());
  EXPECT_TRUE(view->CheckInvariants().ok());
  ExpectBitIdenticalScores(g, compiled, *view);
  std::remove(path.c_str());
}

// --- mapped plans across in-place commits ----------------------------------

TEST(PlanSection, MappedOldPlanSurvivesRePutAndPageReuse) {
  // Commits write in place, and on Linux a write shows through the
  // MAP_PRIVATE pages of a view that were not copied. The old section's
  // pages are freed by the re-Put; its pin must keep every later commit —
  // WAL appends and Puts of same-sized models that would fit its run
  // exactly — off them for as long as the view lives.
  const graph::AttributedGraph g_old = SmallGraph(7);
  const graph::AttributedGraph g_new = SmallGraph(8);
  const core::CspmModel old_model = Mine(g_old);
  const core::CspmModel new_model = Mine(g_new);
  const std::string path = TempPath("plan_section_pinned.cspm");
  std::remove(path.c_str());
  auto store = ModelStore::Create(path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("m", {old_model, g_old.dict(), g_old}).ok());
  auto old_view = store->OpenPlan("m");
  ASSERT_TRUE(old_view.ok()) << old_view.status().ToString();
  ASSERT_TRUE((*old_view)->is_view());

  ASSERT_TRUE(store->Put("m", {new_model, g_new.dict(), g_new}).ok());
  graph::GraphDelta delta;
  delta.AddEdge(graph::VertexId(0), graph::VertexId(1));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store->AppendDelta("m", delta).ok()) << i;
    ASSERT_TRUE(store
                    ->Put(StrFormat("other%d", i % 4),
                          {old_model, g_old.dict(), std::nullopt})
                    .ok())
        << i;
  }
  ExpectServesLikeFreshCompile(g_old, old_model, **old_view);
  EXPECT_TRUE(store->Fsck().ok());

  auto new_view = store->OpenPlan("m");
  ASSERT_TRUE(new_view.ok());
  ExpectServesLikeFreshCompile(g_new, new_model, **new_view);
  std::remove(path.c_str());
}

// --- v2 read-compatibility -------------------------------------------------

/// Copies a committed store fixture into the temp dir.
std::string CopyFixture(const std::string& fixture, const std::string& name) {
  const std::string src = std::string(CSPM_TEST_DATA_DIR) + "/" + fixture;
  const std::string dst = TempPath(name);
  std::ifstream in(src, std::ios::binary);
  CSPM_CHECK(in.good());
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  CSPM_CHECK(out.good());
  return dst;
}

/// The v2 fixture was written by a pre-v3 binary: linear catalog chain,
/// no plan sections.
std::string CopyV2Fixture(const std::string& name) {
  return CopyFixture("v2_store.cspm", name);
}

TEST(V2Compat, OpensReadsAndServesWithoutPlanSection) {
  const std::string path = CopyV2Fixture("v2_compat_read.cspm");
  auto store = ModelStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->size(), 1u);
  EXPECT_TRUE(store->Contains("v2model"));
  EXPECT_TRUE(store->Fsck().ok());

  auto stored = store->Get("v2model");
  ASSERT_TRUE(stored.ok());
  ASSERT_TRUE(stored->graph.has_value());
  EXPECT_EQ(store->List()[0].plan_bytes, 0u);

  // The WAL written by the old binary is still replayable.
  auto wal = store->ReadWal("v2model");
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal->deltas.size(), 1u);
  EXPECT_FALSE(wal->truncated);

  // No plan section yet: the direct open refuses with the upgrade hint,
  // and the registry compiles the plan from the record it decoded.
  auto direct = store->OpenPlan("v2model");
  ASSERT_FALSE(direct.ok());
  EXPECT_NE(direct.status().message().find("no plan section"),
            std::string::npos)
      << direct.status().ToString();
  engine::ModelRegistry registry;
  const Status loaded = registry.LoadModel(*store, "v2model");
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  const engine::ModelRegistry::Handle fallback = registry.Get("v2model");
  EXPECT_FALSE(fallback->plan->is_view());
  ExpectServesLikeFreshCompile(*stored->graph, stored->model,
                               *fallback->plan);
  std::remove(path.c_str());
}

TEST(V2Compat, FirstMutationUpgradesToV3InPlace) {
  const std::string path = CopyV2Fixture("v2_compat_upgrade.cspm");
  core::CspmModel model;
  graph::AttributedGraph g = [&] {
    auto store = ModelStore::Open(path);
    CSPM_CHECK(store.ok());
    auto stored = store->Get("v2model");
    CSPM_CHECK(stored.ok());
    model = stored->model;
    graph::AttributedGraph graph = std::move(*stored->graph);

    // Scores of the record decoded by this (v3) binary must match what
    // the v2 binary persisted — then re-Put upgrades the file in place.
    CSPM_CHECK(store->Put("v2model", {model, graph.dict(), graph}).ok());
    return graph;
  }();

  auto upgraded = ModelStore::Open(path);
  ASSERT_TRUE(upgraded.ok()) << upgraded.status().ToString();
  EXPECT_TRUE(upgraded->Fsck().ok());
  ASSERT_FALSE(upgraded->List().empty());
  EXPECT_GT(upgraded->List()[0].plan_bytes, 0u);
  // Put compacts the WAL.
  auto wal = upgraded->ReadWal("v2model");
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal->deltas.empty());

  auto plan_or = upgraded->OpenPlan("v2model");
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  EXPECT_TRUE((*plan_or)->is_view());
  const core::ScoringPlan compiled =
      core::ScoringPlan::Compile(model, g.num_attribute_values());
  ExpectBitIdenticalScores(g, compiled, **plan_or);
  std::remove(path.c_str());
}

// --- legacy plan-section read-compatibility --------------------------------

/// The plan_v1 fixture was written by a binary that laid plans out per
/// star (section magic CSPMPLN3, version 1): one model "planv1" with its
/// graph snapshot, its plan section at the first extent.
std::string CopyPlanV1Fixture(const std::string& name) {
  return CopyFixture("plan_v1_store.cspm", name);
}

TEST(PlanV1Compat, OpensThroughCompileFallbackAndServesBitIdentically) {
  const std::string path = CopyPlanV1Fixture("plan_v1_read.cspm");
  {
    // The fixture really holds a version-1 section.
    std::ifstream in(path, std::ios::binary);
    std::string header(12, '\0');
    in.seekg(4096);
    in.read(header.data(), 12);
    ASSERT_TRUE(in.good());
    EXPECT_EQ(header.compare(0, 8, store::kPlanSectionMagic), 0);
    EXPECT_EQ(GetU32(header.data() + 8), 1u);
  }
  auto store = ModelStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store->Contains("planv1"));
  EXPECT_GT(store->List()[0].plan_bytes, 0u);
  // Legacy is not corrupt: the audit passes.
  const Status fsck = store->Fsck();
  EXPECT_TRUE(fsck.ok()) << fsck.ToString();

  // The direct open treats the old section as absent...
  auto direct = store->OpenPlan("planv1");
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kNotFound);
  EXPECT_NE(direct.status().message().find("legacy plan section"),
            std::string::npos)
      << direct.status().ToString();
  // ...and the registry compiles the plan from the record it decoded.
  engine::ModelRegistry registry;
  const Status loaded = registry.LoadModel(*store, "planv1");
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  const engine::ModelRegistry::Handle fallback = registry.Get("planv1");
  EXPECT_FALSE(fallback->plan->is_view());

  auto stored = store->Get("planv1");
  ASSERT_TRUE(stored.ok());
  ASSERT_TRUE(stored->graph.has_value());
  ExpectServesLikeFreshCompile(*stored->graph, stored->model,
                               *fallback->plan);
  std::remove(path.c_str());
}

TEST(PlanV1Compat, RePutWritesCurrentSectionOpenedAsMmapView) {
  const std::string path = CopyPlanV1Fixture("plan_v1_upgrade.cspm");
  StoredModel stored = [&] {
    auto store = ModelStore::Open(path);
    CSPM_CHECK(store.ok());
    auto record = store->Get("planv1");
    CSPM_CHECK(record.ok());
    CSPM_CHECK(store->Put("planv1", *record).ok());
    return *std::move(record);
  }();

  auto upgraded = ModelStore::Open(path);
  ASSERT_TRUE(upgraded.ok()) << upgraded.status().ToString();
  const Status fsck = upgraded->Fsck();
  EXPECT_TRUE(fsck.ok()) << fsck.ToString();
  auto plan_or = upgraded->OpenPlan("planv1");
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  EXPECT_TRUE((*plan_or)->is_view());
  ASSERT_TRUE(stored.graph.has_value());
  ExpectServesLikeFreshCompile(*stored.graph, stored.model, **plan_or);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cspm
