// Tests for the mmap-native plan section: the on-disk encode/validate
// round trip, bit-identity of mmap-view scores against a freshly compiled
// plan on the n=8000 serving stand-in, and mapped plans surviving a re-Put
// and the reuse of their pages.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cspm/scoring_plan.h"
#include "datasets/synthetic.h"
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

  // A version-1 header, sealed the way that layout was (CRC of bytes
  // [0, 104) at 104) and resealed as version 2 too: another version is
  // an I/O error in both tiers, never a section to skip.
  bad = section;
  PutU32(bad.data() + 8, 1);
  PutU32(bad.data() + 104, Crc32(bad.data(), 104));
  ResealHeader(&bad);
  for (const bool verify_slab_crcs : {false, true}) {
    const Status old_version =
        store::ValidatePlanSection(bad, verify_slab_crcs);
    EXPECT_EQ(old_version.code(), StatusCode::kIOError)
        << old_version.ToString();
    EXPECT_NE(old_version.message().find("version 1"), std::string::npos)
        << old_version.ToString();
  }
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

}  // namespace
}  // namespace cspm
