// Tests for the deep invariant validators: the graph / inverted-database /
// scoring-plan checkers must accept everything the library builds, the
// plan checker must refuse corrupted slabs, and the store auditor
// (ModelStore::CheckInvariants / Fsck, `cspm_shell fsck`) must catch
// pointer-level corruption that the per-page CRCs cannot see — pages with
// valid checksums whose chain links were truncated, spliced into another
// chain, or bent into a cycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "cspm/inverted_database.h"
#include "cspm/scoring_plan.h"
#include "cspm/verify.h"
#include "engine/session.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "graph/validate.h"
#include "store/model_store.h"
#include "store/pager.h"
#include "store/plan_section.h"
#include "testing_util.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace cspm {
namespace {

using cspm::testing::PaperExampleGraph;
using store::ModelStore;
using store::Pager;
using store::StoredModel;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

graph::AttributedGraph MediumGraph() {
  Rng rng(7);
  auto g = graph::BarabasiAlbert(/*n=*/300, /*m=*/3, /*vocabulary=*/25,
                                 /*attrs_per_vertex=*/3, &rng);
  CSPM_CHECK(g.ok());
  return std::move(g).value();
}

// --- validators accept healthy structures ---------------------------------

TEST(GraphInvariants, AcceptBuiltGraphs) {
  EXPECT_TRUE(graph::CheckInvariants(PaperExampleGraph()).ok());
  EXPECT_TRUE(graph::CheckInvariants(MediumGraph()).ok());
}

TEST(GraphInvariants, AcceptSplicedDelta) {
  const graph::AttributedGraph g = PaperExampleGraph();
  graph::GraphDelta delta;
  delta.AddVertex({"a", "c"});
  delta.AddEdge(g.num_vertices(), graph::VertexId(0));
  delta.RemoveEdge(graph::VertexId(0), graph::VertexId(1));
  delta.SetAttribute(graph::VertexId(3), "c");
  auto applied = graph::ApplyDelta(g, delta);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(graph::CheckInvariants(applied->graph).ok());
}

TEST(InvertedDbInvariants, AcceptBuildAndMerges) {
  auto idb = core::InvertedDatabase::FromGraph(PaperExampleGraph());
  ASSERT_TRUE(idb.ok());
  ASSERT_TRUE(core::CheckInvariants(*idb).ok());
  // Merge two active leafsets and re-validate the mutated structure.
  const auto& actives = idb->active_leafsets();
  ASSERT_GE(actives.size(), 2u);
  idb->MergeLeafsets(actives[0], actives[1]);
  EXPECT_TRUE(core::CheckInvariants(*idb).ok());
}

TEST(ScoringPlanInvariants, AcceptCompiledModel) {
  const graph::AttributedGraph g = MediumGraph();
  auto model = engine::MineModel(g);
  ASSERT_TRUE(model.ok());
  const core::ScoringPlan plan =
      core::ScoringPlan::Compile(*model, g.num_attribute_values());
  EXPECT_TRUE(plan.CheckInvariants().ok());
}

/// Owned, mutable copy of a plan's slabs, re-viewable through FromSlabs
/// (which checks only the O(1) geometry, so every element-level
/// corruption below reaches CheckInvariants).
struct MutableSlabs {
  std::vector<uint32_t> singleton_offsets;
  std::vector<graph::AttrId> singleton_cores;
  std::vector<double> singleton_code_lengths;
  std::vector<uint32_t> multi_offsets;
  std::vector<uint32_t> multi_units;
  std::vector<graph::AttrId> multi_cores;
  std::vector<double> multi_code_lengths;
  std::vector<uint32_t> unit_leaf_size;

  explicit MutableSlabs(const core::ScoringPlan::Slabs& sb)
      : singleton_offsets(sb.singleton_offsets.begin(),
                          sb.singleton_offsets.end()),
        singleton_cores(sb.singleton_cores.begin(), sb.singleton_cores.end()),
        singleton_code_lengths(sb.singleton_code_lengths.begin(),
                               sb.singleton_code_lengths.end()),
        multi_offsets(sb.multi_offsets.begin(), sb.multi_offsets.end()),
        multi_units(sb.multi_units.begin(), sb.multi_units.end()),
        multi_cores(sb.multi_cores.begin(), sb.multi_cores.end()),
        multi_code_lengths(sb.multi_code_lengths.begin(),
                           sb.multi_code_lengths.end()),
        unit_leaf_size(sb.unit_leaf_size.begin(), sb.unit_leaf_size.end()) {}

  Status Check(size_t num_attrs) const {
    core::ScoringPlan::Slabs view;
    view.singleton_offsets = singleton_offsets;
    view.singleton_cores = singleton_cores;
    view.singleton_code_lengths = singleton_code_lengths;
    view.multi_offsets = multi_offsets;
    view.multi_units = multi_units;
    view.multi_cores = multi_cores;
    view.multi_code_lengths = multi_code_lengths;
    view.unit_leaf_size = unit_leaf_size;
    CSPM_ASSIGN_OR_RETURN(core::ScoringPlan plan,
                          core::ScoringPlan::FromSlabs(num_attrs, view,
                                                       /*storage=*/nullptr));
    return plan.CheckInvariants();
  }
};

/// Applies `mutate` to a copy of `healthy` and expects CheckInvariants to
/// refuse the result with a message containing `expected`.
void ExpectDetected(const MutableSlabs& healthy, size_t num_attrs,
                    const char* expected,
                    const std::function<void(MutableSlabs*)>& mutate) {
  MutableSlabs bent = healthy;
  mutate(&bent);
  const Status status = bent.Check(num_attrs);
  ASSERT_FALSE(status.ok()) << "expected: " << expected;
  EXPECT_NE(status.message().find(expected), std::string::npos)
      << status.ToString();
}

TEST(ScoringPlanInvariants, DetectCorruptSlabs) {
  const graph::AttributedGraph g = MediumGraph();
  auto model = engine::MineModel(g);
  ASSERT_TRUE(model.ok());
  const size_t m = g.num_attribute_values();
  const core::ScoringPlan plan = core::ScoringPlan::Compile(*model, m);
  const MutableSlabs healthy(plan.slabs());
  ASSERT_TRUE(healthy.Check(m).ok());
  ASSERT_GE(m, 3u);
  ASSERT_FALSE(healthy.singleton_cores.empty());
  ASSERT_FALSE(healthy.multi_units.empty());

  // Postings per unit, the first posting that repeats a unit (a sibling
  // of an earlier posting), and a unit with at least three postings.
  std::vector<uint32_t> postings(healthy.unit_leaf_size.size(), 0);
  uint32_t sibling = ~uint32_t{0};
  for (uint32_t i = 0; i < healthy.multi_units.size(); ++i) {
    if (postings[healthy.multi_units[i]]++ > 0 && sibling == ~uint32_t{0}) {
      sibling = i;
    }
  }
  ASSERT_NE(sibling, ~uint32_t{0});
  size_t busy = 0;
  while (busy < postings.size() && postings[busy] < 3) ++busy;
  ASSERT_LT(busy, postings.size());
  const uint32_t too_small = postings[busy] - 1;
  const auto out_of_range = graph::AttrId(static_cast<uint32_t>(m));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Any interior offset is neither the checked front nor the checked back.
  const size_t mid = m / 2;

  ExpectDetected(healthy, m, "unknown unit", [](MutableSlabs* s) {
    s->multi_units[0] = static_cast<uint32_t>(s->unit_leaf_size.size());
  });
  ExpectDetected(healthy, m, "outside the attribute", [&](MutableSlabs* s) {
    s->singleton_cores[0] = out_of_range;
  });
  ExpectDetected(healthy, m, "outside the attribute", [&](MutableSlabs* s) {
    s->multi_cores[0] = out_of_range;
  });
  ExpectDetected(healthy, m, "invalid code length", [](MutableSlabs* s) {
    s->singleton_code_lengths[0] = -1.0;
  });
  ExpectDetected(healthy, m, "invalid code length", [&](MutableSlabs* s) {
    s->multi_code_lengths[0] = nan;
  });
  ExpectDetected(healthy, m, "invalid code length", [&](MutableSlabs* s) {
    s->singleton_code_lengths[0] = inf;
  });
  ExpectDetected(healthy, m, "singleton offsets", [&](MutableSlabs* s) {
    s->singleton_offsets[mid] = s->singleton_offsets[mid + 1] + 1;
  });
  ExpectDetected(healthy, m, "multi-leaf offsets", [&](MutableSlabs* s) {
    s->multi_offsets[mid] = s->multi_offsets[mid + 1] + 1;
  });
  ExpectDetected(healthy, m, "must be inlined", [](MutableSlabs* s) {
    s->unit_leaf_size[0] = 1;
  });
  ExpectDetected(healthy, m, "referenced by", [&](MutableSlabs* s) {
    s->unit_leaf_size[busy] = too_small;
  });
  ExpectDetected(healthy, m, "disagree", [&](MutableSlabs* s) {
    s->multi_code_lengths[sibling] += 1.0;
  });
}

// --- store audit ----------------------------------------------------------

/// A store whose single record spans several pages (the corruption tests
/// bend mid-chain links, which needs a chain longer than one page).
void BuildStore(const std::string& path) {
  const graph::AttributedGraph g = MediumGraph();
  auto model = engine::MineModel(g);
  ASSERT_TRUE(model.ok());
  auto store = ModelStore::Create(path);
  ASSERT_TRUE(store.ok());
  StoredModel stored{*model, g.dict(), g};
  ASSERT_TRUE(store->Put("planted", stored).ok());
  graph::GraphDelta delta;
  delta.AddEdge(graph::VertexId(0), graph::VertexId(250));
  ASSERT_TRUE(store->AppendDelta("planted", delta).ok());
  ASSERT_GT(store->List()[0].bytes, Pager::kPagePayload)
      << "record must span several pages for the chain-corruption tests";
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

uint32_t GetU32(const char* src) {
  const auto* p = reinterpret_cast<const uint8_t*>(src);
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void PutU32(char* dst, uint32_t v) {
  dst[0] = static_cast<char>(v & 0xFF);
  dst[1] = static_cast<char>((v >> 8) & 0xFF);
  dst[2] = static_cast<char>((v >> 16) & 0xFF);
  dst[3] = static_cast<char>((v >> 24) & 0xFF);
}

/// Rewrites one page's `next` link and re-seals the page with a correct
/// CRC: the corruption is invisible to every checksum in the file.
void BendNextLink(const std::string& path, uint32_t page_id, uint32_t next) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), (page_id + 1) * size_t{Pager::kPageSize});
  char* page = bytes.data() + page_id * size_t{Pager::kPageSize};
  PutU32(page + 4, next);
  PutU32(page, Crc32(page + 4, Pager::kPageSize - 4));
  WriteFileBytes(path, bytes);
}

uint32_t CatalogHead(const std::string& path) {
  const std::string bytes = ReadFileBytes(path);
  return GetU32(bytes.data() + 24);
}

/// First page carrying a valid page header (CRC over [4, 4096) stored at
/// [0, 4)). The plan extent lands directly after the header page on a
/// fresh store and its raw section bytes do not checksum as pages, so
/// this finds the head of the first record chain regardless of how many
/// pages the extent took.
uint32_t FirstChainPage(const std::string& path) {
  const std::string bytes = ReadFileBytes(path);
  for (size_t p = 1; (p + 1) * size_t{Pager::kPageSize} <= bytes.size(); ++p) {
    const char* page = bytes.data() + p * Pager::kPageSize;
    if (GetU32(page) == Crc32(page + 4, Pager::kPageSize - 4)) {
      return static_cast<uint32_t>(p);
    }
  }
  ADD_FAILURE() << "no header-carrying page found in " << path;
  return Pager::kNoPage;
}

/// Byte offset of the first model's plan section: the extent is the first
/// thing Put allocates on a fresh store, so it starts at page 1.
constexpr size_t kPlanSectionOffset = Pager::kPageSize;

/// Row `slab` of a plan section's slab table: {offset, length, crc32}.
template <typename Char>
Char* SlabTableRow(Char* section, size_t slab) {
  return section + store::kPlanSlabTableOffset +
         slab * store::kPlanSlabTableRowBytes;
}

/// Rewrites field `field` (0 = offset, 1 = length, 2 = crc) of slab
/// table entry `slab` and re-seals the section header CRC — the
/// corruption survives the header checksum and must be caught by the
/// geometry (or slab-CRC) validation itself.
void BendSlabTable(const std::string& path, size_t slab, size_t field,
                   uint32_t value) {
  std::string bytes = ReadFileBytes(path);
  char* section = bytes.data() + kPlanSectionOffset;
  PutU32(SlabTableRow(section, slab) + field * 4, value);
  PutU32(section + store::kPlanHeaderCrcOffset,
         Crc32(section, store::kPlanHeaderCrcOffset));
  WriteFileBytes(path, bytes);
}

TEST(StoreInvariants, AcceptHealthyStoreAcrossMutations) {
  const std::string path = TempPath("fsck_healthy.cspm");
  BuildStore(path);
  auto store = ModelStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store->CheckInvariants().ok());
  EXPECT_TRUE(store->Fsck().ok());

  // Mutations recycle pages through the free list; the audit must keep
  // accounting for every page.
  StoredModel small{{}, graph::AttributeDictionary{}, std::nullopt};
  ASSERT_TRUE(store->Put("empty", small).ok());
  ASSERT_TRUE(store->Delete("planted").ok());
  EXPECT_TRUE(store->CheckInvariants().ok());
  EXPECT_TRUE(store->Fsck().ok());
}

// The corruption tests below all target the "planted" record chain,
// located via FirstChainPage (the plan extent sits between the header and
// the first chain page since v3).

TEST(StoreInvariants, DetectTruncatedChainThatCrcMisses) {
  const std::string path = TempPath("fsck_truncated.cspm");
  BuildStore(path);
  BendNextLink(path, FirstChainPage(path), Pager::kNoPage);

  // Every checksum is valid, so Open (header + catalog) succeeds...
  auto store = ModelStore::Open(path);
  ASSERT_TRUE(store.ok());
  // ...but the audit sees the record chain stop short of its byte count.
  const Status audit = store->CheckInvariants();
  ASSERT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find("truncated or spliced"), std::string::npos)
      << audit.ToString();
  EXPECT_FALSE(store->Fsck().ok());
}

TEST(StoreInvariants, DetectChainSplicedIntoCatalog) {
  const std::string path = TempPath("fsck_spliced.cspm");
  BuildStore(path);
  const uint32_t catalog_head = CatalogHead(path);
  ASSERT_NE(catalog_head, Pager::kNoPage);
  BendNextLink(path, FirstChainPage(path), catalog_head);

  auto store = ModelStore::Open(path);
  ASSERT_TRUE(store.ok());
  const Status audit = store->CheckInvariants();
  ASSERT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find("claimed by both"), std::string::npos)
      << audit.ToString();
}

TEST(StoreInvariants, DetectChainCycle) {
  const std::string path = TempPath("fsck_cycle.cspm");
  BuildStore(path);
  const uint32_t head = FirstChainPage(path);
  BendNextLink(path, head, head);

  auto store = ModelStore::Open(path);
  ASSERT_TRUE(store.ok());
  const Status audit = store->CheckInvariants();
  ASSERT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find("cycles back"), std::string::npos)
      << audit.ToString();
}

// --- v3 plan sections and the catalog index -------------------------------

TEST(StoreInvariants, PlanSlabByteFlipPassesOpenButFailsFsck) {
  const std::string path = TempPath("fsck_slab_flip.cspm");
  BuildStore(path);
  const std::string healthy = ReadFileBytes(path);
  // Flip one bit in the middle of each slab in turn. The two-tier
  // contract: the O(1) serving open does not sweep slab CRCs, fsck does,
  // and names the slab. (The middle element of an offset table is neither
  // its first nor its last entry, which the open does check.)
  for (size_t slab = 0; slab < store::kPlanSlabCount; ++slab) {
    SCOPED_TRACE(::testing::Message() << "slab " << slab);
    const char* row = SlabTableRow(healthy.data() + kPlanSectionOffset, slab);
    const uint32_t offset = GetU32(row);
    const uint32_t length = GetU32(row + 4);
    ASSERT_GT(length, 8u);
    std::string bytes = healthy;
    bytes[kPlanSectionOffset + offset + (length / 8) * 4 + 1] ^= 0x20;
    WriteFileBytes(path, bytes);

    auto store = ModelStore::Open(path);
    ASSERT_TRUE(store.ok());
    EXPECT_TRUE(store->OpenPlan("planted").ok());
    const Status fsck = store->Fsck();
    ASSERT_FALSE(fsck.ok());
    EXPECT_NE(fsck.message().find("plan section of 'planted'"),
              std::string::npos)
        << fsck.ToString();
    EXPECT_NE(fsck.message().find("checksum mismatch"), std::string::npos)
        << fsck.ToString();
  }
}

TEST(StoreInvariants, DetectPlanSectionMisalignedSlabOffset) {
  const std::string path = TempPath("fsck_misaligned.cspm");
  BuildStore(path);
  // Shift the first slab off its 64-byte boundary (header CRC re-sealed,
  // so only the geometry check can see it). Already the O(1) tier — the
  // serving open itself — must refuse.
  BendSlabTable(path, /*slab=*/0, /*field=*/0,
                static_cast<uint32_t>(store::kPlanSectionHeaderBytes + 4));
  auto store = ModelStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->OpenPlan("planted").ok());
  EXPECT_FALSE(store->Fsck().ok());
}

TEST(StoreInvariants, DetectPlanSectionOverlappingSlabs) {
  const std::string path = TempPath("fsck_overlap.cspm");
  BuildStore(path);
  // Point the second slab at the first slab's offset: lengths and
  // alignment stay plausible, but the ranges overlap.
  BendSlabTable(path, /*slab=*/1, /*field=*/0,
                static_cast<uint32_t>(store::kPlanSectionHeaderBytes));
  auto store = ModelStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->OpenPlan("planted").ok());
  EXPECT_FALSE(store->Fsck().ok());
}

TEST(StoreInvariants, DetectPlanSectionTruncatedSlab) {
  const std::string path = TempPath("fsck_trunc_slab.cspm");
  BuildStore(path);
  // Shrink the multi-leaf unit slab's recorded length below what the
  // header counts promise.
  constexpr size_t kMultiUnits = 4;
  const std::string bytes = ReadFileBytes(path);
  const uint32_t len =
      GetU32(SlabTableRow(bytes.data() + kPlanSectionOffset, kMultiUnits) + 4);
  ASSERT_GT(len, 0u);
  BendSlabTable(path, kMultiUnits, /*field=*/1, len - 4);
  auto store = ModelStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->OpenPlan("planted").ok());
  EXPECT_FALSE(store->Fsck().ok());
}

TEST(StoreInvariants, DetectCatalogIndexLeafCycle) {
  const std::string path = TempPath("fsck_index_cycle.cspm");
  auto store = ModelStore::Create(path);
  ASSERT_TRUE(store.ok());
  // Enough tiny models that the catalog index spans several leaves under
  // an interior root.
  std::vector<std::pair<std::string, StoredModel>> batch;
  for (int i = 0; i < 300; ++i) {
    batch.emplace_back(StrFormat("model-%04d", i),
                       StoredModel{{}, graph::AttributeDictionary{},
                                   std::nullopt});
  }
  ASSERT_TRUE(store->PutMany(batch).ok());

  // With single-page records (next == 0) and next-free interior nodes,
  // the only header-carrying pages with a nonzero next link are the
  // non-rightmost catalog leaves. Bend one into a self-loop.
  const std::string bytes = ReadFileBytes(path);
  uint32_t leaf = Pager::kNoPage;
  for (size_t p = 1; (p + 1) * size_t{Pager::kPageSize} <= bytes.size();
       ++p) {
    const char* page = bytes.data() + p * Pager::kPageSize;
    if (GetU32(page) == Crc32(page + 4, Pager::kPageSize - 4) &&
        GetU32(page + 4) != Pager::kNoPage) {
      leaf = static_cast<uint32_t>(p);
      break;
    }
  }
  ASSERT_NE(leaf, Pager::kNoPage) << "no multi-leaf catalog index built";
  BendNextLink(path, leaf, leaf);

  auto reopened = ModelStore::Open(path);
  ASSERT_TRUE(reopened.ok());  // open reads header + root only
  const Status audit = reopened->CheckInvariants();
  ASSERT_FALSE(audit.ok());
  // The self-loop trips either the leaf-level link check or the duplicate
  // entry check, depending on which walk reaches it first.
  EXPECT_TRUE(audit.message().find("leaf level") != std::string::npos ||
              audit.message().find("duplicate") != std::string::npos)
      << audit.ToString();
  EXPECT_FALSE(reopened->Fsck().ok());
}

}  // namespace
}  // namespace cspm
