// Tests for the store layer: codec round trips, pager paging/free-list/
// atomic-commit behaviour, the ModelStore catalog, and — critically —
// clean Status errors (no crashes) on every corruption mode: truncation,
// bad magic, flipped bytes (CRC), and versions from the future.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/session.h"
#include "obs/metrics.h"
#include "store/codec.h"
#include "store/model_store.h"
#include "store/pager.h"
#include "testing_util.h"
#include "util/string_util.h"

namespace cspm::store {
namespace {

using cspm::testing::PaperExampleGraph;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
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

/// A mined model on the paper's running example, with its graph.
struct MinedFixture {
  graph::AttributedGraph graph;
  core::CspmModel model;
};

MinedFixture MineExample() {
  MinedFixture f;
  f.graph = PaperExampleGraph();
  f.model = engine::MineModel(f.graph).value();
  return f;
}

// --- codec ----------------------------------------------------------------

TEST(Codec, VarintRoundTripsEdgeValues) {
  const std::vector<uint64_t> values = {0,    1,        127,        128,
                                        300,  16383,    16384,      UINT32_MAX,
                                        1ull << 62, UINT64_MAX};
  Encoder enc;
  for (uint64_t v : values) enc.PutVarint(v);
  Decoder dec(enc.data());
  for (uint64_t v : values) {
    auto got = dec.ReadVarint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(dec.AtEnd());
}

TEST(Codec, DoubleRoundTripsBitExactly) {
  const std::vector<double> values = {0.0, -0.0, 1.0, -1.5, 3.141592653589793,
                                      1e-300, 1e300, 123456.789012345678};
  Encoder enc;
  for (double v : values) enc.PutDouble(v);
  Decoder dec(enc.data());
  for (double v : values) {
    auto got = dec.ReadDouble();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);  // bit-exact, not NEAR
  }
}

TEST(Codec, DeltaIdsRoundTrip) {
  const std::vector<uint32_t> ids = {0, 1, 5, 6, 1000, 4000000000u};
  Encoder enc;
  enc.PutDeltaIds(ids);
  enc.PutDeltaIds(std::vector<uint32_t>{});
  Decoder dec(enc.data());
  std::vector<uint32_t> got;
  ASSERT_TRUE(dec.ReadDeltaIds(&got).ok());
  EXPECT_EQ(got, ids);
  ASSERT_TRUE(dec.ReadDeltaIds(&got).ok());
  EXPECT_TRUE(got.empty());
}

TEST(Codec, TruncatedInputFailsCleanly) {
  Encoder enc;
  enc.PutVarint(123456789);
  enc.PutString("hello");
  enc.PutDouble(2.5);
  const std::string& bytes = enc.data();
  // Every prefix either decodes a shorter value or errors — never crashes.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Decoder dec(std::string_view(bytes).substr(0, cut));
    auto v = dec.ReadVarint();
    if (!v.ok()) continue;
    auto s = dec.ReadString();
    if (!s.ok()) continue;
    auto d = dec.ReadDouble();
    EXPECT_FALSE(d.ok()) << "cut=" << cut;
  }
}

TEST(Codec, DictionaryRoundTrips) {
  graph::AttributeDictionary dict;
  dict.Intern("rock");
  dict.Intern("rap");
  dict.Intern("sládkovičovo");  // non-ASCII survives (bytes, not glyphs)
  Encoder enc;
  EncodeDictionary(dict, &enc);
  Decoder dec(enc.data());
  auto decoded = DecodeDictionary(&dec);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), dict.size());
  for (graph::AttrId id(0); id.index() < dict.size(); ++id) {
    EXPECT_EQ(decoded->Name(id), dict.Name(id));
  }
}

TEST(Codec, ModelRoundTripsBitExactly) {
  auto f = MineExample();
  Encoder enc;
  EncodeModel(f.model, &enc);
  Decoder dec(enc.data());
  auto decoded = DecodeModel(&dec);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->astars.size(), f.model.astars.size());
  for (size_t i = 0; i < f.model.astars.size(); ++i) {
    const auto& a = f.model.astars[i];
    const auto& b = decoded->astars[i];
    EXPECT_EQ(cspm::testing::Values(a.core_values),
              cspm::testing::Values(b.core_values));
    EXPECT_EQ(cspm::testing::Values(a.leaf_values),
              cspm::testing::Values(b.leaf_values));
    EXPECT_EQ(a.frequency, b.frequency);
    EXPECT_EQ(a.core_total, b.core_total);
    EXPECT_EQ(a.coreset_frequency, b.coreset_frequency);
    EXPECT_EQ(a.code_length_bits, b.code_length_bits);
  }
  EXPECT_EQ(decoded->stats.initial_dl_bits, f.model.stats.initial_dl_bits);
  EXPECT_EQ(decoded->stats.final_dl_bits, f.model.stats.final_dl_bits);
  EXPECT_EQ(decoded->stats.iterations, f.model.stats.iterations);
  EXPECT_EQ(decoded->stats.per_iteration.size(),
            f.model.stats.per_iteration.size());
}

TEST(Codec, RemapModelAttributesRemapsAndResortsEveryStar) {
  auto f = MineExample();
  const graph::AttributeDictionary& from = f.graph.dict();
  // The model's names in reverse order behind one extra name: every id
  // moves, and ascending lists come out descending until re-sorted.
  graph::AttributeDictionary to;
  to.Intern("unused");
  for (size_t i = from.size(); i-- > 0;) {
    to.Intern(from.Name(graph::AttrId(static_cast<uint32_t>(i))));
  }
  const auto mapped = [&](std::span<const graph::AttrId> ids) {
    std::vector<graph::AttrId> out;
    for (graph::AttrId id : ids) out.push_back(to.Find(from.Name(id)));
    std::sort(out.begin(), out.end());
    return out;
  };
  auto remapped = RemapModelAttributes(f.model, from, to);
  ASSERT_TRUE(remapped.ok()) << remapped.status().ToString();
  ASSERT_EQ(remapped->astars.size(), f.model.astars.size());
  bool resorted = false;
  for (size_t i = 0; i < f.model.astars.size(); ++i) {
    const core::AStarRef a = f.model.astars[i];
    const core::AStarRef b = remapped->astars[i];
    EXPECT_EQ(cspm::testing::Values(b.core_values), mapped(a.core_values))
        << i;
    EXPECT_EQ(cspm::testing::Values(b.leaf_values), mapped(a.leaf_values))
        << i;
    EXPECT_EQ(b.frequency, a.frequency) << i;
    EXPECT_EQ(b.core_total, a.core_total) << i;
    EXPECT_EQ(b.coreset_frequency, a.coreset_frequency) << i;
    EXPECT_EQ(std::memcmp(&b.code_length_bits, &a.code_length_bits,
                          sizeof(double)),
              0)
        << i;
    if (a.leaf_values.size() >= 2) resorted = true;
  }
  EXPECT_TRUE(resorted) << "no multi-value list exercised the re-sort";
  EXPECT_EQ(remapped->stats.final_dl_bits, f.model.stats.final_dl_bits);

  // A name the target dictionary lacks is rejected.
  const std::string& dropped = from.Name(f.model.astars[0].core_values[0]);
  graph::AttributeDictionary partial;
  for (graph::AttrId id(0); id.index() < from.size(); ++id) {
    if (from.Name(id) != dropped) partial.Intern(from.Name(id));
  }
  auto missing = RemapModelAttributes(f.model, from, partial);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().ToString().find(dropped), std::string::npos);
}

TEST(Codec, GraphSnapshotRoundTrips) {
  auto g = PaperExampleGraph();
  Encoder enc;
  EncodeGraph(g, &enc);
  Decoder dec(enc.data());
  auto decoded = DecodeGraph(&dec, g.dict());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->num_vertices(), g.num_vertices());
  EXPECT_EQ(decoded->num_edges(), g.num_edges());
  for (graph::VertexId v(0); v < g.num_vertices(); ++v) {
    const auto attrs_a = g.Attributes(v);
    const auto attrs_b = decoded->Attributes(v);
    EXPECT_TRUE(std::equal(attrs_a.begin(), attrs_a.end(), attrs_b.begin(),
                           attrs_b.end()));
    const auto nbrs_a = g.Neighbors(v);
    const auto nbrs_b = decoded->Neighbors(v);
    EXPECT_TRUE(std::equal(nbrs_a.begin(), nbrs_a.end(), nbrs_b.begin(),
                           nbrs_b.end()));
  }
}

// --- pager ----------------------------------------------------------------

TEST(Pager, CreateOpenRoundTrip) {
  const std::string path = TempPath("pager_roundtrip.cspm");
  {
    auto pager = Pager::Create(path).value();
    EXPECT_EQ(pager.num_pages(), 1u);
  }
  EXPECT_TRUE(Pager::FileHasMagic(path));
  auto reopened = Pager::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->num_pages(), 1u);
  std::remove(path.c_str());
}

TEST(Pager, ChainSpansPagesAndPersists) {
  const std::string path = TempPath("pager_chain.cspm");
  // 3.5 pages of patterned payload.
  std::string bytes(Pager::kPagePayload * 7 / 2, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 131) & 0xFF);
  }
  uint32_t head = 0;
  {
    auto pager = Pager::Create(path).value();
    head = pager.WriteChain(bytes).value();
    ASSERT_TRUE(pager.Commit().ok());
    EXPECT_EQ(pager.num_pages(), 5u);  // header + 4 chain pages
  }
  auto pager = Pager::Open(path).value();
  auto read = pager.ReadChain(head);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, bytes);
  std::remove(path.c_str());
}

TEST(Pager, FreeListRecyclesPages) {
  const std::string path = TempPath("pager_freelist.cspm");
  auto pager = Pager::Create(path).value();
  const std::string a(Pager::kPagePayload * 2, 'a');
  const uint32_t head_a = pager.WriteChain(a).value();
  ASSERT_TRUE(pager.Commit().ok());
  const uint32_t pages_after_a = pager.num_pages();

  // Pages freed by a commit are still reachable from the header it
  // replaced, so they are allocated from the next commit on.
  ASSERT_TRUE(pager.FreeChain(head_a).ok());
  ASSERT_TRUE(pager.Commit().ok());
  EXPECT_GT(pager.num_pages(), pages_after_a);  // the free list's chain
  const uint32_t pages_after_free = pager.num_pages();
  const std::string b(Pager::kPagePayload * 2, 'b');
  const uint32_t head_b = pager.WriteChain(b).value();
  ASSERT_TRUE(pager.Commit().ok());
  // The freed pages were reused: the file did not grow.
  EXPECT_EQ(pager.num_pages(), pages_after_free);
  EXPECT_EQ(pager.ReadChain(head_b).value(), b);
  EXPECT_EQ(Pager::Open(path).value().ReadChain(head_b).value(), b);
  std::remove(path.c_str());
}

TEST(Pager, ShadowCommitKeepsAReadersSnapshotForOneCommit) {
  const std::string path = TempPath("pager_atomic.cspm");
  auto pager = Pager::Create(path).value();
  const uint32_t head = pager.WriteChain("payload one").value();
  ASSERT_TRUE(pager.Commit().ok());

  // A reader that opened the old image keeps reading it after the writer
  // commits a new one in place: the commit writes only pages the old
  // header cannot reach, and the pages it frees are not reused before
  // the commit after it.
  auto reader = Pager::Open(path).value();
  ASSERT_TRUE(pager.FreeChain(head).ok());
  const uint32_t new_head = pager.WriteChain("payload two, longer").value();
  ASSERT_TRUE(pager.Commit().ok());

  EXPECT_EQ(reader.ReadChain(head).value(), "payload one");
  auto fresh = Pager::Open(path).value();
  EXPECT_EQ(fresh.ReadChain(new_head).value(), "payload two, longer");
  std::remove(path.c_str());
}

TEST(Pager, CommitsToAPathWithoutADirectoryPart) {
  // A bare file name lives in the working directory, which Create's
  // whole-image commit syncs after the rename.
  struct RestoreCwd {
    std::filesystem::path dir = std::filesystem::current_path();
    ~RestoreCwd() { std::filesystem::current_path(dir); }
  } restore_cwd;
  std::filesystem::current_path(::testing::TempDir());
  const std::string name = "pager_bare_name.cspm";
  {
    auto pager = Pager::Create(name);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    const uint32_t head = pager->WriteChain("bare").value();
    ASSERT_TRUE(pager->Commit().ok());
    EXPECT_EQ(Pager::Open(name).value().ReadChain(head).value(), "bare");
  }
  std::remove(name.c_str());
}

// --- model store ----------------------------------------------------------

TEST(ModelStore, PutGetListDeleteRoundTrip) {
  const std::string path = TempPath("store_roundtrip.cspm");
  std::remove(path.c_str());
  auto f = MineExample();
  {
    auto store = ModelStore::Create(path).value();
    StoredModel stored;
    stored.model = f.model;
    stored.dict = f.graph.dict();
    stored.graph = f.graph;
    ASSERT_TRUE(store.Put("example", stored).ok());
    stored.graph.reset();
    ASSERT_TRUE(store.Put("no-graph", stored).ok());
  }

  auto store = ModelStore::Open(path).value();
  EXPECT_EQ(store.size(), 2u);
  const auto infos = store.List();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].name, "example");
  EXPECT_TRUE(infos[0].has_graph);
  EXPECT_EQ(infos[1].name, "no-graph");
  EXPECT_FALSE(infos[1].has_graph);

  auto got = store.Get("example");
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->model.astars.size(), f.model.astars.size());
  for (size_t i = 0; i < f.model.astars.size(); ++i) {
    EXPECT_EQ(got->model.astars[i].code_length_bits,
              f.model.astars[i].code_length_bits);
    EXPECT_EQ(cspm::testing::Values(got->model.astars[i].core_values),
              cspm::testing::Values(f.model.astars[i].core_values));
  }
  ASSERT_TRUE(got->graph.has_value());
  EXPECT_EQ(got->graph->num_vertices(), f.graph.num_vertices());

  EXPECT_FALSE(store.Get("missing").ok());
  ASSERT_TRUE(store.Delete("example").ok());
  EXPECT_FALSE(store.Contains("example"));
  EXPECT_FALSE(store.Delete("example").ok());

  auto reopened = ModelStore::Open(path).value();
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_TRUE(reopened.Contains("no-graph"));
  std::remove(path.c_str());
}

TEST(ModelStore, PutReplacesAndRecyclesPages) {
  const std::string path = TempPath("store_replace.cspm");
  std::remove(path.c_str());
  auto f = MineExample();
  auto store = ModelStore::Create(path).value();
  StoredModel stored;
  stored.model = f.model;
  stored.dict = f.graph.dict();
  ASSERT_TRUE(store.Put("m", stored).ok());
  // A replace writes the new chain before freeing the old one (so a failed
  // Put never loses the previous version), which grows the file once by
  // one record; after that, freed pages recycle and the size is stable.
  ASSERT_TRUE(store.Put("m", stored).ok());
  const auto steady_bytes = ReadFileBytes(path).size();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(store.Put("m", stored).ok());
  EXPECT_EQ(ReadFileBytes(path).size(), steady_bytes);
  EXPECT_EQ(store.size(), 1u);
  std::remove(path.c_str());
}

TEST(ModelStore, OpenOrCreateNeverClobbersExistingFiles) {
  const std::string path = TempPath("store_openorcreate.cspm");
  // An existing file that is not a store must be refused, not destroyed.
  WriteFileBytes(path, "precious user data, not a store\n");
  auto opened = ModelStore::OpenOrCreate(path);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(ReadFileBytes(path), "precious user data, not a store\n");
  // Same for a corrupt (truncated) store.
  std::remove(path.c_str());
  {
    auto store = ModelStore::Create(path).value();
  }
  const std::string header = ReadFileBytes(path);
  WriteFileBytes(path, header.substr(0, 100));
  EXPECT_FALSE(ModelStore::OpenOrCreate(path).ok());
  EXPECT_EQ(ReadFileBytes(path).size(), 100u);
  // Absent file → fresh store; healthy store → opened.
  std::remove(path.c_str());
  EXPECT_TRUE(ModelStore::OpenOrCreate(path).ok());
  EXPECT_TRUE(ModelStore::OpenOrCreate(path).ok());
  std::remove(path.c_str());
}

TEST(ModelStore, SessionSaveLoadBinaryAutoDetects) {
  const std::string path = TempPath("store_session.cspm");
  std::remove(path.c_str());
  auto g = PaperExampleGraph();
  auto session = std::move(engine::MiningSession::Create(g)).value();
  ASSERT_TRUE(session.Mine().ok());
  ASSERT_TRUE(session.SaveModel(path).ok());  // .cspm → binary store
  EXPECT_TRUE(ModelStore::IsStoreFile(path));

  auto other = std::move(engine::MiningSession::Create(g)).value();
  ASSERT_TRUE(other.LoadModel(path).ok());  // magic auto-detect
  ASSERT_EQ(other.model().astars.size(), session.model().astars.size());
  for (size_t i = 0; i < session.model().astars.size(); ++i) {
    EXPECT_EQ(other.model().astars[i].code_length_bits,
              session.model().astars[i].code_length_bits);
    EXPECT_EQ(cspm::testing::Values(other.model().astars[i].leaf_values),
              cspm::testing::Values(session.model().astars[i].leaf_values));
  }
  EXPECT_EQ(other.model().stats.final_dl_bits,
            session.model().stats.final_dl_bits);
  std::remove(path.c_str());
}

TEST(ModelStore, SessionSaveTextStaysSupported) {
  const std::string path = TempPath("store_session_text.model");
  auto g = PaperExampleGraph();
  auto session = std::move(engine::MiningSession::Create(g)).value();
  ASSERT_TRUE(session.Mine().ok());
  ASSERT_TRUE(session.SaveModel(path).ok());  // no .cspm → text
  EXPECT_FALSE(ModelStore::IsStoreFile(path));
  auto other = std::move(engine::MiningSession::Create(g)).value();
  ASSERT_TRUE(other.LoadModel(path).ok());
  EXPECT_EQ(other.model().astars.size(), session.model().astars.size());
  std::remove(path.c_str());
}

// --- corruption handling --------------------------------------------------

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("store_corruption.cspm");
    std::remove(path_.c_str());
    auto f = MineExample();
    auto store = ModelStore::Create(path_).value();
    StoredModel stored;
    stored.model = f.model;
    stored.dict = f.graph.dict();
    stored.graph = f.graph;
    ASSERT_TRUE(store.Put("m", stored).ok());
    bytes_ = ReadFileBytes(path_);
    ASSERT_GE(bytes_.size(), 2 * Pager::kPageSize);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  std::string bytes_;
};

TEST_F(CorruptionTest, TruncatedFileFailsCleanly) {
  // Shorter than one page.
  WriteFileBytes(path_, bytes_.substr(0, 100));
  EXPECT_FALSE(ModelStore::Open(path_).ok());
  // A whole page missing relative to the header's declared page count.
  WriteFileBytes(path_, bytes_.substr(0, bytes_.size() - Pager::kPageSize));
  auto truncated = ModelStore::Open(path_);
  EXPECT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("truncated"),
            std::string::npos);
  // Ragged tail (not a multiple of the page size).
  WriteFileBytes(path_, bytes_.substr(0, bytes_.size() - 17));
  EXPECT_FALSE(ModelStore::Open(path_).ok());
}

TEST_F(CorruptionTest, BadMagicFailsCleanly) {
  std::string corrupt = bytes_;
  corrupt[0] = 'X';
  WriteFileBytes(path_, corrupt);
  auto opened = ModelStore::Open(path_);
  EXPECT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("magic"), std::string::npos);
  EXPECT_FALSE(ModelStore::IsStoreFile(path_));
  // The session loader treats a non-magic file as text and reports a parse
  // error rather than crashing.
  auto g = PaperExampleGraph();
  auto session = std::move(engine::MiningSession::Create(g)).value();
  EXPECT_FALSE(session.LoadModel(path_).ok());
}

TEST_F(CorruptionTest, FlippedByteFailsChecksum) {
  // Flip one payload byte in the record chain. The file is laid out
  // [header][plan extent][record chain][catalog leaf], so the last page
  // before the catalog is always a record page (extent pages have no
  // per-page CRC — their corruption tests live in invariants_test).
  std::string corrupt = bytes_;
  corrupt[bytes_.size() - 2 * Pager::kPageSize + 100] ^= 0x40;
  WriteFileBytes(path_, corrupt);
  // Open may succeed (only header + catalog pages are touched) but the
  // read of a damaged chain must fail with a checksum error somewhere.
  auto store_or = ModelStore::Open(path_);
  if (store_or.ok()) {
    auto got = store_or->Get("m");
    EXPECT_FALSE(got.ok());
    EXPECT_NE(got.status().message().find("checksum"), std::string::npos);
  } else {
    EXPECT_NE(store_or.status().message().find("checksum"),
              std::string::npos);
  }
}

TEST_F(CorruptionTest, EveryFlippedPageIsDetected) {
  // Whichever page the flip lands in, the store either refuses to open,
  // refuses the Get, or fails fsck — never silently serves garbage. Plan
  // extent pages carry no per-page CRC (the open path is O(1) by design),
  // so their detector is the fsck tier: slab CRCs inside the section,
  // the zero-padding sweep outside it.
  for (size_t page = 0; page * Pager::kPageSize < bytes_.size(); ++page) {
    std::string corrupt = bytes_;
    corrupt[page * Pager::kPageSize + 200] ^= 0x01;
    WriteFileBytes(path_, corrupt);
    auto store_or = ModelStore::Open(path_);
    if (!store_or.ok()) continue;
    auto got = store_or->Get("m");
    if (got.ok()) {
      EXPECT_FALSE(store_or->Fsck().ok()) << "page " << page;
    }
  }
}

TEST_F(CorruptionTest, VersionMismatchFailsCleanly) {
  // A from-the-future version and every older format (v1 to v3) are
  // rejected at open with a format error naming the version read, not
  // misparsed.
  for (const int version : {99, 1, 2, 3}) {
    SCOPED_TRACE(version);
    std::string corrupt = bytes_;
    corrupt[8] = static_cast<char>(version);  // format version (LE low byte)
    WriteFileBytes(path_, corrupt);
    auto opened = ModelStore::Open(path_);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find(
                  StrFormat("has format version %d,", version)),
              std::string::npos)
        << opened.status().ToString();
  }
}

TEST_F(CorruptionTest, LoadIntoRegistryAndSessionFailsCleanly) {
  std::string corrupt = bytes_;
  corrupt[bytes_.size() - 1000] ^= 0x10;
  WriteFileBytes(path_, corrupt);
  auto g = PaperExampleGraph();
  auto session = std::move(engine::MiningSession::Create(g)).value();
  Status st = session.LoadModel(path_);
  // Either the damaged page is in the record (checksum error) or in the
  // catalog (open error); both must surface as Status, not crashes.
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(session.has_model());
}

TEST_F(CorruptionTest, CorruptRecordCanStillBeDeletedOrReplaced) {
  // Damage a page of the record, then verify the store is repairable: the
  // catalog entry can be dropped (rm) or overwritten (save) even though
  // the old chain can no longer be walked. (Last page before the catalog
  // leaf = a record page; see FlippedByteFailsChecksum.)
  std::string corrupt = bytes_;
  corrupt[bytes_.size() - 2 * Pager::kPageSize + 100] ^= 0x40;
  WriteFileBytes(path_, corrupt);
  auto store_or = ModelStore::Open(path_);
  if (!store_or.ok()) return;  // flip landed in the catalog; nothing to fix
  ASSERT_FALSE(store_or->Get("m").ok());

  auto f = MineExample();
  StoredModel replacement;
  replacement.model = f.model;
  replacement.dict = f.graph.dict();
  ASSERT_TRUE(store_or->Put("m", replacement).ok());
  EXPECT_TRUE(store_or->Get("m").ok());

  ASSERT_TRUE(store_or->Delete("m").ok());
  EXPECT_EQ(store_or->size(), 0u);
  // The repaired store reopens cleanly.
  auto reopened = ModelStore::Open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->size(), 0u);
}

// --- write-ahead log --------------------------------------------------------

graph::GraphDelta SampleDelta(uint32_t salt) {
  graph::GraphDelta delta;
  delta.AddEdge(graph::VertexId(salt), graph::VertexId(salt + 1));
  delta.RemoveEdge(graph::VertexId(salt + 2), graph::VertexId(salt + 3));
  delta.SetAttribute(graph::VertexId(salt),
                     "wal-value-" + std::to_string(salt));
  delta.ClearAttribute(graph::VertexId(salt + 1), "other");
  delta.AddVertex({"x", "y"});
  return delta;
}

void ExpectDeltasEqual(const graph::GraphDelta& a, const graph::GraphDelta& b) {
  Encoder ea;
  Encoder eb;
  EncodeGraphDelta(a, &ea);
  EncodeGraphDelta(b, &eb);
  EXPECT_EQ(ea.data(), eb.data());
}

TEST(Codec, GraphDeltaRoundTrips) {
  const graph::GraphDelta delta = SampleDelta(7);
  Encoder enc;
  EncodeGraphDelta(delta, &enc);
  Decoder dec(enc.data());
  auto decoded = DecodeGraphDelta(&dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(dec.AtEnd());
  ExpectDeltasEqual(delta, *decoded);
}

TEST(Wal, AppendReadClearAndCompactOnPut) {
  const std::string path = TempPath("wal_basic");
  MinedFixture f = MineExample();
  StoredModel stored;
  stored.model = f.model;
  stored.dict = f.graph.dict();
  {
    auto store = std::move(ModelStore::Create(path)).value();
    ASSERT_TRUE(store.Put("m", stored).ok());
    // Appending to an unknown model is NotFound.
    EXPECT_FALSE(store.AppendDelta("ghost", SampleDelta(1)).ok());
    ASSERT_TRUE(store.AppendDelta("m", SampleDelta(1)).ok());
    ASSERT_TRUE(store.AppendDelta("m", SampleDelta(2)).ok());
    ASSERT_TRUE(store.AppendDelta("m", SampleDelta(3)).ok());
  }
  {
    // Reopen: WAL survives, in order, and List reports it.
    auto store = std::move(ModelStore::Open(path)).value();
    EXPECT_EQ(store.List().front().wal_records, 3u);
    auto replay = store.ReadWal("m");
    ASSERT_TRUE(replay.ok());
    EXPECT_FALSE(replay->truncated);
    ASSERT_EQ(replay->deltas.size(), 3u);
    for (uint32_t i = 0; i < 3; ++i) {
      ExpectDeltasEqual(replay->deltas[i], SampleDelta(i + 1));
    }
    // Put compacts: the fresh record reflects its deltas.
    ASSERT_TRUE(store.Put("m", stored).ok());
    EXPECT_EQ(store.List().front().wal_records, 0u);
    ASSERT_TRUE(store.AppendDelta("m", SampleDelta(4)).ok());
    ASSERT_TRUE(store.ClearWal("m").ok());
    EXPECT_EQ(store.ReadWal("m")->deltas.size(), 0u);
  }
  {
    // Pages of dropped WAL chains were recycled: appending again does not
    // leak the file (same size after compact + re-append cycles).
    auto store = std::move(ModelStore::Open(path)).value();
    ASSERT_TRUE(store.AppendDelta("m", SampleDelta(5)).ok());
  }
}

TEST(Wal, DeleteDropsWalChains) {
  const std::string path = TempPath("wal_delete");
  MinedFixture f = MineExample();
  StoredModel stored;
  stored.model = f.model;
  stored.dict = f.graph.dict();
  auto store = std::move(ModelStore::Create(path)).value();
  ASSERT_TRUE(store.Put("m", stored).ok());
  ASSERT_TRUE(store.AppendDelta("m", SampleDelta(1)).ok());
  ASSERT_TRUE(store.Delete("m").ok());
  EXPECT_FALSE(store.ReadWal("m").ok());
  EXPECT_EQ(store.size(), 0u);
}

TEST(ModelStoreErrors, MissingFileHasErrnoText) {
  auto opened = ModelStore::Open(TempPath("does_not_exist.cspm"));
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("No such file"),
            std::string::npos);
}

// --- v3 paged catalog index ------------------------------------------------

TEST(ModelStore, PutManyReplacesAndAudits) {
  const std::string path = TempPath("store_putmany.cspm");
  std::remove(path.c_str());
  MinedFixture f = MineExample();
  StoredModel real;
  real.model = f.model;
  real.dict = f.graph.dict();
  auto store = std::move(ModelStore::Create(path)).value();
  ASSERT_TRUE(store.Put("a", real).ok());

  // One batch: replaces "a", adds "b" and "c" — one commit, no page leaks.
  std::vector<std::pair<std::string, StoredModel>> batch;
  batch.emplace_back("a", real);
  batch.emplace_back("b", real);
  batch.emplace_back("c", real);
  ASSERT_TRUE(store.PutMany(batch).ok());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_TRUE(store.CheckInvariants().ok());
  EXPECT_TRUE(store.Fsck().ok());

  auto reopened = std::move(ModelStore::Open(path)).value();
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_TRUE(reopened.Get("b").ok());
  std::remove(path.c_str());
}

TEST(ModelStore, TenThousandModelsLookUpInLogPageReads) {
  const std::string path = TempPath("store_10k.cspm");
  std::remove(path.c_str());
  {
    auto store = std::move(ModelStore::Create(path)).value();
    // Empty models: catalog scale is what this test is about.
    std::vector<std::pair<std::string, StoredModel>> batch;
    batch.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      batch.emplace_back(StrFormat("m%05d", i),
                         StoredModel{{}, graph::AttributeDictionary{},
                                     std::nullopt});
    }
    ASSERT_TRUE(store.PutMany(batch).ok());
  }

  obs::Counter* reads = obs::GetCounter("store.catalog.index_page_reads");
  const uint64_t before_open = reads->Value();
  auto store = std::move(ModelStore::Open(path)).value();
  // Opening reads the header and the index root only; the total count
  // comes from the root, not from decoding 10k entries.
  EXPECT_EQ(store.size(), 10000u);
  const uint64_t after_open = reads->Value();
  EXPECT_LE(after_open - before_open, 1u);

  ASSERT_TRUE(store.Contains("m04567"));
  const uint64_t after_lookup = reads->Value();
#ifndef CSPM_OBS_OFF
  // O(log n): one lookup descends the tree depth, nowhere near the ~60+
  // pages the full catalog occupies. (Counter asserts need obs compiled
  // in; the functional checks around them do not.)
  EXPECT_GE(after_lookup - after_open, 1u);
  EXPECT_LE(after_lookup - after_open, 4u);
#endif

  // The descent result is cached; a repeat lookup reads nothing.
  auto got = store.Get("m04567");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(reads->Value(), after_lookup);

  // A miss also descends O(log n) pages.
  EXPECT_FALSE(store.Contains("nope"));
  EXPECT_LE(reads->Value() - after_lookup, 4u);
  std::remove(path.c_str());
}

// --- in-place commits ------------------------------------------------------

StoredModel ExampleStored(bool with_graph) {
  MinedFixture f = MineExample();
  StoredModel stored;
  stored.model = f.model;
  stored.dict = f.graph.dict();
  if (with_graph) stored.graph = f.graph;
  return stored;
}

TEST(ModelStore, OpensAFileLongerThanItsHeaderDeclares) {
  const std::string path = TempPath("store_long_tail.cspm");
  std::remove(path.c_str());
  {
    auto store = ModelStore::Create(path).value();
    ASSERT_TRUE(store.Put("m", ExampleStored(true)).ok());
  }
  const std::string bytes = ReadFileBytes(path);

  // A crash after a commit grew the file but before its header slot
  // landed leaves a tail that no header declares, ragged or not.
  WriteFileBytes(path, bytes + std::string(3 * Pager::kPageSize + 100, 'x'));
  {
    auto store = ModelStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(store->Fsck().ok());
    // The next commits allocate over the tail.
    ASSERT_TRUE(store->AppendDelta("m", SampleDelta(1)).ok());
    ASSERT_TRUE(store->Put("n", ExampleStored(false)).ok());
  }
  auto reopened = ModelStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened->Fsck().ok());
  EXPECT_EQ(reopened->ReadWal("m")->deltas.size(), 1u);

  // A file shorter than its header declares lost committed pages.
  WriteFileBytes(path, bytes.substr(0, bytes.size() - Pager::kPageSize));
  auto truncated = ModelStore::Open(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("truncated"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ModelStore, AppendAndClearCyclesKeepTheFileFlat) {
  const std::string path = TempPath("store_wal_cycles.cspm");
  std::remove(path.c_str());
  auto store = ModelStore::Create(path).value();
  ASSERT_TRUE(store.Put("m", ExampleStored(true)).ok());
  ASSERT_TRUE(store.Put("other", ExampleStored(false)).ok());
  // Warm up: the first cycles seed the free list's chain pages.
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.AppendDelta("m", SampleDelta(i)).ok());
    ASSERT_TRUE(store.ClearWal("m").ok());
  }
  const size_t start_bytes = ReadFileBytes(path).size();
  obs::Counter* written = obs::GetCounter("store.pages_written");
  const uint64_t written_before = written->Value();
  size_t max_bytes = start_bytes;
  for (uint32_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.AppendDelta("m", SampleDelta(i)).ok());
    ASSERT_TRUE(store.ClearWal("m").ok());
    max_bytes = std::max(max_bytes, ReadFileBytes(path).size());
  }
  EXPECT_LE(max_bytes, start_bytes + 4 * Pager::kPageSize);
#ifndef CSPM_OBS_OFF
  // An append writes its WAL page, the catalog leaf, the free list and
  // the header slot; a clear the last three.
  EXPECT_LE(written->Value() - written_before, 200u * 8);
#else
  (void)written_before;
#endif
  EXPECT_TRUE(store.Fsck().ok());
  auto reopened = ModelStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->Fsck().ok());
  std::remove(path.c_str());
}

TEST(Wal, TruncateWalKeepsTheValidPrefix) {
  const std::string path = TempPath("wal_truncate.cspm");
  std::remove(path.c_str());
  auto store = ModelStore::Create(path).value();
  ASSERT_TRUE(store.Put("m", ExampleStored(false)).ok());
  for (uint32_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(store.AppendDelta("m", SampleDelta(i)).ok());
  }
  EXPECT_FALSE(store.TruncateWal("ghost", 0).ok());
  ASSERT_TRUE(store.TruncateWal("m", 5).ok());  // keeps all three
  ASSERT_TRUE(store.TruncateWal("m", 1).ok());
  auto reopened = ModelStore::Open(path).value();
  auto replay = reopened.ReadWal("m");
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->deltas.size(), 1u);
  ExpectDeltasEqual(replay->deltas[0], SampleDelta(1));
  EXPECT_TRUE(reopened.Fsck().ok());
  std::remove(path.c_str());
}

// --- crash sweep -------------------------------------------------------------

/// Everything a reopened store must reproduce: the catalog listing, every
/// WAL byte for byte, and whether each record decodes.
std::string StoreState(ModelStore& store) {
  std::string out;
  for (const ModelStore::Info& info : store.List()) {
    out += StrFormat("%s bytes=%llu astars=%llu wal=%llu plan=%llu graph=%d",
                     info.name.c_str(),
                     static_cast<unsigned long long>(info.bytes),
                     static_cast<unsigned long long>(info.num_astars),
                     static_cast<unsigned long long>(info.wal_records),
                     static_cast<unsigned long long>(info.plan_bytes),
                     info.has_graph ? 1 : 0);
    auto wal = store.ReadWal(info.name);
    if (!wal.ok() || wal->truncated) {
      out += " wal-unreadable";
    } else {
      for (size_t i = 0; i < wal->deltas.size(); ++i) {
        Encoder enc;
        EncodeGraphDelta(wal->deltas[i], &enc);
        out += StrFormat(" [%u:", static_cast<unsigned>(wal->modes[i])) +
               enc.data() + "]";
      }
    }
    out += store.Get(info.name).ok() ? " record-ok\n" : " record-bad\n";
  }
  return out;
}

/// Runs `op` on a fresh copy of `base` once per write it issues, with
/// that write dropped and then torn halfway (the seam fails every later
/// write too, as a crash would). Each time the file must reopen, pass
/// Fsck and show the state from before the op, which was never
/// acknowledged; the op run to completion must show the state after.
void SweepCrashes(const std::string& base, const std::string& path,
                  const std::function<Status(ModelStore&)>& op) {
  WriteFileBytes(path, base);
  std::string before;
  uint64_t writes = 0;
  {
    auto store = ModelStore::Open(path).value();
    before = StoreState(store);
    Pager::SetWriteFaultForTesting(0, false);
    ASSERT_TRUE(op(store).ok());
    writes = Pager::SetWriteFaultForTesting(0, false);
  }
  std::string after;
  {
    auto store = ModelStore::Open(path).value();
    const Status fsck = store.Fsck();
    ASSERT_TRUE(fsck.ok()) << fsck.ToString();
    after = StoreState(store);
  }
  ASSERT_NE(before, after);
  ASSERT_GT(writes, 0u);
  for (uint64_t n = 1; n <= writes; ++n) {
    for (const bool tear : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "write " << n << " of " << writes
                   << (tear ? " torn" : " dropped"));
      WriteFileBytes(path, base);
      {
        auto store = ModelStore::Open(path).value();
        Pager::SetWriteFaultForTesting(n, tear);
        const Status st = op(store);
        Pager::SetWriteFaultForTesting(0, false);
        EXPECT_FALSE(st.ok());
      }
      auto store = ModelStore::Open(path);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      const Status fsck = store->Fsck();
      EXPECT_TRUE(fsck.ok()) << fsck.ToString();
      EXPECT_EQ(StoreState(*store), before);
    }
  }
  std::remove(path.c_str());
}

TEST(CrashSweep, EveryWriteOfEveryMutationRecoversTheLastCommit) {
  const std::string path = TempPath("crash_sweep.cspm");
  std::remove(path.c_str());
  std::string base;
  {
    auto store = ModelStore::Create(path).value();
    ASSERT_TRUE(store.Put("a", ExampleStored(true)).ok());
    ASSERT_TRUE(store.Put("b", ExampleStored(false)).ok());
    ASSERT_TRUE(store.AppendDelta("a", SampleDelta(1)).ok());
    ASSERT_TRUE(
        store.AppendDelta("a", SampleDelta(2), WalDeltaMode::kFast).ok());
    ASSERT_TRUE(store.Put("b", ExampleStored(false)).ok());  // a free list
    base = ReadFileBytes(path);
  }
  const StoredModel with_graph = ExampleStored(true);
  const StoredModel without_graph = ExampleStored(false);
  const std::vector<
      std::pair<const char*, std::function<Status(ModelStore&)>>>
      ops = {
          {"put-replace", [&](ModelStore& s) { return s.Put("a", with_graph); }},
          {"put-new", [&](ModelStore& s) { return s.Put("c", without_graph); }},
          {"append",
           [](ModelStore& s) { return s.AppendDelta("a", SampleDelta(3)); }},
          {"delete", [](ModelStore& s) { return s.Delete("b"); }},
          {"clear", [](ModelStore& s) { return s.ClearWal("a"); }},
          {"truncate", [](ModelStore& s) { return s.TruncateWal("a", 1); }},
      };
  for (const auto& [name, op] : ops) {
    SCOPED_TRACE(name);
    SweepCrashes(base, path, op);
  }
}

}  // namespace
}  // namespace cspm::store
