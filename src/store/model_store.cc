#include "store/model_store.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "graph/validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/codec.h"
#include "store/plan_section.h"
#include "util/string_util.h"

namespace cspm::store {
namespace {

// Record layout: version byte, flags byte (bit 0: graph snapshot present),
// then dictionary, model, and optionally the graph.
constexpr uint8_t kRecordVersion = 1;
constexpr uint8_t kFlagHasGraph = 0x01;

// WAL record layout: version byte, then a WalDeltaMode byte, then one
// encoded graph delta.
constexpr uint8_t kWalRecordVersion = 2;

// Catalog index node kinds (first payload byte of every index page).
constexpr uint8_t kIndexLeaf = 0x01;
constexpr uint8_t kIndexInterior = 0x02;
// An index descent can never legitimately be deeper than this (fan-out is
// in the hundreds, so 8 levels already covers ~10^16 entries); used as
// the cycle guard on corrupted trees.
constexpr uint32_t kMaxIndexDepth = 8;

std::string EncodeRecord(const StoredModel& stored) {
  Encoder enc;
  enc.PutU8(kRecordVersion);
  enc.PutU8(stored.graph.has_value() ? kFlagHasGraph : 0);
  EncodeDictionary(stored.dict, &enc);
  EncodeModel(stored.model, &enc);
  if (stored.graph.has_value()) EncodeGraph(*stored.graph, &enc);
  return enc.Release();
}

StatusOr<StoredModel> DecodeRecord(const std::string& bytes) {
  Decoder dec(bytes);
  CSPM_ASSIGN_OR_RETURN(uint8_t version, dec.ReadU8());
  if (version > kRecordVersion) {
    return Status::IOError(
        StrFormat("model record version %u from the future (this build "
                  "reads <= %u)",
                  version, kRecordVersion));
  }
  CSPM_ASSIGN_OR_RETURN(uint8_t flags, dec.ReadU8());
  StoredModel stored;
  CSPM_ASSIGN_OR_RETURN(stored.dict, DecodeDictionary(&dec));
  CSPM_ASSIGN_OR_RETURN(stored.model, DecodeModel(&dec));
  if ((flags & kFlagHasGraph) != 0) {
    CSPM_ASSIGN_OR_RETURN(auto graph, DecodeGraph(&dec, stored.dict));
    stored.graph.emplace(std::move(graph));
  }
  if (!dec.AtEnd()) {
    return Status::IOError("model record has trailing bytes (corrupt store)");
  }
  return stored;
}

/// Decodes one WAL record into its mode and delta. A record of any other
/// version fails like a torn one.
Status DecodeWalRecord(const std::string& bytes, WalDeltaMode* mode,
                       graph::GraphDelta* delta) {
  Decoder dec(bytes);
  CSPM_ASSIGN_OR_RETURN(uint8_t version, dec.ReadU8());
  CSPM_ASSIGN_OR_RETURN(uint8_t raw_mode, dec.ReadU8());
  if (version != kWalRecordVersion ||
      raw_mode > static_cast<uint8_t>(WalDeltaMode::kFast)) {
    return Status::IOError(StrFormat("WAL record version %u, mode %u", version,
                                     raw_mode));
  }
  CSPM_ASSIGN_OR_RETURN(*delta, DecodeGraphDelta(&dec));
  if (!dec.AtEnd()) return Status::IOError("WAL record has trailing bytes");
  *mode = static_cast<WalDeltaMode>(raw_mode);
  return Status::OK();
}

}  // namespace

StatusOr<ModelStore> ModelStore::Create(const std::string& path) {
  CSPM_ASSIGN_OR_RETURN(Pager pager, Pager::Create(path));
  ModelStore store(std::move(pager));
  store.catalog_loaded_ = true;
  return store;
}

StatusOr<ModelStore> ModelStore::Open(const std::string& path) {
  CSPM_ASSIGN_OR_RETURN(Pager pager, Pager::Open(path));
  ModelStore store(std::move(pager));
  CSPM_RETURN_IF_ERROR(store.LoadCatalog());
  return store;
}

StatusOr<ModelStore> ModelStore::OpenOrCreate(const std::string& path) {
  // Create only when nothing is at `path`. An existing file that is not a
  // healthy store (wrong magic, truncated, corrupt) surfaces as Open's
  // error instead of being silently destroyed.
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return Create(path);
  return Open(path);
}

Status ModelStore::LoadCatalog() {
  catalog_.clear();
  lookup_cache_.clear();
  catalog_loaded_ = false;
  catalog_count_ = 0;
  if (pager_.catalog_head() == Pager::kNoPage) {
    catalog_loaded_ = true;
    return Status::OK();
  }

  // Read the index root only — the open cost is O(1) regardless of how
  // many models the file holds.
  CSPM_ASSIGN_OR_RETURN(IndexNode root, ReadIndexNode(pager_.catalog_head()));
  if (root.leaf) {
    if (root.next != Pager::kNoPage) {
      return Status::IOError(
          "catalog index root is a leaf with a level link (corrupt store)");
    }
    // A single-leaf catalog is fully decoded already; keep it.
    for (auto& [name, entry] : root.entries) {
      if (!catalog_.emplace(name, std::move(entry)).second) {
        return Status::IOError("duplicate catalog entry: " + name);
      }
    }
    catalog_loaded_ = true;
    catalog_count_ = catalog_.size();
  } else {
    catalog_count_ = root.count;
  }
  return Status::OK();
}

StatusOr<ModelStore::IndexNode> ModelStore::ReadIndexNode(uint32_t page_id) {
  static auto* const index_reads =
      obs::GetCounter("store.catalog.index_page_reads");
  index_reads->Add(1);
  CSPM_ASSIGN_OR_RETURN(Pager::DataPage page, pager_.ReadDataPage(page_id));
  Decoder dec(page.payload);
  CSPM_ASSIGN_OR_RETURN(uint8_t kind, dec.ReadU8());
  IndexNode node;
  node.next = page.next;
  if (kind == kIndexLeaf) {
    node.leaf = true;
    CSPM_ASSIGN_OR_RETURN(uint64_t n, dec.ReadVarint());
    node.entries.reserve(std::min<uint64_t>(n, dec.remaining()));
    for (uint64_t i = 0; i < n; ++i) {
      CSPM_ASSIGN_OR_RETURN(std::string_view name, dec.ReadString());
      Entry entry;
      CSPM_ASSIGN_OR_RETURN(uint64_t head, dec.ReadVarint());
      if (head == Pager::kNoPage || head >= pager_.num_pages()) {
        return Status::IOError("catalog entry points outside the store");
      }
      entry.head = static_cast<uint32_t>(head);
      CSPM_ASSIGN_OR_RETURN(entry.bytes, dec.ReadVarint());
      CSPM_ASSIGN_OR_RETURN(entry.num_astars, dec.ReadVarint());
      CSPM_ASSIGN_OR_RETURN(uint8_t flags, dec.ReadU8());
      entry.has_graph = (flags & kFlagHasGraph) != 0;
      CSPM_ASSIGN_OR_RETURN(uint64_t plan_first, dec.ReadVarint());
      CSPM_ASSIGN_OR_RETURN(uint64_t plan_pages, dec.ReadVarint());
      CSPM_ASSIGN_OR_RETURN(entry.plan_bytes, dec.ReadVarint());
      // Every entry carries a plan section: Put writes one with the record.
      if (plan_pages == 0 || plan_first == Pager::kNoPage ||
          plan_first >= pager_.num_pages() ||
          pager_.num_pages() - plan_first < plan_pages) {
        return Status::IOError(
            "catalog plan extent is missing or points outside the store");
      }
      entry.plan_extent.first_page = static_cast<uint32_t>(plan_first);
      entry.plan_extent.num_pages = static_cast<uint32_t>(plan_pages);
      CSPM_ASSIGN_OR_RETURN(uint64_t wal_count, dec.ReadVarint());
      entry.wal.reserve(std::min<uint64_t>(wal_count, dec.remaining() / 2));
      for (uint64_t w = 0; w < wal_count; ++w) {
        WalRecord rec;
        CSPM_ASSIGN_OR_RETURN(uint64_t wal_head, dec.ReadVarint());
        if (wal_head == Pager::kNoPage || wal_head >= pager_.num_pages()) {
          return Status::IOError("WAL record points outside the store");
        }
        rec.head = static_cast<uint32_t>(wal_head);
        CSPM_ASSIGN_OR_RETURN(rec.bytes, dec.ReadVarint());
        entry.wal.push_back(rec);
      }
      node.entries.emplace_back(std::string(name), std::move(entry));
    }
    node.count = node.entries.size();
  } else if (kind == kIndexInterior) {
    if (page.next != Pager::kNoPage) {
      return Status::IOError(
          StrFormat("catalog index interior page %u has a level link "
                    "(corrupt store)",
                    page_id));
    }
    CSPM_ASSIGN_OR_RETURN(node.count, dec.ReadVarint());
    CSPM_ASSIGN_OR_RETURN(uint64_t n_children, dec.ReadVarint());
    if (n_children == 0) {
      return Status::IOError(
          StrFormat("catalog index page %u has no children", page_id));
    }
    node.children.reserve(std::min<uint64_t>(n_children, dec.remaining()));
    for (uint64_t i = 0; i < n_children; ++i) {
      CSPM_ASSIGN_OR_RETURN(std::string_view sep, dec.ReadString());
      CSPM_ASSIGN_OR_RETURN(uint64_t child, dec.ReadVarint());
      if (child == Pager::kNoPage || child >= pager_.num_pages()) {
        return Status::IOError(
            StrFormat("catalog index page %u child points outside the store",
                      page_id));
      }
      node.children.emplace_back(std::string(sep),
                                 static_cast<uint32_t>(child));
    }
  } else {
    return Status::IOError(StrFormat(
        "page %u is not a catalog index node (kind byte %u)", page_id, kind));
  }
  if (!dec.AtEnd()) {
    return Status::IOError(StrFormat(
        "catalog index page %u has trailing bytes (corrupt store)", page_id));
  }
  return node;
}

StatusOr<const ModelStore::Entry*> ModelStore::LookupEntry(
    const std::string& name) {
  auto not_found = [&]() {
    return Status::NotFound("no model named '" + name + "' in " +
                            pager_.path());
  };
  if (catalog_loaded_) {
    auto it = catalog_.find(name);
    if (it == catalog_.end()) return not_found();
    return &it->second;
  }
  auto cached = lookup_cache_.find(name);
  if (cached != lookup_cache_.end()) return &cached->second;

  uint32_t id = pager_.catalog_head();
  for (uint32_t depth = 0; depth < kMaxIndexDepth; ++depth) {
    CSPM_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(id));
    if (node.leaf) {
      for (auto& [entry_name, entry] : node.entries) {
        if (entry_name == name) {
          return &lookup_cache_.emplace(name, std::move(entry))
                      .first->second;
        }
      }
      return not_found();
    }
    // Last child whose separator <= name; children[0]'s separator is the
    // subtree's first name, so a smaller `name` can only live (or rather
    // fail to live) under it.
    size_t pick = 0;
    for (size_t i = 1; i < node.children.size(); ++i) {
      if (node.children[i].first <= name) pick = i;
      else break;
    }
    id = node.children[pick].second;
  }
  return Status::IOError(StrFormat(
      "catalog index deeper than %u levels in %s (corrupt store)",
      kMaxIndexDepth, pager_.path().c_str()));
}

Status ModelStore::EnsureLoaded() {
  if (catalog_loaded_) return Status::OK();
  // Descend to the leftmost leaf, then sweep the leaf level through the
  // page-header links.
  uint32_t id = pager_.catalog_head();
  for (uint32_t depth = 0; depth < kMaxIndexDepth; ++depth) {
    CSPM_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(id));
    if (node.leaf) break;
    id = node.children.front().second;
    if (depth + 1 == kMaxIndexDepth) {
      return Status::IOError(StrFormat(
          "catalog index deeper than %u levels in %s (corrupt store)",
          kMaxIndexDepth, pager_.path().c_str()));
    }
  }
  uint32_t visited = 0;
  while (id != Pager::kNoPage) {
    if (++visited > pager_.num_pages()) {
      return Status::IOError("catalog index leaf level cycles in " +
                             pager_.path());
    }
    CSPM_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(id));
    if (!node.leaf) {
      return Status::IOError(
          "catalog index leaf level links to a non-leaf page in " +
          pager_.path());
    }
    for (auto& [name, entry] : node.entries) {
      if (!catalog_.emplace(name, std::move(entry)).second) {
        return Status::IOError("duplicate catalog entry: " + name);
      }
    }
    id = node.next;
  }
  if (catalog_.size() != catalog_count_) {
    return Status::IOError(StrFormat(
        "catalog index root promises %llu entries, the leaf level holds "
        "%zu (corrupt store)",
        static_cast<unsigned long long>(catalog_count_), catalog_.size()));
  }
  catalog_loaded_ = true;
  lookup_cache_.clear();
  return Status::OK();
}

Status ModelStore::CollectIndexPages(uint32_t root,
                                     std::vector<uint32_t>* pages) {
  struct Frame {
    uint32_t id;
    uint32_t depth;
  };
  std::vector<Frame> stack{{root, 0}};
  uint32_t visited = 0;
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (++visited > pager_.num_pages() || frame.depth >= kMaxIndexDepth) {
      return Status::IOError("catalog index cycles in " + pager_.path());
    }
    pages->push_back(frame.id);
    CSPM_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(frame.id));
    if (!node.leaf) {
      for (const auto& [sep, child] : node.children) {
        stack.push_back({child, frame.depth + 1});
      }
    }
  }
  return Status::OK();
}

void ModelStore::FreeDiskCatalog() {
  const uint32_t head = pager_.catalog_head();
  if (head == Pager::kNoPage) return;
  // Best-effort, like record chains: a damaged index must not block the
  // rewrite that repairs it.
  std::vector<uint32_t> pages;
  (void)CollectIndexPages(head, &pages);
  for (uint32_t id : pages) (void)pager_.FreeSinglePage(id);
  pager_.set_catalog_head(Pager::kNoPage);
}

Status ModelStore::SaveCatalogAndCommit() {
  CSPM_RETURN_IF_ERROR(EnsureLoaded());
  FreeDiskCatalog();

  if (!catalog_.empty()) {
    // Encode every entry, then bulk-load the static tree bottom-up:
    // greedy-pack sorted entries into leaves, then (separator, child)
    // fans into interiors until one root remains.
    struct NodeRef {
      std::string first_name;  ///< first entry name in the subtree
      uint32_t page = Pager::kNoPage;
      uint64_t count = 0;  ///< entries in the subtree
    };

    std::vector<std::string> leaf_payloads;
    std::vector<std::string> leaf_first_names;
    std::vector<uint64_t> leaf_counts;
    {
      std::string current;
      uint64_t current_count = 0;
      auto flush = [&]() {
        if (current_count == 0) return;
        Encoder header;
        header.PutU8(kIndexLeaf);
        header.PutVarint(current_count);
        leaf_payloads.push_back(header.Release() + current);
        leaf_counts.push_back(current_count);
        current.clear();
        current_count = 0;
      };
      for (const auto& [name, entry] : catalog_) {
        Encoder enc;
        enc.PutString(name);
        enc.PutVarint(entry.head);
        enc.PutVarint(entry.bytes);
        enc.PutVarint(entry.num_astars);
        enc.PutU8(entry.has_graph ? kFlagHasGraph : 0);
        enc.PutVarint(entry.plan_extent.first_page);
        enc.PutVarint(entry.plan_extent.num_pages);
        enc.PutVarint(entry.plan_bytes);
        enc.PutVarint(entry.wal.size());
        for (const WalRecord& rec : entry.wal) {
          enc.PutVarint(rec.head);
          enc.PutVarint(rec.bytes);
        }
        // Leaf header worst case: kind byte + 5-byte count varint.
        if (enc.data().size() + 6 > Pager::kPagePayload) {
          return Status::InvalidArgument(StrFormat(
              "catalog entry for '%s' is %zu bytes and exceeds one index "
              "page — compact its WAL (Put or ClearWal) first",
              name.c_str(), enc.data().size()));
        }
        if (current.size() + enc.data().size() + 6 > Pager::kPagePayload) {
          flush();
        }
        if (current_count == 0) leaf_first_names.push_back(name);
        current += enc.data();
        ++current_count;
      }
      flush();
    }

    // Leaves are written right-to-left so each knows its level link.
    std::vector<NodeRef> level(leaf_payloads.size());
    uint32_t next = Pager::kNoPage;
    for (size_t i = leaf_payloads.size(); i-- > 0;) {
      CSPM_ASSIGN_OR_RETURN(uint32_t page,
                            pager_.WriteDataPage(leaf_payloads[i], next));
      level[i] = {leaf_first_names[i], page, leaf_counts[i]};
      next = page;
    }

    while (level.size() > 1) {
      std::vector<NodeRef> parents;
      size_t i = 0;
      while (i < level.size()) {
        // Greedy fan: children until the payload would overflow (each
        // child costs its separator string + ~10 bytes of varints).
        Encoder body;
        uint64_t count = 0;
        const size_t first = i;
        size_t body_bytes = 16;  // kind + count + n_children headroom
        while (i < level.size()) {
          const size_t child_bytes = level[i].first_name.size() + 10;
          if (i > first && body_bytes + child_bytes > Pager::kPagePayload) {
            break;
          }
          body.PutString(level[i].first_name);
          body.PutVarint(level[i].page);
          body_bytes += child_bytes;
          count += level[i].count;
          ++i;
        }
        Encoder node;
        node.PutU8(kIndexInterior);
        node.PutVarint(count);
        node.PutVarint(i - first);
        CSPM_ASSIGN_OR_RETURN(
            uint32_t page,
            pager_.WriteDataPage(node.Release() + body.data(),
                                 Pager::kNoPage));
        parents.push_back({level[first].first_name, page, count});
      }
      level = std::move(parents);
    }
    pager_.set_catalog_head(level.front().page);
  }

  catalog_count_ = catalog_.size();
  return pager_.Commit();
}

Status ModelStore::WriteModelRecord(const StoredModel& stored, Entry* entry) {
  // The mmap-native serving form: compile once at save time, so every
  // future open of this model costs a mapping instead of a compile. The
  // extent is written before the record chain — it needs a *contiguous*
  // free run, which page-at-a-time chain allocation would fragment.
  const core::ScoringPlan plan =
      core::ScoringPlan::Compile(stored.model, stored.dict.size());
  const std::string section = EncodePlanSection(plan);
  CSPM_ASSIGN_OR_RETURN(entry->plan_extent, pager_.WriteExtent(section));
  entry->plan_bytes = section.size();
  const std::string bytes = EncodeRecord(stored);
  CSPM_ASSIGN_OR_RETURN(entry->head, pager_.WriteChain(bytes));
  entry->bytes = bytes.size();
  entry->num_astars = stored.model.astars.size();
  entry->has_graph = stored.graph.has_value();
  return Status::OK();
}

Status ModelStore::Put(const std::string& name, const StoredModel& stored) {
  if (name.empty()) {
    return Status::InvalidArgument("model name must not be empty");
  }
  CSPM_RETURN_IF_ERROR(EnsureLoaded());
  // Write the replacement chain before touching the old record: a failure
  // anywhere short of Commit leaves the in-memory catalog — and the
  // durable file — still holding the previous version of `name`.
  Entry entry;
  CSPM_RETURN_IF_ERROR(WriteModelRecord(stored, &entry));
  auto it = catalog_.find(name);
  if (it != catalog_.end()) {
    // Best-effort free: if the old chain has a corrupt page the walk stops
    // and its tail leaks, but the replacement must still go through — a
    // damaged record would otherwise be impossible to repair with a Put.
    // The catalog drops the old head either way, so no later allocation
    // can cross-link into a still-referenced chain.
    (void)pager_.FreeChain(it->second.head);
    (void)pager_.FreeExtent(it->second.plan_extent);
    // Compaction: the fresh record reflects whatever the pending deltas
    // described, so the WAL restarts empty.
    DropWalChains(&it->second, 0);
    it->second = entry;
  } else {
    catalog_.emplace(name, entry);
  }
  return SaveCatalogAndCommit();
}

Status ModelStore::PutMany(
    const std::vector<std::pair<std::string, StoredModel>>& models) {
  CSPM_RETURN_IF_ERROR(EnsureLoaded());
  // Stage everything first; the catalog map is only touched once every
  // record wrote cleanly, so an error cannot leave `catalog_` promising
  // chains a later mutation would commit half-made.
  std::vector<std::pair<std::string, Entry>> staged;
  staged.reserve(models.size());
  for (const auto& [name, stored] : models) {
    if (name.empty()) {
      return Status::InvalidArgument("model name must not be empty");
    }
    Entry entry;
    CSPM_RETURN_IF_ERROR(WriteModelRecord(stored, &entry));
    staged.emplace_back(name, entry);
  }
  for (auto& [name, entry] : staged) {
    auto it = catalog_.find(name);
    if (it != catalog_.end()) {
      (void)pager_.FreeChain(it->second.head);
      (void)pager_.FreeExtent(it->second.plan_extent);
      DropWalChains(&it->second, 0);
      it->second = entry;
    } else {
      catalog_.emplace(name, entry);
    }
  }
  return SaveCatalogAndCommit();
}

void ModelStore::DropWalChains(Entry* entry, size_t kept) {
  for (size_t i = kept; i < entry->wal.size(); ++i) {
    // Best-effort, like record chains: a damaged WAL chain leaks its tail
    // but must never block compaction.
    (void)pager_.FreeChain(entry->wal[i].head);
  }
  entry->wal.resize(std::min(kept, entry->wal.size()));
}

Status ModelStore::AppendDelta(const std::string& name,
                               const graph::GraphDelta& delta,
                               WalDeltaMode mode) {
  static auto* const append_hist =
      obs::GetHistogram("phase.store.wal_append");
  obs::ScopedPhaseTimer append_timer(append_hist);
  CSPM_RETURN_IF_ERROR(EnsureLoaded());
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no model named '" + name + "' in " +
                            pager_.path());
  }
  Encoder enc;
  enc.PutU8(kWalRecordVersion);
  enc.PutU8(static_cast<uint8_t>(mode));
  EncodeGraphDelta(delta, &enc);
  WalRecord rec;
  CSPM_ASSIGN_OR_RETURN(rec.head, pager_.WriteChain(enc.data()));
  rec.bytes = enc.data().size();
  it->second.wal.push_back(rec);
  Status committed = SaveCatalogAndCommit();
  if (!committed.ok()) {
    it->second.wal.pop_back();
    // Roll the orphaned chain back into the free list (best-effort, like
    // Put): otherwise every failed append permanently bloats the file.
    (void)pager_.FreeChain(rec.head);
  } else {
    obs::GetCounter("store.wal_appends")->Add(1);
    obs::GetGauge("store.wal_chain_len")
        ->Set(static_cast<double>(it->second.wal.size()));
  }
  return committed;
}

StatusOr<ModelStore::WalReplay> ModelStore::ReadWal(const std::string& name) {
  CSPM_ASSIGN_OR_RETURN(const Entry* entry, LookupEntry(name));
  static auto* const replay_hist =
      obs::GetHistogram("phase.store.wal_replay");
  obs::ScopedPhaseTimer replay_timer(replay_hist);
  WalReplay replay;
  const std::vector<WalRecord>& wal = entry->wal;
  for (size_t i = 0; i < wal.size(); ++i) {
    // A record that cannot be read or decoded ends the replay: everything
    // after it was written later, so the valid prefix is still a
    // consistent history (the crash-recovery contract).
    StatusOr<std::string> bytes_or = pager_.ReadChain(wal[i].head);
    WalDeltaMode mode = WalDeltaMode::kExact;
    graph::GraphDelta delta;
    if (!bytes_or.ok() || bytes_or->size() != wal[i].bytes ||
        !DecodeWalRecord(*bytes_or, &mode, &delta).ok()) {
      replay.truncated = true;
      replay.dropped = wal.size() - i;
      break;
    }
    replay.deltas.push_back(std::move(delta));
    replay.modes.push_back(mode);
  }
  obs::GetCounter("store.wal_replayed_records")->Add(replay.deltas.size());
  return replay;
}

Status ModelStore::TruncateWal(const std::string& name, size_t kept) {
  CSPM_RETURN_IF_ERROR(EnsureLoaded());
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no model named '" + name + "' in " +
                            pager_.path());
  }
  if (it->second.wal.size() <= kept) return Status::OK();
  DropWalChains(&it->second, kept);
  return SaveCatalogAndCommit();
}

StatusOr<StoredModel> ModelStore::Get(const std::string& name) {
  CSPM_ASSIGN_OR_RETURN(const Entry* entry, LookupEntry(name));
  CSPM_ASSIGN_OR_RETURN(std::string bytes, pager_.ReadChain(entry->head));
  if (bytes.size() != entry->bytes) {
    return Status::IOError(
        StrFormat("model '%s' record is %zu bytes, catalog expects %llu "
                  "(corrupt store)",
                  name.c_str(), bytes.size(),
                  static_cast<unsigned long long>(entry->bytes)));
  }
  return DecodeRecord(bytes);
}

StatusOr<std::shared_ptr<const core::ScoringPlan>> ModelStore::OpenPlan(
    const std::string& name) {
  CSPM_ASSIGN_OR_RETURN(const Entry* entry, LookupEntry(name));
  return MmapPlanView::Open(
      pager_.path(), Pager::ExtentFileOffset(entry->plan_extent.first_page),
      entry->plan_bytes);
}

Status ModelStore::Delete(const std::string& name) {
  CSPM_RETURN_IF_ERROR(EnsureLoaded());
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no model named '" + name + "' in " +
                            pager_.path());
  }
  // Best-effort free (see Put): deleting a record whose chain has a
  // corrupt page must still remove it from the catalog — leaking its
  // unreachable pages beats a store that can never drop the entry.
  (void)pager_.FreeChain(it->second.head);
  (void)pager_.FreeExtent(it->second.plan_extent);
  DropWalChains(&it->second, 0);
  catalog_.erase(it);
  return SaveCatalogAndCommit();
}

bool ModelStore::Contains(const std::string& name) {
  if (catalog_loaded_) return catalog_.count(name) > 0;
  return LookupEntry(name).ok();
}

Status ModelStore::CheckInvariants() {
  CSPM_RETURN_IF_ERROR(EnsureLoaded());
  CSPM_RETURN_IF_ERROR(pager_.CheckHeaderPage());
  const uint32_t num_pages = pager_.num_pages();
  // Owner label per page; empty = unclaimed so far. Every data page of a
  // healthy store is claimed by exactly one chain.
  std::vector<std::string> owner(num_pages);
  auto claim = [&](uint32_t id, const std::string& label) -> Status {
    if (id >= num_pages) {
      return Status::Internal(
          StrFormat("%s references page %u outside the store (%u pages)",
                    label.c_str(), id, num_pages));
    }
    if (!owner[id].empty()) {
      if (owner[id] == label) {
        return Status::Internal(
            StrFormat("%s cycles back to page %u", label.c_str(), id));
      }
      return Status::Internal(StrFormat("page %u is claimed by both %s and %s",
                                        id, owner[id].c_str(),
                                        label.c_str()));
    }
    owner[id] = label;
    return Status::OK();
  };
  auto claim_chain = [&](uint32_t head, const std::string& label,
                         uint64_t* payload_sum) -> Status {
    uint32_t id = head;
    while (id != Pager::kNoPage) {
      CSPM_RETURN_IF_ERROR(claim(id, label));
      CSPM_ASSIGN_OR_RETURN(Pager::PageHeader header,
                            pager_.ReadPageHeader(id));
      if (payload_sum != nullptr) *payload_sum += header.payload_len;
      id = header.next;
    }
    return Status::OK();
  };

  // --- catalog index: claim every node, validate separators and the
  // leaf level links ------------------------------------------------------
  if (pager_.catalog_head() != Pager::kNoPage) {
    // Depth-first tree walk collecting the leaf sequence in key order.
    struct LeafRef {
      uint32_t id;
      uint32_t next;
      std::string first_name;
    };
    std::vector<LeafRef> leaves;
    uint64_t entries_seen = 0;
    std::string prev_name;
    auto walk = [&](auto&& self, uint32_t id, uint32_t depth) -> Status {
      if (depth >= kMaxIndexDepth) {
        return Status::Internal("the catalog index is deeper than any "
                                "bulk load produces (corrupt tree)");
      }
      CSPM_RETURN_IF_ERROR(claim(id, "the catalog index"));
      CSPM_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(id));
      if (node.leaf) {
        if (node.entries.empty()) {
          return Status::Internal(
              StrFormat("catalog index leaf %u is empty", id));
        }
        for (const auto& [name, entry] : node.entries) {
          if (entries_seen > 0 && name <= prev_name) {
            return Status::Internal(StrFormat(
                "catalog index entries out of order at '%s'",
                name.c_str()));
          }
          prev_name = name;
          ++entries_seen;
        }
        leaves.push_back({id, node.next, node.entries.front().first});
        return Status::OK();
      }
      for (const auto& [sep, child] : node.children) {
        // The separator must be the first name of the child's subtree —
        // the bulk loader guarantees it, and descent correctness
        // depends on it.
        const size_t before = leaves.size();
        CSPM_RETURN_IF_ERROR(self(self, child, depth + 1));
        if (leaves.size() > before && leaves[before].first_name != sep) {
          return Status::Internal(StrFormat(
              "catalog index separator '%s' disagrees with its subtree's "
              "first entry '%s'",
              sep.c_str(), leaves[before].first_name.c_str()));
        }
      }
      return Status::OK();
    };
    CSPM_RETURN_IF_ERROR(walk(walk, pager_.catalog_head(), 0));
    // The leaf level links must thread the leaves exactly in key order.
    for (size_t i = 0; i < leaves.size(); ++i) {
      const uint32_t expected_next =
          i + 1 < leaves.size() ? leaves[i + 1].id : Pager::kNoPage;
      if (leaves[i].next != expected_next) {
        return Status::Internal(StrFormat(
            "catalog index leaf %u links to page %u, expected %u (bent "
            "leaf level)",
            leaves[i].id, leaves[i].next, expected_next));
      }
    }
    if (entries_seen != catalog_.size()) {
      return Status::Internal(StrFormat(
          "catalog index holds %llu entries, the loaded catalog %zu",
          static_cast<unsigned long long>(entries_seen), catalog_.size()));
    }
  }

  // Free pages are claimed one by one; the chain that lists them is a
  // chain like any other.
  for (uint32_t id : pager_.FreePages()) {
    CSPM_RETURN_IF_ERROR(claim(id, "the free list"));
  }
  CSPM_RETURN_IF_ERROR(
      claim_chain(pager_.free_list_head(), "the free-list chain", nullptr));
  for (const auto& [name, entry] : catalog_) {
    uint64_t record_bytes = 0;
    CSPM_RETURN_IF_ERROR(claim_chain(
        entry.head, "the record chain of '" + name + "'", &record_bytes));
    if (record_bytes != entry.bytes) {
      return Status::Internal(StrFormat(
          "record chain of '%s' holds %llu payload bytes, catalog promises "
          "%llu (chain truncated or spliced)",
          name.c_str(), static_cast<unsigned long long>(record_bytes),
          static_cast<unsigned long long>(entry.bytes)));
    }
    // Plan extents are raw pages — claimed whole, never header-validated
    // (they carry no page header; the section checksums itself).
    const uint64_t extent_bytes =
        static_cast<uint64_t>(entry.plan_extent.num_pages) * Pager::kPageSize;
    if (entry.plan_bytes > extent_bytes ||
        extent_bytes - entry.plan_bytes >= Pager::kPageSize) {
      return Status::Internal(StrFormat(
          "plan section of '%s' is %llu bytes but its extent spans %u pages",
          name.c_str(), static_cast<unsigned long long>(entry.plan_bytes),
          entry.plan_extent.num_pages));
    }
    for (uint32_t i = 0; i < entry.plan_extent.num_pages; ++i) {
      CSPM_RETURN_IF_ERROR(claim(entry.plan_extent.first_page + i,
                                 "the plan section of '" + name + "'"));
    }
    for (size_t w = 0; w < entry.wal.size(); ++w) {
      uint64_t wal_bytes = 0;
      CSPM_RETURN_IF_ERROR(claim_chain(
          entry.wal[w].head,
          StrFormat("WAL record %zu of '%s'", w, name.c_str()), &wal_bytes));
      if (wal_bytes != entry.wal[w].bytes) {
        return Status::Internal(StrFormat(
            "WAL record %zu of '%s' holds %llu payload bytes, catalog "
            "promises %llu",
            w, name.c_str(), static_cast<unsigned long long>(wal_bytes),
            static_cast<unsigned long long>(entry.wal[w].bytes)));
      }
    }
  }

  // Page 0 is the header; every other page must belong to some chain.
  // (Best-effort frees of damaged chains can legitimately leak pages, but
  // such a store is exactly what this audit exists to flag.)
  for (uint32_t id = 1; id < num_pages; ++id) {
    if (owner[id].empty()) {
      return Status::Internal(StrFormat(
          "page %u is unreachable from every chain (leaked or orphaned)",
          id));
    }
  }
  return Status::OK();
}

Status ModelStore::Fsck() {
  CSPM_RETURN_IF_ERROR(CheckInvariants());
  for (const auto& [name, entry] : catalog_) {
    CSPM_ASSIGN_OR_RETURN(StoredModel stored, Get(name));
    if (stored.model.astars.size() != entry.num_astars) {
      return Status::Internal(StrFormat(
          "model '%s' decodes to %zu a-stars, catalog promises %llu",
          name.c_str(), stored.model.astars.size(),
          static_cast<unsigned long long>(entry.num_astars)));
    }
    if (stored.graph.has_value() != entry.has_graph) {
      return Status::Internal(StrFormat(
          "model '%s' graph-snapshot flag disagrees with its catalog entry",
          name.c_str()));
    }
    const size_t num_attrs = stored.dict.size();
    for (size_t s = 0; s < stored.model.astars.size(); ++s) {
      const core::AStarRef star = stored.model.astars[s];
      for (core::AttrId a : star.core_values) {
        if (a.index() >= num_attrs) {
          return Status::Internal(StrFormat(
              "model '%s' a-star %zu core value %u outside its dictionary "
              "(%zu names)",
              name.c_str(), s, a.value(), num_attrs));
        }
      }
      for (core::AttrId a : star.leaf_values) {
        if (a.index() >= num_attrs) {
          return Status::Internal(StrFormat(
              "model '%s' a-star %zu leaf value %u outside its dictionary "
              "(%zu names)",
              name.c_str(), s, a.value(), num_attrs));
        }
      }
    }
    if (stored.graph.has_value()) {
      Status graph_ok = graph::CheckInvariants(*stored.graph);
      if (!graph_ok.ok()) {
        return Status::Internal(StrFormat(
            "graph snapshot of '%s' fails validation: %s", name.c_str(),
            graph_ok.message().c_str()));
      }
    }
    // Plan section sweep: full per-slab CRCs (the tier serving skips),
    // the deep plan invariants, and the on-disk bit-identity contract —
    // the stored slabs must equal a recompile of the decoded model, byte
    // for byte.
    CSPM_ASSIGN_OR_RETURN(std::string extent,
                          pager_.ReadExtent(entry.plan_extent));
    if (entry.plan_bytes > extent.size()) {
      return Status::Internal(
          StrFormat("plan section of '%s' escapes its extent", name.c_str()));
    }
    const std::string_view section(extent.data(), entry.plan_bytes);
    Status section_ok =
        ValidatePlanSection(section, /*verify_slab_crcs=*/true);
    if (!section_ok.ok()) {
      return Status::Internal(StrFormat("plan section of '%s': %s",
                                        name.c_str(),
                                        section_ok.message().c_str()));
    }
    CSPM_ASSIGN_OR_RETURN(
        auto plan, PlanFromSectionBytes(section.data(), section.size(),
                                        /*storage=*/nullptr));
    Status plan_ok = plan->CheckInvariants();
    if (!plan_ok.ok()) {
      return Status::Internal(
          StrFormat("plan section of '%s' fails plan validation: %s",
                    name.c_str(), plan_ok.message().c_str()));
    }
    const std::string recompiled = EncodePlanSection(
        core::ScoringPlan::Compile(stored.model, stored.dict.size()));
    if (recompiled != section) {
      return Status::Internal(StrFormat(
          "plan section of '%s' does not match a recompile of its record "
          "(stale or corrupt section)",
          name.c_str()));
    }
    // The extent's tail padding is written as zeros; anything else means
    // the extent was scribbled on (slab CRCs cannot see past the section,
    // so this closes the only unchecksummed byte range).
    for (size_t i = entry.plan_bytes; i < extent.size(); ++i) {
      if (extent[i] != '\0') {
        return Status::Internal(StrFormat(
            "plan extent of '%s' has nonzero padding at byte %zu",
            name.c_str(), i));
      }
    }
    CSPM_ASSIGN_OR_RETURN(WalReplay replay, ReadWal(name));
    if (replay.truncated) {
      return Status::Internal(StrFormat(
          "WAL of '%s' has %zu undecodable trailing record(s)", name.c_str(),
          replay.dropped));
    }
  }
  return Status::OK();
}

std::vector<ModelStore::Info> ModelStore::List() {
  std::vector<Info> out;
  if (!EnsureLoaded().ok()) return out;
  out.reserve(catalog_.size());
  for (const auto& [name, entry] : catalog_) {
    out.push_back({name, entry.bytes, entry.num_astars, entry.wal.size(),
                   entry.plan_bytes, entry.has_graph});
  }
  return out;
}

}  // namespace cspm::store
