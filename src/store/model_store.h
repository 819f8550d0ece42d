// Multi-model store file: a catalog of named model records on top of the
// Pager. Each record is a self-contained blob (embedded attribute
// dictionary, model, optional graph snapshot) living in its own page
// chain, and each model additionally carries an mmap-native plan section
// (see plan_section.h) in a raw page extent, so serving can open a model
// in microseconds without decoding the record.
//
// The catalog itself is a bulk-loaded static B-tree over the pager:
// sorted leaf pages chained left-to-right through the page-header `next`
// link, interior pages holding (separator, child) fans, the root page id
// in the store header. Opening a store reads the header and the root
// page only; looking a model up descends O(log n) index pages (counted
// by `store.catalog.index_page_reads`) instead of decoding a linear
// catalog chain — the difference between "open one of 10k tenant models"
// and "decode 10k entries to find one". Mutations load the full catalog
// once and rebuild the index wholesale (it is small: entries are tens of
// bytes). Every entry carries a plan section; a file of any format but
// the current one is refused at open (pager.h).
//
// Each model also carries a write-ahead log of graph deltas: the
// mutations applied since its record was Put. AppendDelta writes one
// small WAL record chain per delta (the multi-MB model record is not
// rewritten); ReadWal hands the pending deltas back for replay on open,
// salvaging the valid prefix when the tail record is corrupt or
// truncated; TruncateWal drops such a tail; Put compacts — the fresh
// record reflects the deltas, so the log is cleared (see DESIGN.md §9).
//
// Every mutation (Put / PutMany / Delete / AppendDelta / TruncateWal /
// ClearWal) is one pager commit: it writes its new pages plus the
// rebuilt catalog index and free list in place, then flips the header
// slot (pager.h). A crash never leaves a half-updated store, a commit
// costs the pages it changed rather than the file, and a reader that
// opened the store before a commit keeps its snapshot through it.
#ifndef CSPM_STORE_MODEL_STORE_H_
#define CSPM_STORE_MODEL_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cspm/model.h"
#include "cspm/scoring_plan.h"
#include "graph/attribute_dictionary.h"
#include "graph/attributed_graph.h"
#include "graph/graph_delta.h"
#include "store/pager.h"
#include "util/status.h"

namespace cspm::store {

/// A model as persisted: the pattern model plus everything needed to use
/// it without the miner — the dictionary its attribute ids refer to, and
/// optionally the graph it was mined on (for vertex-level scoring).
struct StoredModel {
  core::CspmModel model;
  graph::AttributeDictionary dict;
  std::optional<graph::AttributedGraph> graph;
};

/// How the session re-mined when a WAL delta was appended, so replay can
/// roll forward the same way (the store cannot see the engine layer;
/// engine/live_model.cc maps this onto engine::UpdateMode). On-disk
/// values — do not renumber.
enum class WalDeltaMode : uint8_t {
  kExact = 0,  ///< cold re-mine, bit-identical to a cold mine
  kFast = 1,   ///< continue-from-final-model re-mine (DL-ε contract)
};

class ModelStore {
 public:
  /// Starts an empty store at `path`, replacing any existing file.
  static StatusOr<ModelStore> Create(const std::string& path);
  /// Opens an existing store (header + index root reads only).
  static StatusOr<ModelStore> Open(const std::string& path);
  /// Open if anything exists at `path`, Create otherwise. An existing
  /// file that is not a healthy store fails with Open's error — it is
  /// never overwritten.
  static StatusOr<ModelStore> OpenOrCreate(const std::string& path);

  /// True if `path` looks like a store file (magic sniff).
  static bool IsStoreFile(const std::string& path) {
    return Pager::FileHasMagic(path);
  }

  ModelStore(ModelStore&&) noexcept = default;
  ModelStore& operator=(ModelStore&&) noexcept = default;

  /// Inserts or replaces `name`, committing atomically. Compiles and
  /// persists the model's mmap-native plan section alongside the record.
  Status Put(const std::string& name, const StoredModel& stored);

  /// Put for a batch: all records and plan sections are written, then the
  /// catalog index is rebuilt and committed once — the way to populate a
  /// many-thousand-model store without paying one full commit per model.
  /// All-or-nothing: on error the durable file is untouched.
  Status PutMany(
      const std::vector<std::pair<std::string, StoredModel>>& models);

  /// Decodes the named record.
  StatusOr<StoredModel> Get(const std::string& name);

  /// Opens the model's plan section as a ready-to-serve mmap view: zero
  /// decode, zero allocation beyond the mapping itself, scores
  /// bit-identical to a freshly compiled plan. NotFound when no model has
  /// that name; IOError when the section fails validation.
  StatusOr<std::shared_ptr<const core::ScoringPlan>> OpenPlan(
      const std::string& name);

  /// Removes `name` (record, plan section and WAL) and recycles its
  /// pages, committing atomically.
  Status Delete(const std::string& name);

  // --- write-ahead log of graph deltas ------------------------------------

  /// Appends one graph delta to the model's WAL, committing atomically.
  /// Cost is proportional to the delta, not the model record. `mode`
  /// records how the live session re-mined, so replay can honour it.
  Status AppendDelta(const std::string& name, const graph::GraphDelta& delta,
                     WalDeltaMode mode = WalDeltaMode::kExact);

  struct WalReplay {
    std::vector<graph::GraphDelta> deltas;  ///< oldest first
    /// modes[i] is how deltas[i] was re-mined when appended.
    std::vector<WalDeltaMode> modes;
    /// True when a corrupt or truncated tail record stopped the walk; the
    /// valid prefix is still returned, `dropped` counts the lost records.
    bool truncated = false;
    size_t dropped = 0;
  };
  /// Decodes the model's pending deltas (replay-on-open path).
  StatusOr<WalReplay> ReadWal(const std::string& name);

  /// Keeps the model's first `kept` pending deltas and drops the rest,
  /// committing (a no-op when the WAL holds no more than `kept`). After a
  /// replay salvaged a torn tail, truncating to the replayed count makes
  /// the record plus the WAL reproduce exactly the replayed session.
  Status TruncateWal(const std::string& name, size_t kept);

  /// Drops all of the model's pending deltas (compaction): TruncateWal to
  /// zero. Also run implicitly by Put: a fresh record already reflects its
  /// deltas.
  Status ClearWal(const std::string& name) { return TruncateWal(name, 0); }

  struct Info {
    std::string name;
    uint64_t bytes = 0;      ///< encoded record size
    uint64_t num_astars = 0;
    uint64_t wal_records = 0;  ///< pending deltas in the WAL
    uint64_t plan_bytes = 0;   ///< plan section size
    bool has_graph = false;
  };
  /// Catalog listing, sorted by name. Loads the full catalog.
  std::vector<Info> List();

  /// Deep structural audit of the page graph: walks the catalog index
  /// (validating separator/leaf ordering and the leaf level links),
  /// every record, WAL chain and plan extent, the free list and its
  /// chain, and the header page's zero padding, checking
  /// that each page of the file is claimed by exactly one owner, that no
  /// chain cycles or escapes the file, and that every chain's payload
  /// size matches what the catalog promises. Catches pointer-level
  /// corruption that the per-page CRCs cannot see — a well-formed page
  /// spliced into the wrong chain, a truncated chain, a leaked or
  /// doubly-linked page, a bent index leaf link.
  Status CheckInvariants();

  /// Everything CheckInvariants does, plus a decode pass: every record is
  /// decoded, cross-checked against its catalog entry, its model values
  /// bounds-checked against its dictionary, its graph snapshot run
  /// through the deep graph validator, its WAL fully replayable, and its
  /// plan section swept (per-slab CRCs, deep plan invariants, and a
  /// byte-for-byte match against a recompile of the decoded model — the
  /// on-disk bit-identity contract). Backs `cspm_shell fsck <file>`.
  Status Fsck();

  /// True when `name` exists. May descend the index (O(log n) page
  /// reads) on a lazily opened store.
  bool Contains(const std::string& name);
  /// Number of models. O(1): the index root carries the total count.
  size_t size() const { return catalog_loaded_ ? catalog_.size()
                                               : catalog_count_; }
  const std::string& path() const { return pager_.path(); }

 private:
  /// One pending WAL record: its chain head and encoded size.
  struct WalRecord {
    uint32_t head = Pager::kNoPage;
    uint64_t bytes = 0;
  };
  struct Entry {
    uint32_t head = Pager::kNoPage;
    uint64_t bytes = 0;
    uint64_t num_astars = 0;
    bool has_graph = false;
    /// Raw extent holding the mmap-native plan section.
    Pager::Extent plan_extent;
    /// Exact encoded section size (the extent is zero-padded to pages).
    uint64_t plan_bytes = 0;
    std::vector<WalRecord> wal;  ///< oldest first
  };

  /// One parsed catalog index node.
  struct IndexNode {
    bool leaf = false;
    uint64_t count = 0;  ///< entries in this subtree
    uint32_t next = Pager::kNoPage;  ///< leaf level link (leaves only)
    std::vector<std::pair<std::string, Entry>> entries;  ///< leaves
    /// (separator, child page). children[0].first is the subtree's first
    /// name — also used as this node's separator one level up.
    std::vector<std::pair<std::string, uint32_t>> children;
  };

  explicit ModelStore(Pager pager) : pager_(std::move(pager)) {}

  Status LoadCatalog();
  /// Loads every entry into catalog_ (mutations and List need the full
  /// map; lookups do not).
  Status EnsureLoaded();
  /// Finds one entry: the in-memory map when loaded, otherwise an
  /// O(log n) index descent (result cached). NotFound when absent.
  StatusOr<const Entry*> LookupEntry(const std::string& name);
  /// Reads and parses one index node, counting the page read.
  StatusOr<IndexNode> ReadIndexNode(uint32_t page_id);
  /// Frees the on-disk catalog index, best-effort, and clears the header
  /// reference.
  void FreeDiskCatalog();
  /// Collects every page of the index rooted at `root` (interior nodes
  /// and leaves; cycle-guarded). Pages found before an error are kept.
  Status CollectIndexPages(uint32_t root, std::vector<uint32_t>* pages);
  /// Rebuilds the catalog index from `catalog_` and commits the pager.
  Status SaveCatalogAndCommit();
  /// Writes `stored`'s record chain and plan section; fills `entry`.
  Status WriteModelRecord(const StoredModel& stored, Entry* entry);
  /// Frees the WAL chains of `entry` after its first `kept` records
  /// (best-effort) and drops them from the list.
  void DropWalChains(Entry* entry, size_t kept);

  Pager pager_;
  /// All entries when catalog_loaded_; otherwise empty (see
  /// lookup_cache_ for the descent results).
  std::map<std::string, Entry> catalog_;
  /// Entries found by index descent on a lazily opened store.
  std::map<std::string, Entry> lookup_cache_;
  bool catalog_loaded_ = false;
  /// Total entries, from the index root (meaningful when not loaded).
  uint64_t catalog_count_ = 0;
};

}  // namespace cspm::store

#endif  // CSPM_STORE_MODEL_STORE_H_
