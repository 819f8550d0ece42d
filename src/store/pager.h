// Paged store file, following the classic database pager idiom: the file
// is an array of fixed 4 KiB pages, page 0 is the header, every page
// carries a CRC-32, freed pages are recycled through an on-disk free list,
// and Commit() is atomic via write-to-temp + fsync + rename (readers of
// the old file are never exposed to a half-written state).
//
// File layout (see DESIGN.md §6 for the full table):
//
//   page 0 (header):
//     [0..7]     magic "CSPMSTR1"
//     [8..11]    format version        (u32 LE)
//     [12..15]   page size             (u32 LE, 4096)
//     [16..19]   num_pages             (u32 LE, header included)
//     [20..23]   free-list head page   (u32 LE, 0 = empty)
//     [24..27]   catalog head page     (u32 LE, 0 = none)
//     [28..4091] reserved (zero)
//     [4092..]   CRC-32 of bytes [0, 4092)
//
//   page k > 0 (data / free):
//     [0..3]     CRC-32 of bytes [4, 4096)
//     [4..7]     next page in chain    (u32 LE, 0 = end)
//     [8..11]    payload length        (u32 LE, <= 4084)
//     [12..]     payload
//
//   raw extent pages (v3): runs of whole pages carrying verbatim bytes —
//     no page header, no per-page CRC. Used for the mmap-native plan
//     sections, whose file bytes must be exactly the bytes ScoreInto
//     reads (the section carries its own header + per-slab CRCs, see
//     plan_section.h). Which pages are extents is recorded by the owner
//     (the ModelStore catalog), never guessed by the pager.
//
// v3 keeps the v2 page geometry; it adds raw extents and switches the
// catalog to a paged index. v2 files open fine (version recorded on the
// pager); Commit always writes v3, so the first mutation upgrades in
// place through the usual atomic rename.
//
// The pager is a single-writer structure: concurrent *readers* open their
// own Pager over the same path (pages are read lazily and validated on
// first touch); concurrent writers are not supported.
#ifndef CSPM_STORE_PAGER_H_
#define CSPM_STORE_PAGER_H_

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/status.h"

namespace cspm::store {

class Pager {
 public:
  static constexpr uint32_t kPageSize = 4096;
  static constexpr uint32_t kPageHeaderBytes = 12;
  static constexpr uint32_t kPagePayload = kPageSize - kPageHeaderBytes;
  static constexpr uint32_t kNoPage = 0;
  /// v3: raw extents (mmap-native plan sections) + paged catalog index.
  static constexpr uint32_t kFormatVersion = 3;
  /// Oldest version Open still reads (v2: per-model WAL catalog lists).
  static constexpr uint32_t kMinFormatVersion = 2;
  static constexpr std::string_view kMagic = "CSPMSTR1";  // 8 bytes

  /// Starts a fresh store at `path` (header page only) and commits it,
  /// replacing any existing file.
  static StatusOr<Pager> Create(const std::string& path);

  /// Opens an existing store: validates magic, version, page size, header
  /// CRC and file length. Cost is one page read regardless of store size;
  /// data pages are read (and CRC-checked) lazily.
  static StatusOr<Pager> Open(const std::string& path);

  /// True if the file starts with the store magic (cheap format sniff; a
  /// missing or short file is simply "not a store file").
  static bool FileHasMagic(const std::string& path);

  Pager(Pager&&) noexcept = default;
  Pager& operator=(Pager&&) noexcept = default;

  const std::string& path() const { return path_; }
  uint32_t num_pages() const { return num_pages_; }
  /// Format version of the file this pager was opened over (Create()d
  /// stores are current). Commit always writes kFormatVersion.
  uint32_t format_version() const { return version_; }

  uint32_t catalog_head() const { return catalog_head_; }
  void set_catalog_head(uint32_t page_id) { catalog_head_ = page_id; }

  uint32_t free_head() const { return free_head_; }

  /// Validated header fields of one data page.
  struct PageHeader {
    uint32_t next = kNoPage;
    uint32_t payload_len = 0;
  };
  /// Reads and CRC-validates one page, returning only its header fields
  /// without caching the payload. The audit surface used by
  /// ModelStore::CheckInvariants to walk every chain of the file without
  /// decoding (or retaining) any record bytes.
  StatusOr<PageHeader> ReadPageHeader(uint32_t page_id);

  // --- single-page API (catalog index nodes) -----------------------------

  /// One validated data page: its payload bytes and next link.
  struct DataPage {
    std::string payload;
    uint32_t next = kNoPage;
  };
  /// Reads and CRC-validates exactly one page — never follows `next`.
  /// Index nodes are read this way (an index leaf's `next` links the leaf
  /// level, not a byte stream, so ReadChain would misparse it).
  StatusOr<DataPage> ReadDataPage(uint32_t page_id);

  /// Writes one fully formed data page with an explicit next link;
  /// `payload` must fit a single page. The building block for index
  /// nodes, whose links are page-level rather than chain-level.
  StatusOr<uint32_t> WriteDataPage(std::string_view payload, uint32_t next);

  /// Returns exactly one page to the free list (index nodes are freed
  /// per page; FreeChain would walk a leaf's level link as a chain).
  Status FreeSinglePage(uint32_t page_id);

  // --- raw extent API (mmap-native plan sections) ------------------------

  /// A run of contiguous whole pages carrying verbatim bytes.
  struct Extent {
    uint32_t first_page = kNoPage;
    uint32_t num_pages = 0;
  };

  /// Writes `bytes` as a fresh extent (zero-padded to whole pages),
  /// reusing a contiguous run of free pages when one is long enough and
  /// growing the file at the tail otherwise — so replacing a model's
  /// section steadily recycles the old one's pages instead of bloating
  /// the file. Durable after the next Commit.
  StatusOr<Extent> WriteExtent(std::string_view bytes);

  /// Reads an extent back verbatim (num_pages * kPageSize bytes, padding
  /// included). The fsck path; serving maps the committed file instead.
  StatusOr<std::string> ReadExtent(Extent extent);

  /// Returns an extent's pages to the free list, where chain allocation
  /// can recycle them (future extents still append; contiguity would be
  /// lost otherwise).
  Status FreeExtent(Extent extent);

  /// Byte offset of an extent's first page in the committed file — the
  /// mmap offset. Page-aligned by construction (kPageSize multiple).
  static uint64_t ExtentFileOffset(uint32_t first_page) {
    return static_cast<uint64_t>(first_page) * kPageSize;
  }

  // --- chain API (what ModelStore uses) ----------------------------------

  /// Writes `bytes` into a freshly allocated page chain; returns its head.
  StatusOr<uint32_t> WriteChain(std::string_view bytes);

  /// Reads a whole chain back as the concatenation of its page payloads.
  StatusOr<std::string> ReadChain(uint32_t head);

  /// Returns the pages of the chain to the free list. If a page fails
  /// validation the walk stops there (its `next` cannot be trusted) and
  /// an error describes the corrupt page; pages freed before the stop
  /// stay freed, the unreachable tail leaks. Callers removing a record
  /// ignore the error — dropping the catalog reference matters more than
  /// reclaiming a damaged chain.
  Status FreeChain(uint32_t head);

  /// Flushes all dirty state atomically: the full page image is written to
  /// `path + ".tmp"`, fsynced, and renamed over `path`, and then the
  /// directory is fsynced so the rename survives a power loss.
  Status Commit();

 private:
  struct Page {
    uint32_t next = kNoPage;
    uint32_t payload_len = 0;
    std::array<uint8_t, kPagePayload> payload{};
    bool dirty = false;
  };

  Pager() = default;

  /// CRC-checks a raw page image and extracts its header fields.
  Status ValidateRawPage(uint32_t page_id, const char* raw, uint32_t* next,
                         uint32_t* payload_len) const;
  /// Returns the cached page, reading + CRC-validating it on first touch.
  StatusOr<Page*> FetchPage(uint32_t page_id);
  /// Allocates a page from the free list (or grows the file).
  StatusOr<uint32_t> AllocatePage();
  /// Claims `n` *contiguous* pages from the free list for an extent,
  /// relinking the remainder; kNoPage when no run is long enough.
  StatusOr<uint32_t> AllocateExtentRun(uint32_t n);
  /// Pushes a page onto the free list.
  void FreePage(uint32_t page_id);
  Status ReadRawPage(uint32_t page_id, char* out);

  std::string path_;
  uint32_t version_ = kFormatVersion;
  uint32_t num_pages_ = 1;
  uint32_t free_head_ = kNoPage;
  uint32_t catalog_head_ = kNoPage;
  /// Lazily populated page cache; page 0 (the header) is never cached —
  /// its fields live directly on the Pager and are re-serialized on
  /// Commit().
  std::unordered_map<uint32_t, Page> cache_;
  /// Dirty raw-extent pages: full verbatim page images awaiting Commit.
  /// Disjoint from cache_ by construction (WriteExtent only uses fresh
  /// tail pages; FreeExtent erases here before the page re-enters the
  /// header-carrying world).
  std::unordered_map<uint32_t, std::unique_ptr<std::array<char, kPageSize>>>
      raw_pages_;
  /// Read handle on the last committed file image; absent for a Create()d
  /// store that was never committed (then every page is cached).
  mutable std::ifstream file_;
};

}  // namespace cspm::store

#endif  // CSPM_STORE_PAGER_H_
