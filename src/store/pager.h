// Paged store file, following the classic database pager idiom: the file
// is an array of fixed 4 KiB pages, page 0 is the header, every data page
// carries a CRC-32, and a commit is shadow-paged: it writes only the pages
// it changed, each to a page the last committed header cannot reach, and
// then flips one of two header slots. Readers of the committed state are
// never exposed to a half-written one.
//
// File layout, format v4 (see DESIGN.md §6 for the full table):
//
//   page 0 (header):
//     [0..7]     magic "CSPMSTR1"
//     [8..11]    format version        (u32 LE)
//     [12..15]   page size             (u32 LE, 4096)
//     [16..39]   header slot 0
//     [40..63]   header slot 1
//     [64..4095] zero (fsck checks it)
//
//   header slot (24 bytes, offsets within the slot):
//     [0..3]     num_pages             (u32 LE, header page included)
//     [4..7]     free-list chain head  (u32 LE, 0 = no free pages)
//     [8..11]    catalog root page     (u32 LE, 0 = none)
//     [12..19]   sequence number       (u64 LE, 0 = never written)
//     [20..23]   CRC-32 of page bytes [0, 16) then slot bytes [0, 20)
//
//   Open uses the slot with the highest sequence number whose CRC holds.
//
//   page k > 0 (data):
//     [0..3]     CRC-32 of bytes [4, 4096)
//     [4..7]     next page in chain    (u32 LE, 0 = end)
//     [8..11]    payload length        (u32 LE, <= 4084)
//     [12..]     payload
//
//   free-list chain: a data-page chain whose payload is the ascending ids
//     of every free page (varint count, then varint deltas). Each commit
//     writes it afresh; the free pages themselves carry nothing.
//
//   raw extent pages: runs of whole pages carrying verbatim bytes — no
//     page header, no per-page CRC. Used for the mmap-native plan
//     sections, whose file bytes must be exactly the bytes ScoreInto
//     reads (the section carries its own header + per-slab CRCs, see
//     plan_section.h). Which pages are extents is recorded by the owner
//     (the ModelStore catalog), never guessed by the pager.
//
// Commit: pwrite the dirty pages, fdatasync, pwrite the older header slot
// with sequence + 1, fdatasync. A crash anywhere before the slot write
// completes leaves the newer slot describing the previous commit, whose
// pages no write touched; a torn slot fails its CRC and loses to it.
//
// Page reuse: a page freed by commit N is still reachable from header
// N - 1, which stays on disk until commit N + 1 overwrites its slot, so
// the page is allocated from commit N + 1 on. A reader that opened the
// file before commit N therefore keeps a consistent view through that
// one commit. Free pages that a live MmapPlanView of the same file (same
// device and inode, this process) still maps are never allocated: on
// Linux, file writes show through MAP_PRIVATE pages that were not copied.
//
// v4 is the only format this build opens: a file of any other version is
// refused at Open. Create() writes the one-page image to a temporary
// file, fsyncs it and renames it over `path`; every later commit is in
// place.
//
// The pager is a single-writer structure: concurrent *readers* open their
// own Pager over the same path (pages are read lazily and validated on
// first touch); concurrent writers are not supported.
#ifndef CSPM_STORE_PAGER_H_
#define CSPM_STORE_PAGER_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace cspm::store {

class Pager {
 public:
  static constexpr uint32_t kPageSize = 4096;
  static constexpr uint32_t kPageHeaderBytes = 12;
  static constexpr uint32_t kPagePayload = kPageSize - kPageHeaderBytes;
  static constexpr uint32_t kNoPage = 0;
  /// Double-buffered header slots + free-list chain (in-place commits);
  /// the only version Open accepts.
  static constexpr uint32_t kFormatVersion = 4;
  static constexpr std::string_view kMagic = "CSPMSTR1";  // 8 bytes

  /// Starts a fresh store at `path` (header page only), atomically
  /// replacing any existing file.
  static StatusOr<Pager> Create(const std::string& path);

  /// Opens an existing store: validates magic, version, page size, the
  /// header slot CRCs and file length, and loads the free list. Data pages
  /// are read (and CRC-checked) lazily.
  static StatusOr<Pager> Open(const std::string& path);

  /// True if the file starts with the store magic (cheap format sniff; a
  /// missing or short file is simply "not a store file").
  static bool FileHasMagic(const std::string& path);

  Pager(Pager&&) noexcept = default;
  Pager& operator=(Pager&&) noexcept = default;

  const std::string& path() const { return path_; }
  uint32_t num_pages() const { return num_pages_; }

  uint32_t catalog_head() const { return catalog_head_; }
  void set_catalog_head(uint32_t page_id) { catalog_head_ = page_id; }

  /// Free pages, ascending (the audit's view).
  std::vector<uint32_t> FreePages() const;
  /// Head of the committed free-list chain (kNoPage when nothing is free).
  uint32_t free_list_head() const {
    return free_chain_.empty() ? kNoPage : free_chain_.front();
  }
  /// Fsck's check of page 0: bytes outside the magic, version, page size
  /// and the two slots must be zero (a flip there trips no CRC).
  Status CheckHeaderPage();

  /// Validated header fields of one data page.
  struct PageHeader {
    uint32_t next = kNoPage;
    uint32_t payload_len = 0;
  };
  /// Reads and CRC-validates one page, returning only its header fields.
  /// The audit surface used by ModelStore::CheckInvariants to walk every
  /// chain of the file without decoding (or retaining) any record bytes.
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

  /// Frees exactly one page (index nodes are freed per page; FreeChain
  /// would walk a leaf's level link as a chain).
  Status FreeSinglePage(uint32_t page_id);

  // --- raw extent API (mmap-native plan sections) ------------------------

  /// A run of contiguous whole pages carrying verbatim bytes.
  struct Extent {
    uint32_t first_page = kNoPage;
    uint32_t num_pages = 0;
  };

  /// Writes `bytes` as a fresh extent (zero-padded to whole pages),
  /// reusing a contiguous run of allocatable free pages when one is long
  /// enough and growing the file at the tail otherwise. Durable after the
  /// next Commit.
  StatusOr<Extent> WriteExtent(std::string_view bytes);

  /// Reads an extent back verbatim (num_pages * kPageSize bytes, padding
  /// included). The fsck path; serving maps the committed file instead.
  StatusOr<std::string> ReadExtent(Extent extent);

  /// Frees an extent's pages.
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

  /// Frees the pages of the chain. If a page fails validation the walk
  /// stops there (its `next` cannot be trusted) and an error describes the
  /// corrupt page; pages freed before the stop stay freed, the unreachable
  /// tail leaks. Callers removing a record ignore the error — dropping the
  /// catalog reference matters more than reclaiming a damaged chain.
  Status FreeChain(uint32_t head);

  /// Makes every change since the last commit durable, atomically, by
  /// the in-place protocol above. On error the file still holds the
  /// previous commit and the changes stay pending for a retry.
  Status Commit();

  /// Test-only crash seam. Every write the pager issues (a run of pages,
  /// a header slot, a file extension, Create's image) is
  /// counted process-wide. When `fail_at` > 0, the write with that number
  /// is dropped — or, with `tear`, only its first half reaches the file —
  /// and it and every later write fail, as if the process died there.
  /// `fail_at` == 0 disarms the seam. Returns the number of writes counted
  /// since the previous call and restarts the count.
  static uint64_t SetWriteFaultForTesting(uint64_t fail_at, bool tear);

 private:
  struct Page {
    uint32_t next = kNoPage;
    uint32_t payload_len = 0;
    std::array<uint8_t, kPagePayload> payload{};
  };
  using RawPage = std::array<char, kPageSize>;

  /// Owns the store's one file descriptor.
  class FileHandle {
   public:
    FileHandle() = default;
    explicit FileHandle(int fd) : fd_(fd) {}
    FileHandle(FileHandle&& other) noexcept
        : fd_(std::exchange(other.fd_, -1)) {}
    FileHandle& operator=(FileHandle&& other) noexcept;
    FileHandle(const FileHandle&) = delete;
    FileHandle& operator=(const FileHandle&) = delete;
    ~FileHandle();
    int get() const { return fd_; }

   private:
    int fd_ = -1;
  };

  Pager() = default;

  /// Parses page 0 into the header fields.
  Status ParseHeader(const char* header, uint64_t file_bytes);
  /// Loads the committed free list from its chain.
  Status LoadFreeList(uint32_t head);
  /// Points fd_ at the file at path_ and records its identity and length
  /// (in bytes into `file_bytes` when non-null).
  Status OpenFile(uint64_t* file_bytes);
  /// CRC-checks a raw page image and extracts its header fields.
  Status ValidateRawPage(uint32_t page_id, const char* raw, uint32_t* next,
                         uint32_t* payload_len) const;
  Status ReadRawPage(uint32_t page_id, char* out);
  Status CheckPageId(uint32_t page_id) const;
  /// Reads a chain, optionally collecting its page ids.
  StatusOr<std::string> ReadChainPages(uint32_t head,
                                       std::vector<uint32_t>* pages);
  /// Ranges [first, end) of page ids that live plan views map.
  const std::vector<std::pair<uint32_t, uint32_t>>& Pins();
  /// Lowest allocatable free page (free and not pinned); kNoPage if none.
  uint32_t FirstAllocatable();
  /// Allocates a page (allocatable free page, or grows the file).
  uint32_t AllocatePage();
  /// Claims `n` contiguous allocatable free pages; kNoPage when no run is
  /// long enough.
  uint32_t AllocateExtentRun(uint32_t n);
  void FreePage(uint32_t page_id);
  /// Allocates this commit's free-list chain and stages its pages.
  std::vector<uint32_t> StageFreeList();
  /// Undoes StageFreeList after a failed commit.
  void UnstageFreeList(const std::vector<uint32_t>& chain);
  /// Serializes one dirty page (data or raw) into `out`.
  void RenderPage(uint32_t page_id, char* out) const;
  Status CommitInPlace();

  std::string path_;
  FileHandle fd_;
  /// Identity of the committed file, matched against plan-view pins.
  uint64_t file_dev_ = 0;
  uint64_t file_ino_ = 0;
  /// Whole pages the file holds on disk (may exceed num_pages_ after a
  /// crash left a tail).
  uint64_t file_pages_ = 0;
  uint32_t num_pages_ = 1;
  uint32_t catalog_head_ = kNoPage;
  /// Sequence number and slot of the committed header.
  uint64_t sequence_ = 0;
  int active_slot_ = 0;
  /// Free pages that may be allocated now.
  std::set<uint32_t> free_;
  /// Pages freed since the last commit: still reachable from its header.
  std::set<uint32_t> pending_free_;
  /// Pages of the committed free-list chain, in chain order.
  std::vector<uint32_t> free_chain_;
  /// Dirty data pages and dirty raw-extent page images, awaiting Commit;
  /// disjoint. Clean pages are never cached.
  std::map<uint32_t, Page> dirty_;
  std::map<uint32_t, std::unique_ptr<RawPage>> raw_pages_;
  /// Plan-view pins of this file, read once per transaction.
  std::vector<std::pair<uint32_t, uint32_t>> pins_;
  bool pins_loaded_ = false;
};

}  // namespace cspm::store

#endif  // CSPM_STORE_PAGER_H_
