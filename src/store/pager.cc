#include "store/pager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/codec.h"
#include "store/plan_section.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace cspm::store {
namespace {

// Header page: the prefix (magic, version, page size), then two slots.
constexpr size_t kHeaderPrefixBytes = 16;
constexpr size_t kSlotBytes = 24;
constexpr size_t kSlotCrcOffset = 20;
constexpr size_t kHeaderUsedBytes = kHeaderPrefixBytes + 2 * kSlotBytes;
// A commit writes at most this many pages per write call.
constexpr uint32_t kMaxPagesPerWrite = 64;

void PutU32(char* dst, uint32_t v) {
  dst[0] = static_cast<char>(v & 0xFF);
  dst[1] = static_cast<char>((v >> 8) & 0xFF);
  dst[2] = static_cast<char>((v >> 16) & 0xFF);
  dst[3] = static_cast<char>((v >> 24) & 0xFF);
}

uint32_t GetU32(const char* src) {
  const auto* p = reinterpret_cast<const uint8_t*>(src);
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void PutU64(char* dst, uint64_t v) {
  PutU32(dst, static_cast<uint32_t>(v));
  PutU32(dst + 4, static_cast<uint32_t>(v >> 32));
}

uint64_t GetU64(const char* src) {
  return static_cast<uint64_t>(GetU32(src)) |
         (static_cast<uint64_t>(GetU32(src + 4)) << 32);
}

std::string ErrnoText() { return std::strerror(errno); }

/// The fields one v4 header slot carries.
struct Slot {
  uint32_t num_pages = 0;
  uint32_t free_head = Pager::kNoPage;
  uint32_t catalog_head = Pager::kNoPage;
  uint64_t sequence = 0;
};

uint32_t SlotCrc(const char* prefix, const char* slot) {
  char sealed[kHeaderPrefixBytes + kSlotCrcOffset];
  std::memcpy(sealed, prefix, kHeaderPrefixBytes);
  std::memcpy(sealed + kHeaderPrefixBytes, slot, kSlotCrcOffset);
  return Crc32(sealed, sizeof(sealed));
}

void WriteHeaderPrefix(char* header) {
  std::memcpy(header, Pager::kMagic.data(), Pager::kMagic.size());
  PutU32(header + 8, Pager::kFormatVersion);
  PutU32(header + 12, Pager::kPageSize);
}

/// Encodes `slot` into `out` (kSlotBytes), sealed against `prefix`.
void RenderSlot(const Slot& slot, const char* prefix, char* out) {
  PutU32(out, slot.num_pages);
  PutU32(out + 4, slot.free_head);
  PutU32(out + 8, slot.catalog_head);
  PutU64(out + 12, slot.sequence);
  PutU32(out + kSlotCrcOffset, SlotCrc(prefix, out));
}

/// A slot that was written whole and not since damaged: CRC holds and
/// the sequence is set. A torn or never-written slot fails this.
bool ParseSlot(const char* header, int index, Slot* slot) {
  const char* raw = header + kHeaderPrefixBytes + index * kSlotBytes;
  if (GetU32(raw + kSlotCrcOffset) != SlotCrc(header, raw)) return false;
  slot->num_pages = GetU32(raw);
  slot->free_head = GetU32(raw + 4);
  slot->catalog_head = GetU32(raw + 8);
  slot->sequence = GetU64(raw + 12);
  return slot->sequence != 0;
}

// --- write seam -------------------------------------------------------------

std::atomic<uint64_t> g_writes{0};
std::atomic<uint64_t> g_fail_at{0};
std::atomic<bool> g_tear{false};

/// Claims the next write number; true when the seam says it must fail.
bool WriteFaults(uint64_t* number) {
  *number = ++g_writes;
  const uint64_t fail_at = g_fail_at.load();
  return fail_at != 0 && *number >= fail_at;
}

Status InjectedFault(const std::string& path, uint64_t number) {
  return Status::IOError(StrFormat("injected fault at write %llu to %s",
                                   static_cast<unsigned long long>(number),
                                   path.c_str()));
}

/// Every page, slot and image write goes through here (see
/// SetWriteFaultForTesting).
Status WriteAt(int fd, const char* data, size_t len, uint64_t offset,
               const std::string& path) {
  uint64_t number = 0;
  if (WriteFaults(&number)) {
    if (number == g_fail_at.load() && g_tear.load()) {
      (void)::pwrite(fd, data, len / 2, static_cast<off_t>(offset));
    }
    return InjectedFault(path, number);
  }
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, data, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write to " + path + " failed: " + ErrnoText());
    }
    data += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

Status SyncData(int fd, const std::string& path) {
  if (::fdatasync(fd) != 0) {
    return Status::IOError("fdatasync of " + path + " failed: " + ErrnoText());
  }
  return Status::OK();
}

/// fsyncs the directory that holds `path` ("." when it names none), so a
/// rename into it survives a power loss.
Status SyncParentDirectory(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("cannot open directory " + dir + ": " +
                           ErrnoText());
  }
  const bool synced = ::fsync(fd) == 0;
  const std::string error = synced ? "" : ErrnoText();
  ::close(fd);
  if (!synced) {
    return Status::IOError("fsync of directory " + dir + " failed: " + error);
  }
  return Status::OK();
}

}  // namespace

uint64_t Pager::SetWriteFaultForTesting(uint64_t fail_at, bool tear) {
  g_tear = tear;
  g_fail_at = fail_at;
  return g_writes.exchange(0);
}

Pager::FileHandle& Pager::FileHandle::operator=(FileHandle&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Pager::FileHandle::~FileHandle() {
  if (fd_ >= 0) ::close(fd_);
}

bool Pager::FileHasMagic(const std::string& path) {
  const FileHandle fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) return false;
  char head[8] = {};
  return ::pread(fd.get(), head, sizeof(head), 0) ==
             static_cast<ssize_t>(sizeof(head)) &&
         std::string_view(head, sizeof(head)) == kMagic;
}

StatusOr<Pager> Pager::Create(const std::string& path) {
  // The one-page image (prefix plus slot 0 at sequence 1) is written to a
  // temporary file, fsynced and renamed over `path`, so an existing store
  // there is replaced whole or not at all.
  char header[kPageSize] = {};
  WriteHeaderPrefix(header);
  Slot slot;
  slot.num_pages = 1;
  slot.sequence = 1;
  RenderSlot(slot, header, header + kHeaderPrefixBytes);
  const std::string tmp_path = path + ".tmp";
  Status written = [&]() -> Status {
    const FileHandle out(::open(tmp_path.c_str(),
                                O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                                0644));
    if (out.get() < 0) {
      return Status::IOError("cannot open " + tmp_path + " for writing: " +
                             ErrnoText());
    }
    CSPM_RETURN_IF_ERROR(WriteAt(out.get(), header, kPageSize, 0, tmp_path));
    if (::fsync(out.get()) != 0) {
      return Status::IOError("flush failed for " + tmp_path + ": " +
                             ErrnoText());
    }
    std::error_code ec;
    std::filesystem::rename(tmp_path, path, ec);
    if (ec) {
      return Status::IOError("rename " + tmp_path + " -> " + path +
                             " failed: " + ec.message());
    }
    return Status::OK();
  }();
  if (!written.ok()) {
    std::remove(tmp_path.c_str());
    return written;
  }
  // The rename is durable only once the directory entry is.
  CSPM_RETURN_IF_ERROR(SyncParentDirectory(path));
  Pager pager;
  pager.path_ = path;
  pager.sequence_ = 1;
  CSPM_RETURN_IF_ERROR(pager.OpenFile(nullptr));
  static auto* const pages_written = obs::GetCounter("store.pages_written");
  pages_written->Add(1);
  return pager;
}

Status Pager::OpenFile(uint64_t* file_bytes) {
  int fd = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  // A read-only file (or file system) still opens for reading; a commit
  // then fails with the write error.
  if (fd < 0) fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open store file " + path_ + ": " +
                           ErrnoText());
  }
  fd_ = FileHandle(fd);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    return Status::IOError("cannot stat " + path_ + ": " + ErrnoText());
  }
  file_dev_ = static_cast<uint64_t>(st.st_dev);
  file_ino_ = static_cast<uint64_t>(st.st_ino);
  file_pages_ = static_cast<uint64_t>(st.st_size) / kPageSize;
  if (file_bytes != nullptr) *file_bytes = static_cast<uint64_t>(st.st_size);
  return Status::OK();
}

StatusOr<Pager> Pager::Open(const std::string& path) {
  Pager pager;
  pager.path_ = path;
  uint64_t file_bytes = 0;
  CSPM_RETURN_IF_ERROR(pager.OpenFile(&file_bytes));
  if (file_bytes < kPageSize) {
    return Status::IOError(
        StrFormat("truncated store file %s: %llu bytes, need at least one "
                  "%u-byte page",
                  path.c_str(), static_cast<unsigned long long>(file_bytes),
                  kPageSize));
  }
  char header[kPageSize];
  if (::pread(pager.fd_.get(), header, kPageSize, 0) !=
      static_cast<ssize_t>(kPageSize)) {
    return Status::IOError("short read of store header in " + path);
  }
  CSPM_RETURN_IF_ERROR(pager.ParseHeader(header, file_bytes));
  return pager;
}

Status Pager::ParseHeader(const char* header, uint64_t file_bytes) {
  if (std::string_view(header, kMagic.size()) != kMagic) {
    return Status::IOError("not a cspm store file (bad magic): " + path_);
  }
  const uint32_t version = GetU32(header + 8);
  if (version != kFormatVersion) {
    // Older layouts (one header, linked free list, linear catalog) are
    // refused here rather than misparsed below.
    return Status::IOError(
        StrFormat("store file %s has format version %u, this build reads "
                  "only version %u",
                  path_.c_str(), version, kFormatVersion));
  }
  const uint32_t page_size = GetU32(header + 12);
  if (page_size != kPageSize) {
    return Status::IOError(StrFormat("store file %s declares page size %u, "
                                     "expected %u",
                                     path_.c_str(), page_size, kPageSize));
  }
  Slot slots[2];
  const bool valid[2] = {ParseSlot(header, 0, &slots[0]),
                         ParseSlot(header, 1, &slots[1])};
  if (!valid[0] && !valid[1]) {
    return Status::IOError("store header checksum mismatch in " + path_ +
                           " (no valid header slot)");
  }
  active_slot_ =
      valid[0] && (!valid[1] || slots[0].sequence > slots[1].sequence) ? 0 : 1;
  const Slot& slot = slots[active_slot_];
  num_pages_ = slot.num_pages;
  catalog_head_ = slot.catalog_head;
  sequence_ = slot.sequence;
  if (num_pages_ == 0 || slot.free_head >= num_pages_ ||
      catalog_head_ >= num_pages_) {
    return Status::IOError("store header page references out of range in " +
                           path_);
  }
  // A longer file is the tail of a commit that never landed; a shorter
  // one lost committed pages.
  const uint64_t expected_bytes = static_cast<uint64_t>(num_pages_) * kPageSize;
  if (file_bytes < expected_bytes) {
    return Status::IOError(StrFormat(
        "truncated store file %s: header declares %u pages (%llu bytes) but "
        "file has %llu bytes",
        path_.c_str(), num_pages_,
        static_cast<unsigned long long>(expected_bytes),
        static_cast<unsigned long long>(file_bytes)));
  }
  return LoadFreeList(slot.free_head);
}

Status Pager::LoadFreeList(uint32_t head) {
  if (head == kNoPage) return Status::OK();
  CSPM_ASSIGN_OR_RETURN(std::string bytes, ReadChainPages(head, &free_chain_));
  Decoder dec(bytes);
  std::vector<uint32_t> ids;
  Status decoded = dec.ReadDeltaIds(&ids);
  if (!decoded.ok() || !dec.AtEnd()) {
    return Status::IOError("free list of " + path_ + " does not decode");
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == kNoPage || ids[i] >= num_pages_ ||
        (i > 0 && ids[i] <= ids[i - 1])) {
      return Status::IOError(StrFormat(
          "free list of %s holds page %u out of order or range", path_.c_str(),
          ids[i]));
    }
  }
  free_.insert(ids.begin(), ids.end());
  return Status::OK();
}

std::vector<uint32_t> Pager::FreePages() const {
  std::vector<uint32_t> out(free_.begin(), free_.end());
  out.insert(out.end(), pending_free_.begin(), pending_free_.end());
  std::sort(out.begin(), out.end());
  return out;
}

Status Pager::CheckHeaderPage() {
  char header[kPageSize];
  CSPM_RETURN_IF_ERROR(ReadRawPage(0, header));
  for (size_t i = kHeaderUsedBytes; i < kPageSize; ++i) {
    if (header[i] != '\0') {
      return Status::Internal(StrFormat(
          "header page of %s has nonzero padding at byte %zu", path_.c_str(),
          i));
    }
  }
  return Status::OK();
}

Status Pager::ReadRawPage(uint32_t page_id, char* out) {
  static auto* const page_reads = obs::GetCounter("store.page_reads");
  page_reads->Add(1);
  if (::pread(fd_.get(), out, kPageSize,
              static_cast<off_t>(page_id) * kPageSize) !=
      static_cast<ssize_t>(kPageSize)) {
    return Status::IOError(
        StrFormat("short read of page %u in %s", page_id, path_.c_str()));
  }
  return Status::OK();
}

Status Pager::ValidateRawPage(uint32_t page_id, const char* raw,
                              uint32_t* next, uint32_t* payload_len) const {
  const uint32_t stored_crc = GetU32(raw);
  const uint32_t actual_crc = Crc32(raw + 4, kPageSize - 4);
  if (stored_crc != actual_crc) {
    obs::GetCounter("store.crc_failures")->Add(1);
    return Status::IOError(StrFormat("page %u checksum mismatch in %s "
                                     "(corrupt store file)",
                                     page_id, path_.c_str()));
  }
  *next = GetU32(raw + 4);
  *payload_len = GetU32(raw + 8);
  if (*payload_len > kPagePayload || *next >= num_pages_) {
    return Status::IOError(
        StrFormat("page %u has corrupt header fields in %s", page_id,
                  path_.c_str()));
  }
  return Status::OK();
}

Status Pager::CheckPageId(uint32_t page_id) const {
  if (page_id == kNoPage || page_id >= num_pages_) {
    return Status::IOError(StrFormat("page %u out of range in %s (%u pages)",
                                     page_id, path_.c_str(), num_pages_));
  }
  return Status::OK();
}

StatusOr<Pager::PageHeader> Pager::ReadPageHeader(uint32_t page_id) {
  CSPM_RETURN_IF_ERROR(CheckPageId(page_id));
  auto it = dirty_.find(page_id);
  if (it != dirty_.end()) {
    return PageHeader{it->second.next, it->second.payload_len};
  }
  char raw[kPageSize];
  CSPM_RETURN_IF_ERROR(ReadRawPage(page_id, raw));
  PageHeader header;
  CSPM_RETURN_IF_ERROR(
      ValidateRawPage(page_id, raw, &header.next, &header.payload_len));
  return header;
}

StatusOr<Pager::DataPage> Pager::ReadDataPage(uint32_t page_id) {
  CSPM_RETURN_IF_ERROR(CheckPageId(page_id));
  DataPage out;
  auto it = dirty_.find(page_id);
  if (it != dirty_.end()) {
    out.payload.assign(
        reinterpret_cast<const char*>(it->second.payload.data()),
        it->second.payload_len);
    out.next = it->second.next;
    return out;
  }
  char raw[kPageSize];
  CSPM_RETURN_IF_ERROR(ReadRawPage(page_id, raw));
  uint32_t payload_len = 0;
  CSPM_RETURN_IF_ERROR(
      ValidateRawPage(page_id, raw, &out.next, &payload_len));
  out.payload.assign(raw + kPageHeaderBytes, payload_len);
  return out;
}

const std::vector<std::pair<uint32_t, uint32_t>>& Pager::Pins() {
  // Read once per transaction: a view only ever maps pages that are live
  // in some commit, so no free page gains a pin while one is open.
  if (!pins_loaded_) {
    pins_.clear();
    for (const auto& [begin, end] : MappedPlanRanges(file_dev_, file_ino_)) {
      pins_.emplace_back(static_cast<uint32_t>(begin / kPageSize),
                         static_cast<uint32_t>((end + kPageSize - 1) /
                                               kPageSize));
    }
    std::sort(pins_.begin(), pins_.end());
    pins_loaded_ = true;
  }
  return pins_;
}

uint32_t Pager::FirstAllocatable() {
  const auto& pins = Pins();
  auto it = free_.begin();
  while (it != free_.end()) {
    uint32_t pinned_until = 0;
    for (const auto& [first, end] : pins) {
      if (first <= *it && *it < end) pinned_until = std::max(pinned_until, end);
    }
    if (pinned_until == 0) return *it;
    it = free_.lower_bound(pinned_until);
  }
  return kNoPage;
}

uint32_t Pager::AllocatePage() {
  uint32_t id = FirstAllocatable();
  if (id == kNoPage) {
    id = num_pages_++;
  } else {
    free_.erase(id);
  }
  dirty_[id] = Page{};
  return id;
}

uint32_t Pager::AllocateExtentRun(uint32_t n) {
  const auto& pins = Pins();
  uint32_t run_start = kNoPage;
  uint32_t run = 0;
  uint32_t prev = kNoPage;
  for (uint32_t id : free_) {
    const bool pinned =
        std::any_of(pins.begin(), pins.end(), [id](const auto& pin) {
          return pin.first <= id && id < pin.second;
        });
    if (pinned) {
      run = 0;
      continue;
    }
    if (run == 0 || id != prev + 1) {
      run_start = id;
      run = 0;
    }
    prev = id;
    if (++run == n) {
      for (uint32_t i = 0; i < n; ++i) free_.erase(run_start + i);
      return run_start;
    }
  }
  return kNoPage;
}

void Pager::FreePage(uint32_t page_id) {
  dirty_.erase(page_id);
  raw_pages_.erase(page_id);
  pending_free_.insert(page_id);
}

StatusOr<uint32_t> Pager::WriteDataPage(std::string_view payload,
                                        uint32_t next) {
  if (payload.size() > kPagePayload) {
    return Status::InvalidArgument(
        StrFormat("single-page payload of %zu bytes exceeds the %u-byte "
                  "page payload",
                  payload.size(), kPagePayload));
  }
  const uint32_t id = AllocatePage();
  Page& page = dirty_.at(id);
  if (!payload.empty()) {
    std::memcpy(page.payload.data(), payload.data(), payload.size());
  }
  page.payload_len = static_cast<uint32_t>(payload.size());
  page.next = next;
  return id;
}

Status Pager::FreeSinglePage(uint32_t page_id) {
  CSPM_RETURN_IF_ERROR(CheckPageId(page_id));
  FreePage(page_id);
  return Status::OK();
}

StatusOr<Pager::Extent> Pager::WriteExtent(std::string_view bytes) {
  if (bytes.empty()) {
    return Status::InvalidArgument("an extent must carry at least one byte");
  }
  Extent extent;
  extent.num_pages =
      static_cast<uint32_t>((bytes.size() + kPageSize - 1) / kPageSize);
  extent.first_page = AllocateExtentRun(extent.num_pages);
  if (extent.first_page == kNoPage) {
    extent.first_page = num_pages_;
    num_pages_ += extent.num_pages;
  }
  size_t offset = 0;
  for (uint32_t i = 0; i < extent.num_pages; ++i) {
    auto raw = std::make_unique<RawPage>();
    raw->fill(0);
    const size_t n = std::min<size_t>(kPageSize, bytes.size() - offset);
    std::memcpy(raw->data(), bytes.data() + offset, n);
    offset += n;
    raw_pages_[extent.first_page + i] = std::move(raw);
  }
  return extent;
}

StatusOr<std::string> Pager::ReadExtent(Extent extent) {
  if (extent.first_page == kNoPage || extent.num_pages == 0 ||
      extent.first_page >= num_pages_ ||
      num_pages_ - extent.first_page < extent.num_pages) {
    return Status::IOError(
        StrFormat("extent [%u, +%u) out of range in %s (%u pages)",
                  extent.first_page, extent.num_pages, path_.c_str(),
                  num_pages_));
  }
  std::string out;
  out.resize(static_cast<size_t>(extent.num_pages) * kPageSize);
  for (uint32_t i = 0; i < extent.num_pages; ++i) {
    const uint32_t id = extent.first_page + i;
    char* dst = out.data() + static_cast<size_t>(i) * kPageSize;
    auto it = raw_pages_.find(id);
    if (it != raw_pages_.end()) {
      std::memcpy(dst, it->second->data(), kPageSize);
    } else {
      CSPM_RETURN_IF_ERROR(ReadRawPage(id, dst));
    }
  }
  return out;
}

Status Pager::FreeExtent(Extent extent) {
  if (extent.first_page == kNoPage || extent.num_pages == 0 ||
      extent.first_page >= num_pages_ ||
      num_pages_ - extent.first_page < extent.num_pages) {
    return Status::IOError(
        StrFormat("extent [%u, +%u) out of range in %s (%u pages)",
                  extent.first_page, extent.num_pages, path_.c_str(),
                  num_pages_));
  }
  for (uint32_t i = 0; i < extent.num_pages; ++i) {
    FreePage(extent.first_page + i);
  }
  return Status::OK();
}

StatusOr<uint32_t> Pager::WriteChain(std::string_view bytes) {
  static auto* const write_hist =
      obs::GetHistogram("phase.store.write_chain");
  obs::ScopedPhaseTimer write_timer(write_hist);
  uint32_t head = kNoPage;
  Page* prev = nullptr;
  size_t offset = 0;
  do {
    const uint32_t id = AllocatePage();
    if (prev != nullptr) {
      prev->next = id;
    } else {
      head = id;
    }
    Page& page = dirty_.at(id);
    const size_t n = std::min<size_t>(kPagePayload, bytes.size() - offset);
    std::memcpy(page.payload.data(), bytes.data() + offset, n);
    page.payload_len = static_cast<uint32_t>(n);
    offset += n;
    prev = &page;
  } while (offset < bytes.size());
  return head;
}

StatusOr<std::string> Pager::ReadChain(uint32_t head) {
  static auto* const read_hist = obs::GetHistogram("phase.store.read_chain");
  obs::ScopedPhaseTimer read_timer(read_hist);
  return ReadChainPages(head, nullptr);
}

StatusOr<std::string> Pager::ReadChainPages(uint32_t head,
                                            std::vector<uint32_t>* pages) {
  std::string out;
  uint32_t id = head;
  uint32_t visited = 0;
  char raw[kPageSize];
  while (id != kNoPage) {
    if (++visited > num_pages_) {
      return Status::IOError(
          StrFormat("page chain starting at %u cycles in %s", head,
                    path_.c_str()));
    }
    CSPM_RETURN_IF_ERROR(CheckPageId(id));
    if (pages != nullptr) pages->push_back(id);
    auto it = dirty_.find(id);
    if (it != dirty_.end()) {
      out.append(reinterpret_cast<const char*>(it->second.payload.data()),
                 it->second.payload_len);
      id = it->second.next;
      continue;
    }
    CSPM_RETURN_IF_ERROR(ReadRawPage(id, raw));
    uint32_t next = 0;
    uint32_t payload_len = 0;
    CSPM_RETURN_IF_ERROR(ValidateRawPage(id, raw, &next, &payload_len));
    out.append(raw + kPageHeaderBytes, payload_len);
    id = next;
  }
  return out;
}

Status Pager::FreeChain(uint32_t head) {
  uint32_t id = head;
  uint32_t visited = 0;
  while (id != kNoPage) {
    if (++visited > num_pages_) {
      return Status::IOError(
          StrFormat("page chain starting at %u cycles in %s", head,
                    path_.c_str()));
    }
    CSPM_ASSIGN_OR_RETURN(PageHeader page, ReadPageHeader(id));
    FreePage(id);
    id = page.next;
  }
  return Status::OK();
}

std::vector<uint32_t> Pager::StageFreeList() {
  // The list this commit publishes: what is free now, what this
  // transaction freed, and the committed list's own chain — minus the
  // pages the new chain takes. Taking a page never lengthens the encoding
  // (varint(a + b) <= varint(a) + varint(b)), so the loop ends.
  std::vector<uint32_t> chain;
  std::string bytes;
  for (;;) {
    std::vector<uint32_t> ids(free_.begin(), free_.end());
    ids.insert(ids.end(), pending_free_.begin(), pending_free_.end());
    ids.insert(ids.end(), free_chain_.begin(), free_chain_.end());
    std::sort(ids.begin(), ids.end());
    if (ids.empty() && chain.empty()) return chain;
    Encoder enc;
    enc.PutDeltaIds(ids);
    bytes = enc.Release();
    const size_t needed =
        std::max<size_t>(1, (bytes.size() + kPagePayload - 1) / kPagePayload);
    if (chain.size() >= needed) break;
    const uint32_t id = FirstAllocatable();
    if (id != kNoPage) {
      free_.erase(id);
      chain.push_back(id);
    } else {
      // Growing for the chain: add a free twin page too. This commit's
      // chain is reusable only from the commit after next, so without a
      // twin the next commit would have to grow the file again.
      free_.insert(num_pages_++);
      chain.push_back(num_pages_++);
    }
  }
  size_t offset = 0;
  for (size_t i = 0; i < chain.size(); ++i) {
    Page& page = dirty_[chain[i]];
    page = Page{};
    const size_t n = std::min<size_t>(kPagePayload, bytes.size() - offset);
    std::memcpy(page.payload.data(), bytes.data() + offset, n);
    page.payload_len = static_cast<uint32_t>(n);
    page.next = i + 1 < chain.size() ? chain[i + 1] : kNoPage;
    offset += n;
  }
  return chain;
}

void Pager::UnstageFreeList(const std::vector<uint32_t>& chain) {
  for (uint32_t id : chain) {
    dirty_.erase(id);
    free_.insert(id);
  }
}

void Pager::RenderPage(uint32_t page_id, char* out) const {
  auto raw = raw_pages_.find(page_id);
  if (raw != raw_pages_.end()) {
    // Raw extent page: its bytes go to disk exactly as given — no
    // header, no per-page CRC (the plan section checksums itself).
    std::memcpy(out, raw->second->data(), kPageSize);
    return;
  }
  const Page& page = dirty_.at(page_id);
  PutU32(out + 4, page.next);
  PutU32(out + 8, page.payload_len);
  std::memcpy(out + kPageHeaderBytes, page.payload.data(), kPagePayload);
  PutU32(out, Crc32(out + 4, kPageSize - 4));
}

Status Pager::Commit() {
  static auto* const commit_hist = obs::GetHistogram("phase.store.commit");
  obs::ScopedPhaseTimer commit_timer(commit_hist);
  Status committed = CommitInPlace();
  pins_loaded_ = false;
  return committed;
}

Status Pager::CommitInPlace() {
  static auto* const pages_written = obs::GetCounter("store.pages_written");
  const std::vector<uint32_t> chain = StageFreeList();
  auto fail = [&](Status status) {
    UnstageFreeList(chain);
    return status;
  };
  const int fd = fd_.get();

  std::vector<uint32_t> ids;
  ids.reserve(dirty_.size() + raw_pages_.size());
  for (const auto& [id, page] : dirty_) ids.push_back(id);
  for (const auto& [id, page] : raw_pages_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  // 1. Grow the file to num_pages when no page write below reaches its
  // end (a free twin, or a page freed before it was ever written).
  const uint64_t file_bytes = static_cast<uint64_t>(num_pages_) * kPageSize;
  if (file_pages_ < num_pages_ &&
      (ids.empty() || ids.back() + 1 < num_pages_)) {
    uint64_t number = 0;
    if (WriteFaults(&number)) return fail(InjectedFault(path_, number));
    if (::ftruncate(fd, static_cast<off_t>(file_bytes)) != 0) {
      return fail(Status::IOError("cannot extend " + path_ + ": " +
                                  ErrnoText()));
    }
  }

  // 2. The dirty pages, one write per run of consecutive ids. None of them
  // is reachable from the committed header.
  std::string buffer;
  for (size_t i = 0; i < ids.size();) {
    size_t j = i + 1;
    while (j < ids.size() && ids[j] == ids[j - 1] + 1 &&
           j - i < kMaxPagesPerWrite) {
      ++j;
    }
    buffer.resize((j - i) * kPageSize);
    for (size_t k = i; k < j; ++k) {
      RenderPage(ids[k], buffer.data() + (k - i) * kPageSize);
    }
    Status written = WriteAt(fd, buffer.data(), buffer.size(),
                             ExtentFileOffset(ids[i]), path_);
    if (!written.ok()) return fail(written);
    i = j;
  }
  Status synced = SyncData(fd, path_);
  if (!synced.ok()) return fail(synced);

  // 3. The commit point: the older slot, then its sync.
  char prefix[kHeaderPrefixBytes];
  WriteHeaderPrefix(prefix);
  Slot slot;
  slot.num_pages = num_pages_;
  slot.free_head = chain.empty() ? kNoPage : chain.front();
  slot.catalog_head = catalog_head_;
  slot.sequence = sequence_ + 1;
  const int target = 1 - active_slot_;
  char raw_slot[kSlotBytes];
  RenderSlot(slot, prefix, raw_slot);
  Status flipped = WriteAt(fd, raw_slot, kSlotBytes,
                           kHeaderPrefixBytes + target * kSlotBytes, path_);
  if (flipped.ok()) flipped = SyncData(fd, path_);
  if (!flipped.ok()) return fail(flipped);

  pages_written->Add(ids.size() + 1);
  sequence_ = slot.sequence;
  active_slot_ = target;
  file_pages_ = std::max<uint64_t>(file_pages_, num_pages_);
  // Pages this commit freed, and the previous list's chain, were reachable
  // from the header just replaced; from the next commit on nothing can
  // reach them.
  free_.insert(pending_free_.begin(), pending_free_.end());
  free_.insert(free_chain_.begin(), free_chain_.end());
  pending_free_.clear();
  free_chain_ = chain;
  dirty_.clear();
  // Raw extent pages are durable now; drop the in-memory images (plan
  // sections can be large) — ReadExtent reads the file again.
  raw_pages_.clear();
  return Status::OK();
}

}  // namespace cspm::store
