#include "store/pager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace cspm::store {
namespace {

constexpr size_t kHeaderCrcOffset = Pager::kPageSize - 4;

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

std::string ErrnoText() { return std::strerror(errno); }

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

bool Pager::FileHasMagic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char head[8] = {};
  in.read(head, sizeof(head));
  return in.gcount() == sizeof(head) &&
         std::string_view(head, sizeof(head)) == kMagic;
}

StatusOr<Pager> Pager::Create(const std::string& path) {
  Pager pager;
  pager.path_ = path;
  pager.num_pages_ = 1;
  CSPM_RETURN_IF_ERROR(pager.Commit());
  return pager;
}

StatusOr<Pager> Pager::Open(const std::string& path) {
  Pager pager;
  pager.path_ = path;
  pager.file_.open(path, std::ios::binary);
  if (!pager.file_) {
    return Status::IOError("cannot open store file " + path + ": " +
                           ErrnoText());
  }
  pager.file_.seekg(0, std::ios::end);
  const uint64_t file_bytes = static_cast<uint64_t>(pager.file_.tellg());
  if (file_bytes < kPageSize) {
    return Status::IOError(
        StrFormat("truncated store file %s: %llu bytes, need at least one "
                  "%u-byte page",
                  path.c_str(), static_cast<unsigned long long>(file_bytes),
                  kPageSize));
  }

  char header[kPageSize];
  pager.file_.seekg(0);
  pager.file_.read(header, kPageSize);
  if (pager.file_.gcount() != kPageSize) {
    return Status::IOError("short read of store header in " + path);
  }
  if (std::string_view(header, kMagic.size()) != kMagic) {
    return Status::IOError("not a cspm store file (bad magic): " + path);
  }
  const uint32_t version = GetU32(header + 8);
  if (version < kMinFormatVersion || version > kFormatVersion) {
    // v2 changed the catalog layout (per-model WAL lists), so v1 files
    // are rejected here with a format error rather than misparsed below.
    return Status::IOError(
        StrFormat("store file %s has format version %u, this build reads "
                  "%u..%u",
                  path.c_str(), version, kMinFormatVersion, kFormatVersion));
  }
  pager.version_ = version;
  const uint32_t page_size = GetU32(header + 12);
  if (page_size != kPageSize) {
    return Status::IOError(StrFormat("store file %s declares page size %u, "
                                     "expected %u",
                                     path.c_str(), page_size, kPageSize));
  }
  const uint32_t stored_crc = GetU32(header + kHeaderCrcOffset);
  const uint32_t actual_crc = Crc32(header, kHeaderCrcOffset);
  if (stored_crc != actual_crc) {
    return Status::IOError("store header checksum mismatch in " + path);
  }
  pager.num_pages_ = GetU32(header + 16);
  pager.free_head_ = GetU32(header + 20);
  pager.catalog_head_ = GetU32(header + 24);
  if (pager.num_pages_ == 0 || pager.free_head_ >= pager.num_pages_ ||
      pager.catalog_head_ >= pager.num_pages_) {
    return Status::IOError("store header page references out of range in " +
                           path);
  }
  const uint64_t expected_bytes =
      static_cast<uint64_t>(pager.num_pages_) * kPageSize;
  if (file_bytes != expected_bytes) {
    return Status::IOError(StrFormat(
        "truncated store file %s: header declares %u pages (%llu bytes) but "
        "file has %llu bytes",
        path.c_str(), pager.num_pages_,
        static_cast<unsigned long long>(expected_bytes),
        static_cast<unsigned long long>(file_bytes)));
  }
  return pager;
}

Status Pager::ReadRawPage(uint32_t page_id, char* out) {
  static auto* const page_reads = obs::GetCounter("store.page_reads");
  page_reads->Add(1);
  if (!file_.is_open()) {
    return Status::Internal(
        StrFormat("page %u requested but store %s has no committed image",
                  page_id, path_.c_str()));
  }
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(page_id) * kPageSize);
  file_.read(out, kPageSize);
  if (file_.gcount() != kPageSize) {
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

StatusOr<Pager::PageHeader> Pager::ReadPageHeader(uint32_t page_id) {
  if (page_id == kNoPage || page_id >= num_pages_) {
    return Status::IOError(StrFormat("page %u out of range in %s (%u pages)",
                                     page_id, path_.c_str(), num_pages_));
  }
  auto it = cache_.find(page_id);
  if (it != cache_.end()) {
    return PageHeader{it->second.next, it->second.payload_len};
  }
  char raw[kPageSize];
  CSPM_RETURN_IF_ERROR(ReadRawPage(page_id, raw));
  PageHeader header;
  CSPM_RETURN_IF_ERROR(
      ValidateRawPage(page_id, raw, &header.next, &header.payload_len));
  return header;
}

StatusOr<Pager::Page*> Pager::FetchPage(uint32_t page_id) {
  if (page_id == kNoPage || page_id >= num_pages_) {
    return Status::IOError(StrFormat("page %u out of range in %s (%u pages)",
                                     page_id, path_.c_str(), num_pages_));
  }
  auto it = cache_.find(page_id);
  if (it != cache_.end()) return &it->second;

  char raw[kPageSize];
  CSPM_RETURN_IF_ERROR(ReadRawPage(page_id, raw));
  Page page;
  CSPM_RETURN_IF_ERROR(
      ValidateRawPage(page_id, raw, &page.next, &page.payload_len));
  std::memcpy(page.payload.data(), raw + kPageHeaderBytes, kPagePayload);
  return &cache_.emplace(page_id, page).first->second;
}

StatusOr<uint32_t> Pager::AllocatePage() {
  if (free_head_ != kNoPage) {
    const uint32_t id = free_head_;
    CSPM_ASSIGN_OR_RETURN(Page * page, FetchPage(id));
    free_head_ = page->next;
    *page = Page{};
    page->dirty = true;
    return id;
  }
  const uint32_t id = num_pages_++;
  Page& page = cache_[id];
  page = Page{};
  page.dirty = true;
  return id;
}

void Pager::FreePage(uint32_t page_id) {
  Page& page = cache_[page_id];
  page = Page{};
  page.next = free_head_;
  page.dirty = true;
  free_head_ = page_id;
}

StatusOr<Pager::DataPage> Pager::ReadDataPage(uint32_t page_id) {
  if (page_id == kNoPage || page_id >= num_pages_) {
    return Status::IOError(StrFormat("page %u out of range in %s (%u pages)",
                                     page_id, path_.c_str(), num_pages_));
  }
  auto it = cache_.find(page_id);
  if (it != cache_.end()) {
    DataPage out;
    out.payload.assign(
        reinterpret_cast<const char*>(it->second.payload.data()),
        it->second.payload_len);
    out.next = it->second.next;
    return out;
  }
  char raw[kPageSize];
  CSPM_RETURN_IF_ERROR(ReadRawPage(page_id, raw));
  DataPage out;
  uint32_t payload_len = 0;
  CSPM_RETURN_IF_ERROR(
      ValidateRawPage(page_id, raw, &out.next, &payload_len));
  out.payload.assign(raw + kPageHeaderBytes, payload_len);
  return out;
}

StatusOr<uint32_t> Pager::WriteDataPage(std::string_view payload,
                                        uint32_t next) {
  if (payload.size() > kPagePayload) {
    return Status::InvalidArgument(
        StrFormat("single-page payload of %zu bytes exceeds the %u-byte "
                  "page payload",
                  payload.size(), kPagePayload));
  }
  CSPM_ASSIGN_OR_RETURN(uint32_t id, AllocatePage());
  Page& page = cache_.at(id);
  if (!payload.empty()) {
    std::memcpy(page.payload.data(), payload.data(), payload.size());
  }
  page.payload_len = static_cast<uint32_t>(payload.size());
  page.next = next;
  return id;
}

Status Pager::FreeSinglePage(uint32_t page_id) {
  if (page_id == kNoPage || page_id >= num_pages_) {
    return Status::IOError(StrFormat("page %u out of range in %s (%u pages)",
                                     page_id, path_.c_str(), num_pages_));
  }
  FreePage(page_id);
  return Status::OK();
}

StatusOr<uint32_t> Pager::AllocateExtentRun(uint32_t n) {
  if (free_head_ == kNoPage) return kNoPage;
  // Materialize the free list (it is short: freed chains and sections of
  // this store, not a global heap) and look for n consecutive ids.
  std::vector<uint32_t> free_ids;
  uint32_t id = free_head_;
  uint32_t visited = 0;
  while (id != kNoPage) {
    if (++visited > num_pages_) {
      return Status::IOError("free list cycles in " + path_);
    }
    CSPM_ASSIGN_OR_RETURN(Page * page, FetchPage(id));
    free_ids.push_back(id);
    id = page->next;
  }
  std::sort(free_ids.begin(), free_ids.end());
  uint32_t run_start = kNoPage;
  for (size_t i = 0, run = 1; i < free_ids.size(); ++i, ++run) {
    if (i > 0 && free_ids[i] != free_ids[i - 1] + 1) run = 1;
    if (run >= n) {
      run_start = free_ids[i] - (n - 1);
      break;
    }
  }
  if (run_start == kNoPage) return kNoPage;
  // Rebuild the free list without the claimed run; the run's pages leave
  // the header-carrying world entirely (their cache entries go away — as
  // raw extent pages they must not be committed with a page header).
  free_head_ = kNoPage;
  for (auto it = free_ids.rbegin(); it != free_ids.rend(); ++it) {
    if (*it >= run_start && *it < run_start + n) {
      cache_.erase(*it);
      continue;
    }
    Page& page = cache_.at(*it);
    page.next = free_head_;
    page.dirty = true;
    free_head_ = *it;
  }
  return run_start;
}

StatusOr<Pager::Extent> Pager::WriteExtent(std::string_view bytes) {
  if (bytes.empty()) {
    return Status::InvalidArgument("an extent must carry at least one byte");
  }
  Extent extent;
  extent.num_pages =
      static_cast<uint32_t>((bytes.size() + kPageSize - 1) / kPageSize);
  CSPM_ASSIGN_OR_RETURN(extent.first_page,
                        AllocateExtentRun(extent.num_pages));
  if (extent.first_page == kNoPage) {
    extent.first_page = num_pages_;
    num_pages_ += extent.num_pages;
  }
  size_t offset = 0;
  for (uint32_t i = 0; i < extent.num_pages; ++i) {
    auto raw = std::make_unique<std::array<char, kPageSize>>();
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
    const uint32_t id = extent.first_page + i;
    raw_pages_.erase(id);
    FreePage(id);
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
    CSPM_ASSIGN_OR_RETURN(uint32_t id, AllocatePage());
    if (prev != nullptr) {
      prev->next = id;
    } else {
      head = id;
    }
    Page& page = cache_.at(id);
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
    if (id >= num_pages_) {
      return Status::IOError(StrFormat("page %u out of range in %s (%u pages)",
                                       id, path_.c_str(), num_pages_));
    }
    // Fast path: untouched pages stream straight from the file, validated
    // but never copied into the cache — a chain is typically decoded once
    // per Get and caching megabytes of record pages would be pure waste.
    auto it = cache_.find(id);
    if (it != cache_.end()) {
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
    CSPM_ASSIGN_OR_RETURN(Page * page, FetchPage(id));
    const uint32_t next = page->next;
    FreePage(id);
    id = next;
  }
  return Status::OK();
}

Status Pager::Commit() {
  static auto* const commit_hist = obs::GetHistogram("phase.store.commit");
  static auto* const pages_written = obs::GetCounter("store.pages_written");
  obs::ScopedPhaseTimer commit_timer(commit_hist);
  pages_written->Add(num_pages_);
  const std::string tmp_path = path_ + ".tmp";
  std::FILE* out = std::fopen(tmp_path.c_str(), "wb");
  if (out == nullptr) {
    return Status::IOError("cannot open " + tmp_path + " for writing: " +
                           ErrnoText());
  }
  auto fail = [&](std::string msg) {
    std::fclose(out);
    std::remove(tmp_path.c_str());
    return Status::IOError(std::move(msg));
  };

  char raw[kPageSize];
  // Header page.
  std::memset(raw, 0, kPageSize);
  std::memcpy(raw, kMagic.data(), kMagic.size());
  PutU32(raw + 8, kFormatVersion);
  PutU32(raw + 12, kPageSize);
  PutU32(raw + 16, num_pages_);
  PutU32(raw + 20, free_head_);
  PutU32(raw + 24, catalog_head_);
  PutU32(raw + kHeaderCrcOffset, Crc32(raw, kHeaderCrcOffset));
  if (std::fwrite(raw, 1, kPageSize, out) != kPageSize) {
    return fail("write failed for " + tmp_path + ": " + ErrnoText());
  }

  for (uint32_t id = 1; id < num_pages_; ++id) {
    auto rit = raw_pages_.find(id);
    if (rit != raw_pages_.end()) {
      // Dirty raw-extent page: its bytes go to disk exactly as given —
      // no header, no per-page CRC (the plan section checksums itself).
      if (std::fwrite(rit->second->data(), 1, kPageSize, out) != kPageSize) {
        return fail("write failed for " + tmp_path + ": " + ErrnoText());
      }
      continue;
    }
    auto it = cache_.find(id);
    if (it == cache_.end()) {
      // Untouched page: copy the committed bytes through verbatim.
      Status st = ReadRawPage(id, raw);
      if (!st.ok()) return fail(st.message());
    } else {
      const Page& page = it->second;
      PutU32(raw + 4, page.next);
      PutU32(raw + 8, page.payload_len);
      std::memcpy(raw + kPageHeaderBytes, page.payload.data(), kPagePayload);
      PutU32(raw, Crc32(raw + 4, kPageSize - 4));
    }
    if (std::fwrite(raw, 1, kPageSize, out) != kPageSize) {
      return fail("write failed for " + tmp_path + ": " + ErrnoText());
    }
  }

  if (std::fflush(out) != 0 || ::fsync(::fileno(out)) != 0) {
    return fail("flush failed for " + tmp_path + ": " + ErrnoText());
  }
  if (std::fclose(out) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("close failed for " + tmp_path + ": " +
                           ErrnoText());
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, path_, ec);
  if (ec) {
    std::remove(tmp_path.c_str());
    return Status::IOError("rename " + tmp_path + " -> " + path_ +
                           " failed: " + ec.message());
  }
  // The rename is durable only once the directory entry is. On failure the
  // in-memory state still describes the previous commit, so a retry
  // rewrites the whole image.
  CSPM_RETURN_IF_ERROR(SyncParentDirectory(path_));

  for (auto& [id, page] : cache_) page.dirty = false;
  // Raw extent pages are durable now; drop the in-memory images (plan
  // sections can be large) — ReadExtent streams from the file again.
  raw_pages_.clear();
  version_ = kFormatVersion;  // Commit always writes the current format
  // Re-point the read handle at the newly committed image.
  if (file_.is_open()) file_.close();
  file_.clear();
  file_.open(path_, std::ios::binary);
  if (!file_) {
    return Status::IOError("cannot reopen committed store " + path_ + ": " +
                           ErrnoText());
  }
  return Status::OK();
}

}  // namespace cspm::store
