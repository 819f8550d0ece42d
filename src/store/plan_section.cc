#include "store/plan_section.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace cspm::store {
namespace {

using core::AttrId;
using core::ScoringPlan;

// The slab bytes are reinterpreted in place from the mapping; AttrId must
// be layout-identical to its raw u32 representation for that to be sound.
static_assert(std::is_trivially_copyable_v<AttrId> && sizeof(AttrId) == 4,
              "AttrId must be a trivially copyable 4-byte value type to be "
              "mmap-viewed");
static_assert(sizeof(double) == 8, "plan section assumes 8-byte doubles");

const char* const kSlabNames[kPlanSlabCount] = {
    "singleton_offsets",  "singleton_cores", "singleton_code_lengths",
    "multi_offsets",      "multi_units",     "multi_cores",
    "multi_code_lengths", "unit_leaf_size"};

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

size_t AlignUp(size_t n) {
  return (n + kPlanSlabAlignment - 1) & ~(kPlanSlabAlignment - 1);
}

/// The header counts every slab length derives from.
struct SectionCounts {
  uint32_t num_attrs;
  uint32_t num_singletons;
  uint32_t num_multis;
  uint32_t num_units;
};

SectionCounts ReadCounts(const char* base) {
  return {GetU32(base + 12), GetU32(base + 16), GetU32(base + 20),
          GetU32(base + 24)};
}

/// Element count of slab `i` implied by the header counts — the geometry
/// the validator enforces and the encoder produces.
size_t SlabElements(size_t i, const SectionCounts& c) {
  switch (i) {
    case 0:
    case 3: return static_cast<size_t>(c.num_attrs) + 1;
    case 1:
    case 2: return c.num_singletons;
    case 4:
    case 5:
    case 6: return c.num_multis;
    case 7: return c.num_units;
    default: return 0;
  }
}

/// Element width of each slab: the code-length slabs hold doubles, every
/// other slab u32 values.
constexpr size_t kSlabElementBytes[kPlanSlabCount] = {4, 4, 8, 4, 4, 4, 8, 4};

size_t ExpectedSlabBytes(size_t i, const SectionCounts& c) {
  return SlabElements(i, c) * kSlabElementBytes[i];
}

/// Slab `i` of a validated section, viewed in place.
template <typename T>
std::span<const T> SlabSpan(const char* base, size_t i,
                            const SectionCounts& counts) {
  const char* row = base + kPlanSlabTableOffset + i * kPlanSlabTableRowBytes;
  return {reinterpret_cast<const T*>(base + GetU32(row)),
          SlabElements(i, counts)};
}

/// One live mapping of a store file: the pager never allocates a free
/// page inside it (see MappedPlanRanges).
struct Pin {
  uint64_t dev;
  uint64_t ino;
  uint64_t begin;
  uint64_t end;
};

/// The process-wide pin table. Views come and go with registry handles,
/// so it stays small; a linear scan is enough.
struct PinTable {
  std::mutex mu;
  std::vector<Pin> pins;
};

PinTable& Pins() {
  // Leaky: a view may outlive static destruction.
  static auto* table = new PinTable();  // lint:allow naked-new
  return *table;
}

/// POSIX mapping owner: pins its file range while mapped, unmaps on
/// destruction. Held behind the plan's type-erased storage pointer.
class MappedRegion {
 public:
  MappedRegion(void* base, size_t length, Pin pin)
      : base_(base), length_(length), pin_(pin) {
    PinTable& table = Pins();
    std::lock_guard<std::mutex> lock(table.mu);
    table.pins.push_back(pin_);
  }
  ~MappedRegion() {
    ::munmap(base_, length_);
    PinTable& table = Pins();
    std::lock_guard<std::mutex> lock(table.mu);
    for (size_t i = 0; i < table.pins.size(); ++i) {
      const Pin& p = table.pins[i];
      if (p.dev == pin_.dev && p.ino == pin_.ino && p.begin == pin_.begin &&
          p.end == pin_.end) {
        table.pins[i] = table.pins.back();
        table.pins.pop_back();
        break;
      }
    }
  }
  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;

 private:
  void* base_;
  size_t length_;
  Pin pin_;
};

}  // namespace

std::string EncodePlanSection(const ScoringPlan& plan) {
  const ScoringPlan::Slabs& sb = plan.slabs();
  std::span<const std::byte> slabs[kPlanSlabCount];
  slabs[0] = std::as_bytes(sb.singleton_offsets);
  slabs[1] = std::as_bytes(sb.singleton_cores);
  slabs[2] = std::as_bytes(sb.singleton_code_lengths);
  slabs[3] = std::as_bytes(sb.multi_offsets);
  slabs[4] = std::as_bytes(sb.multi_units);
  slabs[5] = std::as_bytes(sb.multi_cores);
  slabs[6] = std::as_bytes(sb.multi_code_lengths);
  slabs[7] = std::as_bytes(sb.unit_leaf_size);

  size_t slab_offset[kPlanSlabCount];
  size_t end = kPlanSectionHeaderBytes;
  for (size_t i = 0; i < kPlanSlabCount; ++i) {
    slab_offset[i] = AlignUp(end);
    end = slab_offset[i] + slabs[i].size();
  }

  std::string section(end, '\0');
  char* base = section.data();
  std::memcpy(base, kPlanSectionMagic.data(), kPlanSectionMagic.size());
  PutU32(base + 8, kPlanSectionVersion);
  PutU32(base + 12, static_cast<uint32_t>(plan.num_attribute_values()));
  PutU32(base + 16, static_cast<uint32_t>(sb.singleton_cores.size()));
  PutU32(base + 20, static_cast<uint32_t>(sb.multi_units.size()));
  PutU32(base + 24, static_cast<uint32_t>(plan.num_units()));
  PutU32(base + 28, static_cast<uint32_t>(end));
  for (size_t i = 0; i < kPlanSlabCount; ++i) {
    if (!slabs[i].empty()) {
      std::memcpy(base + slab_offset[i], slabs[i].data(), slabs[i].size());
    }
    char* row = base + kPlanSlabTableOffset + i * kPlanSlabTableRowBytes;
    PutU32(row, static_cast<uint32_t>(slab_offset[i]));
    PutU32(row + 4, static_cast<uint32_t>(slabs[i].size()));
    PutU32(row + 8, Crc32(base + slab_offset[i], slabs[i].size()));
  }
  PutU32(base + kPlanHeaderCrcOffset, Crc32(base, kPlanHeaderCrcOffset));
  return section;
}

Status ValidatePlanSection(std::string_view section, bool verify_slab_crcs) {
  const char* base = section.data();
  if (section.size() < kPlanSectionMagic.size() + 4) {
    return Status::IOError(StrFormat(
        "plan section truncated: %zu bytes hold no magic and version",
        section.size()));
  }
  if (std::string_view(base, kPlanSectionMagic.size()) != kPlanSectionMagic) {
    return Status::IOError("plan section has bad magic");
  }
  const uint32_t version = GetU32(base + 8);
  if (version != kPlanSectionVersion) {
    return Status::IOError(
        StrFormat("plan section version %u, this build reads exactly %u",
                  version, kPlanSectionVersion));
  }
  if (section.size() < kPlanSectionHeaderBytes) {
    return Status::IOError(
        StrFormat("plan section truncated: %zu bytes, the header alone is "
                  "%zu",
                  section.size(), kPlanSectionHeaderBytes));
  }
  if (GetU32(base + kPlanHeaderCrcOffset) !=
      Crc32(base, kPlanHeaderCrcOffset)) {
    return Status::IOError("plan section header checksum mismatch");
  }
  // Header CRC now vouches for the counts and the slab table; geometry
  // checks below defend against a header that is internally inconsistent
  // (which a CRC over corrupt-at-write bytes would not catch).
  const SectionCounts counts = ReadCounts(base);
  const uint32_t section_bytes = GetU32(base + 28);
  if (section_bytes > section.size()) {
    return Status::IOError(
        StrFormat("plan section truncated: header declares %u bytes, %zu "
                  "present",
                  section_bytes, section.size()));
  }
  size_t prev_end = kPlanSectionHeaderBytes;
  for (size_t i = 0; i < kPlanSlabCount; ++i) {
    const char* row = base + kPlanSlabTableOffset + i * kPlanSlabTableRowBytes;
    const uint32_t offset = GetU32(row);
    const uint32_t length = GetU32(row + 4);
    const size_t expected = ExpectedSlabBytes(i, counts);
    if (length != expected) {
      return Status::IOError(StrFormat(
          "plan section slab %s is %u bytes, counts imply %zu",
          kSlabNames[i], length, expected));
    }
    if (offset % kPlanSlabAlignment != 0) {
      return Status::IOError(
          StrFormat("plan section slab %s offset %u is not %zu-byte aligned",
                    kSlabNames[i], offset, kPlanSlabAlignment));
    }
    if (offset < prev_end) {
      return Status::IOError(StrFormat(
          "plan section slab %s at offset %u overlaps the bytes before it",
          kSlabNames[i], offset));
    }
    if (static_cast<uint64_t>(offset) + length > section_bytes) {
      return Status::IOError(StrFormat(
          "plan section slab %s [%u, +%u) escapes the %u-byte section",
          kSlabNames[i], offset, length, section_bytes));
    }
    prev_end = static_cast<size_t>(offset) + length;
    if (verify_slab_crcs &&
        GetU32(row + 8) != Crc32(base + offset, length)) {
      return Status::IOError(StrFormat(
          "plan section slab %s checksum mismatch (corrupt section)",
          kSlabNames[i]));
    }
  }
  return Status::OK();
}

StatusOr<std::shared_ptr<const ScoringPlan>> PlanFromSectionBytes(
    const void* data, size_t size, std::shared_ptr<const void> storage) {
  const char* base = static_cast<const char*>(data);
  CSPM_RETURN_IF_ERROR(ValidatePlanSection({base, size},
                                           /*verify_slab_crcs=*/false));
  const SectionCounts counts = ReadCounts(base);
  ScoringPlan::Slabs slabs;
  slabs.singleton_offsets = SlabSpan<uint32_t>(base, 0, counts);
  slabs.singleton_cores = SlabSpan<AttrId>(base, 1, counts);
  slabs.singleton_code_lengths = SlabSpan<double>(base, 2, counts);
  slabs.multi_offsets = SlabSpan<uint32_t>(base, 3, counts);
  slabs.multi_units = SlabSpan<uint32_t>(base, 4, counts);
  slabs.multi_cores = SlabSpan<AttrId>(base, 5, counts);
  slabs.multi_code_lengths = SlabSpan<double>(base, 6, counts);
  slabs.unit_leaf_size = SlabSpan<uint32_t>(base, 7, counts);
  CSPM_ASSIGN_OR_RETURN(
      ScoringPlan plan,
      ScoringPlan::FromSlabs(counts.num_attrs, slabs, std::move(storage)));
  return std::make_shared<const ScoringPlan>(std::move(plan));
}

std::vector<std::pair<uint64_t, uint64_t>> MappedPlanRanges(uint64_t dev,
                                                          uint64_t ino) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  PinTable& table = Pins();
  std::lock_guard<std::mutex> lock(table.mu);
  for (const Pin& pin : table.pins) {
    if (pin.dev == dev && pin.ino == ino) out.emplace_back(pin.begin, pin.end);
  }
  return out;
}

StatusOr<std::shared_ptr<const ScoringPlan>> MmapPlanView::Open(
    const std::string& path, uint64_t offset, size_t section_bytes) {
  static auto* const mmap_opens = obs::GetCounter("store.plan_mmap_opens");
  if (section_bytes < kPlanSectionHeaderBytes) {
    return Status::IOError(
        StrFormat("plan section of %zu bytes is smaller than its header",
                  section_bytes));
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + " for mapping: " +
                           std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IOError("cannot stat " + path + ": " +
                                          std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (static_cast<uint64_t>(st.st_size) < offset + section_bytes) {
    ::close(fd);
    return Status::IOError(StrFormat(
        "plan section [%llu, +%zu) escapes %s (%llu bytes)",
        static_cast<unsigned long long>(offset), section_bytes, path.c_str(),
        static_cast<unsigned long long>(st.st_size)));
  }
  // mmap offsets must be OS-page aligned; the store's 4 KiB extents are,
  // but round down anyway so the contract does not depend on it.
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t map_offset = (offset / page) * page;
  const size_t delta = static_cast<size_t>(offset - map_offset);
  const size_t map_length = delta + section_bytes;
  void* mapped = ::mmap(nullptr, map_length, PROT_READ, MAP_PRIVATE, fd,
                        static_cast<off_t>(map_offset));
  ::close(fd);  // the mapping keeps its own reference to the file
  if (mapped == MAP_FAILED) {
    return Status::IOError("mmap of " + path + " failed: " +
                           std::strerror(errno));
  }
  const Pin pin{static_cast<uint64_t>(st.st_dev),
                static_cast<uint64_t>(st.st_ino), map_offset,
                map_offset + map_length};
  auto region = std::make_shared<MappedRegion>(mapped, map_length, pin);
  CSPM_ASSIGN_OR_RETURN(
      auto plan, PlanFromSectionBytes(static_cast<const char*>(mapped) + delta,
                                      section_bytes, std::move(region)));
  mmap_opens->Add(1);
  return plan;
}

}  // namespace cspm::store
