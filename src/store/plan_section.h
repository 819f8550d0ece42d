// The mmap-native plan section (DESIGN.md §12): a ScoringPlan's eight
// slabs written fixed-width, little-endian, 64-byte aligned and
// offset-based, so the bytes on disk are exactly the bytes ScoreInto
// reads. Opening a model for serving is then mmap + O(1) header
// validation — no LEB128 decode, no plan compile, no allocation — and the
// scores are bit-identical to a compiled plan because they *are* the
// compiled plan's bytes (Put encodes the freshly compiled slabs).
//
// Section layout, version 2 (all integers u32 LE unless noted):
//
//   [0..8)     magic "CSPMPLN3"
//   [8..12)    section format version (2)
//   [12..16)   num_attribute_values
//   [16..20)   num_singleton_postings
//   [20..24)   num_multi_postings
//   [24..28)   num_units          (multi-leaf scoring units)
//   [28..32)   section_bytes      (header + padding + slabs)
//   [32..128)  slab table: 8 x { offset, length_bytes, crc32 } in Slabs
//              order (singleton_offsets, singleton_cores,
//              singleton_code_lengths, multi_offsets, multi_units,
//              multi_cores, multi_code_lengths, unit_leaf_size)
//   [128..132) CRC-32 of bytes [0, 128)
//   [132..192) zero padding
//   [192..)    slabs; every offset is 64-byte aligned (covers the
//              8-byte doubles of the code-length slabs with room for
//              wider vector loads later)
//
// Version 2 is the only version this build reads: any other fails
// validation with an IOError, as a corrupt header does.
//
// Validation is two-tier by design: ValidatePlanSection's default mode
// checks the header CRC and the slab geometry only — O(1), cheap enough
// for every serving open — while fsck passes verify_slab_crcs to sweep
// the full section. A flipped bit in a slab therefore never fails an
// open, but it cannot survive an fsck.
#ifndef CSPM_STORE_PLAN_SECTION_H_
#define CSPM_STORE_PLAN_SECTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cspm/scoring_plan.h"
#include "util/status.h"

namespace cspm::store {

/// Fixed prologue-plus-table size; slabs start here.
inline constexpr size_t kPlanSectionHeaderBytes = 192;
inline constexpr std::string_view kPlanSectionMagic = "CSPMPLN3";  // 8 bytes
inline constexpr uint32_t kPlanSectionVersion = 2;
/// Slab table geometry: kPlanSlabCount rows of {offset, length, crc32}
/// starting at kPlanSlabTableOffset, sealed by the header CRC stored at
/// kPlanHeaderCrcOffset (over every byte before it).
inline constexpr size_t kPlanSlabCount = 8;
inline constexpr size_t kPlanSlabTableOffset = 32;
inline constexpr size_t kPlanSlabTableRowBytes = 12;
inline constexpr size_t kPlanHeaderCrcOffset = 128;
/// Alignment of every slab offset (and of the section itself in the
/// store file, where extents start on 4 KiB page boundaries).
inline constexpr size_t kPlanSlabAlignment = 64;

/// Serializes a plan's slabs into a self-contained section. The inverse
/// of PlanFromSectionBytes; encoding a compiled plan and viewing the
/// result yields bit-identical scores to the plan itself.
std::string EncodePlanSection(const core::ScoringPlan& plan);

/// Validates a section image. Always checks magic, version, header CRC
/// and the slab geometry (expected lengths from the counts, 64-byte
/// alignment, ascending non-overlapping offsets, containment in
/// `section.size()`); with `verify_slab_crcs` it additionally sweeps all
/// eight slab CRCs (the fsck tier — deliberately not paid on open).
/// Every failure, another section version included, is an IOError.
Status ValidatePlanSection(std::string_view section, bool verify_slab_crcs);

/// Wraps a validated section image as a ScoringPlan view. `data` must
/// stay alive and unchanged for as long as `storage` is retained; the
/// returned plan (and every copy of it) holds `storage`. Runs the O(1)
/// validation tier only.
StatusOr<std::shared_ptr<const core::ScoringPlan>> PlanFromSectionBytes(
    const void* data, size_t size, std::shared_ptr<const void> storage);

/// Zero-copy open path: maps `section_bytes` at `offset` of `path`
/// read-only and returns a plan view whose slabs alias the mapping. The
/// mapping is owned by the plan's storage pointer and unmapped when the
/// last plan copy (or engine pinning it) goes away — evicting from a
/// cache while a ServingEngine still scores through the plan is safe.
/// `offset` need not be page-aligned (the mapping rounds down).
///
/// While mapped, the view pins its byte range of the file (by device and
/// inode) in a process-wide table: the pager never allocates a free page
/// a live view maps, because on Linux later writes to the file show
/// through MAP_PRIVATE pages that were not copied.
class MmapPlanView {
 public:
  static StatusOr<std::shared_ptr<const core::ScoringPlan>> Open(
      const std::string& path, uint64_t offset, size_t section_bytes);
};

/// Byte ranges [begin, end) of the file with device `dev` and inode `ino`
/// that live MmapPlanView mappings in this process cover.
std::vector<std::pair<uint64_t, uint64_t>> MappedPlanRanges(uint64_t dev,
                                                          uint64_t ino);

}  // namespace cspm::store

#endif  // CSPM_STORE_PLAN_SECTION_H_
