#include "cspm/scoring_plan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/string_util.h"

namespace cspm::core {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Heap home of a compiled plan's slabs. Held behind the plan's
/// type-erased storage pointer; the plan's spans alias these vectors.
struct OwnedSlabs {
  std::vector<uint32_t> singleton_offsets;
  std::vector<AttrId> singleton_cores;
  std::vector<double> singleton_code_lengths;
  std::vector<uint32_t> multi_offsets;
  std::vector<uint32_t> multi_units;
  std::vector<AttrId> multi_cores;
  std::vector<double> multi_code_lengths;
  std::vector<uint32_t> unit_leaf_size;
};

/// Prefix sums of per-attribute counts: the offset table of one posting
/// kind (num_attrs + 1 entries).
std::vector<uint32_t> OffsetsFromCounts(const std::vector<uint32_t>& counts) {
  std::vector<uint32_t> offsets(counts.size() + 1, 0);
  for (size_t a = 0; a < counts.size(); ++a) {
    offsets[a + 1] = offsets[a] + counts[a];
  }
  return offsets;
}

/// Shared by both posting kinds: the offset table covers its slab and
/// never decreases.
Status CheckOffsets(std::span<const uint32_t> offsets, size_t num_attrs,
                    size_t slab_size, const char* kind) {
  if (offsets.size() != num_attrs + 1 || offsets.front() != 0) {
    return Status::Internal(StrFormat("%s offset table malformed", kind));
  }
  for (size_t a = 0; a < num_attrs; ++a) {
    if (offsets[a] > offsets[a + 1]) {
      return Status::Internal(
          StrFormat("%s offsets decrease at attribute %zu", kind, a));
    }
  }
  if (offsets.back() != slab_size) {
    return Status::Internal(
        StrFormat("%s offsets do not cover the posting slab", kind));
  }
  return Status::OK();
}

Status CheckPosting(AttrId core, double code_length, size_t num_attrs,
                    const char* kind, size_t i) {
  if (core.index() >= num_attrs) {
    return Status::Internal(StrFormat(
        "%s posting %zu: core %u outside the attribute space", kind, i,
        core.value()));
  }
  if (!std::isfinite(code_length) || code_length < 0.0) {
    return Status::Internal(
        StrFormat("%s posting %zu has invalid code length", kind, i));
  }
  return Status::OK();
}

}  // namespace

ScoringPlan ScoringPlan::Compile(const CspmModel& model,
                                 size_t num_attribute_values) {
  // Amortized once per model load / hot swap, but it sits on the serving
  // critical path, so its latency is first-class.
  static auto* const compile_hist =
      obs::GetHistogram("phase.serving.plan_compile");
  static auto* const compiles = obs::GetCounter("serving.plan_compiles");
  obs::ScopedPhaseTimer compile_timer(compile_hist);
  compiles->Add(1);
  auto owned = std::make_shared<OwnedSlabs>();
  const auto in_range = [num_attribute_values](AttrId a) {
    return a.index() < num_attribute_values;
  };

  // Pass 1: count per-attribute posting lengths of both kinds (a counting
  // scatter, the same shape as the inverted database build). Every
  // in-range core of a star is one unit.
  std::vector<uint32_t> singleton_counts(num_attribute_values, 0);
  std::vector<uint32_t> multi_counts(num_attribute_values, 0);
  size_t num_units = 0;
  for (const AStarRef& s : model.astars) {
    if (s.leaf_values.empty()) continue;
    const auto cores = static_cast<uint32_t>(
        std::count_if(s.core_values.begin(), s.core_values.end(), in_range));
    if (s.leaf_values.size() == 1) {
      if (in_range(s.leaf_values[0])) {
        singleton_counts[s.leaf_values[0].index()] += cores;
      }
      continue;
    }
    num_units += cores;
    for (AttrId a : s.leaf_values) {
      if (in_range(a)) multi_counts[a.index()] += cores;
    }
  }

  owned->singleton_offsets = OffsetsFromCounts(singleton_counts);
  owned->singleton_cores.resize(owned->singleton_offsets.back());
  owned->singleton_code_lengths.resize(owned->singleton_offsets.back());
  owned->multi_offsets = OffsetsFromCounts(multi_counts);
  owned->multi_units.resize(owned->multi_offsets.back());
  owned->multi_cores.resize(owned->multi_offsets.back());
  owned->multi_code_lengths.resize(owned->multi_offsets.back());
  owned->unit_leaf_size.reserve(num_units);

  // Pass 2: scatter. Units are numbered in model order (then core order),
  // so each attribute's multi-leaf postings are ascending by unit.
  std::vector<uint32_t> singleton_cursor(
      owned->singleton_offsets.begin(), owned->singleton_offsets.end() - 1);
  std::vector<uint32_t> multi_cursor(owned->multi_offsets.begin(),
                                     owned->multi_offsets.end() - 1);
  for (const AStarRef& s : model.astars) {
    if (s.leaf_values.empty()) continue;
    if (s.leaf_values.size() == 1) {
      const AttrId leaf = s.leaf_values[0];
      if (!in_range(leaf)) continue;
      for (AttrId cv : s.core_values) {
        if (!in_range(cv)) continue;
        const uint32_t i = singleton_cursor[leaf.index()]++;
        owned->singleton_cores[i] = cv;
        owned->singleton_code_lengths[i] = s.code_length_bits;
      }
      continue;
    }
    for (AttrId cv : s.core_values) {
      if (!in_range(cv)) continue;
      const auto unit = static_cast<uint32_t>(owned->unit_leaf_size.size());
      owned->unit_leaf_size.push_back(
          static_cast<uint32_t>(s.leaf_values.size()));
      for (AttrId a : s.leaf_values) {
        if (!in_range(a)) continue;
        const uint32_t i = multi_cursor[a.index()]++;
        owned->multi_units[i] = unit;
        owned->multi_cores[i] = cv;
        owned->multi_code_lengths[i] = s.code_length_bits;
      }
    }
  }

  ScoringPlan plan;
  plan.num_attrs_ = static_cast<uint32_t>(num_attribute_values);
  Slabs& sb = plan.slabs_;
  sb.singleton_offsets = owned->singleton_offsets;
  sb.singleton_cores = owned->singleton_cores;
  sb.singleton_code_lengths = owned->singleton_code_lengths;
  sb.multi_offsets = owned->multi_offsets;
  sb.multi_units = owned->multi_units;
  sb.multi_cores = owned->multi_cores;
  sb.multi_code_lengths = owned->multi_code_lengths;
  sb.unit_leaf_size = owned->unit_leaf_size;
  plan.storage_ = std::move(owned);
  CSPM_DCHECK_OK(plan.CheckInvariants());
  return plan;
}

StatusOr<ScoringPlan> ScoringPlan::FromSlabs(
    size_t num_attribute_values, const Slabs& slabs,
    std::shared_ptr<const void> storage) {
  // O(1) geometry only: the shapes ScoreInto's indexing depends on. The
  // deep per-element audit is CheckInvariants (run by fsck, not on the
  // microsecond open path).
  const auto covers = [num_attribute_values](std::span<const uint32_t> offsets,
                                             size_t slab_size) {
    return offsets.size() == num_attribute_values + 1 &&
           offsets.front() == 0 && offsets.back() == slab_size;
  };
  const size_t singles = slabs.singleton_cores.size();
  if (slabs.singleton_code_lengths.size() != singles ||
      !covers(slabs.singleton_offsets, singles)) {
    return Status::InvalidArgument(
        "plan slabs: singleton offset table does not cover the singleton "
        "posting slabs");
  }
  const size_t multis = slabs.multi_units.size();
  if (slabs.multi_cores.size() != multis ||
      slabs.multi_code_lengths.size() != multis ||
      !covers(slabs.multi_offsets, multis)) {
    return Status::InvalidArgument(
        "plan slabs: multi-leaf offset table does not cover the multi-leaf "
        "posting slabs");
  }
  ScoringPlan plan;
  plan.num_attrs_ = static_cast<uint32_t>(num_attribute_values);
  plan.view_ = true;
  plan.slabs_ = slabs;
  plan.storage_ = std::move(storage);
  return plan;
}

Status ScoringPlan::CheckInvariants() const {
  const Slabs& sb = slabs_;
  if (sb.singleton_code_lengths.size() != sb.singleton_cores.size()) {
    return Status::Internal("singleton posting slabs differ in length");
  }
  CSPM_RETURN_IF_ERROR(CheckOffsets(sb.singleton_offsets, num_attrs_,
                                    sb.singleton_cores.size(), "singleton"));
  for (size_t i = 0; i < sb.singleton_cores.size(); ++i) {
    CSPM_RETURN_IF_ERROR(CheckPosting(sb.singleton_cores[i],
                                      sb.singleton_code_lengths[i], num_attrs_,
                                      "singleton", i));
  }

  const size_t units = sb.unit_leaf_size.size();
  if (sb.multi_cores.size() != sb.multi_units.size() ||
      sb.multi_code_lengths.size() != sb.multi_units.size()) {
    return Status::Internal("multi-leaf posting slabs differ in length");
  }
  CSPM_RETURN_IF_ERROR(CheckOffsets(sb.multi_offsets, num_attrs_,
                                    sb.multi_units.size(), "multi-leaf"));
  // Every posting of a unit must name the same core and code length: the
  // count pass decides per posting, the score pass reads the first one.
  std::vector<uint32_t> per_unit_postings(units, 0);
  std::vector<uint32_t> first_posting(units, 0);
  for (size_t a = 0; a < num_attrs_; ++a) {
    for (uint32_t i = sb.multi_offsets[a]; i < sb.multi_offsets[a + 1]; ++i) {
      const uint32_t u = sb.multi_units[i];
      if (u >= units) {
        return Status::Internal(StrFormat(
            "posting of attribute %zu names unknown unit %u", a, u));
      }
      CSPM_RETURN_IF_ERROR(CheckPosting(sb.multi_cores[i],
                                        sb.multi_code_lengths[i], num_attrs_,
                                        "multi-leaf", i));
      // A unit may appear at most once per attribute (leafsets are sets);
      // postings within one attribute are ascending by construction.
      if (i > sb.multi_offsets[a] && sb.multi_units[i - 1] >= u) {
        return Status::Internal(StrFormat(
            "multi-leaf postings of attribute %zu not ascending", a));
      }
      if (per_unit_postings[u]++ == 0) first_posting[u] = i;
      const uint32_t first = first_posting[u];
      if (sb.multi_cores[i] != sb.multi_cores[first] ||
          sb.multi_code_lengths[i] != sb.multi_code_lengths[first]) {
        return Status::Internal(StrFormat(
            "postings of unit %u disagree on core or code length", u));
      }
    }
  }
  // Every posting is one in-range leaf value of the unit's star, so a unit
  // can never be referenced more often than its leafset size (out-of-range
  // leaf values count toward the leaf size but get no posting).
  for (size_t u = 0; u < units; ++u) {
    if (sb.unit_leaf_size[u] < 2) {
      return Status::Internal(StrFormat(
          "unit %zu has leaf size %u — single-leaf stars must be inlined",
          u, sb.unit_leaf_size[u]));
    }
    if (per_unit_postings[u] > sb.unit_leaf_size[u]) {
      return Status::Internal(StrFormat(
          "unit %zu referenced by %u postings but its leafset holds %u", u,
          per_unit_postings[u], sb.unit_leaf_size[u]));
    }
  }
  return Status::OK();
}

size_t ScoringPlan::ApproxBytes() const {
  const Slabs& sb = slabs_;
  return sb.singleton_offsets.size_bytes() + sb.singleton_cores.size_bytes() +
         sb.singleton_code_lengths.size_bytes() +
         sb.multi_offsets.size_bytes() + sb.multi_units.size_bytes() +
         sb.multi_cores.size_bytes() + sb.multi_code_lengths.size_bytes() +
         sb.unit_leaf_size.size_bytes();
}

void ScoringPlan::PrepareScratch(ScoringScratch* scratch) const {
  scratch->matched.resize(num_units(), 0);
  scratch->attr_seen.resize(num_attrs_, 0);
  // One slot per unit that can be counted, plus the slot the branch-free
  // count pass writes past the last counted unit.
  scratch->touched_postings.resize(num_units() + 1);
  scratch->seen_attrs.clear();
}

void ScoringPlan::ScoreInto(std::span<const AttrId> neighbourhood_attrs,
                            const ScoringOptions& options,
                            ScoringScratch* scratch,
                            AttributeScores* out) const {
  const Slabs& sb = slabs_;
  out->raw.assign(num_attrs_, kNegInf);
  double* const raw = out->raw.data();

  // Pass 1: make the neighbourhood a set (the attr_seen flags play the
  // legacy in_neighbourhood bitmap) and apply the singleton postings. A
  // matched singleton has similarity 1/1 = 1.0, so w = 1.0 and
  // cl = -1.0 * CL = -CL exactly; the legacy guard `similarity <
  // min_similarity` becomes the literal test below.
  const bool singletons_pass = !(1.0 < options.min_similarity);
  scratch->seen_attrs.clear();
  for (AttrId a : neighbourhood_attrs) {
    if (a.index() >= num_attrs_ || scratch->attr_seen[a.index()]) continue;
    scratch->attr_seen[a.index()] = 1;
    scratch->seen_attrs.push_back(a);
    if (!singletons_pass) continue;
    const uint32_t end = sb.singleton_offsets[a.index() + 1];
    for (uint32_t i = sb.singleton_offsets[a.index()]; i < end; ++i) {
      const double cl = -sb.singleton_code_lengths[i];
      double& slot = raw[sb.singleton_cores[i].index()];
      if (cl > slot) slot = cl;
    }
  }

  // Pass 2: intersection counting over multi-leaf units, pruned by the
  // singleton bound. A unit's eventual score is -fl(w * CL) with w >= 1
  // and CL >= 0, hence <= -CL; when -CL does not beat raw[core] already,
  // the unit cannot raise it, now or after any later (larger) update. The
  // test depends only on the unit's core and CL and on raw after pass 1,
  // so it is the same for every posting of a unit: counted units get
  // their exact |SL ∩ N_attrs|, pruned ones are never touched. The loop
  // is branch-free — on small, heavily merged models about half the
  // postings pass, which a branch would mispredict: every posting writes
  // a candidate slot, kept only on its unit's first counted posting.
  uint32_t* const touched = scratch->touched_postings.data();
  size_t num_touched = 0;
  for (AttrId a : scratch->seen_attrs) {
    scratch->attr_seen[a.index()] = 0;
    const uint32_t end = sb.multi_offsets[a.index() + 1];
    for (uint32_t i = sb.multi_offsets[a.index()]; i < end; ++i) {
      const uint32_t counts =
          -sb.multi_code_lengths[i] > raw[sb.multi_cores[i].index()];
      uint32_t& matched = scratch->matched[sb.multi_units[i]];
      touched[num_touched] = i;
      num_touched += counts & static_cast<uint32_t>(matched == 0);
      matched += counts;
    }
  }

  // Pass 3: score the counted units. Units with matched == 0 have
  // similarity 0 and can never move a score (w diverges; cl is -inf or
  // NaN, neither beats any raw value), so skipping them is exact. Each
  // subexpression mirrors the legacy path so results stay bit-identical;
  // max is order-free on these values.
  for (size_t k = 0; k < num_touched; ++k) {
    const uint32_t i = touched[k];
    const uint32_t u = sb.multi_units[i];
    const double similarity = static_cast<double>(scratch->matched[u]) /
                              static_cast<double>(sb.unit_leaf_size[u]);
    scratch->matched[u] = 0;  // restore the zero invariant as we go
    if (similarity < options.min_similarity) continue;
    const double w = 1.0 / similarity;
    const double cl = -w * sb.multi_code_lengths[i];
    double& slot = raw[sb.multi_cores[i].index()];
    if (cl > slot) slot = cl;
  }

  // Min-max normalization of finite scores into (0, 1]; -inf -> 0. The
  // same full-array sweep as the legacy scorer.
  double lo = std::numeric_limits<double>::infinity();
  double hi = kNegInf;
  for (double s : out->raw) {
    if (std::isfinite(s)) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
  }
  out->normalized.assign(num_attrs_, 0.0);
  if (hi >= lo && std::isfinite(hi)) {
    const double span = hi - lo;
    for (size_t a = 0; a < num_attrs_; ++a) {
      if (!std::isfinite(out->raw[a])) continue;
      out->normalized[a] =
          span > 0 ? 0.05 + 0.95 * (out->raw[a] - lo) / span : 1.0;
    }
  }
}

AttributeScores ScoringPlan::Score(std::span<const AttrId> neighbourhood_attrs,
                                   const ScoringOptions& options) const {
  ScoringScratch scratch;
  PrepareScratch(&scratch);
  AttributeScores scores;
  ScoreInto(neighbourhood_attrs, options, &scratch, &scores);
  return scores;
}

std::shared_ptr<const ScoringPlan> CompileSharedPlan(
    const CspmModel& model, size_t num_attribute_values) {
  return std::make_shared<const ScoringPlan>(
      ScoringPlan::Compile(model, num_attribute_values));
}

void GatherNeighbourhoodAttrs(const graph::AttributedGraph& g, VertexId v,
                              std::vector<AttrId>* out) {
  out->clear();
  for (graph::VertexId w : g.Neighbors(v)) {
    const auto attrs = g.Attributes(w);
    out->insert(out->end(), attrs.begin(), attrs.end());
  }
}

}  // namespace cspm::core
