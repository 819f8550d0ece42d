#include "cspm/inverted_database.h"

#include <algorithm>

#include "cspm/scoring_plan.h"
#include "cspm/verify.h"
#include "mdl/codes.h"
#include "util/check.h"

namespace cspm::core {
namespace {

// out = a - b for sorted ranges.
void DifferenceInto(PosListView a, PosListView b, PosList* out) {
  out->clear();
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(*out));
}

// out = a ∩ b for sorted ranges.
void IntersectInto(PosListView a, PosListView b, PosList* out) {
  out->clear();
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(*out));
}

/// Distinct sorted attribute values over the neighbours of v — the leaf
/// values v contributes lines for.
void GatherDistinctNeighbourAttrs(const graph::AttributedGraph& g, VertexId v,
                                  std::vector<AttrId>* out) {
  // One definition of "neighbourhood" across the library (scoring_plan),
  // deduplicated for line membership.
  GatherNeighbourhoodAttrs(g, v, out);
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

}  // namespace

size_t InvertedDatabase::LowerBoundCore(const LeafsetLines& lines, CoreId e) {
  return static_cast<size_t>(
      std::lower_bound(lines.cores.begin(), lines.cores.end(), e) -
      lines.cores.begin());
}

void InvertedDatabase::ActivateLeafset(LeafsetId l) {
  auto it = std::lower_bound(active_leafsets_.begin(), active_leafsets_.end(),
                             l);
  if (it == active_leafsets_.end() || *it != l) {
    active_leafsets_.insert(it, l);
  }
}

void InvertedDatabase::DeactivateLeafset(LeafsetId l) {
  auto it = std::lower_bound(active_leafsets_.begin(), active_leafsets_.end(),
                             l);
  if (it != active_leafsets_.end() && *it == l) {
    active_leafsets_.erase(it);
  }
}

void InvertedDatabase::EraseLineAt(LeafsetId l, size_t i) {
  LeafsetLines& lines = lines_of_[l.index()];
  pool_.Free(lines.refs[i]);
  lines.cores.erase(lines.cores.begin() + i);
  lines.refs.erase(lines.refs.begin() + i);
  --num_lines_;
  if (lines.cores.empty()) DeactivateLeafset(l);
}

StatusOr<InvertedDatabase> InvertedDatabase::FromGraph(
    const graph::AttributedGraph& g) {
  // Single-core-value mode: coreset ids coincide with attribute ids.
  std::vector<std::vector<AttrId>> coreset_values(g.num_attribute_values());
  std::vector<std::vector<CoreId>> vertex_coresets(g.num_vertices().index());
  for (AttrId a(0); a.index() < g.num_attribute_values(); ++a) {
    coreset_values[a.index()] = {a};
  }
  for (VertexId v(0); v < g.num_vertices(); ++v) {
    vertex_coresets[v.index()].clear();
    for (AttrId a : g.Attributes(v)) {
      vertex_coresets[v.index()].push_back(CoreId(a.value()));
    }
  }
  return FromGraphWithCoresets(g, std::move(coreset_values), vertex_coresets);
}

StatusOr<InvertedDatabase> InvertedDatabase::FromGraphWithCoresets(
    const graph::AttributedGraph& g,
    std::vector<std::vector<AttrId>> coreset_values,
    const std::vector<std::vector<CoreId>>& vertex_coresets) {
  if (vertex_coresets.size() != g.num_vertices().index()) {
    return Status::InvalidArgument(
        "vertex_coresets must have one entry per vertex");
  }
  InvertedDatabase idb;
  idb.coreset_values_ = std::move(coreset_values);
  idb.coreset_freq_.assign(idb.coreset_values_.size(), 0);
  idb.core_line_total_.assign(idb.coreset_values_.size(), 0);
  idb.vertex_coresets_ = vertex_coresets;

  for (VertexId v(0); v < g.num_vertices(); ++v) {
    for (CoreId c : vertex_coresets[v.index()]) {
      if (c.index() >= idb.coreset_values_.size()) {
        return Status::InvalidArgument("vertex coreset id out of range");
      }
      ++idb.coreset_freq_[c.index()];
      ++idb.total_coreset_freq_;
    }
  }

  // Pre-intern singleton leafsets so that leafset id == attr id for all
  // attribute values (convenient and deterministic).
  for (AttrId a(0); a.index() < g.num_attribute_values(); ++a) {
    LeafsetId l = idb.leafsets_.Intern({a});
    CSPM_CHECK(l.value() == a.value());
  }

  // Group the (leaf value, coreset, vertex) occurrences into contiguous
  // initial lines with two linear counting scatters — no hashing, no
  // comparison sort. Vertices are visited in ascending order throughout,
  // so every scatter is stable and position lists come out sorted.
  const size_t num_attrs = g.num_attribute_values();
  std::vector<uint32_t> stamp(num_attrs, 0);
  uint32_t current = 0;
  std::vector<AttrId> neighbourhood;

  // Pass 1: per-leaf occurrence counts.
  std::vector<uint64_t> leaf_offsets(num_attrs + 1, 0);
  for (VertexId v(0); v < g.num_vertices(); ++v) {
    if (vertex_coresets[v.index()].empty()) continue;
    ++current;
    neighbourhood.clear();
    for (VertexId w : g.Neighbors(v)) {
      for (AttrId a : g.Attributes(w)) {
        if (stamp[a.index()] != current) {
          stamp[a.index()] = current;
          neighbourhood.push_back(a);
        }
      }
    }
    const uint64_t cores = vertex_coresets[v.index()].size();
    for (AttrId y : neighbourhood) leaf_offsets[y.index() + 1] += cores;
  }
  for (size_t a = 0; a < num_attrs; ++a) leaf_offsets[a + 1] += leaf_offsets[a];
  const uint64_t total = leaf_offsets[num_attrs];

  // Pass 2: scatter (core, vertex) pairs into per-leaf buckets, in v order.
  std::vector<CoreId> bucket_core(total);
  std::vector<VertexId> bucket_vertex(total);
  std::vector<uint64_t> cursor(leaf_offsets.begin(), leaf_offsets.end() - 1);
  current = 0;
  std::fill(stamp.begin(), stamp.end(), 0);
  for (VertexId v(0); v < g.num_vertices(); ++v) {
    if (vertex_coresets[v.index()].empty()) continue;
    ++current;
    neighbourhood.clear();
    for (VertexId w : g.Neighbors(v)) {
      for (AttrId a : g.Attributes(w)) {
        if (stamp[a.index()] != current) {
          stamp[a.index()] = current;
          neighbourhood.push_back(a);
        }
      }
    }
    for (AttrId y : neighbourhood) {
      uint64_t& at = cursor[y.index()];
      for (CoreId c : vertex_coresets[v.index()]) {
        bucket_core[at] = c;
        bucket_vertex[at] = v;
        ++at;
      }
    }
  }

  // Pass 3: within each leaf bucket, a counting scatter by coreset (the
  // same stamp trick over core ids) yields the lines, cores ascending.
  idb.lines_of_.resize(num_attrs);
  std::vector<uint32_t> core_stamp(idb.coreset_values_.size(), 0);
  std::vector<uint64_t> core_cursor(idb.coreset_values_.size(), 0);
  std::vector<CoreId> cores_here;
  std::vector<VertexId> line_vertices;
  uint32_t leaf_generation = 0;
  for (size_t leaf = 0; leaf < num_attrs; ++leaf) {
    const uint64_t begin = leaf_offsets[leaf];
    const uint64_t end = leaf_offsets[leaf + 1];
    if (begin == end) continue;
    ++leaf_generation;
    cores_here.clear();
    for (uint64_t i = begin; i < end; ++i) {
      const CoreId c = bucket_core[i];
      if (core_stamp[c.index()] != leaf_generation) {
        core_stamp[c.index()] = leaf_generation;
        core_cursor[c.index()] = 0;
        cores_here.push_back(c);
      }
      ++core_cursor[c.index()];
    }
    std::sort(cores_here.begin(), cores_here.end());
    // Per-core cursors become scatter offsets into the leaf's line block.
    uint64_t offset = 0;
    for (CoreId c : cores_here) {
      const uint64_t count = core_cursor[c.index()];
      core_cursor[c.index()] = offset;
      offset += count;
    }
    line_vertices.resize(end - begin);
    for (uint64_t i = begin; i < end; ++i) {
      line_vertices[core_cursor[bucket_core[i].index()]++] = bucket_vertex[i];
    }

    LeafsetLines& lines = idb.lines_of_[leaf];
    lines.cores.reserve(cores_here.size());
    lines.refs.reserve(cores_here.size());
    uint64_t line_begin = 0;
    for (CoreId c : cores_here) {
      const uint64_t line_end = core_cursor[c.index()];  // stops past c's run
      const std::span<const VertexId> positions(
          line_vertices.data() + line_begin, line_end - line_begin);
      lines.cores.push_back(c);
      lines.refs.push_back(idb.pool_.Allocate(positions));
      idb.core_line_total_[c.index()] += positions.size();
      ++idb.num_lines_;
      line_begin = line_end;
    }
    idb.active_leafsets_.push_back(LeafsetId(static_cast<uint32_t>(leaf)));
  }
  CSPM_DCHECK_OK(CheckInvariants(idb));
  return idb;
}

Status InvertedDatabase::ApplyDeltaMerged(
    const graph::AttributedGraph& old_graph,
    const graph::AttributedGraph& new_graph,
    std::span<const VertexId> dirty_vertices, DeltaPatchStats* stats) {
  // Merges never touch coresets, so the single-value-coreset shape
  // (coreset id == attribute value) must still hold; leafsets are free to
  // have been merged.
  for (CoreId c(0); c.index() < coreset_values_.size(); ++c) {
    if (coreset_values_[c.index()].size() != 1 ||
        coreset_values_[c.index()][0].value() != c.value()) {
      return Status::FailedPrecondition(
          "ApplyDeltaMerged needs a single-value-coreset database");
    }
  }
  const VertexId n_old = old_graph.num_vertices();
  const VertexId n_new = new_graph.num_vertices();
  if (n_new < n_old || vertex_coresets_.size() != n_old.index()) {
    return Status::InvalidArgument(
        "ApplyDeltaMerged: graphs do not bracket this database");
  }
  for (size_t i = 0; i < dirty_vertices.size(); ++i) {
    if (dirty_vertices[i] >= n_new) {
      return Status::InvalidArgument(
          "ApplyDeltaMerged: dirty vertex out of range");
    }
    if (i > 0 && !(dirty_vertices[i - 1] < dirty_vertices[i])) {
      return Status::InvalidArgument(
          "ApplyDeltaMerged: dirty vertices must ascend strictly");
    }
  }

  // Append singleton coresets for attribute values new to the patched
  // graph. No leafset is interned here: the greedy re-cover interns
  // singletons lazily, and in a merged registry their ids need not
  // coincide with attribute ids.
  const size_t num_attrs_new = new_graph.num_attribute_values();
  for (AttrId a(static_cast<uint32_t>(coreset_values_.size()));
       a.index() < num_attrs_new; ++a) {
    coreset_values_.push_back({a});
    coreset_freq_.push_back(0);
    core_line_total_.push_back(0);
  }
  const size_t num_cores = coreset_values_.size();
  vertex_coresets_.resize(n_new.index());

  // Both indexes below are built once, from the leafsets active now; no
  // line changes until the edits are applied at the end. A singleton the
  // re-cover interns is in neither index: no old line holds it, and the
  // leftover path re-interns it to the same id.
  //
  // Per value the removal probes (an old neighbour value of a dirty
  // vertex), the leafsets that contain it, ascending id. Per core the
  // re-cover walks (a new core of a dirty vertex), the leafsets with a
  // line under it, largest value set first then lowest id: packed keys
  // (~size << 32 | id), so a plain sort gives that order.
  std::vector<char> removal_value(num_attrs_new, 0);
  std::vector<char> recover_core(num_cores, 0);
  std::vector<AttrId> nbr_old;
  for (VertexId u : dirty_vertices) {
    if (!vertex_coresets_[u.index()].empty()) {
      GatherDistinctNeighbourAttrs(old_graph, u, &nbr_old);
      for (AttrId a : nbr_old) removal_value[a.index()] = 1;
    }
    for (AttrId a : new_graph.Attributes(u)) recover_core[a.index()] = 1;
  }
  std::vector<std::vector<LeafsetId>> leafsets_with(num_attrs_new);
  std::vector<std::vector<uint64_t>> leafsets_under(num_cores);
  for (LeafsetId l : active_leafsets_) {
    const std::vector<AttrId>& values = leafsets_.Values(l);
    for (AttrId a : values) {
      if (removal_value[a.index()]) leafsets_with[a.index()].push_back(l);
    }
    const uint64_t key =
        (static_cast<uint64_t>(~static_cast<uint32_t>(values.size())) << 32) |
        l.value();
    for (CoreId c : lines_of_[l.index()].cores) {
      if (recover_core[c.index()]) leafsets_under[c.index()].push_back(key);
    }
  }
  for (std::vector<uint64_t>& keys : leafsets_under) {
    std::sort(keys.begin(), keys.end());
  }

  // Position edits are decided vertex by vertex but applied line by line
  // at the end, so a line that many dirty vertices touch is rewritten
  // once. Deciding against the unedited lines is sound: an edit for
  // vertex u moves only position u, dirty vertices are distinct, and u's
  // removals precede its insertions, so whether u sits in a line is the
  // same before and after every other vertex's edits.
  struct Edit {
    uint64_t line;  // leafset << 32 | coreset
    VertexId u;
    bool add;
  };
  std::vector<Edit> edits;
  std::vector<char> core_dirty(num_cores, 0);
  std::vector<LeafsetId> touched;

  // Removes u from line (c, y) when present; false when it is not there.
  auto remove_if_present = [&](CoreId c, LeafsetId y, VertexId u) {
    const PosListView view = FindLine(c, y);
    if (!std::binary_search(view.begin(), view.end(), u)) return false;
    edits.push_back({(static_cast<uint64_t>(y.value()) << 32) | c.value(), u,
                     false});
    --core_line_total_[c.index()];
    core_dirty[c.index()] = 1;
    touched.push_back(y);
    ++stats->positions_removed;
    return true;
  };
  // Adds u to line (c, y), creating the line if needed; u must be absent.
  auto insert_position = [&](CoreId c, LeafsetId y, VertexId u) {
    edits.push_back({(static_cast<uint64_t>(y.value()) << 32) | c.value(), u,
                     true});
    ++core_line_total_[c.index()];
    core_dirty[c.index()] = 1;
    touched.push_back(y);
    ++stats->positions_added;
  };

  // Epoch-stamped cover state: needed[a] == cur while attribute a still
  // awaits its line for the vertex being removed from, or re-inserted
  // under, the current core.
  std::vector<uint32_t> needed(num_attrs_new, 0);
  uint32_t cur = 0;

  std::vector<AttrId> nbr_new;
  std::vector<CoreId> cores_old;
  std::vector<CoreId> cores_new;
  std::vector<AttrId> singleton(1, AttrId(0));
  for (VertexId u : dirty_vertices) {
    // Remove u everywhere under its old cores. By the partition invariant
    // the lines holding u under a core hold each of u's old neighbour
    // values exactly once, so each value still uncovered is probed only
    // against the leafsets containing it, up to the first hit, and the
    // hit covers all of that leafset's values.
    cores_old = vertex_coresets_[u.index()];  // copied: overwritten below
    if (!cores_old.empty()) {
      GatherDistinctNeighbourAttrs(old_graph, u, &nbr_old);
    }
    for (CoreId c : cores_old) {
      ++cur;
      for (AttrId a : nbr_old) needed[a.index()] = cur;
      size_t remaining = nbr_old.size();
      for (AttrId a : nbr_old) {
        if (needed[a.index()] != cur) continue;
        for (LeafsetId l : leafsets_with[a.index()]) {
          if (!remove_if_present(c, l, u)) continue;
          for (AttrId b : leafsets_.Values(l)) needed[b.index()] = 0;
          remaining -= leafsets_.Values(l).size();
          break;
        }
      }
      CSPM_DCHECK(remaining == 0);
    }

    GatherDistinctNeighbourAttrs(new_graph, u, &nbr_new);
    cores_new.clear();
    for (AttrId a : new_graph.Attributes(u)) {
      cores_new.push_back(CoreId(a.value()));
    }
    // Greedy re-cover of the new neighbour values under each new core:
    // existing mined leafsets whose values are all still uncovered first,
    // leftovers to singleton lines. Deterministic by the candidate order.
    for (CoreId c : cores_new) {
      ++cur;
      for (AttrId a : nbr_new) needed[a.index()] = cur;
      size_t remaining = nbr_new.size();
      for (uint64_t key : leafsets_under[c.index()]) {
        if (remaining == 0) break;
        const LeafsetId l(static_cast<uint32_t>(key));
        const std::vector<AttrId>& values = leafsets_.Values(l);
        if (values.size() > remaining) continue;
        bool fits = true;
        for (AttrId a : values) {
          if (needed[a.index()] != cur) {
            fits = false;
            break;
          }
        }
        if (!fits) continue;
        insert_position(c, l, u);
        for (AttrId a : values) needed[a.index()] = 0;
        remaining -= values.size();
      }
      if (remaining > 0) {
        for (AttrId a : nbr_new) {
          if (needed[a.index()] != cur) continue;
          singleton[0] = a;
          insert_position(c, leafsets_.Intern(singleton), u);
        }
      }
    }

    // Static coreset frequencies follow the vertex's own attribute set.
    size_t a = 0;
    size_t b = 0;
    while (a < cores_old.size() || b < cores_new.size()) {
      if (b >= cores_new.size() ||
          (a < cores_old.size() && cores_old[a] < cores_new[b])) {
        --coreset_freq_[cores_old[a].index()];
        --total_coreset_freq_;
        ++a;
      } else if (a >= cores_old.size() || cores_new[b] < cores_old[a]) {
        ++coreset_freq_[cores_new[b].index()];
        ++total_coreset_freq_;
        ++b;
      } else {
        ++a;
        ++b;
      }
    }
    vertex_coresets_[u.index()] = cores_new;
  }

  // Edits were pushed in ascending vertex order, a vertex's removal before
  // its insertion; a stable sort by line keeps that order within a line.
  std::stable_sort(edits.begin(), edits.end(),
                   [](const Edit& a, const Edit& b) { return a.line < b.line; });
  PosList rewritten;
  for (size_t i = 0; i < edits.size();) {
    const uint64_t line = edits[i].line;
    const LeafsetId y(static_cast<uint32_t>(line >> 32));
    const CoreId c(static_cast<uint32_t>(line));
    if (y.index() >= lines_of_.size()) lines_of_.resize(y.index() + 1);
    LeafsetLines& lines = lines_of_[y.index()];
    const size_t at = LowerBoundCore(lines, c);
    const bool exists = at < lines.cores.size() && lines.cores[at] == c;
    const PosListView old = exists ? pool_.View(lines.refs[at]) : PosListView{};
    // One merge of the old positions with the line's edits; a vertex
    // removed and re-inserted stays.
    rewritten.clear();
    size_t p = 0;
    for (; i < edits.size() && edits[i].line == line; ++i) {
      const VertexId u = edits[i].u;
      while (p < old.size() && old[p] < u) rewritten.push_back(old[p++]);
      if (edits[i].add) {
        CSPM_CHECK(p == old.size() || old[p] != u);
        rewritten.push_back(u);
      } else {
        CSPM_DCHECK(p < old.size() && old[p] == u);
        ++p;
      }
    }
    rewritten.insert(rewritten.end(), old.begin() + p, old.end());
    if (exists && rewritten.empty()) {
      EraseLineAt(y, at);
    } else if (exists) {
      pool_.Assign(lines.refs[at], rewritten);
    } else if (!rewritten.empty()) {
      if (lines.cores.empty()) ActivateLeafset(y);
      lines.cores.insert(lines.cores.begin() + at, c);
      lines.refs.insert(lines.refs.begin() + at, pool_.Allocate(rewritten));
      ++num_lines_;
    }
  }

  for (CoreId c(0); c.index() < num_cores; ++c) {
    if (core_dirty[c.index()]) stats->dirty_cores.push_back(c);
  }
  // One `touched` entry was pushed per moved position, so a leafset's
  // multiplicity is its moved-position count.
  std::sort(touched.begin(), touched.end());
  for (size_t i = 0; i < touched.size();) {
    size_t j = i;
    while (j < touched.size() && touched[j] == touched[i]) ++j;
    stats->touched_leafsets.push_back(touched[i]);
    stats->touched_position_moves.push_back(static_cast<uint32_t>(j - i));
    i = j;
  }
  CSPM_DCHECK_OK(CheckInvariants(*this));
  return Status::OK();
}

Status InvertedDatabase::SplitLine(CoreId e, LeafsetId l) {
  if (l.index() >= lines_of_.size()) {
    return Status::InvalidArgument("SplitLine: no such line");
  }
  const size_t i = LowerBoundCore(lines_of_[l.index()], e);
  if (i == lines_of_[l.index()].cores.size() ||
      lines_of_[l.index()].cores[i] != e) {
    return Status::InvalidArgument("SplitLine: no such line");
  }
  // Copies, not references: Intern below may reallocate the registry's
  // value storage, and EraseLineAt frees the line's pool extent.
  const std::vector<AttrId> values = leafsets_.Values(l);
  if (values.size() < 2) {
    return Status::InvalidArgument("SplitLine: singleton leafset");
  }
  PosListView view = pool_.View(lines_of_[l.index()].refs[i]);
  const PosList positions(view.begin(), view.end());
  const uint64_t fl = positions.size();
  EraseLineAt(l, i);
  core_line_total_[e.index()] -= fl;

  PosList merged;
  for (AttrId a : values) {
    LeafsetId s = leafsets_.Singleton(a);
    if (s == LeafsetRegistry::kNotFound) s = leafsets_.Intern({a});
    if (s.index() >= lines_of_.size()) lines_of_.resize(s.index() + 1);
    LeafsetLines& lines = lines_of_[s.index()];
    const size_t j = LowerBoundCore(lines, e);
    if (j == lines.cores.size() || lines.cores[j] != e) {
      if (lines.cores.empty()) ActivateLeafset(s);
      lines.cores.insert(lines.cores.begin() + j, e);
      lines.refs.insert(lines.refs.begin() + j, pool_.Allocate(positions));
      ++num_lines_;
    } else {
      // Disjoint from the existing singleton line by the partition
      // invariant (a vertex's value-a occurrence lives in exactly one
      // line under e, and it lived in (e, l)).
      PosListView existing = pool_.View(lines.refs[j]);
      merged.clear();
      merged.reserve(existing.size() + positions.size());
      std::merge(existing.begin(), existing.end(), positions.begin(),
                 positions.end(), std::back_inserter(merged));
      pool_.Assign(lines.refs[j], merged);
    }
    core_line_total_[e.index()] += fl;
  }
  CSPM_DCHECK_OK(CheckInvariants(*this));
  return Status::OK();
}

MergeOutcome InvertedDatabase::MergeLeafsets(LeafsetId x, LeafsetId y) {
  CSPM_CHECK(x != y);
  MergeOutcome outcome;
  const std::vector<CoreId>& cx = CoresOf(x);
  const std::vector<CoreId>& cy = CoresOf(y);
  std::vector<CoreId> shared;
  std::set_intersection(cx.begin(), cx.end(), cy.begin(), cy.end(),
                        std::back_inserter(shared));
  if (shared.empty()) return outcome;

  const LeafsetId u = leafsets_.InternUnion(x, y);
  outcome.merged_id = u;
  if (u.index() >= lines_of_.size()) lines_of_.resize(u.index() + 1);

  PosList intersection;
  PosList remainder;
  for (CoreId e : shared) {
    // Indices are re-searched per coreset: erasures shift the vectors.
    LeafsetLines& lx = lines_of_[x.index()];
    LeafsetLines& ly = lines_of_[y.index()];
    const size_t ix = LowerBoundCore(lx, e);
    const size_t iy = LowerBoundCore(ly, e);
    CSPM_DCHECK(ix < lx.cores.size() && lx.cores[ix] == e);
    CSPM_DCHECK(iy < ly.cores.size() && ly.cores[iy] == e);
    IntersectInto(pool_.View(lx.refs[ix]), pool_.View(ly.refs[iy]),
                  &intersection);
    if (intersection.empty()) continue;
    outcome.no_op = false;
    ++outcome.cores_touched;
    outcome.touched_cores.push_back(e);  // `shared` ascending -> sorted
    outcome.moved_positions += intersection.size();

    // Shrink the x line.
    DifferenceInto(pool_.View(lx.refs[ix]), intersection, &remainder);
    if (remainder.empty()) {
      EraseLineAt(x, ix);
    } else {
      pool_.Assign(lx.refs[ix], remainder);
    }
    // Shrink the y line.
    DifferenceInto(pool_.View(ly.refs[iy]), intersection, &remainder);
    if (remainder.empty()) {
      EraseLineAt(y, iy);
    } else {
      pool_.Assign(ly.refs[iy], remainder);
    }
    // Grow (or create) the union line. Positions are disjoint from any
    // existing union-line positions by the losslessness invariant.
    LeafsetLines& lu = lines_of_[u.index()];
    const size_t iu = LowerBoundCore(lu, e);
    if (iu == lu.cores.size() || lu.cores[iu] != e) {
      if (lu.cores.empty()) ActivateLeafset(u);
      lu.cores.insert(lu.cores.begin() + iu, e);
      lu.refs.insert(lu.refs.begin() + iu, pool_.Allocate(intersection));
      ++num_lines_;
    } else {
      PosList merged;
      PosListView existing = pool_.View(lu.refs[iu]);
      merged.reserve(existing.size() + intersection.size());
      std::merge(existing.begin(), existing.end(), intersection.begin(),
                 intersection.end(), std::back_inserter(merged));
      pool_.Assign(lu.refs[iu], merged);
    }
    // Two line-occurrences removed, one added: f_e drops by |I|.
    CSPM_DCHECK(core_line_total_[e.index()] >= intersection.size());
    core_line_total_[e.index()] -= intersection.size();
  }
  if (outcome.no_op) return outcome;

  for (LeafsetId l : {x, y}) {
    if (CoresOf(l).empty()) {
      outcome.totally_merged.push_back(l);
    } else {
      outcome.partly_merged.push_back(l);
    }
  }
  return outcome;
}

double InvertedDatabase::DataCostBits() const {
  double cost = 0.0;
  for (uint64_t fe : core_line_total_) {
    cost += mdl::XLog2X(static_cast<double>(fe));
  }
  for (const LeafsetLines& lines : lines_of_) {
    for (util::PosListPool::Ref ref : lines.refs) {
      cost -= mdl::XLog2X(static_cast<double>(pool_.Size(ref)));
    }
  }
  return cost;
}

}  // namespace cspm::core
