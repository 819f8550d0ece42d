#include "cspm/gain.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <vector>

#include "mdl/codes.h"
#include "util/check.h"

namespace cspm::core {
namespace {

uint64_t IntersectionSize(PosListView a, PosListView b) {
  uint64_t n = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

double DirectXLog2X(uint64_t n) { return mdl::XLog2X(static_cast<double>(n)); }

/// The pair-level inputs every gain of (x, y) shares: the union leafset's
/// id (kNotFound when it is not interned) and its ST cost. When the union
/// is x or y itself (y ⊆ x or x ⊆ y) the pair is infeasible: by the
/// losslessness invariant their positions are disjoint under every shared
/// coreset. `values` receives the union's values.
struct PairUnion {
  LeafsetId id = LeafsetRegistry::kNotFound;
  double st_cost = 0.0;
  bool subset = false;
};

PairUnion UnionOf(const InvertedDatabase& idb, const CodeModel& cm,
                  LeafsetId x, LeafsetId y, std::vector<AttrId>* values) {
  const std::vector<AttrId>& vx = idb.leafsets().Values(x);
  const std::vector<AttrId>& vy = idb.leafsets().Values(y);
  values->clear();
  std::set_union(vx.begin(), vx.end(), vy.begin(), vy.end(),
                 std::back_inserter(*values));
  PairUnion u;
  u.id = idb.leafsets().Find(*values);
  u.subset = u.id == x || u.id == y;
  if (!u.subset) u.st_cost = cm.StCost(*values);
  return u;
}

/// Eqs. 10-15 for one shared coreset whose x and y lines overlap in
/// xye > 0 positions, accumulated into `r`. ComputeMergeGain and the sweep
/// both go through here, so every pair sees the same floating-point
/// operations in the same order; `xlog` is mdl::XLog2X or a table of it.
template <typename XLog>
void AddSharedCore(const XLog& xlog, uint64_t fe, uint64_t xe, uint64_t ye,
                   uint64_t ze, uint64_t xye, double core_code,
                   double union_st_cost, double x_st_cost, double y_st_cost,
                   GainResult* r) {
  r->feasible = true;
  ++r->cores_with_overlap;
  r->total_overlap += xye;

  // P1 (Eq. 10): f_e log f_e - (f_e - xy_e) log(f_e - xy_e).
  r->data_gain_bits += xlog(fe) - xlog(fe - xye);

  // P2 (Eqs. 11-15, generalized): old Σ l log l minus new Σ l log l over
  // the affected lines, ze being the existing union line's frequency.
  // XLog2X(0) = 0 handles the totally-merged cases uniformly.
  const double old_terms = xlog(xe) + xlog(ye) + xlog(ze);
  const double new_terms = xlog(xe - xye) + xlog(ye - xye) + xlog(ze + xye);
  r->data_gain_bits -= old_terms - new_terms;

  // Model delta for CTL: removed lines vs added line at this coreset.
  if (ze == 0) r->model_delta_bits += union_st_cost + core_code;
  if (xe == xye) r->model_delta_bits -= x_st_cost + core_code;
  if (ye == xye) r->model_delta_bits -= y_st_cost + core_code;
}

/// Per-(coreset, vertex) index over the lines of a sweep's rows. Lines are
/// numbered row by row in ascending coreset order, and every position of
/// every line is one entry. The entries of one (coreset, vertex) form a
/// run in ascending row order, so the rows that share a position with a
/// line, and come after it, are the rest of that position's run.
struct CooccurrenceIndex {
  std::vector<uint32_t> row_first_line;  // per row, plus an end sentinel
  std::vector<CoreId> line_core;
  std::vector<uint32_t> line_begin;  // first position, plus an end sentinel
  /// Per position: [first later entry of its run, end of its run).
  std::vector<uint32_t> run_next;
  std::vector<uint32_t> run_end;
  /// Per entry: its row, and the size of that row's line.
  std::vector<uint32_t> entry_row;
  std::vector<uint32_t> entry_line_size;

  CooccurrenceIndex(const InvertedDatabase& idb,
                    std::span<const LeafsetId> rows);
};

CooccurrenceIndex::CooccurrenceIndex(const InvertedDatabase& idb,
                                     std::span<const LeafsetId> rows) {
  std::vector<PosListView> views;
  std::vector<uint32_t> line_row;
  uint64_t positions = 0;
  size_t num_vertices = 0;
  line_begin.push_back(0);
  for (size_t i = 0; i < rows.size(); ++i) {
    row_first_line.push_back(static_cast<uint32_t>(views.size()));
    idb.ForEachLineOf(rows[i], [&](CoreId e, PosListView line) {
      views.push_back(line);
      line_row.push_back(static_cast<uint32_t>(i));
      line_core.push_back(e);
      positions += line.size();
      CSPM_CHECK(positions < std::numeric_limits<uint32_t>::max());
      line_begin.push_back(static_cast<uint32_t>(positions));
      num_vertices = std::max(num_vertices, line.back().index() + 1);
    });
  }
  row_first_line.push_back(static_cast<uint32_t>(views.size()));

  // Line ids grouped by coreset; ascending line id is ascending row.
  std::vector<uint32_t> core_begin(idb.num_coresets() + 1, 0);
  for (CoreId e : line_core) ++core_begin[e.index() + 1];
  for (size_t c = 0; c < idb.num_coresets(); ++c) {
    core_begin[c + 1] += core_begin[c];
  }
  std::vector<uint32_t> core_lines(views.size());
  {
    std::vector<uint32_t> fill(core_begin.begin(), core_begin.end() - 1);
    for (size_t l = 0; l < views.size(); ++l) {
      core_lines[fill[line_core[l].index()]++] = static_cast<uint32_t>(l);
    }
  }

  run_next.resize(positions);
  run_end.resize(positions);
  entry_row.resize(positions);
  entry_line_size.resize(positions);
  std::vector<uint32_t> cursor(num_vertices, 0);  // count, then fill cursor
  std::vector<uint32_t> end(num_vertices, 0);
  std::vector<VertexId> distinct;
  uint32_t next = 0;
  for (size_t c = 0; c < idb.num_coresets(); ++c) {
    const std::span<const uint32_t> lines(core_lines.data() + core_begin[c],
                                          core_begin[c + 1] - core_begin[c]);
    distinct.clear();
    for (uint32_t l : lines) {
      for (VertexId v : views[l]) {
        if (cursor[v.index()]++ == 0) distinct.push_back(v);
      }
    }
    for (VertexId v : distinct) {
      const uint32_t count = cursor[v.index()];
      cursor[v.index()] = next;
      next += count;
      end[v.index()] = next;
    }
    for (uint32_t l : lines) {
      const auto size = static_cast<uint32_t>(views[l].size());
      for (uint32_t k = 0; k < size; ++k) {
        const size_t v = views[l][k].index();
        const uint32_t entry = cursor[v]++;
        entry_row[entry] = line_row[l];
        entry_line_size[entry] = size;
        run_next[line_begin[l] + k] = entry + 1;
        run_end[line_begin[l] + k] = end[v];
      }
    }
    for (VertexId v : distinct) cursor[v.index()] = 0;
  }
}

}  // namespace

XLogTable::XLogTable(const InvertedDatabase& idb) { Cover(idb); }

void XLogTable::Cover(const InvertedDatabase& idb) {
  uint64_t max_core_total = 0;
  for (CoreId e(0); e.index() < idb.num_coresets(); ++e) {
    max_core_total = std::max(max_core_total, idb.CoreLineTotal(e));
  }
  for (uint64_t n = table_.size(); n <= max_core_total; ++n) {
    table_.push_back(DirectXLog2X(n));
  }
}

GainResult ComputeMergeGain(const InvertedDatabase& idb, const CodeModel& cm,
                            LeafsetId x, LeafsetId y) {
  GainResult result;
  if (x == y) return result;
  if (idb.CoresOf(x).empty() || idb.CoresOf(y).empty()) return result;

  std::vector<AttrId> union_values;
  const PairUnion pair_union = UnionOf(idb, cm, x, y, &union_values);
  if (pair_union.subset) return result;
  const double x_st_cost = cm.StCost(idb.leafsets().Values(x));
  const double y_st_cost = cm.StCost(idb.leafsets().Values(y));

  idb.ForEachSharedCore(x, y, [&](CoreId e, PosListView px, PosListView py) {
    const uint64_t xye = IntersectionSize(px, py);
    if (xye == 0) return;  // nothing merges under this coreset
    const uint64_t ze = pair_union.id == LeafsetRegistry::kNotFound
                            ? 0
                            : idb.FindLine(e, pair_union.id).size();
    AddSharedCore(DirectXLog2X, idb.CoreLineTotal(e), px.size(), py.size(), ze,
                  xye, cm.CoreCodeLength(e), pair_union.st_cost, x_st_cost,
                  y_st_cost, &result);
  });
  if (!result.feasible) {
    result.data_gain_bits = 0.0;
    result.model_delta_bits = 0.0;
  }
  return result;
}

uint64_t SweepMergeGains(const InvertedDatabase& idb, const CodeModel& cm,
                         const XLogTable& table,
                         std::span<const LeafsetId> rows,
                         const PairGainSink& sink) {
  const CooccurrenceIndex index(idb, rows);
  // Every argument of Eqs. 10-15 lies in 0..f_e.
  const std::span<const double> xlog_table = table.values();
  const auto xlog = [xlog_table](uint64_t n) { return xlog_table[n]; };
  std::vector<double> st_costs(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    st_costs[i] = cm.StCost(idb.leafsets().Values(rows[i]));
  }

  // Per-partner overlap counters and gain accumulators, indexed by row and
  // reset after every row.
  struct Partner {
    GainResult gain;
    PairUnion pair_union;  // set at the first overlap
    bool met = false;
  };
  std::vector<uint32_t> overlap(rows.size(), 0);
  std::vector<uint32_t> y_line_size(rows.size(), 0);
  std::vector<Partner> partner(rows.size());
  std::vector<uint32_t> touched;
  std::vector<uint32_t> met;
  std::vector<AttrId> union_values;
  std::vector<PairGain> pairs;
  uint64_t evaluated = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const LeafsetId x = rows[i];
    met.clear();
    for (uint32_t l = index.row_first_line[i]; l < index.row_first_line[i + 1];
         ++l) {
      // Step 1: |P_x ∩ P_y| under this coreset for every partner y.
      touched.clear();
      for (uint32_t p = index.line_begin[l]; p < index.line_begin[l + 1]; ++p) {
        for (uint32_t entry = index.run_next[p]; entry < index.run_end[p];
             ++entry) {
          const uint32_t j = index.entry_row[entry];
          if (overlap[j]++ == 0) {
            touched.push_back(j);
            y_line_size[j] = index.entry_line_size[entry];
          }
        }
      }
      // Step 2: this coreset's terms. Coresets ascend, so each partner
      // accumulates them in ComputeMergeGain's order.
      const CoreId e = index.line_core[l];
      const uint64_t fe = idb.CoreLineTotal(e);
      CSPM_DCHECK(fe < xlog_table.size());
      const uint64_t xe = index.line_begin[l + 1] - index.line_begin[l];
      const double core_code = cm.CoreCodeLength(e);
      for (uint32_t j : touched) {
        const uint64_t xye = overlap[j];
        overlap[j] = 0;
        Partner& s = partner[j];
        if (!s.met) {
          s.met = true;
          met.push_back(j);
          s.pair_union = UnionOf(idb, cm, x, rows[j], &union_values);
        }
        if (s.pair_union.subset) continue;
        const uint64_t ze = s.pair_union.id == LeafsetRegistry::kNotFound
                                ? 0
                                : idb.FindLine(e, s.pair_union.id).size();
        AddSharedCore(xlog, fe, xe, y_line_size[j], ze, xye, core_code,
                      s.pair_union.st_cost, st_costs[i], st_costs[j], &s.gain);
      }
    }
    if (met.empty()) continue;
    std::sort(met.begin(), met.end());
    pairs.clear();
    for (uint32_t j : met) {
      const Partner& s = partner[j];
      pairs.push_back({rows[j], s.pair_union.subset ? GainResult{} : s.gain});
      partner[j] = Partner{};
    }
    evaluated += pairs.size();
    sink(x, pairs);
  }
  return evaluated;
}

RowRescorer::RowRescorer(const InvertedDatabase& idb, const CodeModel& cm,
                         const XLogTable& xlog)
    : idb_(idb),
      cm_(cm),
      xlog_(xlog),
      core_slot_(idb.num_coresets(), kNoSlot),
      mark_(idb.vertex_coresets().size(), 0) {}

void RowRescorer::Score(LeafsetId row, RowSide side,
                        std::span<const LeafsetId> partners,
                        std::vector<GainResult>* out) {
  out->assign(partners.size(), GainResult{});
  // Index the row: one slot per line, in ascending coreset order.
  const std::vector<CoreId>& row_cores = idb_.CoresOf(row);
  row_lines_.clear();
  idb_.ForEachLineOf(row, [&](CoreId e, PosListView line) {
    core_slot_[e.index()] = static_cast<uint32_t>(row_lines_.size());
    row_lines_.push_back(line);
  });
  if (row_lines_.empty()) return;

  // Bucket the partners' lines under row cores by slot, with a stable
  // counting scatter: one walk over each partner's lines counts, a second
  // one fills.
  const auto for_each_partner_line = [&](const auto& fn) {
    for (size_t j = 0; j < partners.size(); ++j) {
      if (partners[j] == row) continue;
      idb_.ForEachLineOf(partners[j], [&](CoreId e, PosListView line) {
        const uint32_t slot = core_slot_[e.index()];
        if (slot != kNoSlot) fn(slot, static_cast<uint32_t>(j), line);
      });
    }
  };
  slot_begin_.assign(row_lines_.size() + 1, 0);
  for_each_partner_line(
      [&](uint32_t slot, uint32_t, PosListView) { ++slot_begin_[slot + 1]; });
  for (size_t s = 0; s < row_lines_.size(); ++s) {
    slot_begin_[s + 1] += slot_begin_[s];
  }
  bucketed_.resize(slot_begin_.back());
  for_each_partner_line([&](uint32_t slot, uint32_t j, PosListView line) {
    bucketed_[slot_begin_[slot]++] = {j, line};
  });
  for (CoreId e : row_cores) core_slot_[e.index()] = kNoSlot;
  // The scatter advanced each slot's begin to its end, which is the next
  // slot's begin: slot s now spans [slot_begin_[s - 1], slot_begin_[s]).

  const double row_st_cost = cm_.StCost(idb_.leafsets().Values(row));
  partners_.assign(partners.size(), Partner{});
  const std::span<const double> xlog_table = xlog_.values();
  const auto xlog = [xlog_table](uint64_t n) { return xlog_table[n]; };
  uint32_t begin = 0;
  for (size_t s = 0; s < row_lines_.size(); ++s) {
    const uint32_t end = slot_begin_[s];
    if (begin == end) continue;
    const CoreId e = row_cores[s];
    const PosListView row_line = row_lines_[s];
    if (++stamp_ == 0) {  // wrapped: no stale mark may equal a live stamp
      std::fill(mark_.begin(), mark_.end(), 0);
      stamp_ = 1;
    }
    for (VertexId v : row_line) mark_[v.index()] = stamp_;
    const uint64_t fe = idb_.CoreLineTotal(e);
    CSPM_DCHECK(fe < xlog_table.size());
    const double core_code = cm_.CoreCodeLength(e);
    for (uint32_t k = begin; k < end; ++k) {
      const Entry& entry = bucketed_[k];
      uint64_t xye = 0;
      for (VertexId v : entry.positions) xye += mark_[v.index()] == stamp_;
      if (xye == 0) continue;  // nothing merges under this coreset
      Partner& p = partners_[entry.partner];
      if (!p.met) Meet(row, partners[entry.partner], &p);
      if (p.subset) continue;
      const uint64_t ze = p.union_id == LeafsetRegistry::kNotFound
                              ? 0
                              : idb_.FindLine(e, p.union_id).size();
      GainResult* r = &(*out)[entry.partner];
      if (side == RowSide::kX) {
        AddSharedCore(xlog, fe, row_line.size(), entry.positions.size(), ze,
                      xye, core_code, p.union_st_cost, row_st_cost, p.st_cost,
                      r);
      } else {
        AddSharedCore(xlog, fe, entry.positions.size(), row_line.size(), ze,
                      xye, core_code, p.union_st_cost, p.st_cost, row_st_cost,
                      r);
      }
    }
    begin = end;
  }
}

void RowRescorer::Meet(LeafsetId row, LeafsetId y, Partner* p) {
  p->met = true;
  const PairUnion pair_union = UnionOf(idb_, cm_, row, y, &union_);
  p->union_id = pair_union.id;
  p->subset = pair_union.subset;
  if (p->subset) return;
  p->union_st_cost = pair_union.st_cost;
  p->st_cost = cm_.StCost(idb_.leafsets().Values(y));
}

SingletonLineSizes::SingletonLineSizes(const InvertedDatabase& idb)
    : num_attrs_(idb.num_coresets()), sizes_(num_attrs_ * num_attrs_, 0) {
  for (AttrId a(0); a.index() < num_attrs_; ++a) {
    const LeafsetId s = idb.leafsets().Singleton(a);
    if (s == LeafsetRegistry::kNotFound) continue;
    idb.ForEachLineOf(s, [&](CoreId e, PosListView line) {
      sizes_[e.index() * num_attrs_ + a.index()] =
          static_cast<uint32_t>(line.size());
    });
  }
}

void SingletonLineSizes::AddSplit(CoreId e, std::span<const AttrId> values,
                                  uint64_t fl) {
  for (AttrId a : values) {
    sizes_[e.index() * num_attrs_ + a.index()] += static_cast<uint32_t>(fl);
  }
}

GainResult ComputeSplitGain(const InvertedDatabase& idb, const CodeModel& cm,
                            const SingletonLineSizes& singles,
                            const XLogTable& xlog, CoreId e, LeafsetId l,
                            uint64_t fl) {
  GainResult result;
  if (fl == 0) return result;
  const std::vector<AttrId>& values = idb.leafsets().Values(l);
  if (values.size() < 2) return result;

  const uint64_t fe = idb.CoreLineTotal(e);
  const uint64_t grown = fe + (static_cast<uint64_t>(values.size()) - 1) * fl;

  result.feasible = true;
  result.cores_with_overlap = 1;
  result.total_overlap = fl;

  // Eq. 8's core term grows from f_e to f_e + (|values|-1) fL; the split
  // line leaves the Σ fL log fL sum and every member singleton absorbs fL.
  result.data_gain_bits = xlog(fe) - xlog(grown) - xlog(fl);
  result.model_delta_bits = -cm.LineModelCost(values, e);
  const double core_code = cm.CoreCodeLength(e);
  for (AttrId a : values) {
    const uint64_t se = singles.Get(e, a);
    result.data_gain_bits += xlog(se + fl) - xlog(se);
    if (se == 0) {
      result.model_delta_bits +=
          cm.StCost(std::span<const AttrId>(&a, 1)) + core_code;
    }
  }
  return result;
}

}  // namespace cspm::core
