#include "cspm/miner.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "cspm/candidates.h"
#include "cspm/extract.h"
#include "itemset/slim.h"
#include "itemset/transaction_db.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace cspm::core {
namespace {

/// A merge must improve the DL by strictly more than this (bits).
constexpr double kMinGainBits = 1e-9;

uint64_t PossiblePairs(uint64_t n) { return n < 2 ? 0 : n * (n - 1) / 2; }

/// True if two ascending core-id lists intersect (two-pointer).
bool SharesAnyCore(const std::vector<CoreId>& a, const std::vector<CoreId>& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

// Step 1 for multi-value coresets: SLIM over the vertex-attribute
// transactions; the accepted patterns (plus in-use singletons) become the
// coresets, and each vertex is assigned the coresets used by its cover.
Status BuildSlimCoresets(const graph::AttributedGraph& g,
                         std::vector<std::vector<AttrId>>* coreset_values,
                         std::vector<std::vector<CoreId>>* vertex_coresets) {
  itemset::TransactionDb db =
      itemset::TransactionDb::FromVertexAttributes(g);
  auto slim_or = itemset::RunSlim(db, {});
  if (!slim_or.ok()) return slim_or.status();
  const itemset::CodeTable& ct = *slim_or.value().code_table;

  // Map in-use code table entries to dense coreset ids.
  std::vector<size_t> entry_to_core(ct.num_entries(), SIZE_MAX);
  coreset_values->clear();
  for (size_t i = 0; i < ct.num_entries(); ++i) {
    if (ct.entries()[i].usage == 0) continue;
    entry_to_core[i] = coreset_values->size();
    coreset_values->emplace_back(ct.entries()[i].items.begin(),
                                 ct.entries()[i].items.end());
  }
  vertex_coresets->assign(g.num_vertices().index(), {});
  std::vector<size_t> used;
  for (VertexId v(0); v < g.num_vertices(); ++v) {
    used.clear();
    const auto& t = db.transaction(v.index());
    if (t.empty()) continue;
    ct.CoverTransaction(t, &used);
    for (size_t idx : used) {
      (*vertex_coresets)[v.index()].push_back(
          CoreId(static_cast<uint32_t>(entry_to_core[idx])));
    }
    std::sort((*vertex_coresets)[v.index()].begin(),
              (*vertex_coresets)[v.index()].end());
  }
  return Status::OK();
}

struct SearchContext {
  const CspmOptions* options;
  InvertedDatabase* idb;
  const CodeModel* cm;
  /// One XLog2X table per mine or resume, shared by every gain pass.
  const XLogTable* xlog;
  MiningStats* stats;
  const WallTimer* timer;

  bool OutOfBudget() const {
    if (options->max_seconds <= 0.0) return false;
    if (timer->ElapsedSeconds() < options->max_seconds) return false;
    stats->hit_time_budget = true;
    return true;
  }
};

/// Best pair of one all-pairs scan: the first pair, in row-major (x, y)
/// order, whose gain strictly exceeds every earlier one.
struct BestPair {
  double gain = 0.0;
  LeafsetId x{};
  LeafsetId y{};
  bool found = false;

  void Offer(double g, LeafsetId px, LeafsetId py) {
    if (g > (found ? gain : kMinGainBits)) {
      gain = g;
      x = px;
      y = py;
      found = true;
    }
  }
};

// Scans all pairs of `actives` for the best gain above kMinGainBits. The
// sweep delivers pairs in row-major order.
BestPair ScanAllPairs(const SearchContext& ctx,
                      const std::vector<LeafsetId>& actives,
                      uint64_t* computations) {
  BestPair best;
  const auto offer = [&](LeafsetId x, std::span<const PairGain> partners) {
    for (const PairGain& p : partners) {
      if (!p.gain.feasible) continue;
      best.Offer(p.gain.Total(ctx.options->gain_policy), x, p.y);
    }
  };
  *computations +=
      SweepMergeGains(*ctx.idb, *ctx.cm, *ctx.xlog, actives, offer);
  return best;
}

// Seeds the candidate store over all active pairs from one sweep, in
// row-major (x, y) order, which fixes the store's heap state and its
// tie-breaking. Returns the number of pairs evaluated.
uint64_t GenerateCandidates(const SearchContext& ctx, CandidateStore* store,
                            RelatedDict* rdict) {
  const auto actives = ctx.idb->active_leafsets();  // copy: stable snapshot
  const auto seed = [&](LeafsetId x, std::span<const PairGain> partners) {
    for (const PairGain& p : partners) {
      if (!p.gain.feasible) continue;
      const double total = p.gain.Total(ctx.options->gain_policy);
      if (total <= kMinGainBits) continue;
      store->Set(x, p.y, total);
      rdict->Link(x, p.y);
    }
  };
  return SweepMergeGains(*ctx.idb, *ctx.cm, *ctx.xlog, actives, seed);
}

void RecordIteration(const SearchContext& ctx, uint64_t iteration,
                     uint64_t computations, uint64_t possible,
                     double accepted_gain) {
  ctx.stats->total_gain_computations += computations;
  if (!ctx.options->record_iteration_stats) return;
  IterationStats is;
  is.iteration = iteration;
  is.gain_computations = computations;
  is.possible_pairs = possible;
  is.accepted_gain_bits = accepted_gain;
  is.active_leafsets = ctx.idb->num_active_leafsets();
  is.num_lines = ctx.idb->num_lines();
  ctx.stats->per_iteration.push_back(is);
}

// CSPM-Basic main loop (Algorithm 1): full candidate regeneration.
void RunBasicSearch(const SearchContext& ctx) {
  obs::TraceSpan merge_loop_span("merge_loop");
  uint64_t iteration = 0;
  for (;;) {
    if (ctx.options->max_iterations &&
        iteration >= ctx.options->max_iterations) {
      break;
    }
    if (ctx.OutOfBudget()) break;
    const auto actives = ctx.idb->active_leafsets();
    const uint64_t possible = PossiblePairs(actives.size());
    uint64_t computations = 0;
    BestPair best = ScanAllPairs(ctx, actives, &computations);
    if (!best.found) {
      ctx.stats->total_gain_computations += computations;
      break;
    }
    MergeOutcome outcome = ctx.idb->MergeLeafsets(best.x, best.y);
    (void)outcome;
    ++iteration;
    RecordIteration(ctx, iteration, computations, possible, best.gain);
  }
  ctx.stats->iterations = iteration;
  obs::GetCounter("mine.merges")->Add(iteration);
}

// CSPM-Partial main loop (Algorithms 3-4): incremental candidate updates
// through the related-leafset dictionary, from an already seeded store.
void RunPartialLoop(const SearchContext& ctx, CandidateStore& store,
                    RelatedDict& rdict) {
  obs::TraceSpan merge_loop_span("merge_loop");
  uint64_t iteration = 0;
  std::vector<LeafsetId> scratch;
  RowRescorer rescorer(*ctx.idb, *ctx.cm, *ctx.xlog);
  std::vector<LeafsetId> partners;
  std::vector<GainResult> gains;
  while (!store.empty() && !rdict.empty()) {
    if (ctx.options->max_iterations &&
        iteration >= ctx.options->max_iterations) {
      break;
    }
    if (ctx.OutOfBudget()) break;
    const uint64_t possible =
        PossiblePairs(ctx.idb->num_active_leafsets());
    uint64_t computations = 0;

    LeafsetId x{};
    LeafsetId y{};
    double stored_gain = 0.0;
    if (!store.PopBest(&x, &y, &stored_gain)) break;

    double gain = stored_gain;
    if (ctx.options->revalidate_on_pop) {
      GainResult gr = ComputeMergeGain(*ctx.idb, *ctx.cm, x, y);
      ++computations;
      gain = gr.Total(ctx.options->gain_policy);
      if (!gr.feasible || gain <= kMinGainBits) {
        rdict.Unlink(x, y);
        ctx.stats->total_gain_computations += computations;
        continue;  // stale candidate; not an accepted iteration
      }
    }

    // Snapshot relations before mutating rdict (Algorithm 4 uses the
    // pre-merge relation sets).
    std::vector<LeafsetId> related_both = rdict.Intersection(x, y);
    std::vector<LeafsetId> rel_x(rdict.RelatedTo(x).begin(),
                                 rdict.RelatedTo(x).end());
    std::vector<LeafsetId> rel_y(rdict.RelatedTo(y).begin(),
                                 rdict.RelatedTo(y).end());

    MergeOutcome outcome = ctx.idb->MergeLeafsets(x, y);
    if (outcome.no_op) {
      // Cannot happen when revalidation is on; defensive for the off case.
      rdict.Unlink(x, y);
      ctx.stats->total_gain_computations += computations;
      continue;
    }
    ++iteration;
    rdict.Unlink(x, y);

    // (1) Remove totally merged leafsets everywhere.
    for (LeafsetId l : outcome.totally_merged) {
      rdict.RemoveLeafset(l, &scratch);
      for (LeafsetId rel : scratch) store.Erase(l, rel);
    }

    // Steps (2) and (3) score one row against its partner list each, all
    // against the post-merge database; each pair keeps its (x, y)
    // orientation, and store/rdict updates replay in partner order.

    // (2) Score the new pattern against leafsets related to both halves.
    const LeafsetId u = outcome.merged_id;
    partners.clear();
    for (LeafsetId rel : related_both) {
      if (rel == x || rel == y || rel == u) continue;
      if (ctx.idb->CoresOf(rel).empty()) continue;  // vanished meanwhile
      partners.push_back(rel);
    }
    rescorer.Score(u, RowSide::kY, partners, &gains);  // pairs (rel, u)
    computations += partners.size();
    for (size_t j = 0; j < partners.size(); ++j) {
      if (!gains[j].feasible) continue;
      const double total = gains[j].Total(ctx.options->gain_policy);
      if (total > kMinGainBits) {
        store.Set(partners[j], u, total);
        rdict.Link(partners[j], u);
      }
    }

    // (3) Update pairs influenced through partly merged leafsets.
    for (LeafsetId l : outcome.partly_merged) {
      const std::vector<LeafsetId>& snapshot = (l == x) ? rel_x : rel_y;
      partners.clear();
      for (LeafsetId rel : snapshot) {
        if (rel == x || rel == y) continue;
        if (ctx.idb->CoresOf(rel).empty()) continue;
        // Everything the merge moved (l / u lines, f_e) sits under the
        // touched cores; with no line there, rel's pair with l kept
        // bit-identical inputs — the stored gain still stands.
        if (!SharesAnyCore(ctx.idb->CoresOf(rel), outcome.touched_cores)) {
          continue;
        }
        partners.push_back(rel);
      }
      rescorer.Score(l, RowSide::kX, partners, &gains);  // pairs (l, rel)
      computations += partners.size();
      for (size_t j = 0; j < partners.size(); ++j) {
        const double total = gains[j].Total(ctx.options->gain_policy);
        if (gains[j].feasible && total > kMinGainBits) {
          store.Set(l, partners[j], total);
        } else {
          store.Erase(l, partners[j]);
          rdict.Unlink(l, partners[j]);
        }
      }
    }
    RecordIteration(ctx, iteration, computations, possible, gain);
  }
  ctx.stats->iterations = iteration;
  obs::GetCounter("mine.merges")->Add(iteration);
}

// The initial description length, under the `dl` span (extraction sums
// the final one in its own walk).
double DescriptionLengthBits(const CodeModel& cm, const InvertedDatabase& idb) {
  obs::TraceSpan dl_span("dl");
  return cm.TotalDescriptionLengthBits(idb);
}

}  // namespace

StatusOr<CspmModel> CspmMiner::Mine(const graph::AttributedGraph& g) const {
  CSPM_ASSIGN_OR_RETURN(MineArtifacts artifacts, MineWithArtifacts(g));
  return std::move(artifacts.model);
}

StatusOr<CspmMiner::MineArtifacts> CspmMiner::ResumeFast(
    const graph::AttributedGraph& g, InvertedDatabase final_db,
    const DeltaPatchStats& patch, bool all_dirty,
    FastResumeStats* fast_stats) const {
  if (options_.multi_value_coresets) {
    return Status::FailedPrecondition(
        "ResumeFast needs single-value coresets");
  }
  if (options_.strategy != SearchStrategy::kPartial) {
    return Status::FailedPrecondition(
        "ResumeFast needs the kPartial strategy (its convergence argument "
        "relies on the drained candidate store)");
  }
  if (final_db.num_coresets() == 0) {
    return Status::FailedPrecondition(
        "ResumeFast needs a mined final-model database");
  }
  WallTimer timer;
  // Repaired in place: the post-search state IS the next update's final
  // model, so no pristine copy is kept (that is what buys the fast path
  // its speed).
  InvertedDatabase& idb = final_db;
  const CodeModel cm(g, idb);

  CspmModel model;
  model.stats.initial_dl_bits = DescriptionLengthBits(cm, idb);
  model.stats.initial_leafsets = idb.num_active_leafsets();
  model.stats.initial_lines = idb.num_lines();

  // Tabulated before the unmerge pass, whose split terms read past the end
  // (computed directly), and extended after it for the sweep and the loop.
  XLogTable xlog(idb);
  SearchContext ctx{&options_, &idb, &cm, &xlog, &model.stats, &timer};

  const size_t num_cores = idb.num_coresets();
  std::vector<char> core_dirty(num_cores, all_dirty ? 1 : 0);
  if (!all_dirty) {
    for (CoreId c : patch.dirty_cores) {
      if (c.index() < num_cores) core_dirty[c.index()] = 1;
    }
  }

  // Undo pass: unmerge leafsets whose continued existence stopped paying
  // for itself under the patched data. The decision is global — the
  // exact inverse of the merge it undoes, which summed its gain over
  // every core the pair overlapped in. Per-core split gains are
  // independent (splitting line (e1, l) moves no term of core e2), so
  // the leafset's unmerge gain is their sum; judging lines one at a time
  // instead would split locally-negative lines of globally-profitable
  // merges and dismantle the model. Only leafsets touching a dirty core
  // can have flipped; sweep to a fixpoint because a split feeds the
  // member singleton lines (and f_e) that other split gains read.
  uint64_t computations = 0;
  std::vector<LeafsetId> split_fed;  // singletons the unmerge pass grew
  std::optional<obs::TraceSpan> unmerge_span(std::in_place, "unmerge");
  // A split term reads its member singleton line sizes from this table;
  // the pass's own splits keep it current.
  SingletonLineSizes singles(idb);
  std::vector<std::pair<CoreId, uint64_t>> lines;  // (e, fl) of one leafset
  bool changed = true;
  while (changed) {
    changed = false;
    const std::vector<LeafsetId> actives = idb.active_leafsets();  // snapshot
    for (LeafsetId l : actives) {
      if (idb.leafsets().Values(l).size() < 2) continue;
      const std::vector<CoreId>& cores = idb.CoresOf(l);
      bool touches_dirty = false;
      for (CoreId e : cores) {
        if (core_dirty[e.index()]) {
          touches_dirty = true;
          break;
        }
      }
      if (!touches_dirty) continue;
      // Every line exists and l is no singleton, so every term is feasible.
      double total = 0.0;
      lines.clear();
      idb.ForEachLineOf(l, [&](CoreId e, PosListView line) {
        lines.emplace_back(e, line.size());
        total += ComputeSplitGain(idb, cm, singles, xlog, e, l, line.size())
                     .Total(options_.gain_policy);
      });
      computations += lines.size();
      if (total <= kMinGainBits) continue;
      // Split every line. Copy the values first: SplitLine interns, which
      // can reallocate the registry's value storage.
      const std::vector<AttrId> values = idb.leafsets().Values(l);
      for (const auto& [e, fl] : lines) {
        CSPM_RETURN_IF_ERROR(idb.SplitLine(e, l));
        singles.AddSplit(e, values, fl);
      }
      for (AttrId a : values) {
        split_fed.push_back(idb.leafsets().Singleton(a));
      }
      if (fast_stats != nullptr) ++fast_stats->splits;
      changed = true;
    }
  }
  unmerge_span.reset();
  xlog.Cover(idb);

  // Seed: repair scope only. The re-judged pairs are those BOTH of whose
  // members' position lists changed — by the delta patch
  // (touched_leafsets) or by the unmerge pass (the fed singletons).
  // Anything broader degenerates on real graphs: dirty cores are popular
  // attributes, so "every pair under a dirty core" — and even "every
  // pair with one touched member" — is a near-cold seed (millions of
  // evaluations), and because the partial heuristic leaves latent
  // positive pairs everywhere, re-judging them re-opens the whole
  // search. Pairs with an untouched member keep their pre-delta verdict;
  // the gain drift a handful of moved positions (or an f_e total)
  // causes them is the imprecision the DL-ε contract absorbs — the CI
  // gate holds the resulting model to within 1% of a cold mine's DL.
  // The both-source pairs are exactly the pairs of one sweep over the
  // sources, delivered in ascending (x, y) order, so tie-breaking in the
  // store stays deterministic.
  CandidateStore store;
  RelatedDict rdict;
  {
    obs::TraceSpan reseed_span("reseed");
    const std::vector<LeafsetId>& actives = idb.active_leafsets();
    std::vector<char> is_source(idb.leafsets().size(), 0);
    std::vector<LeafsetId> sources;
    auto add_source = [&](LeafsetId l) {
      if (is_source[l.index()] || idb.CoresOf(l).empty()) return;
      is_source[l.index()] = 1;
      sources.push_back(l);
    };
    if (all_dirty) {
      for (LeafsetId l : actives) add_source(l);
    } else {
      // A touched leafset is stale in proportion to the share of its
      // positions that moved: gains shift by O(moved / mass) log-ratios.
      // Below 1/kStaleMassRatio the drift is deep inside the DL-ε budget
      // and skipping the leafset is what keeps the seed small — the
      // popular leafsets (huge mass, a position or two moved) are
      // precisely the ones with thousands of co-occurring partners.
      constexpr uint64_t kStaleMassRatio = 16;
      for (size_t i = 0; i < patch.touched_leafsets.size(); ++i) {
        const LeafsetId l = patch.touched_leafsets[i];
        if (idb.CoresOf(l).empty()) continue;  // emptied or unmerged away
        uint64_t mass = 0;
        for (CoreId e : idb.CoresOf(l)) mass += idb.FindLine(e, l).size();
        const uint64_t moved = i < patch.touched_position_moves.size()
                                   ? patch.touched_position_moves[i]
                                   : mass;
        if (moved * kStaleMassRatio < mass) continue;
        add_source(l);
      }
      for (LeafsetId l : split_fed) add_source(l);
    }
    std::sort(sources.begin(), sources.end());
    const auto seed = [&](LeafsetId t, std::span<const PairGain> partners) {
      for (const PairGain& p : partners) {
        if (!p.gain.feasible) continue;
        const double total = p.gain.Total(options_.gain_policy);
        if (total <= kMinGainBits) continue;
        store.Set(t, p.y, total);
        rdict.Link(t, p.y);
        if (fast_stats != nullptr) ++fast_stats->seeded_pairs;
      }
    };
    computations += SweepMergeGains(idb, cm, xlog, sources, seed);
    RecordIteration(ctx, /*iteration=*/0, computations,
                    PossiblePairs(actives.size()), /*accepted_gain=*/0.0);
  }
  RunPartialLoop(ctx, store, rdict);

  model.stats.final_dl_bits = ExtractAStars(
      idb, cm, options_.include_singleton_leafsets, &model.astars);
  model.stats.final_leafsets = idb.num_active_leafsets();
  model.stats.final_lines = idb.num_lines();

  model.stats.runtime_seconds = timer.ElapsedSeconds();
  return MineArtifacts{std::move(model), std::move(idb)};
}

StatusOr<InvertedDatabase> BuildInitialDatabase(
    const graph::AttributedGraph& g, const CspmOptions& options) {
  if (!options.multi_value_coresets) return InvertedDatabase::FromGraph(g);
  std::vector<std::vector<AttrId>> coreset_values;
  std::vector<std::vector<CoreId>> vertex_coresets;
  CSPM_RETURN_IF_ERROR(BuildSlimCoresets(g, &coreset_values, &vertex_coresets));
  return InvertedDatabase::FromGraphWithCoresets(
      g, std::move(coreset_values), vertex_coresets);
}

StatusOr<CspmMiner::MineArtifacts> CspmMiner::MineWithArtifacts(
    const graph::AttributedGraph& g) const {
  WallTimer timer;
  obs::TraceSpan mine_span("mine");
  obs::GetCounter("mine.runs")->Add(1);

  StatusOr<InvertedDatabase> idb_or = [&] {
    obs::TraceSpan db_build_span("db_build");
    return BuildInitialDatabase(g, options_);
  }();
  if (!idb_or.ok()) return idb_or.status();
  InvertedDatabase idb = std::move(idb_or).value();
  const CodeModel cm(g, idb);

  CspmModel model;
  model.stats.initial_dl_bits = DescriptionLengthBits(cm, idb);
  model.stats.initial_leafsets = idb.num_active_leafsets();
  model.stats.initial_lines = idb.num_lines();

  // Merges only shrink f_e: the table covers the whole search.
  const XLogTable xlog(idb);
  SearchContext ctx{&options_, &idb, &cm, &xlog, &model.stats, &timer};
  if (options_.strategy == SearchStrategy::kBasic) {
    RunBasicSearch(ctx);
  } else {
    CandidateStore store;
    RelatedDict rdict;
    const uint64_t possible = PossiblePairs(idb.num_active_leafsets());
    const uint64_t computations = [&] {
      obs::TraceSpan candidate_gen_span("candidate_gen");
      return GenerateCandidates(ctx, &store, &rdict);
    }();
    RecordIteration(ctx, /*iteration=*/0, computations, possible,
                    /*accepted_gain=*/0.0);
    RunPartialLoop(ctx, store, rdict);
  }

  model.stats.final_dl_bits = ExtractAStars(
      idb, cm, options_.include_singleton_leafsets, &model.astars);
  model.stats.final_leafsets = idb.num_active_leafsets();
  model.stats.final_lines = idb.num_lines();

  model.stats.runtime_seconds = timer.ElapsedSeconds();
  return MineArtifacts{std::move(model), std::move(idb)};
}

}  // namespace cspm::core
