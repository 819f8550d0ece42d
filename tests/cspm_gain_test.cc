// Gain-engine tests: the three merge cases of Eqs. 12-15, the worked
// example of Section IV-E, consistency between predicted gain and the
// actual description-length change after a merge, and the co-occurrence
// sweep and the merge loop's row rescoring checked bit for bit against
// the single-pair gain.
#include "cspm/gain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <map>
#include <unordered_map>

#include "cspm/candidates.h"
#include "cspm/miner.h"
#include "datasets/synthetic.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "testing_util.h"

namespace cspm::core {
namespace {

using cspm::testing::PaperExampleGraph;

// Single-value-coreset mode: leafset ids start out coinciding with
// attribute-value ids; spell the correspondence out.
LeafsetId L(AttrId a) { return LeafsetId(a.value()); }

class GainPaperExample : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = std::make_unique<graph::AttributedGraph>(PaperExampleGraph());
    a_ = g_->dict().Find("a");
    b_ = g_->dict().Find("b");
    c_ = g_->dict().Find("c");
    auto idb_or = InvertedDatabase::FromGraph(*g_);
    ASSERT_TRUE(idb_or.status().ok());
    idb_ = std::make_unique<InvertedDatabase>(std::move(idb_or).value());
    cm_ = std::make_unique<CodeModel>(*g_, *idb_);
  }

  std::unique_ptr<graph::AttributedGraph> g_;
  std::unique_ptr<InvertedDatabase> idb_;
  std::unique_ptr<CodeModel> cm_;
  AttrId a_{}, b_{}, c_{};
};

TEST_F(GainPaperExample, MergeBCDataGainMatchesHandComputation) {
  // Hand computation (Section IV-E example, log base 2):
  //   Core a: f=6, xy=2 (total merge of both lines, Case 2):
  //     P1_a = 6 log 6 - 4 log 4; P2_a = xy log xy = 2.
  //   Core b: f=4, x_e=2 (leaf {b}), y_e=1 (leaf {c}), xy=1 (Case 3):
  //     P1_b = 4 log 4 - 3 log 3; P2_b = 2 log 2 - (1 log 1 + 1 log 1) = 2.
  GainResult gr = ComputeMergeGain(*idb_, *cm_, L(b_), L(c_));
  ASSERT_TRUE(gr.feasible);
  const double p1 = (6 * std::log2(6.0) - 4 * std::log2(4.0)) +
                    (4 * std::log2(4.0) - 3 * std::log2(3.0));
  const double p2 = 2.0 + 2.0;
  EXPECT_NEAR(gr.data_gain_bits, p1 - p2, 1e-9);
  EXPECT_EQ(gr.cores_with_overlap, 2u);
  EXPECT_EQ(gr.total_overlap, 3u);
}

TEST_F(GainPaperExample, ModelDeltaMatchesHandComputation) {
  // ST lengths: a: -log2(3/7), b,c: -log2(2/7). Cores: same values.
  const double la = -std::log2(3.0 / 7.0);
  const double lb = -std::log2(2.0 / 7.0);
  // Added lines: ({b,c} under a), ({b,c} under b);
  // removed: ({b} under a), ({c} under a), ({c} under b).
  const double added = (2 * lb + la) + (2 * lb + lb);
  const double removed = (lb + la) + (lb + la) + (lb + lb);
  GainResult gr = ComputeMergeGain(*idb_, *cm_, L(b_), L(c_));
  EXPECT_NEAR(gr.model_delta_bits, added - removed, 1e-9);
}

TEST_F(GainPaperExample, GainPredictsActualDlChange) {
  // The data gain must equal the exact change of L(I|M), and the
  // data+model gain the change of the CTL-inclusive DL.
  const double data_before = idb_->DataCostBits();
  const double full_before = cm_->TotalDescriptionLengthBits(*idb_);
  GainResult gr = ComputeMergeGain(*idb_, *cm_, L(b_), L(c_));
  idb_->MergeLeafsets(L(b_), L(c_));
  const double data_after = idb_->DataCostBits();
  const double full_after = cm_->TotalDescriptionLengthBits(*idb_);
  EXPECT_NEAR(data_before - data_after, gr.data_gain_bits, 1e-9);
  // Full DL also shifts by the change in Code_L column (conditional code
  // lengths), which is part of L(CTL|I) but not of the model delta; the
  // invariant we check is directional: data+model gain positive implies
  // the two-part DL (ex Code_L column drift) shrinks.
  EXPECT_LT(full_after - full_before, gr.model_delta_bits + 1e-9);
}

TEST_F(GainPaperExample, InfeasiblePairHasZeroGain) {
  // After merging {b},{c}, leafset {c} has no lines; any pair with it is
  // infeasible.
  idb_->MergeLeafsets(L(b_), L(c_));
  GainResult gr = ComputeMergeGain(*idb_, *cm_, L(a_), L(c_));
  EXPECT_FALSE(gr.feasible);
  EXPECT_EQ(gr.data_gain_bits, 0.0);
}

TEST_F(GainPaperExample, SelfPairInfeasible) {
  GainResult gr = ComputeMergeGain(*idb_, *cm_, L(a_), L(a_));
  EXPECT_FALSE(gr.feasible);
}

TEST_F(GainPaperExample, SubsetPairInfeasible) {
  // Merge {b},{c} -> {b,c}; pairing {b,c} with {b} has union == {b,c},
  // which by the losslessness invariant can never overlap.
  MergeOutcome outcome = idb_->MergeLeafsets(L(b_), L(c_));
  GainResult gr = ComputeMergeGain(*idb_, *cm_, outcome.merged_id, L(b_));
  EXPECT_FALSE(gr.feasible);
}

// Property: on random graphs, for any feasible pair the predicted data gain
// equals the exact L(I|M) delta realized by the merge.
TEST(GainProperty, PredictedEqualsRealizedDataGain) {
  for (uint64_t seed : {3ull, 11ull, 23ull}) {
    Rng rng(seed);
    auto g_or = graph::ErdosRenyi(70, 0.09, 10, 3, &rng);
    ASSERT_TRUE(g_or.status().ok());
    auto idb_or = InvertedDatabase::FromGraph(*g_or);
    ASSERT_TRUE(idb_or.status().ok());
    InvertedDatabase idb = std::move(idb_or).value();
    CodeModel cm(*g_or, idb);
    int merges_done = 0;
    for (int step = 0; step < 60 && merges_done < 12; ++step) {
      const auto& actives = idb.active_leafsets();
      if (actives.size() < 2) break;
      LeafsetId x = actives[rng.Uniform(actives.size())];
      LeafsetId y = actives[rng.Uniform(actives.size())];
      if (x == y) continue;
      GainResult gr = ComputeMergeGain(idb, cm, x, y);
      if (!gr.feasible) continue;
      const double before = idb.DataCostBits();
      idb.MergeLeafsets(x, y);
      const double after = idb.DataCostBits();
      ASSERT_NEAR(before - after, gr.data_gain_bits, 1e-6)
          << "seed " << seed << " step " << step;
      ++merges_done;
    }
    ASSERT_GT(merges_done, 0) << "seed " << seed;
  }
}

// --- the co-occurrence sweep against the single-pair oracle ---------------

/// What an oracle pass saw, so each case can assert the shapes it covers.
struct SweepCoverage {
  uint64_t evaluated = 0;   ///< pairs the sweep delivered
  uint64_t feasible = 0;    ///< pairs ComputeMergeGain finds feasible
  uint64_t with_union = 0;  ///< pairs with ze > 0 under an overlap core
  uint64_t subset = 0;      ///< pairs whose union is one of the pair
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// True if the union leafset u has a line under some coreset where the
/// lines of x and y overlap (the ze > 0 case of the gain formula).
bool HasUnionLineUnderOverlap(const InvertedDatabase& idb, LeafsetId x,
                              LeafsetId y, LeafsetId u) {
  bool found = false;
  idb.ForEachSharedCore(x, y, [&](CoreId e, PosListView px, PosListView py) {
    std::vector<VertexId> both;
    std::set_intersection(px.begin(), px.end(), py.begin(), py.end(),
                          std::back_inserter(both));
    found = found || (!both.empty() && !idb.FindLine(e, u).empty());
  });
  return found;
}

/// Sweeps `rows` and compares every pair x < y of them with
/// ComputeMergeGain(x, y): a delivered pair must match it bit for bit
/// under both policies, and a pair the sweep skips must be infeasible.
/// Fills `coverage`.
void CompareSweepWithOracle(const InvertedDatabase& idb, const CodeModel& cm,
                            const std::vector<LeafsetId>& rows,
                            SweepCoverage* coverage) {
  std::unordered_map<uint64_t, GainResult> swept;
  LeafsetId last_row{};
  bool any_row = false;
  const auto collect = [&](LeafsetId x, std::span<const PairGain> partners) {
    EXPECT_TRUE(!any_row || last_row < x) << "rows out of order";
    any_row = true;
    last_row = x;
    LeafsetId previous = x;
    for (const PairGain& p : partners) {
      EXPECT_LT(previous, p.y) << "partners out of order";
      previous = p.y;
      swept.emplace(CandidatePairKey(x, p.y), p.gain);
    }
  };
  coverage->evaluated =
      SweepMergeGains(idb, cm, XLogTable(idb), rows, collect);
  EXPECT_EQ(coverage->evaluated, swept.size());

  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = i + 1; j < rows.size(); ++j) {
      const LeafsetId x = rows[i];
      const LeafsetId y = rows[j];
      const GainResult oracle = ComputeMergeGain(idb, cm, x, y);
      const LeafsetId u = idb.leafsets().Find(idb.leafsets().UnionValues(x, y));
      if (u == x || u == y) ++coverage->subset;
      if (oracle.feasible) {
        ++coverage->feasible;
        if (u != LeafsetRegistry::kNotFound &&
            HasUnionLineUnderOverlap(idb, x, y, u)) {
          ++coverage->with_union;
        }
      }
      auto it = swept.find(CandidatePairKey(x, y));
      if (it == swept.end()) {
        ASSERT_FALSE(oracle.feasible) << "sweep skipped " << x << "," << y;
        continue;
      }
      const GainResult& got = it->second;
      ASSERT_EQ(got.feasible, oracle.feasible) << x << "," << y;
      for (GainPolicy policy :
           {GainPolicy::kDataOnly, GainPolicy::kDataPlusModel}) {
        ASSERT_TRUE(SameBits(got.Total(policy), oracle.Total(policy)))
            << x << "," << y << ": " << got.Total(policy) << " vs "
            << oracle.Total(policy);
      }
      EXPECT_EQ(got.cores_with_overlap, oracle.cores_with_overlap);
      EXPECT_EQ(got.total_overlap, oracle.total_overlap);
    }
  }
}

/// The oracle pass, which must see at least one feasible pair.
SweepCoverage ExpectSweepMatchesOracle(const InvertedDatabase& idb,
                                       const CodeModel& cm,
                                       const std::vector<LeafsetId>& rows) {
  SweepCoverage coverage;
  CompareSweepWithOracle(idb, cm, rows, &coverage);
  EXPECT_GT(coverage.feasible, 0u);
  return coverage;
}

TEST(GainSweepOracle, PokecSeedDatabase) {
  const auto g = datasets::MakePokecLike(/*seed=*/5, 500).value();
  const InvertedDatabase idb = InvertedDatabase::FromGraph(g).value();
  const CodeModel cm(g, idb);
  ExpectSweepMatchesOracle(idb, cm, idb.active_leafsets());
}

TEST(GainSweepOracle, MultiValueCoresetSeedDatabase) {
  const auto g = datasets::MakeDblpLike(/*seed=*/4, 300).value();
  CspmOptions options;
  options.multi_value_coresets = true;
  const InvertedDatabase idb = BuildInitialDatabase(g, options).value();
  const CodeModel cm(g, idb);
  // SLIM must have produced at least one multi-value coreset.
  bool multi = false;
  for (CoreId c(0); c.index() < idb.num_coresets(); ++c) {
    multi = multi || idb.CoresetValues(c).size() > 1;
  }
  ASSERT_TRUE(multi);
  ExpectSweepMatchesOracle(idb, cm, idb.active_leafsets());
}

TEST(GainSweepOracle, RepairedFinalDatabaseOverSourceSubset) {
  // A mined database repaired by a fast update holds merged leafsets next
  // to their members: pairs whose union is already a leafset, some with a
  // line under a coreset where the pair overlaps (ze > 0), and pairs with
  // y ⊆ x. The fast re-seed sweeps such a database over a subset.
  auto g = datasets::MakePokecLike(/*seed=*/3, 2000).value();
  const CspmMiner miner{CspmOptions{}};
  auto mined = miner.MineWithArtifacts(g);
  ASSERT_TRUE(mined.ok());
  InvertedDatabase idb = std::move(mined->inverted_db);
  for (uint64_t round : {1u, 2u}) {
    const auto delta = graph::MakeRandomEdgeRewires(g, 20, round).value();
    auto applied = graph::ApplyDelta(g, delta).value();
    DeltaPatchStats patch;
    Status st =
        idb.ApplyDeltaMerged(g, applied.graph, applied.dirty_vertices, &patch);
    ASSERT_TRUE(st.ok()) << st.ToString();
    g = std::move(applied.graph);
    if (round == 1) {
      // An edge-only delta (not all dirty).
      FastResumeStats fast;
      auto resumed = miner.ResumeFast(g, std::move(idb), patch, false, &fast);
      ASSERT_TRUE(resumed.ok());
      idb = std::move(resumed->inverted_db);
    }
  }
  const CodeModel cm(g, idb);

  // Sources: every 16th active leafset, plus both members and the union
  // of every pair whose union is already an active leafset.
  const std::vector<LeafsetId>& actives = idb.active_leafsets();
  std::vector<LeafsetId> sources;
  for (size_t i = 0; i < actives.size(); i += 16) sources.push_back(actives[i]);
  const auto add_unions = [&](LeafsetId x, std::span<const PairGain> partners) {
    for (const PairGain& p : partners) {
      const LeafsetId u =
          idb.leafsets().Find(idb.leafsets().UnionValues(x, p.y));
      if (u == LeafsetRegistry::kNotFound) continue;
      sources.insert(sources.end(), {x, p.y});
      if (!idb.CoresOf(u).empty()) sources.push_back(u);
    }
  };
  SweepMergeGains(idb, cm, XLogTable(idb), actives, add_unions);
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  ASSERT_LT(sources.size(), actives.size() / 2);

  const SweepCoverage coverage = ExpectSweepMatchesOracle(idb, cm, sources);
  EXPECT_GT(coverage.with_union, 0u);
  EXPECT_GT(coverage.subset, 0u);
}

// --- the merge loop's row rescoring against the single-pair oracle -------

/// What a row-oracle pass saw, once per (row, partner) pair.
struct RowCoverage {
  uint64_t pairs = 0;
  uint64_t feasible = 0;
  uint64_t no_shared_position = 0;  ///< both have lines, union is new
  uint64_t subset = 0;              ///< the union is one of the pair
  uint64_t no_lines = 0;            ///< the partner has no lines
  uint64_t with_union = 0;          ///< feasible, ze > 0 under an overlap
};

void ExpectSameGain(const GainResult& got, const GainResult& want) {
  ASSERT_EQ(got.feasible, want.feasible);
  ASSERT_TRUE(SameBits(got.data_gain_bits, want.data_gain_bits))
      << got.data_gain_bits << " vs " << want.data_gain_bits;
  ASSERT_TRUE(SameBits(got.model_delta_bits, want.model_delta_bits))
      << got.model_delta_bits << " vs " << want.model_delta_bits;
  for (GainPolicy policy :
       {GainPolicy::kDataOnly, GainPolicy::kDataPlusModel}) {
    ASSERT_TRUE(SameBits(got.Total(policy), want.Total(policy)));
  }
  EXPECT_EQ(got.cores_with_overlap, want.cores_with_overlap);
  EXPECT_EQ(got.total_overlap, want.total_overlap);
}

/// One row and the partners it is scored against.
struct RowCase {
  LeafsetId row;
  std::vector<LeafsetId> partners;
};

/// Rows: every `row_step`-th active leafset, and every member of a
/// co-occurring pair whose union is already a leafset. Partners of a row:
/// about `spread` leafsets evenly spaced over the registry (active or
/// not, co-occurring or not), the singletons of the row's values (subsets
/// of a merged row), the row itself, and its union-sharing partners.
std::vector<RowCase> MixedRowCases(const InvertedDatabase& idb,
                                   const CodeModel& cm, size_t row_step,
                                   size_t spread) {
  std::map<LeafsetId, std::vector<LeafsetId>> union_partners;
  SweepMergeGains(idb, cm, XLogTable(idb), idb.active_leafsets(),
                  [&](LeafsetId x, std::span<const PairGain> partners) {
                    for (const PairGain& p : partners) {
                      const LeafsetId u = idb.leafsets().Find(
                          idb.leafsets().UnionValues(x, p.y));
                      if (u == LeafsetRegistry::kNotFound) continue;
                      union_partners[x].push_back(p.y);
                      union_partners[p.y].push_back(x);
                    }
                  });
  const size_t stride = std::max<size_t>(1, idb.leafsets().size() / spread);
  std::vector<RowCase> cases;
  const std::vector<LeafsetId>& actives = idb.active_leafsets();
  for (size_t i = 0; i < actives.size(); ++i) {
    const LeafsetId row = actives[i];
    auto extra = union_partners.find(row);
    if (i % row_step != 0 && extra == union_partners.end()) continue;
    RowCase c{row, {}};
    for (size_t l = row.index() % stride; l < idb.leafsets().size();
         l += stride) {
      c.partners.push_back(LeafsetId(static_cast<uint32_t>(l)));
    }
    for (AttrId a : idb.leafsets().Values(row)) {
      const LeafsetId s = idb.leafsets().Singleton(a);
      if (s != LeafsetRegistry::kNotFound) c.partners.push_back(s);
    }
    c.partners.push_back(row);
    if (extra != union_partners.end()) {
      c.partners.insert(c.partners.end(), extra->second.begin(),
                        extra->second.end());
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Scores every row against its partners on both sides with `rescorer`
/// and compares each result with ComputeMergeGain in the same orientation,
/// bit for bit. Adds what it saw to `coverage`.
void ExpectRowsMatchOracle(const InvertedDatabase& idb, const CodeModel& cm,
                           RowRescorer* rescorer,
                           const std::vector<RowCase>& cases,
                           RowCoverage* coverage) {
  std::vector<GainResult> got;
  for (const RowCase& c : cases) {
    const LeafsetId row = c.row;
    for (RowSide side : {RowSide::kX, RowSide::kY}) {
      rescorer->Score(row, side, c.partners, &got);
      ASSERT_EQ(got.size(), c.partners.size());
      for (size_t j = 0; j < c.partners.size(); ++j) {
        const LeafsetId y = c.partners[j];
        const GainResult want = side == RowSide::kX
                                    ? ComputeMergeGain(idb, cm, row, y)
                                    : ComputeMergeGain(idb, cm, y, row);
        SCOPED_TRACE(::testing::Message()
                     << "row " << row << " partner " << y << " side "
                     << (side == RowSide::kX ? "x" : "y"));
        ExpectSameGain(got[j], want);
        if (::testing::Test::HasFatalFailure()) return;
        if (side == RowSide::kY || y == row) continue;
        ++coverage->pairs;
        const LeafsetId u =
            idb.leafsets().Find(idb.leafsets().UnionValues(row, y));
        if (idb.CoresOf(y).empty()) {
          ++coverage->no_lines;
        } else if (u == row || u == y) {
          ++coverage->subset;
        } else if (!want.feasible) {
          ++coverage->no_shared_position;
        } else {
          ++coverage->feasible;
          if (u != LeafsetRegistry::kNotFound &&
              HasUnionLineUnderOverlap(idb, row, y, u)) {
            ++coverage->with_union;
          }
        }
      }
    }
  }
}

TEST(RowRescoreOracle, ColdMineStoppedMidMineThenMergedFurther) {
  // A cold mine stopped after N merges holds merged leafsets next to
  // partly merged members, and totally merged (line-less) leafsets.
  const auto g = datasets::MakePokecLike(/*seed=*/5, 600).value();
  CspmOptions options;
  options.max_iterations = 150;
  auto mined = CspmMiner(options).MineWithArtifacts(g);
  ASSERT_TRUE(mined.ok());
  ASSERT_EQ(mined->model.stats.iterations, 150u);
  InvertedDatabase idb = std::move(mined->inverted_db);
  const CodeModel cm(g, idb);

  const XLogTable xlog(idb);
  RowRescorer rescorer(idb, cm, xlog);
  RowCoverage coverage;
  ExpectRowsMatchOracle(idb, cm, &rescorer, MixedRowCases(idb, cm, 7, 200),
                        &coverage);
  EXPECT_GT(coverage.feasible, 0u);
  EXPECT_GT(coverage.no_shared_position, 0u);
  EXPECT_GT(coverage.subset, 0u);
  EXPECT_GT(coverage.no_lines, 0u);

  // Keep merging with the same rescorer, as the loop does: the XLog2X
  // table it reads covers the shrinking f_e, and its scratch carries over.
  for (int merge = 0; merge < 20; ++merge) {
    double best_gain = 0.0;
    LeafsetId best_x{};
    LeafsetId best_y{};
    SweepMergeGains(idb, cm, XLogTable(idb), idb.active_leafsets(),
                    [&](LeafsetId x, std::span<const PairGain> partners) {
                      for (const PairGain& p : partners) {
                        const double total =
                            p.gain.Total(GainPolicy::kDataPlusModel);
                        if (p.gain.feasible && total > best_gain) {
                          best_gain = total;
                          best_x = x;
                          best_y = p.y;
                        }
                      }
                    });
    ASSERT_GT(best_gain, 0.0);
    ASSERT_FALSE(idb.MergeLeafsets(best_x, best_y).no_op);
  }
  RowCoverage after;
  ExpectRowsMatchOracle(idb, cm, &rescorer, MixedRowCases(idb, cm, 7, 200),
                        &after);
  EXPECT_GT(after.feasible, 0u);
}

TEST(RowRescoreOracle, FastResumeStoppedMidMine) {
  // Cold-mined databases hold no pair whose union line already exists
  // under an overlap core; a fast patch's greedy re-cover makes them, and
  // the resumed merge loop rescores such pairs (ze > 0). Stop the second
  // update's resumed loop after a few merges and score there.
  auto g = datasets::MakePokecLike(/*seed=*/3, 1500).value();
  const CspmMiner miner{CspmOptions{}};
  auto mined = miner.MineWithArtifacts(g);
  ASSERT_TRUE(mined.ok());
  InvertedDatabase idb = std::move(mined->inverted_db);
  CspmOptions stop_early;
  stop_early.max_iterations = 3;
  for (uint64_t round : {1u, 2u}) {
    const auto delta = graph::MakeRandomEdgeRewires(g, 20, round).value();
    auto applied = graph::ApplyDelta(g, delta).value();
    DeltaPatchStats patch;
    Status st =
        idb.ApplyDeltaMerged(g, applied.graph, applied.dirty_vertices, &patch);
    ASSERT_TRUE(st.ok()) << st.ToString();
    g = std::move(applied.graph);
    const CspmMiner resumer{round == 1 ? CspmOptions{} : stop_early};
    auto resumed = resumer.ResumeFast(g, std::move(idb), patch, false, nullptr);
    ASSERT_TRUE(resumed.ok());
    idb = std::move(resumed->inverted_db);
  }
  const CodeModel cm(g, idb);
  const XLogTable xlog(idb);
  RowRescorer rescorer(idb, cm, xlog);
  RowCoverage coverage;
  ExpectRowsMatchOracle(idb, cm, &rescorer, MixedRowCases(idb, cm, 97, 60),
                        &coverage);
  EXPECT_GT(coverage.feasible, 0u);
  EXPECT_GT(coverage.no_shared_position, 0u);
  EXPECT_GT(coverage.subset, 0u);
  EXPECT_GT(coverage.no_lines, 0u);
  EXPECT_GT(coverage.with_union, 0u);
}

TEST(RowRescoreOracle, MultiValueCoresetMidMine) {
  const auto g = datasets::MakeDblpLike(/*seed=*/4, 300).value();
  CspmOptions options;
  options.multi_value_coresets = true;
  options.max_iterations = 60;
  auto mined = CspmMiner(options).MineWithArtifacts(g);
  ASSERT_TRUE(mined.ok());
  InvertedDatabase idb = std::move(mined->inverted_db);
  const CodeModel cm(g, idb);
  const XLogTable xlog(idb);
  RowRescorer rescorer(idb, cm, xlog);
  RowCoverage coverage;
  ExpectRowsMatchOracle(idb, cm, &rescorer, MixedRowCases(idb, cm, 5, 200),
                        &coverage);
  EXPECT_GT(coverage.feasible, 0u);
  EXPECT_GT(coverage.subset, 0u);
}

}  // namespace
}  // namespace cspm::core
