// Tests for the itemset substrate: transaction db, the Krimp-style code
// table / cover, and the SLIM compressor.
#include <gtest/gtest.h>

#include <algorithm>

#include "itemset/code_table.h"
#include "itemset/slim.h"
#include "itemset/transaction_db.h"
#include "testing_util.h"
#include "util/rng.h"

namespace cspm::itemset {
namespace {

TransactionDb SmallDb() {
  // Classic example: {a,b} co-occur strongly.
  TransactionDb db;
  db.Add({0, 1, 2});
  db.Add({0, 1});
  db.Add({0, 1, 3});
  db.Add({2, 3});
  db.Add({0, 1, 2, 3});
  return db;
}

TEST(TransactionDbTest, FrequenciesAndDedup) {
  TransactionDb db;
  db.Add({3, 1, 3, 1});
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.transaction(0), (Itemset{1, 3}));
  EXPECT_EQ(db.ItemFrequency(1), 1u);
  EXPECT_EQ(db.ItemFrequency(3), 1u);
  EXPECT_EQ(db.ItemFrequency(0), 0u);
  EXPECT_EQ(db.total_occurrences(), 2u);
  EXPECT_EQ(db.num_items(), 4u);
}

TEST(TransactionDbTest, FromVertexAttributes) {
  auto g = cspm::testing::PaperExampleGraph();
  TransactionDb db = TransactionDb::FromVertexAttributes(g);
  EXPECT_EQ(db.size(), 5u);
  EXPECT_EQ(db.total_occurrences(), 7u);
}

TEST(TransactionDbTest, FromStarsIncludesNeighbourAttributes) {
  auto g = cspm::testing::PaperExampleGraph();
  TransactionDb db = TransactionDb::FromStars(g);
  EXPECT_EQ(db.size(), 5u);
  // v1 = {a} plus neighbours v2{a,c}, v3{c}, v4{b} -> {a, b, c}.
  EXPECT_EQ(db.transaction(0).size(), 3u);
}

TEST(SubsetUnionTest, Helpers) {
  EXPECT_TRUE(IsSubset({1, 3}, {0, 1, 2, 3}));
  EXPECT_FALSE(IsSubset({1, 4}, {0, 1, 2, 3}));
  EXPECT_TRUE(IsSubset({}, {0}));
  EXPECT_EQ(UnionOf({0, 2}, {1, 2, 5}), (Itemset{0, 1, 2, 5}));
}

// Brute-force support count.
uint64_t CountSupport(const TransactionDb& db, const Itemset& items) {
  uint64_t n = 0;
  for (const auto& t : db.transactions()) n += IsSubset(items, t) ? 1 : 0;
  return n;
}

TEST(CodeTableTest, StandardTableCoversEveryTransaction) {
  TransactionDb db = SmallDb();
  CodeTable ct(&db);
  ct.CoverDb();
  // With singletons only, total usage equals total item occurrences.
  EXPECT_EQ(ct.total_usage(), db.total_occurrences());
  // Singleton usage equals item frequency.
  for (Item i = 0; i < db.num_items(); ++i) {
    size_t idx = ct.Find({i});
    ASSERT_NE(idx, CodeTable::npos);
    EXPECT_EQ(ct.entries()[idx].usage, db.ItemFrequency(i));
  }
}

TEST(CodeTableTest, InsertedPatternTakesPrecedence) {
  TransactionDb db = SmallDb();
  CodeTable ct(&db);
  ct.Insert({0, 1}, CountSupport(db, {0, 1}));
  ct.CoverDb();
  size_t idx = ct.Find({0, 1});
  ASSERT_NE(idx, CodeTable::npos);
  // {0,1} appears in 4 transactions; the pattern covers all of them.
  EXPECT_EQ(ct.entries()[idx].usage, 4u);
  // Singletons 0 and 1 now cover only the remainder (one {2,3}-transaction
  // has neither).
  EXPECT_EQ(ct.entries()[ct.Find({0})].usage, 0u);
  EXPECT_EQ(ct.entries()[ct.Find({1})].usage, 0u);
}

TEST(CodeTableTest, PatternReducesTotalLength) {
  TransactionDb db = SmallDb();
  CodeTable ct(&db);
  ct.CoverDb();
  const double base = ct.TotalLength();
  ct.Insert({0, 1}, 4);
  ct.CoverDb();
  EXPECT_LT(ct.TotalLength(), base);
}

TEST(CodeTableTest, RemoveRestoresState) {
  TransactionDb db = SmallDb();
  CodeTable ct(&db);
  ct.CoverDb();
  const double base = ct.TotalLength();
  ct.Insert({0, 1}, 4);
  ct.CoverDb();
  ct.Remove({0, 1});
  ct.CoverDb();
  EXPECT_NEAR(ct.TotalLength(), base, 1e-9);
}

TEST(CodeTableTest, UsageTidsTracked) {
  TransactionDb db = SmallDb();
  CodeTable ct(&db, /*track_usage_tids=*/true);
  ct.CoverDb();
  size_t idx = ct.Find({0});
  ASSERT_NE(idx, CodeTable::npos);
  EXPECT_EQ(ct.entries()[idx].usage_tids.size(), ct.entries()[idx].usage);
  EXPECT_TRUE(std::is_sorted(ct.entries()[idx].usage_tids.begin(),
                             ct.entries()[idx].usage_tids.end()));
}

TEST(SlimTest, CompressesCorrelatedData) {
  TransactionDb db;
  Rng rng(6);
  for (int t = 0; t < 60; ++t) {
    Itemset items = rng.Bernoulli(0.5) ? Itemset{0, 1, 2} : Itemset{3, 4};
    items.push_back(5 + static_cast<Item>(rng.Uniform(4)));
    db.Add(std::move(items));
  }
  auto result = RunSlim(db, {}).value();
  EXPECT_LT(result.final_length, result.standard_length);
  EXPECT_GT(result.accepted_patterns, 0u);
  EXPECT_LE(result.compression_ratio, 1.0);
}

TEST(SlimTest, FinalLengthNeverAboveStandard) {
  // SLIM only accepts improving merges, so it can never do worse than ST.
  Rng rng(8);
  for (int trial = 0; trial < 3; ++trial) {
    TransactionDb db;
    for (int t = 0; t < 30; ++t) {
      Itemset items;
      for (int i = 0; i < 4; ++i) {
        items.push_back(static_cast<Item>(rng.Uniform(12)));
      }
      db.Add(std::move(items));
    }
    auto result = RunSlim(db, {}).value();
    EXPECT_LE(result.final_length, result.standard_length + 1e-9);
  }
}

TEST(SlimTest, MaxPatternsCapRespected) {
  TransactionDb db;
  Rng rng(10);
  for (int t = 0; t < 50; ++t) {
    Itemset items = {0, 1, 2, 3};
    items.push_back(4 + static_cast<Item>(rng.Uniform(6)));
    db.Add(std::move(items));
  }
  SlimOptions options;
  options.max_patterns = 1;
  auto result = RunSlim(db, options).value();
  EXPECT_LE(result.accepted_patterns, 1u);
}

TEST(SlimTest, EmptyDbRejected) {
  TransactionDb db;
  EXPECT_FALSE(RunSlim(db, {}).status().ok());
}

}  // namespace
}  // namespace cspm::itemset
