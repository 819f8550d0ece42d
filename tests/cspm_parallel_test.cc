// Determinism regression: the thread-pooled gain-evaluation paths must
// produce bit-identical models and DL totals to the serial paths. Every
// gain is computed from the same inputs and the parallel reductions follow
// the serial pair order, so equality here is exact, not approximate.
#include <gtest/gtest.h>

#include "cspm/miner.h"
#include "datasets/synthetic.h"
#include "graph/generators.h"
#include "testing_util.h"
#include "util/thread_pool.h"

namespace cspm::core {
namespace {

void ExpectIdenticalModels(const CspmModel& a, const CspmModel& b) {
  // Bit-identical DL totals (EXPECT_EQ on doubles is deliberate).
  EXPECT_EQ(a.stats.initial_dl_bits, b.stats.initial_dl_bits);
  EXPECT_EQ(a.stats.final_dl_bits, b.stats.final_dl_bits);
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
  EXPECT_EQ(a.stats.total_gain_computations, b.stats.total_gain_computations);
  ASSERT_EQ(a.astars.size(), b.astars.size());
  for (size_t i = 0; i < a.astars.size(); ++i) {
    EXPECT_EQ(cspm::testing::Values(a.astars[i].core_values),
              cspm::testing::Values(b.astars[i].core_values)) << i;
    EXPECT_EQ(cspm::testing::Values(a.astars[i].leaf_values),
              cspm::testing::Values(b.astars[i].leaf_values)) << i;
    EXPECT_EQ(a.astars[i].frequency, b.astars[i].frequency) << i;
    EXPECT_EQ(a.astars[i].core_total, b.astars[i].core_total) << i;
    EXPECT_EQ(a.astars[i].code_length_bits, b.astars[i].code_length_bits)
        << i;
  }
}

CspmModel MineWith(const graph::AttributedGraph& g, SearchStrategy strategy,
                   uint32_t num_threads) {
  CspmOptions options;
  options.strategy = strategy;
  options.num_threads = num_threads;
  return CspmMiner(options).Mine(g).value();
}

TEST(ParallelDeterminism, BasicSearchOnSyntheticDatasets) {
  auto usflight = datasets::MakeUsflightLike(/*seed=*/3, /*num_airports=*/160)
                      .value();
  auto dblp = datasets::MakeDblpLike(/*seed=*/5, /*num_vertices=*/260).value();
  for (const auto* g : {&usflight, &dblp}) {
    CspmModel serial = MineWith(*g, SearchStrategy::kBasic, 1);
    CspmModel parallel = MineWith(*g, SearchStrategy::kBasic, 4);
    ExpectIdenticalModels(serial, parallel);
  }
}

TEST(ParallelDeterminism, PartialSearchOnSyntheticDatasets) {
  auto usflight = datasets::MakeUsflightLike(/*seed=*/7).value();
  auto dblp = datasets::MakeDblpLike(/*seed=*/9, /*num_vertices=*/800).value();
  for (const auto* g : {&usflight, &dblp}) {
    CspmModel serial = MineWith(*g, SearchStrategy::kPartial, 1);
    CspmModel parallel = MineWith(*g, SearchStrategy::kPartial, 4);
    ExpectIdenticalModels(serial, parallel);
  }
}

TEST(ParallelDeterminism, AutoThreadsMatchesSerial) {
  Rng rng(21);
  auto g = graph::ErdosRenyi(200, 0.05, 16, 3, &rng).value();
  CspmModel serial = MineWith(g, SearchStrategy::kPartial, 1);
  CspmModel auto_threads = MineWith(g, SearchStrategy::kPartial, 0);
  ExpectIdenticalModels(serial, auto_threads);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<uint32_t>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1u) << i;
  }
  // Reusable across calls, including empty ones.
  pool.ParallelFor(0, [](size_t) { FAIL(); });
  std::atomic<size_t> count{0};
  pool.ParallelFor(17, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 17u);
}

}  // namespace
}  // namespace cspm::core
