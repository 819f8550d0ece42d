// Reproduces Fig. 5: gain update ratio per iteration for CSPM-Basic vs
// CSPM-Partial on the four datasets.
//
// The update ratio of an iteration is the number of gain computations
// performed divided by C(#active leafsets, 2) — the paper's "ratio of gain
// values that are added or updated out of the total number of possible
// calculations". CSPM-Basic recomputes everything (ratio ~= 1); Partial
// only touches related pairs, so its ratio collapses after the first
// iterations.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "engine/session.h"

namespace {

double BudgetSeconds() {
  if (const char* env = std::getenv("CSPM_BENCH_BUDGET_SECONDS")) {
    return std::strtod(env, nullptr);
  }
  return 90.0;
}

void PrintSeries(const char* label,
                 const std::vector<cspm::engine::IterationStats>& stats) {
  // Downsample to at most 12 sample points.
  std::printf("  %-12s", label);
  if (stats.empty()) {
    std::printf(" (no iterations)\n");
    return;
  }
  const size_t n = stats.size();
  const size_t step = std::max<size_t>(1, n / 12);
  for (size_t i = 0; i < n; i += step) {
    std::printf(" %5.1f%%", 100.0 * stats[i].UpdateRatio());
  }
  std::printf("  (%zu iterations)\n", n);
}

}  // namespace

int main() {
  using namespace cspm;
  const double budget = BudgetSeconds();
  std::printf("=== Fig. 5: gain update ratio per iteration "
              "(sampled; cap %.0fs per run) ===\n", budget);
  for (const auto& item : bench::MakeTable2Datasets()) {
    std::printf("%s:\n", item.name.c_str());
    for (auto strategy :
         {engine::SearchStrategy::kBasic, engine::SearchStrategy::kPartial}) {
      if (strategy == engine::SearchStrategy::kBasic &&
          item.graph.num_vertices().value() > 5000) {
        std::printf("  %-12s (skipped: dataset too large for Basic)\n",
                    "CSPM-Basic");
        continue;
      }
      engine::MiningOptions options;
      options.strategy = strategy;
      options.record_iteration_stats = true;
      options.max_seconds = budget;
      auto model = engine::MineModel(item.graph, options).value();
      PrintSeries(strategy == engine::SearchStrategy::kBasic ? "CSPM-Basic"
                                                             : "CSPM-Partial",
                  model.stats.per_iteration);
      std::fflush(stdout);
    }
  }
  std::printf("\npaper shape: Basic stays near 100%%; Partial drops to a "
              "few percent after the initial generation\n");
  return 0;
}
