// Ablation bench for the design choices called out in DESIGN.md:
//   (1) gain policy: pure-data gain (paper's Alg. 2 check) vs data+model;
//   (2) revalidate-on-pop in CSPM-Partial on vs off;
//   (3) ACOR with the temporal-precedence oracle vs the published
//       time-flattened variant.
#include <cstdio>

#include "alarm/acor.h"
#include "alarm/simulator.h"
#include "alarm/window_graph.h"
#include "bench_common.h"
#include "engine/session.h"

namespace {

void RunMinerVariant(const char* label, const cspm::graph::AttributedGraph& g,
                     cspm::engine::MiningOptions options) {
  options.record_iteration_stats = false;
  auto model = cspm::engine::MineModel(g, options).value();
  std::printf("  %-28s DL %.0f -> %.0f (ratio %.4f), %llu merges, "
              "%llu gain calcs, %.3fs\n",
              label, model.stats.initial_dl_bits, model.stats.final_dl_bits,
              model.stats.CompressionRatio(),
              static_cast<unsigned long long>(model.stats.iterations),
              static_cast<unsigned long long>(
                  model.stats.total_gain_computations),
              model.stats.runtime_seconds);
  std::fflush(stdout);
}

}  // namespace

int main() {
  using namespace cspm;
  auto g = datasets::MakeDblpLike(1).value();

  std::printf("=== Ablation 1: gain policy (DBLP-like) ===\n");
  {
    engine::MiningOptions data_only;
    data_only.gain_policy = engine::GainPolicy::kDataOnly;
    RunMinerVariant("data-only gain (Alg. 2)", g, data_only);
    engine::MiningOptions with_model;
    with_model.gain_policy = engine::GainPolicy::kDataPlusModel;
    RunMinerVariant("data+model gain (MDL)", g, with_model);
  }

  std::printf("=== Ablation 2: revalidate-on-pop in Partial ===\n");
  {
    engine::MiningOptions on;
    on.revalidate_on_pop = true;
    RunMinerVariant("revalidate on", g, on);
    engine::MiningOptions off;
    off.revalidate_on_pop = false;
    RunMinerVariant("revalidate off", g, off);
  }

  std::printf("=== Ablation 3: ACOR direction signal (alarm sim) ===\n");
  {
    Rng rng(99);
    auto lib = alarm::RuleLibrary::Generate(8, 6, 10, 120, &rng);
    alarm::SimulationOptions options;
    options.num_devices = 120;
    options.num_alarm_types = 120;
    options.duration_minutes = 3000;
    options.cause_incidents = 3000;
    options.seed = 99;
    auto data = alarm::SimulateAlarms(options, lib).value();
    auto valid = lib.PairRules();
    for (bool oracle : {false, true}) {
      alarm::AcorOptions aopts;
      aopts.use_temporal_precedence = oracle;
      auto ranked = alarm::RunAcor(data, aopts);
      auto cov = alarm::CoverageAtK(ranked, valid,
                                    {valid.size(), 2 * valid.size()});
      std::printf("  ACOR %-22s coverage@%zu=%.3f  @%zu=%.3f\n",
                  oracle ? "(timestamp oracle)" : "(published, windowed)",
                  valid.size(), cov[0], 2 * valid.size(), cov[1]);
    }
  }
  return 0;
}
