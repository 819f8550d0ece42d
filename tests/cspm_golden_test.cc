// Golden bit-identity: pins the serialized model (its text and its store
// record bytes), the final description length and the gain-computation
// count of a few fixed mines, so any change that moves mining output by a
// single bit fails here. The pinned values were captured before the merge
// loop's row rescoring replaced its single-pair gain calls (the record
// hashes before the model went flat); a performance change must reproduce
// them exactly. A change that is meant to alter mining output re-captures them
// (the failure message prints the new values) and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "cspm/miner.h"
#include "cspm/serialization.h"
#include "datasets/synthetic.h"
#include "engine/session.h"
#include "graph/graph_delta.h"
#include "store/codec.h"

namespace cspm::core {
namespace {

uint64_t Fnv1a(std::string_view text) {
  uint64_t h = 1469598103934665603ull;
  for (char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// What one mine pins: the model text's hash, the final DL's bit pattern,
/// the pairs evaluated, the number of a-stars and the hash of the model's
/// store record (store::EncodeModel, with the wall-clock runtime zeroed:
/// the one field that differs run to run).
struct Golden {
  uint64_t model_hash;
  uint64_t final_dl_bits;
  uint64_t gain_computations;
  uint64_t astars;
  uint64_t record_hash;
};

Golden Capture(const CspmModel& model, const graph::AttributeDictionary& dict) {
  CspmModel timeless = model;
  timeless.stats.runtime_seconds = 0.0;
  store::Encoder enc;
  store::EncodeModel(timeless, &enc);
  return {Fnv1a(ModelToText(model, dict)),
          DoubleBits(model.stats.final_dl_bits),
          model.stats.total_gain_computations, model.astars.size(),
          Fnv1a(enc.data())};
}

void ExpectGolden(const Golden& want, const Golden& got,
                  const std::string& label) {
  char actual[200];
  std::snprintf(actual, sizeof(actual),
                "{0x%016llxull, 0x%016llxull, %lluull, %lluull, "
                "0x%016llxull}",
                static_cast<unsigned long long>(got.model_hash),
                static_cast<unsigned long long>(got.final_dl_bits),
                static_cast<unsigned long long>(got.gain_computations),
                static_cast<unsigned long long>(got.astars),
                static_cast<unsigned long long>(got.record_hash));
  EXPECT_EQ(want.model_hash, got.model_hash) << label << " got " << actual;
  EXPECT_EQ(want.final_dl_bits, got.final_dl_bits)
      << label << " got " << actual;
  EXPECT_EQ(want.gain_computations, got.gain_computations)
      << label << " got " << actual;
  EXPECT_EQ(want.astars, got.astars) << label << " got " << actual;
  EXPECT_EQ(want.record_hash, got.record_hash) << label << " got " << actual;
}

/// A default-options cold mine must hit the golden values.
void ExpectColdMineGolden(const graph::AttributedGraph& g, const Golden& want,
                          const std::string& label) {
  const CspmModel model = CspmMiner(CspmOptions{}).Mine(g).value();
  ExpectGolden(want, Capture(model, g.dict()), label);
}

TEST(GoldenMine, PokecColdMine) {
  const auto g = datasets::MakePokecLike(/*seed=*/3, 1500).value();
  ExpectColdMineGolden(
      g, {0x791405376875fcb3ull, 0x413d77a71a801aecull, 194693ull, 39898ull,
         0x4cea16fe30a9322eull},
      "pokec n=1500");
}

TEST(GoldenMine, UsflightColdMine) {
  const auto g = datasets::MakeUsflightLike(/*seed=*/7).value();
  ExpectColdMineGolden(
      g, {0x4dbcb5ff8561f491ull, 0x4112f55bab150e34ull, 7322ull, 6192ull,
         0x2a6e235e874eab83ull},
      "usflight");
}

TEST(GoldenMine, PokecFastUpdateChain) {
  // Three chained kFast updates of 15 edge rewires each, on the session's
  // current graph: patch, unmerge, reseed and the resumed merge loop.
  const auto g = datasets::MakePokecLike(/*seed=*/3, 1500).value();
  engine::MiningOptions options;
  options.enable_updates = true;
  auto session = std::move(engine::MiningSession::Create(g, options)).value();
  ASSERT_TRUE(session.Mine().ok());
  for (uint64_t round = 1; round <= 3; ++round) {
    const graph::GraphDelta delta =
        graph::MakeRandomEdgeRewires(session.graph(), 15, 100 + round).value();
    engine::UpdateStats stats;
    ASSERT_TRUE(
        session.ApplyUpdates(delta, engine::UpdateMode::kFast, &stats).ok());
    ASSERT_TRUE(stats.fast_path);
  }
  ExpectGolden(
      {0x152fc8c98a1c923dull, 0x413cbd5d820f621aull, 58930ull, 37821ull,
       0x4c0078d2be9093b6ull},
      Capture(session.model(), session.graph().dict()),
      "pokec n=1500 after 3 kFast updates");
}

}  // namespace
}  // namespace cspm::core
