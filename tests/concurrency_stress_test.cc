// ThreadSanitizer stress suite for the concurrent layers: ThreadPool
// dispatch/shutdown churn, ModelRegistry readers racing Put/Remove,
// ScoreBatch traffic across serving engines that share one ScorePool
// while a mining session hot-swaps the published model. Every test also
// passes in a plain build; run them under -DCSPM_TSAN=ON (the dedicated
// CI job) to turn latent races into failures.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/model_registry.h"
#include "engine/serving.h"
#include "engine/session.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cspm {
namespace {

graph::AttributedGraph StressGraph(uint64_t seed = 11) {
  Rng rng(seed);
  auto g = graph::BarabasiAlbert(/*n=*/240, /*m=*/3, /*vocabulary=*/20,
                                 /*attrs_per_vertex=*/3, &rng);
  CSPM_CHECK(g.ok());
  return std::move(g).value();
}

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPoolStress, ShutdownRacesWorkersParkedOnDrainedJob) {
  // The destructor fires immediately after a busy burst, while workers may
  // still be unwinding from their (fully drained) snapshot of the job —
  // the exact window the generation/pending handshake exists for.
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    {
      util::ThreadPool pool(4);
      pool.ParallelFor(1000, [&](size_t i) {
        sum.fetch_add(i + 1, std::memory_order_relaxed);
      });
    }
    EXPECT_EQ(sum.load(), 1000u * 1001u / 2);
  }
}

TEST(ThreadPoolStress, PoolChurnAcrossOwnerThreads) {
  std::vector<std::thread> owners;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    owners.emplace_back([&failures] {
      for (int round = 0; round < 20; ++round) {
        util::ThreadPool pool(3);
        std::atomic<uint64_t> count{0};
        pool.ParallelFor(
            500, [&](size_t) { count.fetch_add(1, std::memory_order_relaxed); });
        if (count.load() != 500) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : owners) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadPoolStress, BackToBackDispatchesReuseWorkers) {
  util::ThreadPool pool(4);
  for (size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    for (int round = 0; round < 40; ++round) {
      std::atomic<uint64_t> count{0};
      pool.ParallelFor(
          n, [&](size_t) { count.fetch_add(1, std::memory_order_relaxed); });
      ASSERT_EQ(count.load(), n);
    }
  }
}

// --- ModelRegistry --------------------------------------------------------

engine::ServableModel MakeServable(const graph::AttributedGraph& g) {
  engine::ServableModel sm;
  sm.model = engine::MineModel(g).value();
  sm.dict = g.dict();
  sm.graph = std::make_shared<const graph::AttributedGraph>(g);
  return sm;
}

TEST(ModelRegistryStress, ConcurrentGetPutRemove) {
  const graph::AttributedGraph g = StressGraph();
  const engine::ServableModel prototype = MakeServable(g);

  engine::ModelRegistry registry;
  registry.Put("hot", prototype);
  std::atomic<bool> stop{false};
  std::atomic<int> scored{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      uint32_t v = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // A reader either sees a fully registered model or nothing — a
        // nullptr between Remove and the next Put is fine, a torn model
        // is what TSan is here to catch.
        if (engine::ModelRegistry::Handle h = registry.Get("hot")) {
          auto scores = h->ScoreVertex(
              graph::VertexId(v % h->graph->num_vertices().value()));
          if (scores.ok()) scored.fetch_add(1, std::memory_order_relaxed);
        }
        ++v;
        (void)registry.List();
        (void)registry.size();
      }
    });
  }

  // At least 60 rounds, and on until a reader has scored (bounded): a Put
  // is a few buffer copies, so on a loaded machine 60 rounds can end
  // before any reader thread is scheduled at all.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int round = 0;
       round < 60 || (scored.load() == 0 &&
                      std::chrono::steady_clock::now() < deadline);
       ++round) {
    registry.Put("hot", prototype);
    registry.Put("side", prototype);
    registry.Remove(round % 2 == 0 ? "hot" : "side");
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(scored.load(), 0);
}

// --- serving vs hot swap --------------------------------------------------

TEST(ServingStress, ScoreBatchAcrossEnginesDuringHotSwap) {
  auto shared_graph =
      std::make_shared<const graph::AttributedGraph>(StressGraph(23));
  engine::MiningOptions options;
  options.enable_updates = true;
  auto session = engine::MiningSession::Create(shared_graph, options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Mine().ok());

  engine::ModelRegistry registry;
  ASSERT_TRUE(session->Publish(registry, "live").ok());

  std::atomic<bool> stop{false};
  std::atomic<int> batches{0};
  std::atomic<int> failures{0};
  // One pool for every engine of every scorer, across all the swaps (as a
  // server's engines share its pool): dispatches queue on it.
  engine::ServingOptions serve_options;
  serve_options.pool = std::make_shared<engine::ScorePool>(2);
  std::vector<std::thread> scorers;
  for (int t = 0; t < 3; ++t) {
    scorers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        engine::ModelRegistry::Handle h = registry.Get("live");
        if (h == nullptr) continue;
        auto engine = h->Serve(serve_options);
        if (!engine.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // The handle's graph snapshot is immutable, so every id below
        // num_vertices stays valid however many swaps happen meanwhile.
        std::vector<graph::VertexId> batch;
        for (uint32_t v = 0; v < h->graph->num_vertices().value(); v += 7) {
          batch.push_back(graph::VertexId(v));
        }
        auto scores = engine->ScoreBatch(batch);
        if (!scores.ok() || scores->size() != batch.size()) {
          failures.fetch_add(1);
        } else {
          batches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Writer: grow the graph, re-mine, hot-swap the published model.
  for (int update = 0; update < 6; ++update) {
    graph::GraphDelta delta;
    const size_t fresh = delta.AddVertex({"u", "v"});
    delta.AddEdge(session->graph().num_vertices(),
                  graph::VertexId(static_cast<uint32_t>(update)));
    ASSERT_EQ(fresh, 0u);  // first new vertex of this delta
    ASSERT_TRUE(session->ApplyUpdates(delta).ok());
    ASSERT_TRUE(session->Publish(registry, "live").ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : scorers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(batches.load(), 0);
}

// --- obs under concurrency ------------------------------------------------

TEST(ObsStress, ConcurrentIncrementsAreExactOnceWritersJoin) {
  obs::Counter* counter = obs::GetCounter("stress.obs.counter");
  obs::Histogram* hist = obs::GetHistogram("stress.obs.hist");
  counter->Reset();
  hist->Reset();
  constexpr int kWriters = 6;
  constexpr uint64_t kPerWriter = 50000;
  std::atomic<bool> stop_reader{false};
  // The reader snapshots mid-write: counts may trail in-flight increments
  // but must never exceed the writers' total or go backwards.
  std::thread reader([&] {
    uint64_t last = 0;
    while (!stop_reader.load(std::memory_order_acquire)) {
      const uint64_t now = counter->Value();
      EXPECT_GE(now, last);
      EXPECT_LE(now, kWriters * kPerWriter);
      last = now;
      (void)hist->Snap();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        counter->Add(1);
        hist->Record((i % 1024) + static_cast<uint64_t>(t));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop_reader.store(true, std::memory_order_release);
  reader.join();
  if (obs::Enabled()) {
    EXPECT_EQ(counter->Value(), kWriters * kPerWriter);
    EXPECT_EQ(hist->Snap().count, kWriters * kPerWriter);
  } else {
    EXPECT_EQ(counter->Value(), 0u);
  }
}

TEST(ObsStress, SnapshotJsonRacesServingAndHotSwap) {
  auto shared_graph =
      std::make_shared<const graph::AttributedGraph>(StressGraph(37));
  engine::MiningOptions options;
  options.enable_updates = true;
  auto session = engine::MiningSession::Create(shared_graph, options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Mine().ok());
  engine::ModelRegistry registry;
  ASSERT_TRUE(session->Publish(registry, "live").ok());

  std::atomic<bool> stop{false};
  std::atomic<int> snapshots{0};
  // Snapshotters race the instrumented hot paths (ScoreBatch's timers and
  // counters, Publish's hot-swap histogram): a torn read here is exactly
  // what the relaxed-atomics contract must rule out under TSan.
  std::vector<std::thread> snapshotters;
  for (int t = 0; t < 2; ++t) {
    snapshotters.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::string json = obs::MetricsRegistry::Global().SnapshotJson();
        EXPECT_FALSE(json.empty());
        EXPECT_EQ(json.front(), '{');
        EXPECT_EQ(json.back(), '}');
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  engine::ServingOptions serve_options;
  serve_options.pool = std::make_shared<engine::ScorePool>(2);
  std::thread scorer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      engine::ModelRegistry::Handle h = registry.Get("live");
      if (h == nullptr) continue;
      auto engine = h->Serve(serve_options);
      if (!engine.ok()) continue;
      std::vector<graph::VertexId> batch;
      for (uint32_t v = 0; v < h->graph->num_vertices().value(); v += 11) {
        batch.push_back(graph::VertexId(v));
      }
      (void)engine->ScoreBatch(batch);
    }
  });
  // The updates take a few milliseconds in all; start them only once a
  // snapshot has been taken, so the race is always exercised.
  while (snapshots.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  for (int update = 0; update < 4; ++update) {
    auto delta = graph::MakeRandomEdgeRewires(
        session->graph(), /*num_ops=*/3,
        /*seed=*/100 + static_cast<uint64_t>(update));
    ASSERT_TRUE(delta.ok());
    ASSERT_TRUE(session->ApplyUpdates(*delta).ok());
    ASSERT_TRUE(session->Publish(registry, "live").ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : snapshotters) t.join();
  scorer.join();
  EXPECT_GT(snapshots.load(), 0);
}

}  // namespace
}  // namespace cspm
