// Tests for the network serving layer (src/net/): the CSN1 frame parser
// hardened against torn/hostile streams, the score coalescer's flush and
// backpressure contract, payload codec round trips, and end-to-end
// socket tests against a live server — including the cross-process
// bit-identity contract (wire scores == in-process ScoreBatch, bit for
// bit) and OVERLOADED under queue saturation.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/live_model.h"
#include "engine/session.h"
#include "graph/graph_delta.h"
#include "net/batcher.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/model_host.h"
#include "net/server.h"
#include "store/model_store.h"
#include "store/pager.h"
#include "testing_util.h"
#include "util/check.h"
#include "util/status.h"

namespace cspm::net {
namespace {

using cspm::testing::PaperExampleGraph;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

// --- frame encode/parse ----------------------------------------------------

Frame MakeScoreFrame(uint32_t id, const std::string& payload) {
  Frame f;
  f.verb = Verb::kScore;
  f.request_id = id;
  f.payload = payload;
  return f;
}

TEST(FrameParser, RoundTripsOneFrame) {
  const Frame sent = MakeScoreFrame(7, "payload-bytes");
  FrameParser parser;
  std::vector<Frame> out;
  ASSERT_TRUE(parser.Feed(EncodeFrame(sent), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].verb, Verb::kScore);
  EXPECT_EQ(out[0].status, WireStatus::kOk);
  EXPECT_EQ(out[0].request_id, 7u);
  EXPECT_EQ(out[0].payload, "payload-bytes");
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(FrameParser, ReassemblesByteAtATimeFeeds) {
  // Torn everywhere: mid-magic, mid-length, mid-CRC, mid-payload.
  const std::string bytes = EncodeFrame(MakeScoreFrame(42, "torn"));
  FrameParser parser;
  std::vector<Frame> out;
  for (char byte : bytes) {
    ASSERT_TRUE(parser.Feed(std::string_view(&byte, 1), &out).ok());
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].request_id, 42u);
  EXPECT_EQ(out[0].payload, "torn");
}

TEST(FrameParser, ParsesSeveralFramesFromOneFeed) {
  std::string bytes;
  for (uint32_t id = 0; id < 5; ++id) {
    AppendFrame(MakeScoreFrame(id, std::string(id, 'x')), &bytes);
  }
  FrameParser parser;
  std::vector<Frame> out;
  ASSERT_TRUE(parser.Feed(bytes, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  for (uint32_t id = 0; id < 5; ++id) {
    EXPECT_EQ(out[id].request_id, id);
    EXPECT_EQ(out[id].payload.size(), id);
  }
}

TEST(FrameParser, TornMidLengthAcrossFeeds) {
  const std::string bytes = EncodeFrame(MakeScoreFrame(9, "abcdef"));
  FrameParser parser;
  std::vector<Frame> out;
  // Split inside the length field (bytes 12..15 of the header).
  ASSERT_TRUE(parser.Feed(bytes.substr(0, 14), &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(parser.buffered_bytes(), 14u);
  ASSERT_TRUE(parser.Feed(bytes.substr(14), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, "abcdef");
}

TEST(FrameParser, BadMagicPoisonsTheParser) {
  std::string bytes = EncodeFrame(MakeScoreFrame(1, "x"));
  bytes[0] = 'Z';
  FrameParser parser;
  std::vector<Frame> out;
  const Status first = parser.Feed(bytes, &out);
  EXPECT_EQ(first.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.empty());
  // Poisoned: even a well-formed frame now fails with the same error.
  const Status second =
      parser.Feed(EncodeFrame(MakeScoreFrame(2, "ok")), &out);
  EXPECT_EQ(second.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.empty());
}

TEST(FrameParser, OversizedLengthRejected) {
  FrameParser parser(/*max_payload_bytes=*/16);
  std::vector<Frame> out;
  const Status fed =
      parser.Feed(EncodeFrame(MakeScoreFrame(1, std::string(17, 'p'))), &out);
  EXPECT_EQ(fed.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.empty());
}

TEST(FrameParser, CrcMismatchRejected) {
  std::string bytes = EncodeFrame(MakeScoreFrame(3, "checksummed"));
  bytes[bytes.size() - 1] ^= 0x40;  // flip a payload bit
  FrameParser parser;
  std::vector<Frame> out;
  const Status fed = parser.Feed(bytes, &out);
  EXPECT_EQ(fed.code(), StatusCode::kIOError);
  EXPECT_TRUE(out.empty());
}

TEST(FrameParser, NonzeroReservedBytesRejected) {
  std::string bytes = EncodeFrame(MakeScoreFrame(3, "x"));
  bytes[6] = 1;  // reserved bytes are offsets 6..7
  FrameParser parser;
  std::vector<Frame> out;
  EXPECT_EQ(parser.Feed(bytes, &out).code(), StatusCode::kInvalidArgument);
}

TEST(FrameParser, FramesBeforeACorruptOneStillParse) {
  std::string bytes = EncodeFrame(MakeScoreFrame(1, "good"));
  std::string bad = EncodeFrame(MakeScoreFrame(2, "bad"));
  bad[0] = 'Z';
  bytes += bad;
  FrameParser parser;
  std::vector<Frame> out;
  const Status fed = parser.Feed(bytes, &out);
  EXPECT_EQ(fed.code(), StatusCode::kInvalidArgument);
  ASSERT_EQ(out.size(), 1u);  // the good frame surfaced before the poison
  EXPECT_EQ(out[0].payload, "good");
}

TEST(FrameParser, InterleavedConnectionsDoNotMix) {
  // Two connections' streams arrive interleaved in small chunks; each
  // parser reassembles only its own bytes.
  const std::string a = EncodeFrame(MakeScoreFrame(100, "connection-a"));
  const std::string b = EncodeFrame(MakeScoreFrame(200, "conn-b"));
  FrameParser parser_a;
  FrameParser parser_b;
  std::vector<Frame> out_a;
  std::vector<Frame> out_b;
  size_t off_a = 0;
  size_t off_b = 0;
  while (off_a < a.size() || off_b < b.size()) {
    if (off_a < a.size()) {
      const size_t n = std::min<size_t>(3, a.size() - off_a);
      ASSERT_TRUE(parser_a.Feed(std::string_view(a).substr(off_a, n), &out_a)
                      .ok());
      off_a += n;
    }
    if (off_b < b.size()) {
      const size_t n = std::min<size_t>(5, b.size() - off_b);
      ASSERT_TRUE(parser_b.Feed(std::string_view(b).substr(off_b, n), &out_b)
                      .ok());
      off_b += n;
    }
  }
  ASSERT_EQ(out_a.size(), 1u);
  ASSERT_EQ(out_b.size(), 1u);
  EXPECT_EQ(out_a[0].request_id, 100u);
  EXPECT_EQ(out_a[0].payload, "connection-a");
  EXPECT_EQ(out_b[0].request_id, 200u);
  EXPECT_EQ(out_b[0].payload, "conn-b");
}

// --- payload codecs --------------------------------------------------------

TEST(PayloadCodec, ScoreRequestRoundTrips) {
  ScoreRequest req;
  req.model = "er";
  req.k = 3;
  req.vertices = {graph::VertexId(0), graph::VertexId(7),
                  graph::VertexId(123456)};
  auto decoded = DecodeScoreRequest(EncodeScoreRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().model, "er");
  EXPECT_EQ(decoded.value().k, 3u);
  ASSERT_EQ(decoded.value().vertices.size(), 3u);
  EXPECT_EQ(decoded.value().vertices[2], graph::VertexId(123456));
}

TEST(PayloadCodec, ScoreResponseRoundTripsDoubleBitsExactly) {
  ScoreResponse resp;
  resp.results.push_back(
      {{graph::AttrId(1), 0.1 + 0.2},  // a value with messy low bits
       {graph::AttrId(0), -0.0}});
  resp.results.emplace_back();  // empty vertex result
  auto decoded = DecodeScoreResponse(EncodeScoreResponse(resp));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().results.size(), 2u);
  const auto& entries = decoded.value().results[0];
  ASSERT_EQ(entries.size(), 2u);
  const double expected = 0.1 + 0.2;
  EXPECT_EQ(std::memcmp(&entries[0].score, &expected, sizeof(double)), 0);
  const double negzero = -0.0;
  EXPECT_EQ(std::memcmp(&entries[1].score, &negzero, sizeof(double)), 0);
}

TEST(PayloadCodec, UpdateRequestRoundTrips) {
  graph::AttributedGraph g = PaperExampleGraph();
  auto delta_or = graph::MakeRandomEdgeRewires(g, 2, /*seed=*/5);
  ASSERT_TRUE(delta_or.ok());
  UpdateRequest req;
  req.model = "paper";
  req.mode = 1;
  req.delta = std::move(delta_or).value();
  auto decoded = DecodeUpdateRequest(EncodeUpdateRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().model, "paper");
  EXPECT_EQ(decoded.value().mode, 1);
  EXPECT_EQ(decoded.value().delta.num_ops(), req.delta.num_ops());
}

TEST(PayloadCodec, TruncatedPayloadsFailCleanly) {
  ScoreRequest req;
  req.model = "m";
  req.vertices = {graph::VertexId(1), graph::VertexId(2)};
  const std::string full = EncodeScoreRequest(req);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(DecodeScoreRequest(full.substr(0, cut)).ok())
        << "prefix of " << cut << " bytes decoded";
  }
  // Trailing garbage is rejected too.
  EXPECT_FALSE(DecodeScoreRequest(full + "x").ok());
}

TEST(PayloadCodec, TopKScoresRanksLikeTheShell) {
  core::AttributeScores scores;
  scores.normalized = {0.2, 0.9, 0.9, 0.1};
  scores.raw = {1, 2, 3, 4};
  const auto all = TopKScores(scores, 0);
  ASSERT_EQ(all.size(), 4u);
  // Descending by score; attr id ascending breaks the 0.9 tie.
  EXPECT_EQ(all[0].attr, graph::AttrId(1));
  EXPECT_EQ(all[1].attr, graph::AttrId(2));
  EXPECT_EQ(all[2].attr, graph::AttrId(0));
  EXPECT_EQ(all[3].attr, graph::AttrId(3));
  const auto top2 = TopKScores(scores, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].attr, graph::AttrId(1));
  EXPECT_EQ(top2[1].attr, graph::AttrId(2));
}

// --- coalescer -------------------------------------------------------------

PendingScore Req(uint32_t id, size_t vertices) {
  PendingScore p;
  p.request_id = id;
  p.vertices.assign(vertices, graph::VertexId(0));
  return p;
}

TEST(ScoreBatcher, FlushesWhenMaxBatchReached) {
  BatchOptions opts;
  opts.max_batch_vertices = 4;
  opts.max_wait_us = 1000000;  // far away: only the size bound can fire
  opts.max_queue_vertices = 100;
  ScoreBatcher batcher(opts);
  EXPECT_EQ(batcher.Add(Req(1, 2), 10), ScoreBatcher::Admit::kAccepted);
  EXPECT_FALSE(batcher.Due(11));
  EXPECT_EQ(batcher.Add(Req(2, 2), 12), ScoreBatcher::Admit::kAccepted);
  EXPECT_TRUE(batcher.Due(13));  // 4 vertices queued == max_batch
  ScoreBatcher::FlushReason reason = ScoreBatcher::FlushReason::kMaxWait;
  const auto batch = batcher.TakeBatch(&reason);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(reason, ScoreBatcher::FlushReason::kMaxBatch);
  EXPECT_EQ(batcher.queued_vertices(), 0u);
}

TEST(ScoreBatcher, FlushesWhenOldestWaitedMaxWait) {
  BatchOptions opts;
  opts.max_batch_vertices = 100;
  opts.max_wait_us = 50;  // 50'000 ns
  ScoreBatcher batcher(opts);
  EXPECT_EQ(batcher.Add(Req(1, 1), 1000), ScoreBatcher::Admit::kAccepted);
  EXPECT_FALSE(batcher.Due(1000 + 49'999));
  EXPECT_TRUE(batcher.Due(1000 + 50'000));
  ASSERT_TRUE(batcher.NextDeadlineNs().has_value());
  EXPECT_EQ(*batcher.NextDeadlineNs(), 1000u + 50'000u);
  ScoreBatcher::FlushReason reason = ScoreBatcher::FlushReason::kMaxBatch;
  const auto batch = batcher.TakeBatch(&reason);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(reason, ScoreBatcher::FlushReason::kMaxWait);
}

TEST(ScoreBatcher, WholeRequestsNeverSplitAcrossBatches) {
  BatchOptions opts;
  opts.max_batch_vertices = 4;
  opts.max_queue_vertices = 100;
  ScoreBatcher batcher(opts);
  EXPECT_EQ(batcher.Add(Req(1, 3), 0), ScoreBatcher::Admit::kAccepted);
  EXPECT_EQ(batcher.Add(Req(2, 3), 0), ScoreBatcher::Admit::kAccepted);
  // 6 >= max_batch: due. But request 2 (3 vertices) does not fit next to
  // request 1 (3 vertices) in a 4-vertex batch — it stays whole, queued.
  EXPECT_TRUE(batcher.Due(1));
  auto first = batcher.TakeBatch();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].request_id, 1u);
  EXPECT_EQ(batcher.queued_vertices(), 3u);
  auto second = batcher.TakeBatch();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].request_id, 2u);
}

TEST(ScoreBatcher, FifoOrderPreserved) {
  BatchOptions opts;
  opts.max_batch_vertices = 100;
  opts.max_queue_vertices = 100;
  ScoreBatcher batcher(opts);
  for (uint32_t id = 0; id < 5; ++id) {
    EXPECT_EQ(batcher.Add(Req(id, 1), id), ScoreBatcher::Admit::kAccepted);
  }
  const auto batch = batcher.TakeBatch();
  ASSERT_EQ(batch.size(), 5u);
  for (uint32_t id = 0; id < 5; ++id) {
    EXPECT_EQ(batch[id].request_id, id);
  }
}

TEST(ScoreBatcher, OverloadedBeyondQueueBoundThenRecovers) {
  BatchOptions opts;
  opts.max_batch_vertices = 2;
  opts.max_queue_vertices = 3;
  ScoreBatcher batcher(opts);
  EXPECT_EQ(batcher.Add(Req(1, 2), 0), ScoreBatcher::Admit::kAccepted);
  EXPECT_EQ(batcher.Add(Req(2, 1), 0), ScoreBatcher::Admit::kAccepted);
  // 3 queued + 1 > max_queue_vertices: rejected, nothing enqueued.
  EXPECT_EQ(batcher.Add(Req(3, 1), 0), ScoreBatcher::Admit::kOverloaded);
  EXPECT_EQ(batcher.queued_vertices(), 3u);
  // Draining the queue restores admission.
  while (!batcher.TakeBatch().empty()) {
  }
  EXPECT_EQ(batcher.Add(Req(4, 3), 0), ScoreBatcher::Admit::kAccepted);
}

TEST(ScoreBatcher, OversizedRequestAdmittedOnlyIntoEmptyQueue) {
  BatchOptions opts;
  opts.max_batch_vertices = 2;
  opts.max_queue_vertices = 4;
  ScoreBatcher batcher(opts);
  // Larger than the whole queue bound, but the queue is empty: admitted
  // (it forms its own batch — otherwise it could never be served).
  EXPECT_EQ(batcher.Add(Req(1, 10), 0), ScoreBatcher::Admit::kAccepted);
  EXPECT_EQ(batcher.Add(Req(2, 1), 0), ScoreBatcher::Admit::kOverloaded);
  const auto batch = batcher.TakeBatch();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].vertices.size(), 10u);
}

TEST(ScoreBatcher, EmptyQueueHasNoDeadline) {
  ScoreBatcher batcher(BatchOptions{});
  EXPECT_FALSE(batcher.Due(123));
  EXPECT_FALSE(batcher.NextDeadlineNs().has_value());
  EXPECT_TRUE(batcher.TakeBatch().empty());
}

// --- end to end over sockets -----------------------------------------------

/// Mines the paper graph, saves it (with snapshot) into a fresh store
/// file, and returns the path.
std::string MakeServedStore(const std::string& file, const std::string& name) {
  const std::string path = TempPath(file);
  std::remove(path.c_str());
  graph::AttributedGraph g = PaperExampleGraph();
  auto session = engine::MiningSession::Create(g, engine::LiveModelOptions());
  CSPM_CHECK(session.ok());
  CSPM_CHECK(session.value().Mine().ok());
  engine::SaveModelOptions save;
  save.format = engine::ModelFileFormat::kBinaryStore;
  save.model_name = name;
  save.include_graph = true;
  CSPM_CHECK(session.value().SaveModel(path, save).ok());
  return path;
}

std::unique_ptr<Server> StartServer(const std::string& store_path,
                                    ServerOptions options = {}) {
  auto host = ModelHost::Open(store_path);
  CSPM_CHECK(host.ok());
  auto server = Server::Start(std::move(host).value(), std::move(options));
  CSPM_CHECK(server.ok());
  return std::move(server).value();
}

Client Dial(const Server& server) {
  auto client = Client::Connect("127.0.0.1", server.port());
  CSPM_CHECK(client.ok());
  return std::move(client).value();
}

TEST(ServerEndToEnd, PingListAndMetrics) {
  const std::string path = MakeServedStore("net_e2e_basic.cspm", "paper");
  auto server = StartServer(path);
  Client client = Dial(*server);
  ASSERT_TRUE(client.Ping().ok());
  auto models = client.List();
  ASSERT_TRUE(models.ok());
  ASSERT_EQ(models.value().size(), 1u);
  EXPECT_EQ(models.value()[0], "paper");
  auto metrics = client.MetricsJson();
  ASSERT_TRUE(metrics.ok());
  // SnapshotJson verbatim, with the net.* surface registered.
  EXPECT_NE(metrics.value().find("\"net.connections_accepted\""),
            std::string::npos);
  EXPECT_NE(metrics.value().find("\"net.request.score\""), std::string::npos);
}

TEST(ServerEndToEnd, WireScoresBitIdenticalToInProcessScoreBatch) {
  const std::string path = MakeServedStore("net_e2e_bits.cspm", "paper");
  // In-process reference: deterministic mining reproduces the stored
  // model, so a local session over the same graph is the served state.
  graph::AttributedGraph g = PaperExampleGraph();
  engine::MiningOptions opts;
  opts.record_iteration_stats = false;
  auto session_or = engine::MiningSession::Create(g, opts);
  ASSERT_TRUE(session_or.ok());
  engine::MiningSession& session = session_or.value();
  ASSERT_TRUE(session.Mine().ok());

  auto server = StartServer(path);
  Client client = Dial(*server);
  ScoreRequest request;
  request.model = "paper";
  request.k = 0;  // every attribute value
  for (uint32_t v = 0; v < 5; ++v) {
    request.vertices.push_back(graph::VertexId(v));
  }
  auto response = client.Score(request);
  ASSERT_TRUE(response.ok());
  auto expected = session.ScoreBatch(request.vertices);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(response.value().results.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    const auto local = TopKScores(expected.value()[i], 0);
    const auto& wire = response.value().results[i];
    ASSERT_EQ(wire.size(), local.size());
    for (size_t j = 0; j < local.size(); ++j) {
      EXPECT_EQ(wire[j].attr, local[j].attr);
      // memcmp, not ==: the contract is bit-identity.
      EXPECT_EQ(std::memcmp(&wire[j].score, &local[j].score, sizeof(double)),
                0)
          << "vertex " << i << " rank " << j;
    }
  }
}

TEST(ServerEndToEnd, ConcurrentConnectionsAllScoreCorrectly) {
  const std::string path = MakeServedStore("net_e2e_conc.cspm", "paper");
  ServerOptions options;
  options.batching.max_batch_vertices = 8;  // force cross-request batches
  options.batching.max_wait_us = 2000;
  auto server = StartServer(path, options);
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 20;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &failures, t] {
      auto client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int r = 0; r < kRequestsPerThread; ++r) {
        ScoreRequest request;
        request.model = "paper";
        request.k = 2;
        request.vertices = {graph::VertexId(static_cast<uint32_t>((t + r) % 5))};
        auto response = client.value().Score(request);
        if (!response.ok() || response.value().results.size() != 1 ||
            response.value().results[0].size() != 2) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServerEndToEnd, UpdateOverWireAppendsWalAndServesNewState) {
  const std::string path = MakeServedStore("net_e2e_update.cspm", "paper");
  {
    auto server = StartServer(path);
    Client client = Dial(*server);
    // Build a valid delta against the current (= snapshot) graph.
    graph::AttributedGraph g = PaperExampleGraph();
    auto delta = graph::MakeRandomEdgeRewires(g, 1, /*seed=*/3);
    ASSERT_TRUE(delta.ok());
    UpdateRequest request;
    request.model = "paper";
    request.mode = 0;  // exact
    request.delta = delta.value();
    auto response = client.Update(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    // The server hot-swapped: scores now reflect the mutated graph. The
    // local reference replays the same path.
    auto session = engine::MiningSession::Create(g, engine::LiveModelOptions());
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value().Mine().ok());
    ASSERT_TRUE(session.value()
                    .ApplyUpdates(delta.value(), engine::UpdateMode::kExact)
                    .ok());
    ScoreRequest score;
    score.model = "paper";
    score.k = 0;
    score.vertices = {graph::VertexId(0), graph::VertexId(4)};
    auto wire = client.Score(score);
    ASSERT_TRUE(wire.ok());
    auto local = session.value().ScoreBatch(score.vertices);
    ASSERT_TRUE(local.ok());
    for (size_t i = 0; i < score.vertices.size(); ++i) {
      const auto ranked = TopKScores(local.value()[i], 0);
      ASSERT_EQ(wire.value().results[i].size(), ranked.size());
      for (size_t j = 0; j < ranked.size(); ++j) {
        EXPECT_EQ(std::memcmp(&wire.value().results[i][j].score,
                              &ranked[j].score, sizeof(double)),
                  0);
      }
    }
  }  // server shuts down, releasing the store
  // The delta was WAL-logged durably: a fresh host replays it on open.
  auto store = store::ModelStore::Open(path);
  ASSERT_TRUE(store.ok());
  const auto infos = store.value().List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].wal_records, 1u);
}

TEST(ServerEndToEnd, UpdateReplyWarmPathByteEqualsFastPath) {
  // The reply keeps its warm_path byte for the wire layout; it carries
  // fast_path in both modes (docs/PROTOCOL.md §5.4).
  const std::string path = MakeServedStore("net_e2e_warm_byte.cspm", "paper");
  auto server = StartServer(path);
  Client client = Dial(*server);
  graph::AttributedGraph g = PaperExampleGraph();
  for (uint8_t mode : {uint8_t{0}, uint8_t{1}}) {
    auto delta = graph::MakeRandomEdgeRewires(g, 1, /*seed=*/5 + mode);
    ASSERT_TRUE(delta.ok());
    auto applied = graph::ApplyDelta(g, delta.value());
    ASSERT_TRUE(applied.ok());
    g = std::move(applied.value().graph);
    UpdateRequest request;
    request.model = "paper";
    request.mode = mode;
    request.delta = delta.value();
    auto response = client.Update(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().fast_path, mode == 1);
    EXPECT_EQ(response.value().warm_path, response.value().fast_path);
  }
}

TEST(ServerEndToEnd, OverloadedUnderQueueSaturation) {
  const std::string path = MakeServedStore("net_e2e_ovl.cspm", "paper");
  ServerOptions options;
  options.batching.max_batch_vertices = 64;
  options.batching.max_wait_us = 200000;  // hold the queue for 200ms
  options.batching.max_queue_vertices = 2;
  auto server = StartServer(path, options);
  Client client = Dial(*server);
  ScoreRequest request;
  request.model = "paper";
  request.k = 1;
  request.vertices = {graph::VertexId(0), graph::VertexId(1)};
  // Pipeline: the first request fills the queue (2 vertices) and waits
  // out max_wait; the second must bounce immediately with OVERLOADED.
  uint32_t first_id = 0;
  uint32_t second_id = 0;
  ASSERT_TRUE(client
                  .Send(Verb::kScore, EncodeScoreRequest(request), &first_id)
                  .ok());
  ASSERT_TRUE(client
                  .Send(Verb::kScore, EncodeScoreRequest(request), &second_id)
                  .ok());
  auto reply = client.Receive();
  ASSERT_TRUE(reply.ok());
  // The OVERLOADED bounce overtakes the queued request's reply.
  EXPECT_EQ(reply.value().request_id, second_id);
  EXPECT_EQ(reply.value().status, WireStatus::kOverloaded);
  auto queued_reply = client.Receive();
  ASSERT_TRUE(queued_reply.ok());
  EXPECT_EQ(queued_reply.value().request_id, first_id);
  EXPECT_EQ(queued_reply.value().status, WireStatus::kOk);
}

TEST(ServerEndToEnd, BadRequestsGetCleanErrors) {
  const std::string path = MakeServedStore("net_e2e_err.cspm", "paper");
  auto server = StartServer(path);
  Client client = Dial(*server);
  ScoreRequest unknown;
  unknown.model = "nope";
  unknown.vertices = {graph::VertexId(0)};
  auto r1 = client.Score(unknown);
  EXPECT_EQ(r1.status().code(), StatusCode::kNotFound);
  ScoreRequest out_of_range;
  out_of_range.model = "paper";
  out_of_range.vertices = {graph::VertexId(99)};
  auto r2 = client.Score(out_of_range);
  EXPECT_EQ(r2.status().code(), StatusCode::kOutOfRange);
  // Empty vertex list: trivially OK, zero results, served inline.
  ScoreRequest empty;
  empty.model = "paper";
  auto r3 = client.Score(empty);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3.value().results.empty());
  // The connection survived all of that.
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerEndToEnd, FramingErrorClosesTheConnection) {
  const std::string path = MakeServedStore("net_e2e_close.cspm", "paper");
  auto server = StartServer(path);
  Client client = Dial(*server);
  ASSERT_TRUE(client.Ping().ok());
  // Write garbage that cannot be a CSN1 header; the server must drop us.
  const std::string garbage(64, 'Z');
  ASSERT_EQ(::write(client.fd(), garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));
  auto reply = client.Receive();
  EXPECT_EQ(reply.status().code(), StatusCode::kIOError);  // closed
  // The server itself is fine: new connections work.
  Client again = Dial(*server);
  EXPECT_TRUE(again.Ping().ok());
}

TEST(ModelHost, ReplaysPendingWalOnOpen) {
  const std::string path = MakeServedStore("net_host_replay.cspm", "paper");
  // Apply + log an update the way a live server (or shell) would, then
  // "crash": the record is stale, the WAL carries the delta.
  graph::AttributedGraph g = PaperExampleGraph();
  auto session_or = engine::MiningSession::Create(g, engine::LiveModelOptions());
  ASSERT_TRUE(session_or.ok());
  engine::MiningSession& session = session_or.value();
  ASSERT_TRUE(session.Mine().ok());
  auto delta = graph::MakeRandomEdgeRewires(g, 2, /*seed=*/11);
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(
      session.ApplyUpdates(delta.value(), engine::UpdateMode::kExact).ok());
  {
    auto store = store::ModelStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()
                    .AppendDelta("paper", delta.value(),
                                 store::WalDeltaMode::kExact)
                    .ok());
  }
  // A fresh host must serve the *replayed* state, not the stale record.
  auto host = ModelHost::Open(path);
  ASSERT_TRUE(host.ok());
  std::vector<graph::VertexId> vertices = {graph::VertexId(0),
                                           graph::VertexId(3)};
  auto served = host.value()->Score("paper", vertices);
  ASSERT_TRUE(served.ok());
  auto expected = session.ScoreBatch(vertices);
  ASSERT_TRUE(expected.ok());
  for (size_t i = 0; i < vertices.size(); ++i) {
    ASSERT_EQ(served.value()[i].normalized.size(),
              expected.value()[i].normalized.size());
    for (size_t j = 0; j < served.value()[i].normalized.size(); ++j) {
      EXPECT_EQ(std::memcmp(&served.value()[i].normalized[j],
                            &expected.value()[i].normalized[j],
                            sizeof(double)),
                0);
    }
  }
}

TEST(ModelHost, OpenTruncatesTornWalTail) {
  const std::string path = MakeServedStore("net_host_torn.cspm", "paper");
  graph::AttributedGraph g = PaperExampleGraph();
  auto d1 = graph::MakeRandomEdgeRewires(g, 2, /*seed=*/11);
  ASSERT_TRUE(d1.ok());
  // d2 carries a marker attribute name so the test can find its WAL
  // record's bytes in the file and corrupt them (the torn tail).
  const std::string marker = "CANARY_ATTRIBUTE_VALUE_FOR_TORN_HOST_TAIL";
  graph::GraphDelta d2;
  d2.SetAttribute(graph::VertexId(0), marker);
  {
    auto store = store::ModelStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().AppendDelta("paper", d1.value()).ok());
    ASSERT_TRUE(store.value().AppendDelta("paper", d2).ok());
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const size_t at = bytes.find(marker);
  ASSERT_NE(at, std::string::npos);
  bytes[at] ^= 0x5a;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Open replays the valid prefix (d1) and truncates the WAL to it: the
  // record is untouched, d1 stays logged, and the torn record is gone.
  auto host = ModelHost::Open(path);
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  auto wal = host.value()->store().ReadWal("paper");
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(wal.value().deltas.size(), 1u);
  EXPECT_FALSE(wal.value().truncated);
  EXPECT_EQ(wal.value().deltas[0].num_ops(), d1.value().num_ops());

  // The next update appends after d1, not after the torn record, so a
  // later replay sees both.
  auto applied = graph::ApplyDelta(g, d1.value());
  ASSERT_TRUE(applied.ok());
  auto d3 = graph::MakeRandomEdgeRewires(applied.value().graph, 2,
                                         /*seed=*/12);
  ASSERT_TRUE(d3.ok());
  ASSERT_TRUE(
      host.value()->Update("paper", d3.value(), engine::UpdateMode::kExact)
          .ok());
  wal = host.value()->store().ReadWal("paper");
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(wal.value().deltas.size(), 2u);
  EXPECT_FALSE(wal.value().truncated);
  EXPECT_EQ(wal.value().deltas[0].num_ops(), d1.value().num_ops());
  EXPECT_EQ(wal.value().deltas[1].num_ops(), d3.value().num_ops());
  // The record plus d1, d3 replay to exactly the model being served.
  auto replayed = engine::ReplayModel(host.value()->store(), "paper");
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed.value().deltas, 2u);
  std::vector<graph::VertexId> vertices = {graph::VertexId(0),
                                           graph::VertexId(3)};
  auto served = host.value()->Score("paper", vertices);
  ASSERT_TRUE(served.ok());
  auto expected = replayed.value().session.ScoreBatch(vertices);
  ASSERT_TRUE(expected.ok());
  for (size_t i = 0; i < vertices.size(); ++i) {
    const std::vector<double>& a = served.value()[i].normalized;
    const std::vector<double>& b = expected.value()[i].normalized;
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  }
}

TEST(ModelHost, FailedAppendDoesNotLeakIntoTheNextUpdate) {
  const std::string path =
      MakeServedStore("net_host_failed_append.cspm", "paper");
  auto host = ModelHost::Open(path);
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  // d1 brings an attribute value the model has never seen; its WAL append
  // fails, so no replay of the store can know it.
  const std::string marker = "UNLOGGED_ATTRIBUTE_VALUE";
  graph::GraphDelta d1;
  d1.SetAttribute(graph::VertexId(0), marker);
  auto d2 = graph::MakeRandomEdgeRewires(PaperExampleGraph(), 2, /*seed=*/11);
  ASSERT_TRUE(d2.ok());

  store::Pager::SetWriteFaultForTesting(1, false);
  auto failed = host.value()->Update("paper", d1, engine::UpdateMode::kExact);
  store::Pager::SetWriteFaultForTesting(0, false);
  ASSERT_FALSE(failed.ok());
  // A server caller gets the engine's status, with no shell advice in it.
  EXPECT_EQ(failed.status().ToString().find("cspm_shell"), std::string::npos)
      << failed.status().ToString();
  ASSERT_TRUE(
      host.value()->Update("paper", d2.value(), engine::UpdateMode::kExact)
          .ok());

  auto wal = host.value()->store().ReadWal("paper");
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.value().deltas.size(), 1u);
  const engine::ModelRegistry::Handle handle =
      host.value()->registry().Get("paper");
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->dict.Find(marker), graph::AttributeDictionary::kNotFound);

  // What is served is what a restart would serve: the record plus d2.
  auto replayed = engine::ReplayModel(host.value()->store(), "paper");
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  std::vector<graph::VertexId> vertices;
  for (graph::VertexId v(0); v < handle->graph->num_vertices(); ++v) {
    vertices.push_back(v);
  }
  auto served = host.value()->Score("paper", vertices);
  ASSERT_TRUE(served.ok());
  auto expected = replayed.value().session.ScoreBatch(vertices);
  ASSERT_TRUE(expected.ok());
  for (size_t i = 0; i < vertices.size(); ++i) {
    const std::vector<double>& a = served.value()[i].normalized;
    const std::vector<double>& b = expected.value()[i].normalized;
    ASSERT_EQ(a.size(), b.size()) << "vertex " << i;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "vertex " << i;
  }
}

TEST(ModelHost, UpdateOfASnapshotlessModelGivesNoShellAdvice) {
  const std::string path = TempPath("net_host_no_snapshot.cspm");
  std::remove(path.c_str());
  graph::AttributedGraph g = PaperExampleGraph();
  {
    auto store = store::ModelStore::Create(path);
    ASSERT_TRUE(store.ok());
    store::StoredModel stored;
    stored.model = engine::MineModel(g).value();
    stored.dict = g.dict();
    ASSERT_TRUE(store.value().Put("bare", stored).ok());
  }
  auto host = ModelHost::Open(path);
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  auto delta = graph::MakeRandomEdgeRewires(g, 2, /*seed=*/11);
  ASSERT_TRUE(delta.ok());
  auto updated =
      host.value()->Update("bare", delta.value(), engine::UpdateMode::kExact);
  ASSERT_FALSE(updated.ok());
  EXPECT_EQ(updated.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(updated.status().message().find("no graph snapshot"),
            std::string::npos)
      << updated.status().ToString();
  // A wire client cannot run the shell: the status names no shell command.
  EXPECT_EQ(updated.status().ToString().find("cspm_shell"), std::string::npos)
      << updated.status().ToString();
}

}  // namespace
}  // namespace cspm::net
