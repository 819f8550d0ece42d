// cspm_client: command-line driver for a running cspm_serve (CSN1
// protocol, docs/PROTOCOL.md). One subcommand per verb, plus
// `verify-scores` — the cross-process bit-identity checker: it rebuilds
// the served model state locally (snapshot + WAL replay, exactly as the
// server did) and compares every wire score against an in-process
// ScoreBatch, bit for bit.
//
//   cspm_client <addr:port> ping
//   cspm_client <addr:port> list
//   cspm_client <addr:port> metrics
//   cspm_client <addr:port> score <model> <v1> [v2 ...] [k=N]
//   cspm_client <addr:port> update <store.cspm> <model> <ops> [seed]
//                           [--mode=exact|fast]
//   cspm_client <addr:port> verify-scores <store.cspm> <model> [count]
//
// `update` and `verify-scores` read the server's store file (atomic
// commits keep concurrent readers consistent) — `update` to learn the
// current graph shape so its random edge rewires are valid, and
// `verify-scores` to reproduce the model state the server is serving.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "engine/live_model.h"
#include "engine/session.h"
#include "graph/graph_delta.h"
#include "net/client.h"
#include "net/frame.h"
#include "store/model_store.h"
#include "util/status.h"
#include "util/string_util.h"

namespace {

using cspm::ParseUint32;
using cspm::StartsWith;
using cspm::Status;
using cspm::StatusOr;

int Usage() {
  std::fprintf(
      stderr,
      "usage: cspm_client <addr:port> <command>\n"
      "  ping\n"
      "  list\n"
      "  metrics\n"
      "  score <model> <v1> [v2 ...] [k=N]   (default k=5; k=0 = all)\n"
      "  update <store.cspm> <model> <ops> [seed] [--mode=exact|fast]\n"
      "  verify-scores <store.cspm> <model> [count]\n");
  return 2;
}

StatusOr<cspm::net::Client> Dial(const std::string& target) {
  const size_t colon = target.rfind(':');
  uint32_t port = 0;
  if (colon == std::string::npos ||
      !ParseUint32(target.substr(colon + 1), &port) || port == 0 ||
      port > 65535) {
    return Status::InvalidArgument("bad <addr:port> '" + target + "'");
  }
  return cspm::net::Client::Connect(target.substr(0, colon),
                                    static_cast<uint16_t>(port));
}

Status CmdScore(cspm::net::Client& client,
                const std::vector<std::string>& args) {
  if (args.empty()) {
    return Status::InvalidArgument(
        "usage: score <model> <v1> [v2 ...] [k=N]");
  }
  cspm::net::ScoreRequest request;
  request.model = args[0];
  request.k = 5;
  for (size_t i = 1; i < args.size(); ++i) {
    if (StartsWith(args[i], "k=")) {
      if (!ParseUint32(args[i].substr(2), &request.k)) {
        return Status::InvalidArgument("bad top-k '" + args[i] + "'");
      }
      continue;
    }
    uint32_t v = 0;
    if (!ParseUint32(args[i], &v)) {
      return Status::InvalidArgument("bad vertex id '" + args[i] + "'");
    }
    request.vertices.push_back(cspm::graph::VertexId(v));
  }
  if (request.vertices.empty()) {
    return Status::InvalidArgument("no vertices given");
  }
  CSPM_ASSIGN_OR_RETURN(cspm::net::ScoreResponse response,
                        client.Score(request));
  for (size_t i = 0; i < response.results.size(); ++i) {
    // Attribute ids, not names: the dictionary stays server-side. The
    // score values are bit-identical to `cspm_shell score` output.
    std::printf("top-%zu scores for vertex %u of '%s':\n",
                response.results[i].size(),
                request.vertices[i].value(), request.model.c_str());
    for (const auto& entry : response.results[i]) {
      std::printf("  attr %-14u %.6f\n", entry.attr.value(), entry.score);
    }
  }
  return Status::OK();
}

/// The graph the server currently serves for `model`: the stored snapshot
/// with every pending WAL delta applied (graph-level only — no mining).
StatusOr<cspm::graph::AttributedGraph> CurrentGraph(
    const std::string& store_path, const std::string& model) {
  CSPM_ASSIGN_OR_RETURN(cspm::store::ModelStore store,
                        cspm::store::ModelStore::Open(store_path));
  CSPM_ASSIGN_OR_RETURN(cspm::store::StoredModel stored, store.Get(model));
  if (!stored.graph.has_value()) {
    return Status::FailedPrecondition("model '" + model +
                                      "' has no graph snapshot");
  }
  CSPM_ASSIGN_OR_RETURN(cspm::store::ModelStore::WalReplay wal,
                        store.ReadWal(model));
  cspm::graph::AttributedGraph graph = std::move(*stored.graph);
  for (const cspm::graph::GraphDelta& delta : wal.deltas) {
    CSPM_ASSIGN_OR_RETURN(cspm::graph::DeltaApplication applied,
                          cspm::graph::ApplyDelta(graph, delta));
    graph = std::move(applied.graph);
  }
  return graph;
}

Status CmdUpdate(cspm::net::Client& client,
                 const std::vector<std::string>& args) {
  uint8_t mode = 0;
  std::vector<std::string> positional;
  for (const std::string& arg : args) {
    if (arg == "--mode=exact") {
      mode = 0;
    } else if (arg == "--mode=fast") {
      mode = 1;
    } else if (StartsWith(arg, "--mode=")) {
      return Status::InvalidArgument("bad " + arg + " (exact or fast)");
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 3 || positional.size() > 4) {
    return Status::InvalidArgument(
        "usage: update <store.cspm> <model> <ops> [seed] [--mode=exact|fast]");
  }
  uint32_t ops = 0;
  if (!ParseUint32(positional[2], &ops) || ops == 0) {
    return Status::InvalidArgument("bad edge-op count '" + positional[2] +
                                   "'");
  }
  uint32_t seed = 1;
  if (positional.size() > 3 && !ParseUint32(positional[3], &seed)) {
    return Status::InvalidArgument("bad seed '" + positional[3] + "'");
  }
  CSPM_ASSIGN_OR_RETURN(cspm::graph::AttributedGraph graph,
                        CurrentGraph(positional[0], positional[1]));
  cspm::net::UpdateRequest request;
  request.model = positional[1];
  request.mode = mode;
  CSPM_ASSIGN_OR_RETURN(request.delta,
                        cspm::graph::MakeRandomEdgeRewires(graph, ops, seed));
  CSPM_ASSIGN_OR_RETURN(cspm::net::UpdateResponse response,
                        client.Update(request));
  std::printf(
      "updated '%s' with %zu edge op(s): %" PRIu64
      " dirty vertices, %s re-mine, DL %.1f -> %.1f bits\n",
      request.model.c_str(), request.delta.num_ops(), response.dirty_vertices,
      response.fast_path ? "fast" : "exact", response.dl_before_bits,
      response.dl_after_bits);
  return Status::OK();
}

Status CmdVerifyScores(cspm::net::Client& client,
                       const std::vector<std::string>& args) {
  if (args.size() < 2 || args.size() > 3) {
    return Status::InvalidArgument(
        "usage: verify-scores <store.cspm> <model> [count]");
  }
  const std::string& store_path = args[0];
  const std::string& model = args[1];
  uint32_t count = 16;
  if (args.size() > 2 && !ParseUint32(args[2], &count)) {
    return Status::InvalidArgument("bad count '" + args[2] + "'");
  }
  // Rebuild the state the server serves, the way the server built it
  // (engine::ReplayModel): deterministic mine from the snapshot, then the
  // WAL rolled forward in its recorded modes. It only reads the store:
  // the file is the server's.
  CSPM_ASSIGN_OR_RETURN(cspm::store::ModelStore store,
                        cspm::store::ModelStore::Open(store_path));
  CSPM_ASSIGN_OR_RETURN(cspm::engine::ReplayedModel replayed,
                        cspm::engine::ReplayModel(store, model));
  const cspm::engine::MiningSession& session = replayed.session;
  const uint32_t n = session.graph().num_vertices().value();
  if (n == 0) return Status::FailedPrecondition("empty graph");
  cspm::net::ScoreRequest request;
  request.model = model;
  request.k = 0;  // every attribute value — the full surface, not a sample
  for (uint32_t i = 0; i < count; ++i) {
    // Deterministic spread across the id space.
    request.vertices.push_back(
        cspm::graph::VertexId(static_cast<uint32_t>(
            (uint64_t{i} * n) / count)));
  }
  CSPM_ASSIGN_OR_RETURN(std::vector<cspm::engine::AttributeScores> expected,
                        session.ScoreBatch(request.vertices));
  CSPM_ASSIGN_OR_RETURN(cspm::net::ScoreResponse got, client.Score(request));
  if (got.results.size() != expected.size()) {
    return Status::Internal(cspm::StrFormat(
        "result count mismatch: wire %zu vs local %zu", got.results.size(),
        expected.size()));
  }
  size_t compared = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    const std::vector<cspm::net::ScoreResponse::Entry> local =
        cspm::net::TopKScores(expected[i], 0);
    if (got.results[i].size() != local.size()) {
      return Status::Internal(cspm::StrFormat(
          "vertex %u: entry count mismatch: wire %zu vs local %zu",
          request.vertices[i].value(), got.results[i].size(), local.size()));
    }
    for (size_t j = 0; j < local.size(); ++j) {
      const auto& w = got.results[i][j];
      const auto& l = local[j];
      // memcmp, not ==: bit-identity is the contract (and NaN-proof).
      if (w.attr != l.attr ||
          std::memcmp(&w.score, &l.score, sizeof(double)) != 0) {
        return Status::Internal(cspm::StrFormat(
            "vertex %u rank %zu: wire (attr %u, %.17g) vs local "
            "(attr %u, %.17g) — scores must be bit-identical",
            request.vertices[i].value(), j, w.attr.value(), w.score,
            l.attr.value(), l.score));
      }
      ++compared;
    }
  }
  std::printf(
      "verify-scores OK: %zu vertices x %zu attribute values "
      "(%zu scores) bit-identical to in-process ScoreBatch\n",
      expected.size(), expected.empty() ? 0 : got.results[0].size(), compared);
  return Status::OK();
}

Status Run(int argc, char** argv) {
  const std::string command = argv[2];
  std::vector<std::string> args(argv + 3, argv + argc);
  CSPM_ASSIGN_OR_RETURN(cspm::net::Client client, Dial(argv[1]));
  if (command == "ping") {
    CSPM_RETURN_IF_ERROR(client.Ping());
    std::printf("pong\n");
    return Status::OK();
  }
  if (command == "list") {
    CSPM_ASSIGN_OR_RETURN(std::vector<std::string> models, client.List());
    for (const std::string& name : models) std::printf("%s\n", name.c_str());
    return Status::OK();
  }
  if (command == "metrics") {
    CSPM_ASSIGN_OR_RETURN(std::string json, client.MetricsJson());
    std::printf("%s\n", json.c_str());
    return Status::OK();
  }
  if (command == "score") return CmdScore(client, args);
  if (command == "update") return CmdUpdate(client, args);
  if (command == "verify-scores") return CmdVerifyScores(client, args);
  return Status::InvalidArgument("unknown command '" + command + "'");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const Status status = Run(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "cspm_client: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
