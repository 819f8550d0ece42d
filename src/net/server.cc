#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace cspm::net {
namespace {

// epoll_event.data.u64 sentinels for the two non-connection fds.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

/// Registers the full net.* metric surface up front. The handlers cache
/// their own function-local pointers for the hot path; touching every
/// name here means a `metrics` request (and the docs/METRICS.md CI
/// cross-check) sees the whole surface from the first frame, not only
/// the metrics whose code paths have already run.
void RegisterNetMetrics() {
  for (const char* name :
       {"net.connections_accepted", "net.connections_closed",
        "net.bytes_read", "net.bytes_written", "net.frames_read",
        "net.frames_written", "net.frame_errors", "net.requests_ping",
        "net.requests_list", "net.requests_metrics", "net.requests_score",
        "net.requests_update", "net.score_overloaded",
        "net.update_overloaded", "net.batches_flushed",
        "net.batch_flush_max_batch", "net.batch_flush_max_wait",
        "net.coalesced_requests"}) {
    obs::GetCounter(name);
  }
  obs::GetGauge("net.connections_active");
  obs::GetGauge("net.queued_vertices");
  obs::GetHistogram("net.batch.wait");
  obs::GetHistogram("net.request.score");
  obs::GetHistogram("net.request.update");
}

}  // namespace

StatusOr<std::unique_ptr<Server>> Server::Start(std::unique_ptr<ModelHost> host,
                                                ServerOptions options) {
  if (host == nullptr) {
    return Status::InvalidArgument("Server::Start: null ModelHost");
  }
  RegisterNetMetrics();
  std::unique_ptr<Server> server(
      new Server(std::move(host), std::move(options)));  // lint:allow naked-new (private ctor)
  CSPM_RETURN_IF_ERROR(server->Listen());
  server->epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (server->epoll_fd_ < 0) return Errno("epoll_create1");
  server->wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (server->wake_fd_ < 0) return Errno("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  if (epoll_ctl(server->epoll_fd_, EPOLL_CTL_ADD, server->listen_fd_, &ev) <
      0) {
    return Errno("epoll_ctl(listener)");
  }
  ev.data.u64 = kWakeTag;
  if (epoll_ctl(server->epoll_fd_, EPOLL_CTL_ADD, server->wake_fd_, &ev) < 0) {
    return Errno("epoll_ctl(eventfd)");
  }
  server->loop_thread_ = std::thread([s = server.get()] { s->LoopThread(); });
  server->exec_thread_ = std::thread([s = server.get()] { s->ExecThread(); });
  return server;
}

Server::~Server() {
  Stop();
  for (auto& [id, conn] : connections_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  connections_.clear();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::RequestStop() {
  stop_.store(true, std::memory_order_release);
  // eventfd write is async-signal-safe; the loop thread wakes, sees stop_
  // and notifies the executor from normal (non-signal) context.
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Server::Join() {
  std::lock_guard<std::mutex> lock(join_mu_);
  if (loop_thread_.joinable()) loop_thread_.join();
  if (exec_thread_.joinable()) exec_thread_.join();
}

void Server::Stop() {
  RequestStop();
  // Belt and braces: the loop thread normally forwards the stop to the
  // executor's condvar, but notify here too in case it already exited.
  exec_cv_.notify_all();
  Join();
}

Status Server::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address +
                                   "' (IPv4 literal expected)");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, 128) < 0) return Errno("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

// --- loop thread -----------------------------------------------------------

void Server::LoopThread() {
  std::array<epoll_event, 64> events;
  while (true) {
    const int n = epoll_wait(epoll_fd_, events.data(),
                             static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — shutting down
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        AcceptConnections();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        DrainCompletions();
        continue;
      }
      auto it = connections_.find(tag);
      if (it == connections_.end()) continue;  // closed earlier this tick
      Connection* conn = &it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(tag);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!FlushWrites(conn)) {
          CloseConnection(tag);
          continue;
        }
        UpdateWriteInterest(conn);
      }
      if ((events[i].events & EPOLLIN) != 0) {
        ReadConnection(conn);  // may close + erase `conn`
      }
    }
    if (stop_.load(std::memory_order_acquire)) {
      // Forward the (possibly signal-context) stop to the executor from
      // normal context, then exit.
      exec_cv_.notify_all();
      break;
    }
  }
}

void Server::AcceptConnections() {
  static obs::Counter* accepted = obs::GetCounter("net.connections_accepted");
  static obs::Gauge* active = obs::GetGauge("net.connections_active");
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or a transient accept error — retry later
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_conn_id_++;
    auto [it, inserted] =
        connections_.emplace(id, Connection(options_.max_payload_bytes));
    it->second.fd = fd;
    it->second.id = id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      connections_.erase(it);
      continue;
    }
    accepted->Add();
    active->Set(static_cast<double>(connections_.size()));
  }
}

void Server::ReadConnection(Connection* conn) {
  static obs::Counter* bytes_read = obs::GetCounter("net.bytes_read");
  static obs::Counter* frames_read = obs::GetCounter("net.frames_read");
  static obs::Counter* frame_errors = obs::GetCounter("net.frame_errors");
  const uint64_t id = conn->id;
  char buf[65536];
  while (true) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n == 0) {  // orderly remote close
      CloseConnection(id);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(id);
      return;
    }
    bytes_read->Add(static_cast<uint64_t>(n));
    std::vector<Frame> frames;
    const Status fed =
        conn->parser.Feed(std::string_view(buf, static_cast<size_t>(n)),
                          &frames);
    frames_read->Add(frames.size());
    // Frames completed before a framing error are still valid — serve
    // them, then drop the connection (stream offset is unknowable).
    for (const Frame& frame : frames) {
      HandleFrame(conn, frame);
      if (connections_.find(id) == connections_.end()) return;  // closed
    }
    if (!fed.ok()) {
      frame_errors->Add();
      CloseConnection(id);
      return;
    }
  }
}

void Server::HandleFrame(Connection* conn, const Frame& frame) {
  switch (frame.verb) {
    case Verb::kPing: {
      static obs::Counter* pings = obs::GetCounter("net.requests_ping");
      pings->Add();
      Frame reply;
      reply.verb = Verb::kPing;
      reply.request_id = frame.request_id;
      SendFrame(conn, reply);
      return;
    }
    case Verb::kList: {
      static obs::Counter* lists = obs::GetCounter("net.requests_list");
      lists->Add();
      Frame reply;
      reply.verb = Verb::kList;
      reply.request_id = frame.request_id;
      reply.payload = EncodeListResponse(ListResponse{host_->List()});
      SendFrame(conn, reply);
      return;
    }
    case Verb::kMetrics: {
      static obs::Counter* metrics = obs::GetCounter("net.requests_metrics");
      metrics->Add();
      Frame reply;
      reply.verb = Verb::kMetrics;
      reply.request_id = frame.request_id;
      // SnapshotJson() verbatim: the payload is the UTF-8 JSON text itself,
      // not a codec-wrapped string (docs/PROTOCOL.md).
      reply.payload = obs::MetricsRegistry::Global().SnapshotJson();
      SendFrame(conn, reply);
      return;
    }
    case Verb::kScore:
      HandleScore(conn, frame);
      return;
    case Verb::kUpdate:
      HandleUpdate(conn, frame);
      return;
  }
  SendFrame(conn, MakeErrorFrame(frame.verb, frame.request_id,
                                 WireStatus::kInvalidArgument,
                                 StrFormat("unknown verb %u",
                                                 unsigned{static_cast<uint8_t>(
                                                     frame.verb)})));
}

void Server::HandleScore(Connection* conn, const Frame& frame) {
  static obs::Counter* scores = obs::GetCounter("net.requests_score");
  static obs::Counter* overloaded = obs::GetCounter("net.score_overloaded");
  static obs::Gauge* queued = obs::GetGauge("net.queued_vertices");
  scores->Add();
  auto req_or = DecodeScoreRequest(frame.payload);
  if (!req_or.ok()) {
    SendFrame(conn, MakeErrorFrame(Verb::kScore, frame.request_id,
                                   WireStatusFromStatus(req_or.status()),
                                   req_or.status().message()));
    return;
  }
  ScoreRequest req = std::move(req_or).value();
  // Validate at admission (model exists, vertices in range): a coalesced
  // batch then cannot fail validation mid-flush, so one bad request never
  // poisons its batchmates.
  const Status valid = host_->ValidateScore(req.model, req.vertices);
  if (!valid.ok()) {
    SendFrame(conn, MakeErrorFrame(Verb::kScore, frame.request_id,
                                   WireStatusFromStatus(valid),
                                   valid.message()));
    return;
  }
  if (req.vertices.empty()) {  // nothing to score — reply inline
    Frame reply;
    reply.verb = Verb::kScore;
    reply.request_id = frame.request_id;
    reply.payload = EncodeScoreResponse(ScoreResponse{});
    SendFrame(conn, reply);
    return;
  }
  PendingScore pending;
  pending.conn_id = conn->id;
  pending.request_id = frame.request_id;
  pending.k = req.k;
  pending.vertices = std::move(req.vertices);
  const size_t vertices = pending.vertices.size();
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(exec_mu_);
    auto [it, inserted] =
        batchers_.try_emplace(req.model, ScoreBatcher(options_.batching));
    admitted = it->second.Add(std::move(pending), NowNs()) ==
               ScoreBatcher::Admit::kAccepted;
    if (admitted) {
      queued_vertices_total_ += vertices;
      queued->Set(static_cast<double>(queued_vertices_total_));
    }
  }
  if (!admitted) {
    overloaded->Add();
    SendFrame(conn,
              MakeErrorFrame(Verb::kScore, frame.request_id,
                             WireStatus::kOverloaded,
                             StrFormat(
                                 "score queue for '%s' is full "
                                 "(max_queue_vertices=%zu); back off and retry",
                                 req.model.c_str(),
                                 options_.batching.max_queue_vertices)));
    return;
  }
  exec_cv_.notify_one();
}

void Server::HandleUpdate(Connection* conn, const Frame& frame) {
  static obs::Counter* updates = obs::GetCounter("net.requests_update");
  static obs::Counter* overloaded = obs::GetCounter("net.update_overloaded");
  updates->Add();
  auto req_or = DecodeUpdateRequest(frame.payload);
  if (!req_or.ok()) {
    SendFrame(conn, MakeErrorFrame(Verb::kUpdate, frame.request_id,
                                   WireStatusFromStatus(req_or.status()),
                                   req_or.status().message()));
    return;
  }
  UpdateRequest req = std::move(req_or).value();
  PendingUpdate pending;
  pending.conn_id = conn->id;
  pending.request_id = frame.request_id;
  pending.model = std::move(req.model);
  pending.mode = req.mode;
  pending.delta = std::move(req.delta);
  pending.enqueue_ns = NowNs();
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(exec_mu_);
    if (updates_.size() < options_.max_pending_updates) {
      updates_.push_back(std::move(pending));
      admitted = true;
    }
  }
  if (!admitted) {
    overloaded->Add();
    SendFrame(conn, MakeErrorFrame(
                        Verb::kUpdate, frame.request_id,
                        WireStatus::kOverloaded,
                        StrFormat("update queue is full "
                                        "(max_pending_updates=%zu); back off "
                                        "and retry",
                                        options_.max_pending_updates)));
    return;
  }
  exec_cv_.notify_one();
}

void Server::SendFrame(Connection* conn, const Frame& frame) {
  static obs::Counter* frames_written = obs::GetCounter("net.frames_written");
  frames_written->Add();
  AppendFrame(frame, &conn->write_buffer);
  const uint64_t id = conn->id;
  if (!FlushWrites(conn)) {
    CloseConnection(id);
    return;
  }
  UpdateWriteInterest(conn);
}

bool Server::FlushWrites(Connection* conn) {
  static obs::Counter* bytes_written = obs::GetCounter("net.bytes_written");
  while (conn->write_offset < conn->write_buffer.size()) {
    const ssize_t n =
        ::write(conn->fd, conn->write_buffer.data() + conn->write_offset,
                conn->write_buffer.size() - conn->write_offset);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // wait out
      if (errno == EINTR) continue;
      return false;  // peer gone — caller closes
    }
    bytes_written->Add(static_cast<uint64_t>(n));
    conn->write_offset += static_cast<size_t>(n);
  }
  conn->write_buffer.clear();
  conn->write_offset = 0;
  return true;
}

void Server::UpdateWriteInterest(Connection* conn) {
  const bool pending = conn->write_offset < conn->write_buffer.size();
  if (pending == conn->want_write) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (pending ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->want_write = pending;
  }
}

void Server::CloseConnection(uint64_t conn_id) {
  static obs::Counter* closed = obs::GetCounter("net.connections_closed");
  static obs::Gauge* active = obs::GetGauge("net.connections_active");
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  connections_.erase(it);
  closed->Add();
  active->Set(static_cast<double>(connections_.size()));
  // Completions still in flight for this connection are dropped when the
  // drain fails to find it — backpressure state was already released at
  // batch flush time, so nothing leaks.
}

void Server::DrainCompletions() {
  std::vector<Completion> ready;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    ready.swap(completions_);
  }
  for (Completion& completion : ready) {
    auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // client went away — drop
    SendFrame(&it->second, completion.frame);
  }
}

// --- executor thread -------------------------------------------------------

void Server::ExecThread() {
  static obs::Counter* flushed = obs::GetCounter("net.batches_flushed");
  static obs::Counter* flush_max_batch =
      obs::GetCounter("net.batch_flush_max_batch");
  static obs::Counter* flush_max_wait =
      obs::GetCounter("net.batch_flush_max_wait");
  static obs::Counter* coalesced = obs::GetCounter("net.coalesced_requests");
  static obs::Histogram* batch_wait = obs::GetHistogram("net.batch.wait");
  static obs::Gauge* queued = obs::GetGauge("net.queued_vertices");
  std::unique_lock<std::mutex> lock(exec_mu_);
  while (!stop_.load(std::memory_order_acquire)) {
    const uint64_t now = NowNs();
    bool due = !updates_.empty();
    std::optional<uint64_t> deadline;
    for (const auto& [name, batcher] : batchers_) {
      if (batcher.Due(now)) {
        due = true;
        break;
      }
      const std::optional<uint64_t> d = batcher.NextDeadlineNs();
      if (d.has_value() && (!deadline.has_value() || *d < *deadline)) {
        deadline = *d;
      }
    }
    if (!due) {
      if (!deadline.has_value()) {
        // Idle. The 100ms cap is a stop_ safety net only — admissions
        // notify the condvar under the lock, so work is never missed.
        exec_cv_.wait_for(lock, std::chrono::milliseconds(100));
      } else if (*deadline > now) {
        exec_cv_.wait_for(lock, std::chrono::nanoseconds(*deadline - now));
      }
      continue;  // re-evaluate Due() against the new now
    }
    // Collect everything due this tick while holding the lock...
    std::vector<std::pair<std::string, std::vector<PendingScore>>> batches;
    for (auto& [name, batcher] : batchers_) {
      while (batcher.Due(now)) {
        ScoreBatcher::FlushReason reason = ScoreBatcher::FlushReason::kMaxWait;
        std::vector<PendingScore> batch = batcher.TakeBatch(&reason);
        if (batch.empty()) break;
        flushed->Add();
        (reason == ScoreBatcher::FlushReason::kMaxBatch ? flush_max_batch
                                                        : flush_max_wait)
            ->Add();
        coalesced->Add(batch.size());
        size_t vertices = 0;
        for (const PendingScore& r : batch) {
          vertices += r.vertices.size();
          batch_wait->Record(now - r.enqueue_ns);
        }
        queued_vertices_total_ -= vertices;
        batches.emplace_back(name, std::move(batch));
      }
    }
    queued->Set(static_cast<double>(queued_vertices_total_));
    std::deque<PendingUpdate> updates;
    updates.swap(updates_);
    lock.unlock();
    // ...execute outside it, so admissions keep flowing during a score or
    // a (potentially long) re-mine.
    std::vector<Completion> out;
    for (auto& [name, batch] : batches) {
      ExecuteBatch(name, std::move(batch), &out);
    }
    for (PendingUpdate& update : updates) {
      ExecuteUpdate(std::move(update), &out);
    }
    PostCompletions(std::move(out));
    lock.lock();
  }
}

void Server::ExecuteBatch(const std::string& model,
                          std::vector<PendingScore> batch,
                          std::vector<Completion>* out) {
  static obs::Histogram* score_latency =
      obs::GetHistogram("net.request.score");
  std::vector<graph::VertexId> all;
  size_t total = 0;
  for (const PendingScore& r : batch) total += r.vertices.size();
  all.reserve(total);
  for (const PendingScore& r : batch) {
    all.insert(all.end(), r.vertices.begin(), r.vertices.end());
  }
  auto scores_or = host_->Score(model, all);
  if (!scores_or.ok()) {
    // Cannot happen for admission-validated requests (deltas never shrink
    // the graph), but a clean per-request error beats a crash if it does.
    for (const PendingScore& r : batch) {
      out->push_back(
          {r.conn_id,
           MakeErrorFrame(Verb::kScore, r.request_id,
                          WireStatusFromStatus(scores_or.status()),
                          scores_or.status().message())});
    }
    return;
  }
  const std::vector<core::AttributeScores>& scores = scores_or.value();
  const uint64_t done = NowNs();
  size_t offset = 0;
  for (const PendingScore& r : batch) {
    ScoreResponse resp;
    resp.results.reserve(r.vertices.size());
    for (size_t i = 0; i < r.vertices.size(); ++i) {
      resp.results.push_back(TopKScores(scores[offset + i], r.k));
    }
    offset += r.vertices.size();
    Frame reply;
    reply.verb = Verb::kScore;
    reply.request_id = r.request_id;
    reply.payload = EncodeScoreResponse(resp);
    out->push_back({r.conn_id, std::move(reply)});
    score_latency->Record(done - r.enqueue_ns);
  }
}

void Server::ExecuteUpdate(PendingUpdate update, std::vector<Completion>* out) {
  static obs::Histogram* update_latency =
      obs::GetHistogram("net.request.update");
  const engine::UpdateMode mode =
      update.mode == 1 ? engine::UpdateMode::kFast : engine::UpdateMode::kExact;
  auto stats_or = host_->Update(update.model, update.delta, mode);
  update_latency->Record(NowNs() - update.enqueue_ns);
  if (!stats_or.ok()) {
    out->push_back({update.conn_id,
                    MakeErrorFrame(Verb::kUpdate, update.request_id,
                                   WireStatusFromStatus(stats_or.status()),
                                   stats_or.status().message())});
    return;
  }
  const engine::UpdateStats& stats = stats_or.value();
  UpdateResponse resp;
  resp.fast_path = stats.fast_path;
  // Kept for the wire layout (docs/PROTOCOL.md §5.4): it always equals
  // fast_path now that kExact re-mines cold.
  resp.warm_path = stats.fast_path;
  resp.dirty_vertices = stats.dirty_vertices;
  resp.dl_before_bits = stats.dl_before_bits;
  resp.dl_after_bits = stats.dl_after_bits;
  Frame reply;
  reply.verb = Verb::kUpdate;
  reply.request_id = update.request_id;
  reply.payload = EncodeUpdateResponse(resp);
  out->push_back({update.conn_id, std::move(reply)});
}

void Server::PostCompletions(std::vector<Completion> completions) {
  if (completions.empty()) return;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    completions_.insert(completions_.end(),
                        std::make_move_iterator(completions.begin()),
                        std::make_move_iterator(completions.end()));
  }
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

}  // namespace cspm::net
