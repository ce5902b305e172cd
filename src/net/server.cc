#include "net/server.h"

#include <poll.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace qplex::net {
namespace {

obs::MetricsRegistry& Metrics() { return obs::MetricsRegistry::Global(); }

}  // namespace

Result<std::unique_ptr<Server>> Server::Create(ServerOptions options,
                                               ServerCallbacks callbacks) {
  QPLEX_CHECK(callbacks.on_line != nullptr) << "server needs an on_line";
  int port = 0;
  QPLEX_ASSIGN_OR_RETURN(const int listen_fd,
                         ListenLoopback(options.port, &port));
  return std::unique_ptr<Server>(
      new Server(std::move(options), std::move(callbacks), listen_fd, port));
}

Server::Server(ServerOptions options, ServerCallbacks callbacks, int listen_fd,
               int port)
    : options_(std::move(options)),
      callbacks_(std::move(callbacks)),
      listen_fd_(listen_fd),
      port_(port) {}

Server::~Server() {
  StopAccepting();
  // Destruction is not a graceful drain (callers run DrainWrites first);
  // whatever is still queued is discarded with the fds.
  for (auto& [id, conn] : connections_) {
    CloseFd(conn.fd);
    if (callbacks_.on_close) {
      callbacks_.on_close(id);
    }
  }
  connections_.clear();
  Metrics().GetGauge("net.connections.active").Set(0);
}

Status Server::Poll(int timeout_ms) {
  // Cap the wait at the earliest idle deadline so an idle connection is
  // closed on time even when the loop is otherwise quiet.
  const int idle_ms = NextIdleDeadlineMs();
  if (idle_ms >= 0 && (timeout_ms < 0 || idle_ms < timeout_ms)) {
    timeout_ms = idle_ms;
  }

  std::vector<pollfd> fds;
  std::vector<std::uint64_t> ids;  // ids[i] owns fds[i + has_listener]
  const bool has_listener = listen_fd_ >= 0;
  fds.reserve(connections_.size() + 1);
  if (has_listener) {
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
  }
  for (const auto& [id, conn] : connections_) {
    short events = 0;
    // A connection marked close-after-flush is done reading: its final
    // response is on the way out and new requests would never be answered.
    if (!conn.close_after_flush && !conn.splitter.poisoned()) {
      events |= POLLIN;
    }
    if (!conn.writes.empty()) {
      events |= POLLOUT;
    }
    fds.push_back(pollfd{conn.fd, events, 0});
    ids.push_back(id);
  }

  const int ready = PollFds(fds.data(), fds.size(), timeout_ms);
  if (ready < 0) {
    return Status::Internal("poll() failed on the server loop");
  }

  if (has_listener && (fds[0].revents & POLLIN) != 0) {
    AcceptReady();
  }

  std::vector<std::uint64_t> dead;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const pollfd& pfd = fds[i + (has_listener ? 1 : 0)];
    const auto it = connections_.find(ids[i]);
    if (it == connections_.end()) {
      continue;  // closed by a callback earlier this iteration
    }
    Connection& conn = it->second;
    if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) {
      dead.push_back(ids[i]);
      continue;
    }
    if ((pfd.revents & (POLLIN | POLLHUP)) != 0) {
      if (!ReadReady(ids[i], conn)) {
        dead.push_back(ids[i]);
        continue;
      }
    }
    if ((pfd.revents & POLLOUT) != 0) {
      FlushConnection(ids[i], conn);
    }
  }
  for (const std::uint64_t id : dead) {
    Close(id, "peer");
  }

  // Retire connections whose farewell response has fully flushed.
  std::vector<std::uint64_t> flushed;
  for (const auto& [id, conn] : connections_) {
    if (conn.close_after_flush && conn.writes.empty()) {
      flushed.push_back(id);
    }
  }
  for (const std::uint64_t id : flushed) {
    Close(id, "drained");
  }

  CloseIdleConnections();
  return Status::Ok();
}

void Server::AcceptReady() {
  while (listen_fd_ >= 0) {
    const IoResult accepted = AcceptFd(listen_fd_);
    if (accepted.state == IoState::kWouldBlock) {
      return;
    }
    if (accepted.state != IoState::kOk) {
      Metrics().GetCounter("net.accept.errors").Increment();
      return;
    }
    const int fd = static_cast<int>(accepted.bytes);
    if (static_cast<int>(connections_.size()) >= options_.max_connections) {
      // Admission cap: tell the client it is load, not protocol, and move
      // on. One best-effort blocking-ish write on a fresh socket always
      // fits the send buffer.
      if (!options_.busy_response.empty()) {
        (void)WriteFd(fd, options_.busy_response.data(),
                      options_.busy_response.size());
      }
      CloseFd(fd);
      Metrics().GetCounter("net.connections.rejected").Increment();
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      CloseFd(fd);
      Metrics().GetCounter("net.accept.errors").Increment();
      continue;
    }
    const std::uint64_t id = next_conn_id_++;
    Connection conn;
    conn.fd = fd;
    conn.splitter = FrameSplitter(options_.max_line_bytes);
    connections_.emplace(id, std::move(conn));
    Metrics().GetCounter("net.connections.accepted").Increment();
    Metrics().GetGauge("net.connections.active")
        .Set(static_cast<double>(connections_.size()));
    Metrics().GetGauge("net.connections.active_max")
        .SetMax(static_cast<double>(connections_.size()));
  }
}

bool Server::ReadReady(std::uint64_t conn_id, Connection& conn) {
  // Per-connection, per-Poll read budget: at most this many bytes are
  // drained from one connection per iteration so a firehose client cannot
  // starve its neighbours (fairness, not a hard protocol limit).
  constexpr std::size_t kReadBudgetBytes = 64 * 1024;
  char buffer[16 * 1024];
  std::size_t budget = kReadBudgetBytes;
  bool peer_closed = false;
  Status frame_status = Status::Ok();
  while (budget > 0) {
    const std::size_t want = std::min(budget, sizeof(buffer));
    const IoResult got = ReadFd(conn.fd, buffer, want);
    if (got.state == IoState::kWouldBlock) {
      break;
    }
    if (got.state == IoState::kClosed) {
      peer_closed = true;
      break;
    }
    if (got.state == IoState::kError) {
      Metrics().GetCounter("net.read.errors").Increment();
      return false;
    }
    budget -= got.bytes;
    Metrics().GetCounter("net.bytes.in")
        .Add(static_cast<std::int64_t>(got.bytes));
    conn.last_activity.Restart();
    frame_status = conn.splitter.Feed(std::string_view(buffer, got.bytes));
    if (!frame_status.ok()) {
      break;  // poisoned: reject below, after dispatching what framed cleanly
    }
    if (got.bytes < want) {
      break;  // short read: the kernel buffer is drained
    }
  }

  // Dispatch every complete line framed so far. The callback may Send() but
  // cannot close a connection, so `conn` stays valid across the loop.
  std::string line;
  while (conn.splitter.Next(&line)) {
    Metrics().GetCounter("net.lines.parsed").Increment();
    callbacks_.on_line(conn_id, std::move(line));
    line.clear();
  }

  if (!frame_status.ok()) {
    Metrics().GetCounter("net.lines.oversize").Increment();
    if (callbacks_.on_protocol_error) {
      callbacks_.on_protocol_error(conn_id, frame_status);
    }
    conn.close_after_flush = true;
    FlushConnection(conn_id, conn);
    return true;  // closes once the rejection response drains
  }
  if (peer_closed) {
    // EOF: the client is done sending. Any requests already framed were
    // dispatched above; their responses have nowhere to go (the counterpart
    // client keeps its socket open until it has collected every response).
    return false;
  }
  return true;
}

void Server::FlushConnection(std::uint64_t conn_id, Connection& conn) {
  const std::uint64_t before = conn.writes.bytes_written();
  const IoState state = conn.writes.FlushTo(conn.fd);
  Metrics().GetCounter("net.bytes.out")
      .Add(static_cast<std::int64_t>(conn.writes.bytes_written() - before));
  if (state == IoState::kClosed || state == IoState::kError) {
    // Mid-write disconnect: a per-connection failure, never a server fault.
    Metrics().GetCounter("net.write.errors").Increment();
    Close(conn_id, "write");
  }
}

void Server::Send(std::uint64_t conn_id, std::string line) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) {
    Metrics().GetCounter("net.responses.dropped").Increment();
    return;
  }
  Connection& conn = it->second;
  conn.writes.Append(std::move(line));
  Metrics().GetGauge("net.conn.write_queue_bytes_max")
      .SetMax(static_cast<double>(conn.writes.queued_bytes()));
  if (conn.writes.queued_bytes() > options_.max_write_buffer_bytes) {
    // The peer is not reading its responses; shedding it bounds memory.
    Metrics().GetCounter("net.connections.overflowed").Increment();
    Close(conn_id, "overflow");
    return;
  }
  if (conn.writes.FlushDue()) {
    FlushConnection(conn_id, conn);
  }
}

void Server::FlushWritable() {
  std::vector<std::uint64_t> pending;
  for (const auto& [id, conn] : connections_) {
    if (!conn.writes.empty()) {
      pending.push_back(id);
    }
  }
  for (const std::uint64_t id : pending) {
    const auto it = connections_.find(id);
    if (it != connections_.end()) {
      FlushConnection(id, it->second);
    }
  }
}

void Server::StopAccepting() {
  if (listen_fd_ >= 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::Close(std::uint64_t conn_id, const char* reason) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) {
    return;
  }
  CloseFd(it->second.fd);
  connections_.erase(it);
  Metrics().GetCounter(std::string("net.connections.closed.") + reason)
      .Increment();
  Metrics().GetGauge("net.connections.active")
      .Set(static_cast<double>(connections_.size()));
  if (callbacks_.on_close) {
    callbacks_.on_close(conn_id);
  }
}

void Server::SetIdleExempt(std::uint64_t conn_id, bool exempt) {
  const auto it = connections_.find(conn_id);
  if (it != connections_.end()) {
    it->second.idle_exempt = exempt;
  }
}

void Server::CloseIdleConnections() {
  if (options_.idle_timeout_ms <= 0) {
    return;
  }
  std::vector<std::uint64_t> idle;
  for (const auto& [id, conn] : connections_) {
    if (conn.last_activity.ElapsedMillis() < options_.idle_timeout_ms) {
      continue;
    }
    // Never close a peer we still owe bytes (queued responses) or answers
    // (admitted jobs pinned via SetIdleExempt): "idle" means the peer is
    // silent AND the server is done with it.
    if (conn.idle_exempt || !conn.writes.empty()) {
      Metrics().GetCounter("net.connections.idle_spared").Increment();
      continue;
    }
    idle.push_back(id);
  }
  for (const std::uint64_t id : idle) {
    Metrics().GetCounter("net.connections.idle_closed").Increment();
    Close(id, "idle");
  }
}

int Server::NextIdleDeadlineMs() const {
  if (options_.idle_timeout_ms <= 0) {
    return -1;
  }
  double soonest = -1;
  for (const auto& [id, conn] : connections_) {
    if (conn.idle_exempt) {
      continue;  // pinned connections have no idle deadline to wake for
    }
    const double remaining =
        options_.idle_timeout_ms - conn.last_activity.ElapsedMillis();
    soonest = soonest < 0 ? remaining : std::min(soonest, remaining);
  }
  if (soonest < 0) {
    return -1;
  }
  return std::max(0, static_cast<int>(soonest) + 1);
}

void Server::DrainWrites(int timeout_ms) {
  Stopwatch watch;
  while (has_queued_writes() && watch.ElapsedMillis() < timeout_ms) {
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> ids;
    for (const auto& [id, conn] : connections_) {
      if (!conn.writes.empty()) {
        fds.push_back(pollfd{conn.fd, POLLOUT, 0});
        ids.push_back(id);
      }
    }
    const int remaining =
        std::max(1, timeout_ms - static_cast<int>(watch.ElapsedMillis()));
    if (PollFds(fds.data(), fds.size(), std::min(remaining, 50)) < 0) {
      return;
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if ((fds[i].revents & (POLLOUT | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      const auto it = connections_.find(ids[i]);
      if (it != connections_.end()) {
        FlushConnection(ids[i], it->second);
      }
    }
  }
}

bool Server::has_queued_writes() const {
  return std::any_of(connections_.begin(), connections_.end(),
                     [](const auto& entry) {
                       return !entry.second.writes.empty();
                     });
}

}  // namespace qplex::net
