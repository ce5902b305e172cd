#include "loadgen/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "net/io.h"
#include "obs/json.h"

namespace qplex::bench {
namespace {

std::int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Result<std::unique_ptr<LoadClient>> LoadClient::Connect(
    int port, int connections, const Workload* workload) {
  std::unique_ptr<LoadClient> client(new LoadClient(workload));
  client->epoch_ns_ = SteadyNanos();
  for (int i = 0; i < connections; ++i) {
    QPLEX_ASSIGN_OR_RETURN(const int fd, net::ConnectLoopback(port));
    client->conns_.emplace_back();
    client->conns_.back().fd = fd;
    QPLEX_RETURN_IF_ERROR(net::SetNonBlocking(fd));
    // Without it, Nagle holds a pipelined request back until the server
    // acknowledges the one before it.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return client;
}

LoadClient::~LoadClient() {
  for (const Connection& conn : conns_) {
    net::CloseFd(conn.fd);
  }
}

double LoadClient::Now() const { return (SteadyNanos() - epoch_ns_) * 1e-9; }

void LoadClient::Send(int conn, int phase) {
  const std::uint64_t index = next_index_++;
  conns_[conn].out += workload_->Line(index);
  conns_[conn].out += '\n';
  ++conns_[conn].outstanding;
  pending_[index] = Pending{conn, phase, Now()};
}

Status LoadClient::Flush(Connection& conn) {
  while (!conn.out.empty()) {
    const net::IoResult wrote =
        net::WriteFd(conn.fd, conn.out.data(), conn.out.size());
    if (wrote.state == net::IoState::kWouldBlock) {
      return Status::Ok();
    }
    if (wrote.state != net::IoState::kOk) {
      return Status::Internal("connection to qplex_serve lost while writing");
    }
    conn.out.erase(0, wrote.bytes);
  }
  return Status::Ok();
}

Status LoadClient::PollOnce(double wake_at) {
  for (Connection& conn : conns_) {
    QPLEX_RETURN_IF_ERROR(Flush(conn));
  }
  std::vector<pollfd> fds;
  for (const Connection& conn : conns_) {
    const int events = POLLIN | (conn.out.empty() ? 0 : POLLOUT);
    fds.push_back(pollfd{conn.fd, static_cast<short>(events), 0});
  }
  // The cap keeps phase ends prompt.
  const double wait = std::clamp(wake_at - Now(), 0.0, 0.05);
  timespec timeout{static_cast<time_t>(wait),
                   static_cast<long>((wait - std::floor(wait)) * 1e9)};
  const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (ready < 0) {
    return errno == EINTR ? Status::Ok() : Status::Internal("ppoll failed");
  }
  char buffer[64 * 1024];
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      continue;
    }
    Connection& conn = conns_[i];
    const net::IoResult got = net::ReadFd(conn.fd, buffer, sizeof(buffer));
    if (got.state == net::IoState::kWouldBlock) {
      continue;
    }
    if (got.state != net::IoState::kOk) {
      return Status::Internal("connection to qplex_serve closed");
    }
    QPLEX_RETURN_IF_ERROR(
        conn.frames.Feed(std::string_view(buffer, got.bytes)));
    std::string line;
    while (conn.frames.Next(&line)) {
      QPLEX_RETURN_IF_ERROR(Complete(line));
    }
  }
  return Status::Ok();
}

Status LoadClient::Complete(const std::string& line) {
  const double done = Now();
  QPLEX_ASSIGN_OR_RETURN(obs::JsonValue response, obs::JsonValue::Parse(line));
  const obs::JsonValue* label = response.Find("label");
  std::uint64_t index = 0;
  if (label == nullptr || !label->is_string() ||
      !ParseLabel(label->AsString(), &index)) {
    return Status::Internal("response without a request label: " + line);
  }
  const auto it = pending_.find(index);
  if (it == pending_.end()) {
    return Status::Internal("unexpected response: " + line);
  }
  Sample sample;
  sample.index = index;
  sample.phase = it->second.phase;
  sample.sent = it->second.sent;
  sample.done = done;
  sample.check = workload_->Verify(index, response);
  --conns_[it->second.conn].outstanding;
  pending_.erase(it);
  samples_.push_back(std::move(sample));
  last_response_ = line;
  return Status::Ok();
}

Status LoadClient::RunClosed(int phase, int depth, double seconds) {
  const double end = Now() + seconds;
  while (Now() < end) {
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      while (conns_[c].outstanding < depth) {
        Send(static_cast<int>(c), phase);
      }
    }
    QPLEX_RETURN_IF_ERROR(PollOnce(end));
  }
  return Status::Ok();
}

Status LoadClient::SendAndWait(int phase, double timeout_seconds) {
  Send(0, phase);
  return Drain(timeout_seconds);
}

Status LoadClient::Drain(double timeout_seconds) {
  const double end = Now() + timeout_seconds;
  while (!pending_.empty()) {
    if (Now() > end) {
      return Status::DeadlineExceeded(
          std::to_string(pending_.size()) +
          " requests unanswered after the drain timeout");
    }
    QPLEX_RETURN_IF_ERROR(PollOnce(end));
  }
  return Status::Ok();
}

}  // namespace qplex::bench
