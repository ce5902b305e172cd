#ifndef QPLEX_NET_SERVER_H_
#define QPLEX_NET_SERVER_H_

/// \file
/// Single-threaded poll()-based TCP server for the JSONL serving protocol.
/// The Server owns the listening socket and every connection's state machine
/// (frame splitter in, coalescing write buffer out); the protocol itself —
/// what a request line means, what responses look like — lives in the
/// caller's callbacks, so the net layer stays free of svc/graph types.
///
/// Threading model: everything here runs on the caller's thread. One
/// Poll() call performs one event-loop iteration: poll readiness, accept,
/// budgeted reads (frames dispatched to on_line), write flushes, idle
/// closes. The caller interleaves Poll() with its own work (draining the
/// job scheduler) and pushes responses back with Send().

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/stopwatch.h"
#include "net/frame.h"
#include "net/io.h"

namespace qplex::net {

struct ServerOptions {
  /// Loopback port to bind; 0 lets the kernel pick (read it back via port()).
  int port = 0;
  /// Admission cap: connections accepted beyond this are immediately sent
  /// `busy_response` and closed, counted in net.connections.rejected.
  int max_connections = 64;
  /// Close connections with no inbound traffic for this long; 0 disables.
  int idle_timeout_ms = 0;
  /// Oversize-line rejection threshold for the frame splitter.
  std::size_t max_line_bytes = FrameSplitter::kDefaultMaxLineBytes;
  /// Slow-reader bound: a connection whose un-flushed response backlog
  /// exceeds this is dropped (it is not reading its responses).
  std::size_t max_write_buffer_bytes = 8u << 20;
  /// Line written (verbatim; include the trailing newline) to a connection
  /// rejected by the admission cap.
  std::string busy_response;
};

struct ServerCallbacks {
  /// One complete request line (newline stripped). Lines arrive in
  /// per-connection order; across connections, in poll-readiness order.
  std::function<void(std::uint64_t conn_id, std::string line)> on_line;
  /// The connection is gone (peer closed, error, idle timeout, or a
  /// protocol violation). Fired exactly once per accepted connection,
  /// after its fd is closed; Send() to this id is a no-op from here on.
  std::function<void(std::uint64_t conn_id)> on_close;
  /// A framing-level protocol violation (today: oversize line). The callback
  /// may Send() a final error response; the server then closes the
  /// connection once the response has flushed.
  std::function<void(std::uint64_t conn_id, const Status& violation)>
      on_protocol_error;
};

class Server {
 public:
  /// Binds and listens on loopback. Metrics land in the global registry
  /// under net.*.
  static Result<std::unique_ptr<Server>> Create(ServerOptions options,
                                                ServerCallbacks callbacks);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const { return port_; }

  /// One event-loop iteration. Blocks in poll() for at most `timeout_ms`
  /// (0 = just poll readiness, -1 = wait indefinitely; an earlier idle
  /// deadline shortens the wait either way). Returns a non-OK status only
  /// for unrecoverable loop failures (poll on a bad fd), never for
  /// per-connection errors.
  Status Poll(int timeout_ms);

  /// Queues one framed response line (caller includes the '\n') on a
  /// connection's write buffer; flushes immediately once a segment's worth
  /// is queued. Unknown/closed ids are dropped and counted
  /// (net.responses.dropped) — the client hung up before its answer.
  void Send(std::uint64_t conn_id, std::string line);

  /// One non-blocking flush attempt on every connection with queued bytes.
  void FlushWritable();

  /// Stops accepting new connections (the listening socket closes; existing
  /// connections are untouched). Idempotent — this is the first step of a
  /// graceful drain.
  void StopAccepting();

  /// Exempts `conn_id` from the idle timeout while the caller holds
  /// admitted-but-unanswered work for it. The idle timer only measures
  /// inbound silence, so without this a connection whose one request is
  /// still in the scheduler — write buffer empty, nothing left to read —
  /// would be "idle" and its eventual response dropped. The serve front-end
  /// pins a connection while its outstanding-job count is non-zero.
  /// Unknown/closed ids are ignored.
  void SetIdleExempt(std::uint64_t conn_id, bool exempt);

  /// Blocks (with poll) until every queued response byte is flushed, each
  /// peer is closed, or `timeout_ms` elapses. The graceful-drain tail.
  void DrainWrites(int timeout_ms);

  std::size_t active_connections() const { return connections_.size(); }
  bool has_queued_writes() const;

 private:
  struct Connection {
    int fd = -1;
    FrameSplitter splitter;
    WriteBuffer writes;
    Stopwatch last_activity;
    bool close_after_flush = false;
    /// See SetIdleExempt: true while the caller owes this peer a response.
    bool idle_exempt = false;
  };

  Server(ServerOptions options, ServerCallbacks callbacks, int listen_fd,
         int port);

  void AcceptReady();
  /// Budgeted read + frame dispatch; returns false when the connection died.
  bool ReadReady(std::uint64_t conn_id, Connection& conn);
  void FlushConnection(std::uint64_t conn_id, Connection& conn);
  void Close(std::uint64_t conn_id, const char* reason);
  void CloseIdleConnections();
  /// Milliseconds until the earliest idle deadline, or -1 when none.
  int NextIdleDeadlineMs() const;

  ServerOptions options_;
  ServerCallbacks callbacks_;
  int listen_fd_;
  int port_;
  std::uint64_t next_conn_id_ = 1;
  /// Ordered so poll-set construction and idle scans iterate oldest-first.
  std::map<std::uint64_t, Connection> connections_;
};

}  // namespace qplex::net

#endif  // QPLEX_NET_SERVER_H_
