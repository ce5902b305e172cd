// Unit tests for the net framing layer: FrameSplitter reassembly (partial
// lines, many lines per read, CRLF, oversize poisoning) and WriteBuffer
// coalescing + partial-write resume, driven through real pipe/socketpair
// descriptors so the flush path exercises actual writev semantics.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <cstdint>
#include <memory>
#include <string>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "common/status.h"
#include "net/frame.h"
#include "net/io.h"
#include "net/server.h"
#include "obs/metrics.h"

namespace qplex::net {
namespace {

std::vector<std::string> DrainLines(FrameSplitter& splitter) {
  std::vector<std::string> lines;
  std::string line;
  while (splitter.Next(&line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(FrameSplitterTest, ReassemblesPartialLines) {
  FrameSplitter splitter;
  ASSERT_TRUE(splitter.Feed("{\"id\":").ok());
  EXPECT_TRUE(DrainLines(splitter).empty());
  EXPECT_EQ(splitter.pending_bytes(), 6u);
  ASSERT_TRUE(splitter.Feed("\"a\"}\n").ok());
  const std::vector<std::string> lines = DrainLines(splitter);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"id\":\"a\"}");
  EXPECT_EQ(splitter.pending_bytes(), 0u);
}

TEST(FrameSplitterTest, SplitsMultipleLinesPerFeed) {
  FrameSplitter splitter;
  ASSERT_TRUE(splitter.Feed("one\ntwo\nthree\nfour").ok());
  const std::vector<std::string> lines = DrainLines(splitter);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[1], "two");
  EXPECT_EQ(lines[2], "three");
  EXPECT_EQ(splitter.pending_bytes(), 4u);  // "four" awaits its newline
}

TEST(FrameSplitterTest, StripsCarriageReturnBeforeNewline) {
  FrameSplitter splitter;
  ASSERT_TRUE(splitter.Feed("crlf\r\nplain\n\r\n").ok());
  const std::vector<std::string> lines = DrainLines(splitter);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "crlf");
  EXPECT_EQ(lines[1], "plain");
  EXPECT_EQ(lines[2], "");  // a bare CRLF is an empty line, not "\r"
}

TEST(FrameSplitterTest, PreservesInteriorCarriageReturns) {
  FrameSplitter splitter;
  ASSERT_TRUE(splitter.Feed("a\rb\n").ok());
  const std::vector<std::string> lines = DrainLines(splitter);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "a\rb");
}

TEST(FrameSplitterTest, OversizeTerminatedLinePoisons) {
  FrameSplitter splitter(/*max_line_bytes=*/8);
  const Status status = splitter.Feed("123456789\n");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(splitter.poisoned());
  // Poisoning is sticky: further feeds keep failing and yield no lines.
  EXPECT_EQ(splitter.Feed("ok\n").code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(DrainLines(splitter).empty());
}

TEST(FrameSplitterTest, OversizeUnterminatedTailPoisons) {
  FrameSplitter splitter(/*max_line_bytes=*/8);
  // No newline in sight; once the tail alone exceeds the limit the stream
  // can never resynchronise.
  ASSERT_TRUE(splitter.Feed("12345").ok());
  const Status status = splitter.Feed("67890");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(splitter.poisoned());
}

TEST(FrameSplitterTest, LinesBeforeTheOversizeOneSurvive) {
  FrameSplitter splitter(/*max_line_bytes=*/8);
  const Status status = splitter.Feed("good\nthis-line-is-too-long\n");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  const std::vector<std::string> lines = DrainLines(splitter);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "good");
}

/// Reads everything currently available from a non-blocking fd.
std::string DrainFd(int fd) {
  std::string text;
  char buffer[4096];
  while (true) {
    const IoResult got = ReadFd(fd, buffer, sizeof(buffer));
    if (got.state != IoState::kOk) {
      break;
    }
    text.append(buffer, got.bytes);
  }
  return text;
}

TEST(WriteBufferTest, CoalescesSmallLinesIntoOneWritev) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(SetNonBlocking(fds[0]).ok());

  WriteBuffer writes;
  std::string expected;
  for (int i = 0; i < 20; ++i) {
    std::string line = "{\"label\":\"job-" + std::to_string(i) + "\"}\n";
    expected += line;
    writes.Append(std::move(line));
  }
  ASSERT_LT(writes.queued_bytes(), WriteBuffer::kFlushThresholdBytes);
  EXPECT_FALSE(writes.FlushDue());

  EXPECT_EQ(writes.FlushTo(fds[1]), IoState::kOk);
  EXPECT_TRUE(writes.empty());
  // 20 lines left in one writev: that is the aggregation the buffer exists
  // for (one syscall, one segment, no tinygrams).
  EXPECT_EQ(writes.flush_calls(), 1u);
  EXPECT_EQ(writes.bytes_written(), expected.size());
  EXPECT_EQ(DrainFd(fds[0]), expected);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WriteBufferTest, FlushDueOncePastThreshold) {
  WriteBuffer writes;
  const std::string line(200, 'x');
  while (!writes.FlushDue()) {
    writes.Append(line + "\n");
  }
  EXPECT_GE(writes.queued_bytes(), WriteBuffer::kFlushThresholdBytes);
}

TEST(WriteBufferTest, PartialWriteResumesWithoutDuplicationOrLoss) {
  // A socketpair with a tiny send buffer forces genuine partial writes.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(SetNonBlocking(fds[0]).ok());
  ASSERT_TRUE(SetNonBlocking(fds[1]).ok());
  const int small = 4096;
  ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)),
            0);

  WriteBuffer writes;
  std::string expected;
  for (int i = 0; i < 64; ++i) {
    std::string line(1000, static_cast<char>('a' + (i % 26)));
    line += ":" + std::to_string(i) + "\n";
    expected += line;
    writes.Append(std::move(line));
  }

  std::string received;
  int flushes = 0;
  while (!writes.empty()) {
    const IoState state = writes.FlushTo(fds[1]);
    ASSERT_TRUE(state == IoState::kOk || state == IoState::kWouldBlock);
    received += DrainFd(fds[0]);  // make room, then resume the flush
    ASSERT_LT(++flushes, 1000) << "flush loop failed to make progress";
  }
  received += DrainFd(fds[0]);
  // Byte-exact equality proves the front-chunk offset never re-sends or
  // skips a byte across kWouldBlock boundaries.
  EXPECT_EQ(received, expected);
  EXPECT_EQ(writes.bytes_written(), expected.size());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WriteBufferTest, ReportsClosedPeer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(SetNonBlocking(fds[1]).ok());
  IgnoreSigpipe();
  ::close(fds[0]);

  WriteBuffer writes;
  writes.Append("response\n");
  // The first flush may succeed into the kernel buffer; keep pushing until
  // the hangup surfaces.
  IoState state = writes.FlushTo(fds[1]);
  for (int i = 0; i < 64 && state != IoState::kClosed; ++i) {
    writes.Append(std::string(4096, 'x') + "\n");
    state = writes.FlushTo(fds[1]);
  }
  EXPECT_EQ(state, IoState::kClosed);
  ::close(fds[1]);
}

TEST(IoTest, ListenLoopbackReportsKernelAssignedPort) {
  int port = 0;
  Result<int> listener = ListenLoopback(0, &port);
  ASSERT_TRUE(listener.ok()) << listener.status();
  EXPECT_GT(port, 0);

  Result<int> client = ConnectLoopback(port);
  ASSERT_TRUE(client.ok()) << client.status();

  IoResult accepted{};
  for (int i = 0; i < 100; ++i) {
    accepted = AcceptFd(listener.value());
    if (accepted.state != IoState::kWouldBlock) {
      break;
    }
    ::usleep(1000);
  }
  ASSERT_EQ(accepted.state, IoState::kOk);
  const int server_fd = static_cast<int>(accepted.bytes);

  const std::string hello = "hello\n";
  EXPECT_EQ(WriteFd(client.value(), hello.data(), hello.size()).state,
            IoState::kOk);
  char buffer[64];
  IoResult got{};
  // The server side is non-blocking (inherited O_NONBLOCK is not guaranteed,
  // so poll-wait until readable).
  for (int i = 0; i < 100; ++i) {
    got = ReadFd(server_fd, buffer, sizeof(buffer));
    if (got.state != IoState::kWouldBlock) {
      break;
    }
    ::usleep(1000);
  }
  ASSERT_EQ(got.state, IoState::kOk);
  EXPECT_EQ(std::string(buffer, got.bytes), hello);

  CloseFd(client.value());
  CloseFd(server_fd);
  CloseFd(listener.value());
}

// --- Idle-timeout vs in-flight work (DESIGN.md section 15) -------------------
//
// The idle timer measures inbound silence only. A connection whose request
// was admitted to the scheduler (pinned via SetIdleExempt) or whose response
// bytes are still queued must never be closed as "idle" — otherwise the
// answer the peer is legitimately waiting for would be dropped.

/// Harness for Server-level tests: tracks lines and closes seen by the
/// callbacks, and runs bounded Poll() loops.
struct ServerHarness {
  explicit ServerHarness(ServerOptions options) {
    ServerCallbacks callbacks;
    callbacks.on_line = [this](std::uint64_t conn_id, std::string line) {
      last_conn = conn_id;
      lines.push_back(std::move(line));
    };
    callbacks.on_close = [this](std::uint64_t conn_id) {
      closed.push_back(conn_id);
    };
    callbacks.on_protocol_error = [](std::uint64_t, const Status&) {};
    Result<std::unique_ptr<Server>> created =
        Server::Create(std::move(options), std::move(callbacks));
    QPLEX_CHECK(created.ok()) << created.status().ToString();
    server = std::move(created).value();
  }

  /// Polls for ~`total_ms` of wall time in small slices.
  void PollFor(int total_ms) {
    for (int elapsed = 0; elapsed < total_ms; elapsed += 5) {
      QPLEX_CHECK(server->Poll(5).ok());
    }
  }

  std::unique_ptr<Server> server;
  std::vector<std::string> lines;
  std::vector<std::uint64_t> closed;
  std::uint64_t last_conn = 0;
};

std::int64_t NetCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Get();
}

TEST(ServerIdleTest, PinnedConnectionSurvivesIdleTimeoutUntilUnpinned) {
  ServerOptions options;
  options.idle_timeout_ms = 40;
  ServerHarness harness(options);

  Result<int> client = ConnectLoopback(harness.server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(SetNonBlocking(client.value()).ok());
  const std::string request = "{\"label\":\"pinned\"}\n";
  ASSERT_EQ(WriteFd(client.value(), request.data(), request.size()).state,
            IoState::kOk);
  while (harness.lines.empty()) {
    harness.PollFor(5);
  }
  // The front-end admitted the request: pin the connection the way the
  // serve loop does while its outstanding-job count is non-zero.
  harness.server->SetIdleExempt(harness.last_conn, true);

  // Inbound silence for 4x the idle budget: the pinned connection — write
  // buffer empty, nothing readable — must survive.
  harness.PollFor(160);
  EXPECT_EQ(harness.server->active_connections(), 1u);
  EXPECT_TRUE(harness.closed.empty());

  // The job completes: the response goes out and the pin comes off. Only
  // now does the idle clock matter again — with no further inbound traffic
  // the connection closes, after the response flushed.
  harness.server->Send(harness.last_conn, "{\"status\":\"OK\"}\n");
  harness.server->SetIdleExempt(harness.last_conn, false);
  for (int i = 0; i < 200 && harness.closed.empty(); ++i) {
    harness.PollFor(5);
  }
  ASSERT_EQ(harness.closed.size(), 1u);
  EXPECT_EQ(harness.closed[0], harness.last_conn);
  const std::string delivered = DrainFd(client.value());
  EXPECT_NE(delivered.find("\"status\":\"OK\""), std::string::npos)
      << "idle close must not drop the flushed response";
  CloseFd(client.value());
}

TEST(ServerIdleTest, QueuedWriteBytesSpareAnIdleConnection) {
  ServerOptions options;
  options.idle_timeout_ms = 40;
  options.max_write_buffer_bytes = 64u << 20;  // do not trip the slow-reader cap
  ServerHarness harness(options);

  Result<int> client = ConnectLoopback(harness.server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(SetNonBlocking(client.value()).ok());
  const std::string request = "{\"label\":\"slow-reader\"}\n";
  ASSERT_EQ(WriteFd(client.value(), request.data(), request.size()).state,
            IoState::kOk);
  while (harness.lines.empty()) {
    harness.PollFor(5);
  }

  // Respond with more than the kernel socket buffer will take while the
  // client is not reading: flushes stay partial and queued bytes remain.
  const std::string big(8u << 20, 'x');
  harness.server->Send(harness.last_conn, big + "\n");
  const std::int64_t spared_before = NetCounter("net.connections.idle_spared");
  harness.PollFor(160);  // 4x the idle budget with zero inbound traffic
  ASSERT_TRUE(harness.server->has_queued_writes())
      << "precondition: the un-read response must still be queued";
  EXPECT_EQ(harness.server->active_connections(), 1u);
  EXPECT_TRUE(harness.closed.empty())
      << "a connection still owed queued response bytes was closed as idle";
  EXPECT_GT(NetCounter("net.connections.idle_spared"), spared_before);

  // The client drains everything; with the buffer empty and no pin, the
  // idle close finally proceeds — and the peer got every byte first.
  std::string delivered;
  while (harness.closed.empty()) {
    delivered += DrainFd(client.value());
    harness.PollFor(5);
  }
  while (true) {
    const std::string tail = DrainFd(client.value());
    if (tail.empty()) {
      break;
    }
    delivered += tail;
  }
  EXPECT_EQ(delivered.size(), big.size() + 1);
  CloseFd(client.value());
}

// --- Slow-reader cap ----------------------------------------------------------

TEST(ServerOverflowTest, SendPastTheWriteBufferCapClosesTheConnection) {
  const ServerOptions options;  // the default 8 MiB cap
  ServerHarness harness(options);

  Result<int> client = ConnectLoopback(harness.server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(SetNonBlocking(client.value()).ok());
  const std::string request = "{\"label\":\"never-reads\"}\n";
  ASSERT_EQ(WriteFd(client.value(), request.data(), request.size()).state,
            IoState::kOk);
  while (harness.lines.empty()) {
    harness.PollFor(5);
  }

  // The cap is checked when the response is queued, before any flush, so
  // the outcome does not depend on how much the kernel would have taken.
  const std::int64_t overflowed = NetCounter("net.connections.overflowed");
  const std::int64_t closed = NetCounter("net.connections.closed.overflow");
  harness.server->Send(harness.last_conn,
                       std::string(options.max_write_buffer_bytes, 'x') +
                           "\n");
  EXPECT_EQ(harness.closed, std::vector<std::uint64_t>{harness.last_conn});
  EXPECT_EQ(harness.server->active_connections(), 0u);
  EXPECT_EQ(NetCounter("net.connections.overflowed"), overflowed + 1);
  EXPECT_EQ(NetCounter("net.connections.closed.overflow"), closed + 1);
  CloseFd(client.value());
}

}  // namespace
}  // namespace qplex::net
