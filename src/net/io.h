#ifndef QPLEX_NET_IO_H_
#define QPLEX_NET_IO_H_

/// \file
/// EINTR-safe POSIX I/O wrappers shared by the server event loop and the
/// loopback client. Every wrapper retries the underlying syscall while it
/// fails with EINTR, so a signal landing mid-read (SIGTERM during a graceful
/// drain, a profiler's SIGPROF) degrades to a retried call instead of a
/// spurious I/O error. Would-block conditions are surfaced as distinct
/// results, never as errors — the callers run non-blocking descriptors.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

struct iovec;   // <sys/uio.h>
struct pollfd;  // <poll.h>

namespace qplex::net {

/// Outcome of one non-blocking read/write attempt.
enum class IoState : std::uint8_t {
  kOk,          ///< progress was made; `bytes` is valid
  kWouldBlock,  ///< EAGAIN/EWOULDBLOCK: retry after the next poll readiness
  kClosed,      ///< orderly EOF (read) or the peer vanished (EPIPE/ECONNRESET)
  kError,       ///< anything else; `errno_value` names it
};

struct IoResult {
  IoState state = IoState::kError;
  std::size_t bytes = 0;
  int errno_value = 0;
};

/// read(fd) with EINTR retry. kClosed on EOF.
IoResult ReadFd(int fd, char* buffer, std::size_t capacity);

/// write(fd) with EINTR retry. A disconnected peer (EPIPE, ECONNRESET) is
/// kClosed, not kError: client hangups are per-connection data, never a
/// server fault. Requires SIGPIPE to be ignored (IgnoreSigpipe below).
IoResult WriteFd(int fd, const char* data, std::size_t size);

/// writev(fd) over `count` chunks with EINTR retry; same contract as WriteFd.
IoResult WritevFd(int fd, const iovec* chunks, int count);

/// poll() with EINTR retry. Returns the number of ready descriptors (0 on
/// timeout); a genuine failure is < 0 with errno preserved. On EINTR the
/// remaining timeout is NOT recomputed — callers run their own deadline
/// arithmetic every loop iteration anyway, and returning early just makes
/// the loop re-check its signal flags sooner, which is exactly what the
/// interrupting signal wanted.
int PollFds(pollfd* fds, std::size_t count, int timeout_ms);

/// accept(listen_fd) with EINTR retry. kWouldBlock when the backlog is empty;
/// transient per-connection failures (ECONNABORTED — the peer gave up while
/// queued) also report kWouldBlock so the accept loop simply moves on.
/// On kOk, `bytes` carries the new descriptor.
IoResult AcceptFd(int listen_fd);

/// O_NONBLOCK on `fd`.
Status SetNonBlocking(int fd);

/// Process-wide SIGPIPE -> SIG_IGN, so a client disconnecting mid-write
/// surfaces as EPIPE on that connection's write instead of killing the
/// process. Idempotent.
void IgnoreSigpipe();

/// close(fd), retrying EINTR (POSIX leaves the fd state unspecified on
/// EINTR, but retrying is the portable-in-practice Linux behaviour and the
/// descriptor is never reused concurrently here).
void CloseFd(int fd);

/// Reads a whole file, or stdin for "-", through ReadFd, so a signal landing
/// mid-read retries instead of truncating the input. NotFound when the file
/// cannot be opened.
Result<std::string> SlurpFile(const std::string& path);

/// Creates a non-blocking loopback listener on `port` (0 = kernel-assigned)
/// with SO_REUSEADDR. Returns the listening fd; `*bound_port` receives the
/// actual port.
Result<int> ListenLoopback(int port, int* bound_port);

/// Blocking loopback connect for the client side.
Result<int> ConnectLoopback(int port);

}  // namespace qplex::net

#endif  // QPLEX_NET_IO_H_
