#include "net/io.h"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace qplex::net {
namespace {

IoResult ClassifyWriteFailure() {
  if (errno == EAGAIN || errno == EWOULDBLOCK) {
    return {IoState::kWouldBlock, 0, errno};
  }
  if (errno == EPIPE || errno == ECONNRESET) {
    return {IoState::kClosed, 0, errno};
  }
  return {IoState::kError, 0, errno};
}

}  // namespace

IoResult ReadFd(int fd, char* buffer, std::size_t capacity) {
  while (true) {
    const ssize_t n = ::read(fd, buffer, capacity);
    if (n > 0) {
      return {IoState::kOk, static_cast<std::size_t>(n), 0};
    }
    if (n == 0) {
      return {IoState::kClosed, 0, 0};
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoState::kWouldBlock, 0, errno};
    }
    if (errno == ECONNRESET) {
      return {IoState::kClosed, 0, errno};
    }
    return {IoState::kError, 0, errno};
  }
}

IoResult WriteFd(int fd, const char* data, std::size_t size) {
  while (true) {
    const ssize_t n = ::write(fd, data, size);
    if (n >= 0) {
      return {IoState::kOk, static_cast<std::size_t>(n), 0};
    }
    if (errno == EINTR) {
      continue;
    }
    return ClassifyWriteFailure();
  }
}

IoResult WritevFd(int fd, const iovec* chunks, int count) {
  while (true) {
    const ssize_t n = ::writev(fd, chunks, count);
    if (n >= 0) {
      return {IoState::kOk, static_cast<std::size_t>(n), 0};
    }
    if (errno == EINTR) {
      continue;
    }
    return ClassifyWriteFailure();
  }
}

int PollFds(pollfd* fds, std::size_t count, int timeout_ms) {
  while (true) {
    const int ready = ::poll(fds, static_cast<nfds_t>(count), timeout_ms);
    if (ready >= 0) {
      return ready;
    }
    if (errno == EINTR) {
      // Report "nothing ready" instead of re-arming with a stale timeout;
      // the caller's loop re-evaluates deadlines and signal flags first.
      return 0;
    }
    return -1;
  }
}

IoResult AcceptFd(int listen_fd) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      return {IoState::kOk, static_cast<std::size_t>(fd), 0};
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      return {IoState::kWouldBlock, 0, errno};
    }
    return {IoState::kError, 0, errno};
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal("fcntl(O_NONBLOCK) failed: " +
                            std::string(std::strerror(errno)));
  }
  return Status::Ok();
}

void IgnoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }

void CloseFd(int fd) {
  while (::close(fd) < 0 && errno == EINTR) {
  }
}

Result<std::string> SlurpFile(const std::string& path) {
  const bool from_stdin = path == "-";
  int fd = STDIN_FILENO;
  if (!from_stdin) {
    do {
      fd = ::open(path.c_str(), O_RDONLY);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) {
      return Status::NotFound("cannot open file: " + path);
    }
  }
  std::string text;
  char buffer[64 * 1024];
  IoResult got;
  while ((got = ReadFd(fd, buffer, sizeof(buffer))).state == IoState::kOk) {
    text.append(buffer, got.bytes);
  }
  if (!from_stdin) {
    CloseFd(fd);
  }
  if (got.state != IoState::kClosed) {
    return Status::Internal("read failed on " + path);
  }
  return text;
}

Result<int> ListenLoopback(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket() failed: " +
                            std::string(std::strerror(errno)));
  }
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string reason = std::strerror(errno);
    CloseFd(fd);
    return Status::Internal("bind(127.0.0.1:" + std::to_string(port) +
                            ") failed: " + reason);
  }
  if (::listen(fd, SOMAXCONN) < 0) {
    const std::string reason = std::strerror(errno);
    CloseFd(fd);
    return Status::Internal("listen() failed: " + reason);
  }
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) < 0) {
      const std::string reason = std::strerror(errno);
      CloseFd(fd);
      return Status::Internal("getsockname() failed: " + reason);
    }
    *bound_port = static_cast<int>(ntohs(actual.sin_port));
  }
  if (const Status status = SetNonBlocking(fd); !status.ok()) {
    CloseFd(fd);
    return status;
  }
  return fd;
}

Result<int> ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket() failed: " +
                            std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    const std::string reason = std::strerror(errno);
    CloseFd(fd);
    return Status::Internal("connect(127.0.0.1:" + std::to_string(port) +
                            ") failed: " + reason);
  }
  return fd;
}

}  // namespace qplex::net
