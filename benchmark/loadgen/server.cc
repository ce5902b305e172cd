#include "loadgen/server.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "net/io.h"
#include "obs/json.h"

namespace qplex::bench {
namespace {

constexpr double kStartTimeoutSeconds = 20;

/// The port once qplex_serve has written "<port>\n" to the port file.
bool ReadPortFile(const std::string& path, int* port) {
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  if (text.empty() || text.back() != '\n') {
    return false;
  }
  const char* end = text.data() + text.size() - 1;
  const auto [ptr, ec] = std::from_chars(text.data(), end, *port);
  return ec == std::errc{} && ptr == end && *port > 0;
}

/// Sends one health probe on a fresh connection and waits for its answer.
Status ProbeHealth(int port) {
  QPLEX_ASSIGN_OR_RETURN(const int fd, net::ConnectLoopback(port));
  const std::string probe = "{\"type\":\"health\",\"id\":\"setup\"}\n";
  const net::IoResult wrote = net::WriteFd(fd, probe.data(), probe.size());
  std::string answer;
  char buffer[4096];
  while (wrote.state == net::IoState::kOk &&
         answer.find('\n') == std::string::npos) {
    const net::IoResult got = net::ReadFd(fd, buffer, sizeof(buffer));
    if (got.state != net::IoState::kOk) {
      break;
    }
    answer.append(buffer, got.bytes);
  }
  net::CloseFd(fd);
  const std::size_t newline = answer.find('\n');
  if (newline == std::string::npos) {
    return Status::Internal("health probe got no answer");
  }
  QPLEX_ASSIGN_OR_RETURN(
      obs::JsonValue json,
      obs::JsonValue::Parse(std::string_view(answer).substr(0, newline)));
  const obs::JsonValue* status = json.Find("status");
  if (status == nullptr || !status->is_string() || status->AsString() != "OK") {
    return Status::Internal("health probe answered " + answer);
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<ServeProcess>> ServeProcess::Start(
    const std::string& binary, const std::string& run_dir) {
  if (::mkdir(run_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("cannot create " + run_dir);
  }
  std::unique_ptr<ServeProcess> server(new ServeProcess(run_dir));
  const std::string port_file = run_dir + "/port";
  const std::vector<std::string> args = {binary,
                                         "--listen",
                                         "0",
                                         "--port-file",
                                         port_file,
                                         "--workers",
                                         "4",
                                         "--journal",
                                         run_dir + "/wal.jsonl",
                                         "--events",
                                         run_dir + "/events.jsonl",
                                         "--metrics-json",
                                         run_dir + "/metrics.json"};
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const std::string log = run_dir + "/serve.log";

  const pid_t parent = ::getpid();
  Stopwatch watch;
  server->pid_ = ::fork();
  if (server->pid_ < 0) {
    return Status::Internal("fork failed");
  }
  if (server->pid_ == 0) {
    // A load generator killed by a signal runs no destructor; the server
    // must not outlive it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) {
      ::_exit(127);
    }
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
    }
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  while (!ReadPortFile(port_file, &server->port_)) {
    int status = 0;
    if (::waitpid(server->pid_, &status, WNOHANG) == server->pid_) {
      server->pid_ = -1;
      return Status::Internal("qplex_serve exited during start-up; see " + log);
    }
    if (watch.ElapsedSeconds() > kStartTimeoutSeconds) {
      return Status::DeadlineExceeded("qplex_serve did not start; see " + log);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  QPLEX_RETURN_IF_ERROR(ProbeHealth(server->port_));
  server->ready_seconds_ = watch.ElapsedSeconds();
  return server;
}

ServeProcess::~ServeProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

Result<ServeUsage> ServeProcess::Stop(double timeout_seconds) {
  if (pid_ <= 0) {
    return Status::Internal("server is not running");
  }
  ::kill(pid_, SIGTERM);
  Stopwatch watch;
  int status = 0;
  rusage usage{};
  while (true) {
    const pid_t done = ::wait4(pid_, &status, WNOHANG, &usage);
    if (done == pid_) {
      break;
    }
    if (done < 0 && errno != EINTR) {
      return Status::Internal("wait4 failed");
    }
    if (watch.ElapsedSeconds() > timeout_seconds) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
      return Status::DeadlineExceeded("qplex_serve did not drain in time");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::ostringstream message;
    message << "qplex_serve exited abnormally (status " << status << "); see "
            << run_dir_ << "/serve.log";
    return Status::Internal(message.str());
  }
  ServeUsage result;
  auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  result.cpu_seconds = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  result.peak_rss_mib = usage.ru_maxrss / 1024.0;
  return result;
}

}  // namespace qplex::bench
