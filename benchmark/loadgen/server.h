#ifndef QPLEX_BENCHMARK_SERVER_H_
#define QPLEX_BENCHMARK_SERVER_H_

/// \file
/// The qplex_serve process under test. Every workload runs the same fixed
/// configuration (documented in the README, deliberately not a knob):
///
///   qplex_serve --listen 0 --port-file <run>/port --workers 4
///               --journal <run>/wal.jsonl --events <run>/events.jsonl
///               --metrics-json <run>/metrics.json
///
/// with everything else at its default (cache on, queue-cap 64, breakers,
/// watchdog and shedding off).

#include <sys/types.h>

#include <memory>
#include <string>

#include "common/status.h"

namespace qplex::bench {

/// What wait4() reported for the server after its graceful drain.
struct ServeUsage {
  double cpu_seconds = 0;   ///< ru_utime + ru_stime
  double peak_rss_mib = 0;  ///< ru_maxrss
};

class ServeProcess {
 public:
  /// Starts `binary` with its artifacts under `run_dir` (created) and waits
  /// until it answers a {"type":"health"} probe.
  static Result<std::unique_ptr<ServeProcess>> Start(
      const std::string& binary, const std::string& run_dir);

  /// Kills and reaps a server that was not stopped.
  ~ServeProcess();
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  int port() const { return port_; }
  const std::string& run_dir() const { return run_dir_; }
  /// Seconds from fork() to the answered health probe.
  double ready_seconds() const { return ready_seconds_; }

  /// SIGTERM (graceful drain), then wait4() for its rusage. Fails when the
  /// server does not exit within `timeout_seconds` (it is then killed) or
  /// exits non-zero.
  Result<ServeUsage> Stop(double timeout_seconds);

 private:
  explicit ServeProcess(std::string run_dir) : run_dir_(std::move(run_dir)) {}

  std::string run_dir_;
  pid_t pid_ = -1;
  int port_ = 0;
  double ready_seconds_ = 0;
};

}  // namespace qplex::bench

#endif  // QPLEX_BENCHMARK_SERVER_H_
