#ifndef QPLEX_BENCHMARK_CLIENT_H_
#define QPLEX_BENCHMARK_CLIENT_H_

/// \file
/// The load generator: one thread, one ppoll() loop, at most four loopback
/// connections to qplex_serve. Requests are taken from the workload stream in
/// index order; each response is matched to its request by its label and
/// verified on arrival.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "loadgen/workload.h"
#include "net/frame.h"

namespace qplex::bench {

/// One answered request. Times are seconds on the client's clock.
struct Sample {
  std::uint64_t index = 0;
  int phase = 0;  ///< the phase it was sent in
  double sent = 0;
  double done = 0;
  Check check;
  double latency_ms() const { return (done - sent) * 1e3; }
};

class LoadClient {
 public:
  /// Opens `connections` connections to the server on `port`.
  static Result<std::unique_ptr<LoadClient>> Connect(int port, int connections,
                                                     const Workload* workload);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Seconds since the client was created.
  double Now() const;

  /// Closed loop for `seconds`: every connection keeps `depth` requests
  /// outstanding (depth 1 is lockstep).
  Status RunClosed(int phase, int depth, double seconds);
  /// Waits for every outstanding response; a response still missing after
  /// `timeout_seconds` fails the run.
  Status Drain(double timeout_seconds);
  /// Sends the next request on the first connection and waits for its
  /// answer.
  Status SendAndWait(int phase, double timeout_seconds);

  const std::vector<Sample>& samples() const { return samples_; }
  /// The most recent response line, as the server sent it.
  const std::string& last_response() const { return last_response_; }
  std::uint64_t sent() const { return next_index_; }

 private:
  struct Connection {
    int fd = -1;
    int outstanding = 0;
    std::string out;  ///< bytes not yet accepted by the kernel
    net::FrameSplitter frames;
  };
  struct Pending {
    int conn = 0;
    int phase = 0;
    double sent = 0;
  };

  explicit LoadClient(const Workload* workload) : workload_(workload) {}
  void Send(int conn, int phase);
  Status Flush(Connection& conn);
  /// One ppoll() round, waking no later than `wake_at`.
  Status PollOnce(double wake_at);
  Status Complete(const std::string& line);

  const Workload* workload_;
  std::vector<Connection> conns_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::vector<Sample> samples_;
  std::string last_response_;
  std::uint64_t next_index_ = 0;
  std::int64_t epoch_ns_ = 0;
};

}  // namespace qplex::bench

#endif  // QPLEX_BENCHMARK_CLIENT_H_
