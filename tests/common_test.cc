#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/table.h"

namespace qplex {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad k");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad k");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
}

Result<int> ParsePositive(int x) {
  if (x <= 0) {
    return Status::InvalidArgument("not positive");
  }
  return x;
}

TEST(ParseNumberTest, AcceptsWholeFiniteNumbersOnly) {
  EXPECT_EQ(ParseNumber<int>("--k", "12").value(), 12);
  EXPECT_EQ(ParseNumber<std::uint64_t>("--seed", "7").value(), 7u);
  EXPECT_EQ(ParseNumber<double>("--slo-ms", "2.5e1").value(), 25.0);
  for (const char* bad : {"", "x", "2x", " 3", "99999999999999999999"}) {
    EXPECT_FALSE(ParseNumber<int>("--k", bad).ok()) << "'" << bad << "'";
  }
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity", "1e999"}) {
    const Result<double> parsed = ParseNumber<double>("option 'alpha'", bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("option 'alpha'"),
              std::string::npos);
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = ParsePositive(5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 5);
  EXPECT_EQ(result.value_or(-1), 5);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = ParsePositive(-3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.value_or(-1), -1);
}

Status UsesReturnIfError(bool fail) {
  QPLEX_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::Ok());
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UsesReturnIfError(false).ok());
  EXPECT_EQ(UsesReturnIfError(true).code(), StatusCode::kInternal);
}

Result<int> UsesAssignOrReturn(int x) {
  QPLEX_ASSIGN_OR_RETURN(int value, ParsePositive(x));
  return value + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(UsesAssignOrReturn(4).value(), 5);
  EXPECT_FALSE(UsesAssignOrReturn(0).ok());
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.Next() == b.Next());
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t x = rng.UniformInt(10);
    EXPECT_LT(x, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t x = rng.UniformInt(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.UniformInt(6));
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    hits += rng.Bernoulli(0.3);
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(watch.ElapsedNanos(), 0);
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
}

TEST(StopwatchTest, UnitsAreConsistent) {
  Stopwatch watch;
  const double seconds = watch.ElapsedSeconds();
  const double millis = watch.ElapsedMillis();
  EXPECT_GE(millis, seconds * 1e3);
  EXPECT_LT(millis, (seconds + 1.0) * 1e3);
}

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline deadline = Deadline::Infinite();
  EXPECT_FALSE(deadline.Expired());
  EXPECT_EQ(deadline.RemainingSeconds(),
            std::numeric_limits<double>::infinity());
}

TEST(DeadlineTest, TinyBudgetExpires) {
  Deadline deadline = Deadline::After(1e-9);
  volatile double sink = 0;
  for (int i = 0; i < 10000; ++i) {
    sink = sink + i;
  }
  EXPECT_TRUE(deadline.Expired());
}

TEST(TableTest, AlignsColumns) {
  AsciiTable table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "12345"});
  const std::string text = table.ToString();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("12345"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(text.find("---"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
}

TEST(TableTest, FormatMicros) {
  EXPECT_EQ(FormatMicros(353.71), "353.7");
  EXPECT_EQ(FormatMicros(34.62), "34.62");
  EXPECT_EQ(FormatMicros(2.5e6), "2.5e+06");
}

TEST(TableTest, FormatErrorBound) {
  EXPECT_EQ(FormatErrorBound(0.0), "0");
  EXPECT_EQ(FormatErrorBound(3.2e-7), "<10^-6");
  EXPECT_EQ(FormatErrorBound(9.9e-5), "<10^-4");
  EXPECT_EQ(FormatErrorBound(2.0), "1");
}

// -- ThreadPool / ParallelFor / ParallelReduce --------------------------------

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.Run(kTasks, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, ZeroWorkersDegeneratesToInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  std::vector<int> order;
  // No workers: tasks must run inline on the caller, in index order.
  pool.Run(5, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, MaxConcurrencyOneRunsInlineInOrder) {
  ThreadPool pool(4);
  std::vector<int> order;
  pool.Run(5, [&](int i) { order.push_back(i); }, /*max_concurrency=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp) {
  ThreadPool pool(2);
  pool.Run(0, [](int) { FAIL() << "task ran for an empty batch"; });
}

TEST(ThreadPoolTest, FirstExceptionPropagatesAfterBatchDrains) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.Run(50,
               [&](int i) {
                 if (i == 7) {
                   throw std::runtime_error("task 7 failed");
                 }
                 completed.fetch_add(1);
               }),
      std::runtime_error);
  // The failing task does not cancel the rest of the batch.
  EXPECT_EQ(completed.load(), 49);
}

TEST(ThreadPoolTest, NestedRunExecutesInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  pool.Run(8, [&](int outer) {
    // A nested Run on the same (or any) pool must not re-enter the batch
    // protocol; it degrades to inline execution on this thread.
    pool.Run(8, [&](int inner) { hits[outer * 8 + inner].fetch_add(1); });
  });
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "cell " << i;
  }
}

TEST(ParallelForTest, CoversRangeOnceWithRaggedLastChunk) {
  // More than one chunk, not a multiple of the chunk size.
  const std::uint64_t size = 3 * kParallelChunkSize + 17;
  std::vector<int> visits(size, 0);
  ParallelFor(4, size, [&](std::uint64_t begin, std::uint64_t end) {
    EXPECT_EQ(begin % kParallelChunkSize, 0u);
    EXPECT_LE(end - begin, kParallelChunkSize);
    for (std::uint64_t i = begin; i < end; ++i) {
      ++visits[i];  // chunks are disjoint, so unsynchronized writes are safe
    }
  });
  for (std::uint64_t i = 0; i < size; ++i) {
    ASSERT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeIsANoOp) {
  ParallelFor(4, 0, [](std::uint64_t, std::uint64_t) {
    FAIL() << "body ran for an empty range";
  });
}

TEST(ParallelForTest, BodyExceptionPropagates) {
  const std::uint64_t size = 4 * kParallelChunkSize;
  EXPECT_THROW(ParallelFor(4, size,
                           [&](std::uint64_t begin, std::uint64_t) {
                             if (begin == 2 * kParallelChunkSize) {
                               throw std::runtime_error("chunk failed");
                             }
                           }),
               std::runtime_error);
}

TEST(ParallelReduceTest, BitIdenticalAcrossThreadCounts) {
  // Floating-point sums are not associative, so this only holds because the
  // chunk boundaries and the combine order are fixed: the single- and
  // multi-threaded results must match to the last bit.
  const std::uint64_t size = 5 * kParallelChunkSize + 331;
  auto chunk_sum = [](std::uint64_t begin, std::uint64_t end) {
    double sum = 0.0;
    for (std::uint64_t i = begin; i < end; ++i) {
      sum += std::sin(static_cast<double>(i)) * 1e-3;
    }
    return sum;
  };
  auto combine = [](double a, double b) { return a + b; };
  const double serial = ParallelReduce(1, size, 0.0, chunk_sum, combine);
  for (int threads : {2, 4, 7}) {
    const double parallel =
        ParallelReduce(threads, size, 0.0, chunk_sum, combine);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

TEST(ParallelReduceTest, EmptyRangeReturnsInit) {
  const double result = ParallelReduce(
      4, 0, 42.0, [](std::uint64_t, std::uint64_t) { return 1.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(result, 42.0);
}

TEST(ParallelReduceTest, CombinesInChunkOrder) {
  // Concatenating per-chunk strings exposes any out-of-order combine.
  const std::uint64_t size = 4 * kParallelChunkSize;
  const std::string result = ParallelReduce(
      4, size, std::string(),
      [](std::uint64_t begin, std::uint64_t) {
        return std::to_string(begin / kParallelChunkSize);
      },
      [](std::string acc, const std::string& part) { return acc + part; });
  EXPECT_EQ(result, "0123");
}

}  // namespace
}  // namespace qplex
