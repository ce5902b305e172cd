#ifndef QPLEX_TESTS_SCRATCH_DIR_H_
#define QPLEX_TESTS_SCRATCH_DIR_H_

// Per-test scratch directories. gtest_discover_tests runs every test case in
// its own process and ctest -j runs those processes in parallel, so a fixed
// path such as temp_directory_path()/"qplex_cli_smoke" is shared by cases
// running at the same moment: one case truncates a file that another case's
// child process is still reading. ScratchDir() instead names the directory
// after the running test (suite, test name and pid). The first call in a
// test starts it empty; the directory of a test that passes is removed when
// the test ends, a failing test's is kept for inspection.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace qplex {
namespace scratch_internal {

inline std::filesystem::path ScratchPath(const ::testing::TestInfo& test) {
  std::string name = "qplex_" + std::string(test.test_suite_name()) + "." +
                     test.name() + "." + std::to_string(::getpid());
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
  return std::filesystem::temp_directory_path() / name;
}

class ScratchCleaner : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo& test) override {
    if (test.result()->Passed()) {
      std::error_code ignored;
      std::filesystem::remove_all(ScratchPath(test), ignored);
    }
  }
};

inline const bool kCleanerInstalled = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new ScratchCleaner);
  return true;
}();

}  // namespace scratch_internal

/// The running test's own scratch directory, created on demand.
inline std::filesystem::path ScratchDir() {
  const std::filesystem::path dir = scratch_internal::ScratchPath(
      *::testing::UnitTest::GetInstance()->current_test_info());
  static std::filesystem::path emptied;  // wiped once per test
  if (emptied != dir) {
    std::filesystem::remove_all(dir);
    emptied = dir;
  }
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace qplex

#endif  // QPLEX_TESTS_SCRATCH_DIR_H_
