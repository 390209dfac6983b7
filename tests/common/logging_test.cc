#include "common/logging.h"

#include <gtest/gtest.h>

#include "common/stopwatch.h"

namespace bhpo {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = GetLogLevel(); }
  void TearDown() override { SetLogLevel(saved_); }

  // Captures stderr around a callback.
  template <typename Fn>
  std::string CaptureStderr(Fn&& fn) {
    ::testing::internal::CaptureStderr();
    fn();
    return ::testing::internal::GetCapturedStderr();
  }

  LogLevel saved_;
};

TEST_F(LoggingTest, MessagesBelowLevelAreDropped) {
  SetLogLevel(LogLevel::kWarning);
  std::string out = CaptureStderr([] { BHPO_LOG(kInfo) << "hidden"; });
  EXPECT_TRUE(out.empty());
}

TEST_F(LoggingTest, MessagesAtLevelAreEmitted) {
  SetLogLevel(LogLevel::kWarning);
  std::string out = CaptureStderr([] { BHPO_LOG(kWarning) << "visible"; });
  EXPECT_NE(out.find("visible"), std::string::npos);
  EXPECT_NE(out.find("[WARN"), std::string::npos);
}

TEST_F(LoggingTest, LevelChangeTakesEffect) {
  SetLogLevel(LogLevel::kDebug);
  std::string out = CaptureStderr([] { BHPO_LOG(kDebug) << "debug on"; });
  EXPECT_NE(out.find("debug on"), std::string::npos);
  SetLogLevel(LogLevel::kError);
  out = CaptureStderr([] { BHPO_LOG(kWarning) << "now hidden"; });
  EXPECT_TRUE(out.empty());
}

TEST_F(LoggingTest, LogLineCarriesFileBasename) {
  SetLogLevel(LogLevel::kInfo);
  std::string out = CaptureStderr([] { BHPO_LOG(kError) << "where"; });
  EXPECT_NE(out.find("logging_test.cc"), std::string::npos);
  EXPECT_EQ(out.find("/root"), std::string::npos);  // Basename only.
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  double t0 = watch.ElapsedSeconds();
  EXPECT_GE(t0, 0.0);
  // Busy-wait a hair to get strictly positive progression.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  double t1 = watch.ElapsedSeconds();
  EXPECT_GE(t1, t0);
}

}  // namespace
}  // namespace bhpo
