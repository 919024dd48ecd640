// Minimal leveled logging to stderr, plus a wall-clock timer.
//
// Usage:
//   SAVG_LOG(INFO) << "solved LP in " << t.ElapsedSeconds() << "s";
// Levels below the global threshold are compiled into a no-op stream.

#pragma once

#include <chrono>
#include <sstream>
#include <string>

namespace savg {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Global minimum level actually emitted (default: kWarning so library code
/// stays quiet in tests/benches unless callers opt in).
void SetLogLevel(LogLevel level);

namespace internal {

/// Accumulates one log line and flushes it to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

#define SAVG_LOG(level)                                            \
  ::savg::internal::LogMessage(::savg::LogLevel::k##level, __FILE__, \
                               __LINE__)

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}
  void Reset() { start_ = Clock::now(); }
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace savg
