// Wall-clock phase instrumentation.
//
// The driver records how long each analysis phase (PFG construction,
// dominators, MHP, conflict edges, mutex structures, SSA, CSSA, CSSAME)
// takes, and `cssamec --stats` surfaces the breakdown so hot-path
// regressions show up as numbers instead of hunches. Stopwatch::lap()
// reads and restarts in one call, which is exactly the shape a phase
// pipeline needs.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace cssame::support {

/// One named phase and its wall-clock cost.
struct PhaseTime {
  std::string name;
  double seconds = 0.0;

  [[nodiscard]] std::string str() const {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%-16s %9.3f ms", name.c_str(),
                  seconds * 1e3);
    return buf;
  }
};

/// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds since construction or the last lap()/reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Reads the elapsed time and restarts the watch.
  double lap() {
    const Clock::time_point now = Clock::now();
    const double s = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return s;
  }

  void reset() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace cssame::support
