// Shared helpers for the experiment benchmarks: each bench binary prints
// a paper-vs-measured table for its figure before running the
// google-benchmark timing loops, so `./bench_*` regenerates both the
// qualitative result and its compile-time cost.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>

namespace cssame::benchutil {

inline void tableHeader(const char* experiment) {
  std::printf("== %s ==\n", experiment);
  std::printf("%-44s | %-18s | %-18s | %s\n", "metric", "paper", "measured",
              "ok");
  std::printf("%.44s-+-%.18s-+-%.18s-+---\n",
              "--------------------------------------------",
              "------------------", "------------------");
}

inline void tableRow(const char* metric, const char* paper,
                     long long measured, bool ok) {
  std::printf("%-44s | %-18s | %-18lld | %s\n", metric, paper, measured,
              ok ? "yes" : "NO");
}

inline void tableRowStr(const char* metric, const char* paper,
                        const char* measured, bool ok) {
  std::printf("%-44s | %-18s | %-18s | %s\n", metric, paper, measured,
              ok ? "yes" : "NO");
}

/// Runs the verification table, then hands control to google-benchmark.
/// Returns nonzero if any table row failed, so the harness can flag
/// regressions.
inline int runBenchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace cssame::benchutil
