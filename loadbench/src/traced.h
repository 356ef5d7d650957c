// The traced run: replays a workload's request list in-process on one
// thread and times the calls into each layer's public functions.
//
// Spans (name, layer, start, end, parent, request id) stay in memory and
// are written at exit as Chrome trace-event JSON, which opens in Perfetto
// or chrome://tracing. A layer's self time is its span minus its
// children. The program itself is not instrumented: every span wraps a
// public call made from here, and driver::analyze's phase children come
// from the existing Compilation::phaseTimes().
#pragma once

#include <string>
#include <vector>

#include "loadbench/src/timed.h"

namespace loadbench {

struct Metric {
  std::string name, unit;
  double value = 0;
};

struct TracedRun {
  std::vector<Metric> metrics;  ///< every per-layer metric, by name
  std::size_t requests = 0;     ///< requests replayed after warm-up
  std::size_t attempted = 0;    ///< every request replayed, warm-up too
  std::size_t failed = 0;       ///< error envelopes or transport failures
  std::vector<std::string> failures;
  std::string tracePath;        ///< Chrome trace-event JSON written
  HostProbe probe;
};

/// Replays the request list of cfg.workload (the timed run's stream for
/// cfg.seed) in-process, with a real cssamed alongside for the transport
/// layer, then the lock-region growth replay at k and 2k.
[[nodiscard]] TracedRun runTraced(const RunConfig& cfg);

}  // namespace loadbench
