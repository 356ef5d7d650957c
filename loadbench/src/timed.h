// The timed run: one client, one request in flight, against a real
// cssamed spawned with its default options.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "loadbench/src/check.h"
#include "loadbench/src/probe.h"
#include "loadbench/src/workloads.h"

namespace loadbench {

struct RunConfig {
  Workload workload = Workload::LockRegions;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string cssamed;   ///< daemon binary
  std::string spawnProbe;  ///< the empty program set-up is taken against
  std::string repoRoot;  ///< checkout root (examples/programs)
  std::string workDir;   ///< scratch directory for the socket and traces
};

/// Daemons spawned per run to measure set-up. A single spawn takes 3 to
/// 10 ms on a shared VM; the median of many is steady within a run.
constexpr int kSetups = 41;
/// A request without an answer after this long is a failed operation.
constexpr int kRequestTimeoutMs = 30000;

struct TimedRun {
  /// Every request sent, in order: one set-up request per spawn, then
  /// the warm-up, then the timed requests.
  std::vector<Request> requests;
  std::vector<Exchange> exchanges;
  std::size_t untimed = 0;         ///< leading exchanges outside the timing
  /// Client-side latency of exchanges untimed, untimed + 1, ...
  std::vector<double> latencyMs;
  std::vector<double> setupSeconds;  ///< spawn to first answer, per spawn
  /// Fork to exit of the spawn probe, taken just before each spawn.
  std::vector<double> spawnProbeSeconds;
  double roundTripSeconds = 0;     ///< sum of the timed round trips
  double cpuSeconds = 0;           ///< daemon CPU over the timed phase
  double peakRssMb = 0;            ///< daemon VmHWM at the end
  bool transportFailed = false;
  int cpu = -1;  ///< the CPU client and daemons ran on; -1 if not pinned
  HostProbe probe;
};

/// Spawns the daemons, measures set-up, warms up and drives the timed
/// phase for cfg.seconds, with the client and every daemon pinned to one
/// CPU; stops every daemon and restores the CPU mask before returning.
[[nodiscard]] TimedRun runTimed(const RunConfig& cfg);

/// Checks every exchange of a timed run (checkExchanges). A daemon that
/// never accepted its connection is an undelivered exchange and fails
/// there; a timed phase without requests, and a spawn probe that did not
/// run, are one more failed operation each.
[[nodiscard]] CheckSummary checkTimedRun(
    const TimedRun& run, unsigned threads,
    const ReferenceFn& reference = referenceRun);

}  // namespace loadbench
