// A real cssamed child process and one client connection to it.
#pragma once

#include <sys/types.h>

#include <string>

#include "src/support/io.h"

namespace loadbench {

/// Spawns `cssamed --socket=PATH` with its default options (in-memory
/// cache, one analysis worker) and owns it: the destructor stops and
/// reaps it, so no daemon outlives the benchmark.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socketPath);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connects, retrying while the daemon starts. False on timeout or if
  /// the daemon died.
  [[nodiscard]] bool connect(int timeoutMs);

  /// Sends one request and reads its response, one request in flight.
  /// False (with `response` unspecified) on a transport failure or when
  /// no response arrives within `timeoutMs`.
  [[nodiscard]] bool roundTrip(const std::string& payload,
                               std::string& response, int timeoutMs);

  /// The daemon's user+system CPU time so far, from /proc/<pid>/stat.
  [[nodiscard]] double cpuSeconds() const;
  /// The daemon's peak resident set (VmHWM), in MiB.
  [[nodiscard]] double peakRssMb() const;

  /// SIGTERM, then SIGKILL after a grace period; reaps the child.
  void stop();

  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  std::string socketPath_;
  cssame::support::FdStream conn_;
};

/// Spawns `binary` as the daemon is spawned (same child set-up, no
/// arguments), waits for it to exit and returns the seconds from fork to
/// exit; negative when it could not be run or exited nonzero.
[[nodiscard]] double spawnAndWaitSeconds(const std::string& binary);

}  // namespace loadbench
