// The supervised multi-process analysis fleet behind `cssamed --fleet=N`.
//
// One gateway process owns the Unix socket; N forked workers each run a
// full in-process Server over a private socketpair channel, all sharing
// the on-disk cache tier. The gateway routes each request by rendezvous
// (highest-random-weight) hashing of its content fingerprint, so an
// identical request always lands on the same live worker and reuses its
// memory tiers — and when the worker set changes, only the keys owned by
// the dead worker move.
//
// The point of the fleet is fault isolation: an analysis crash (or an
// operator's SIGKILL) takes down one worker, not the service. The
// gateway supervises — it reaps dead children, probes liveness with
// periodic `stats` health checks, restarts with exponential backoff, and
// opens a per-slot circuit breaker when restarts themselves keep
// failing — and degrades each request gracefully: worker timeout or
// mid-request death retries once on a sibling, then falls back to an
// in-gateway Server sharing the same cache directory, so the client sees
// the byte-identical response it would have gotten from a healthy
// worker. Only when even the fallback fails does an error envelope
// surface. The full failure-mode matrix is docs/ROBUSTNESS.md; the
// architecture diagram is docs/SERVICE.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/service/server.h"
#include "src/support/counters.h"
#include "src/support/io.h"

namespace cssame::service {

struct FleetOptions {
  /// Per-worker server configuration. `server.cacheDir` is shared by all
  /// workers and the gateway's fallback server (the disk tier's
  /// tmp+rename writes and pid-aware sweep make that safe).
  ServerOptions server;
  /// Worker process count (clamped to at least 1).
  unsigned workers = 4;
  /// Wall-clock budget for one routed request (write + analyze + read).
  /// Negative disables the bound.
  int requestDeadlineMs = 30000;
  /// Supervisor tick: how often idle workers are health-probed and
  /// backoff/breaker timers are re-examined.
  int probeIntervalMs = 250;
  /// Budget for one health probe and for the post-fork handshake probe.
  int probeDeadlineMs = 2000;
  /// Restart backoff: base * 2^(failures-1), clamped to the ceiling.
  int backoffBaseMs = 25;
  int backoffCeilingMs = 2000;
  /// Consecutive failures on one slot before its circuit breaker opens;
  /// the breaker half-opens (one retry) after the cooldown.
  unsigned breakerThreshold = 5;
  int breakerCooldownMs = 1000;
  /// Test hook, run in the freshly forked child before it starts
  /// serving. A hook that _exit()s simulates death-before-handshake.
  std::function<void(unsigned slot, std::uint64_t incarnation)>
      onWorkerStart;
};

/// Gateway-side counters, exported under "fleet" in the aggregated
/// `stats` response and listed in docs/ANALYSIS.md.
struct FleetCounters {
  support::Counter requests;        ///< payloads entering the gateway
  support::Counter connections;     ///< client connections accepted
  support::Counter badFrames;       ///< client framing violations
  support::Counter routed;          ///< requests answered by a worker
  support::Counter retried;         ///< second-attempt sibling sends
  support::Counter fallbacks;       ///< answered by the in-gateway server
  support::Counter deadlines;       ///< worker exchanges that timed out
  support::Counter workerDeaths;    ///< child exits observed (any cause)
  support::Counter restarts;        ///< successful worker restarts
  support::Counter failedRestarts;  ///< spawn or handshake failures
  support::Counter breakerTrips;    ///< slot breakers opened
  support::Counter probes;          ///< health probes sent
  support::Counter probeFailures;   ///< health probes failed
};

/// One worker slot's supervision state.
enum class SlotState : std::uint8_t {
  Live,         ///< serving; channel open
  Backoff,      ///< dead; restart scheduled at nextStartAt
  BreakerOpen,  ///< restarts keep failing; parked until cooldown
};

[[nodiscard]] const char* slotStateName(SlotState s);

/// The fleet gateway. Construction spawns the workers and the supervisor
/// thread; destruction (or requestShutdown + serveUnix returning) tears
/// the whole fleet down, EOF-ing each worker channel and reaping every
/// child. Public surface mirrors Server so examples/cssamed.cpp treats
/// the two uniformly.
class Fleet {
 public:
  explicit Fleet(FleetOptions opts);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// One request payload in, one response payload out — routed to a
  /// worker, retried once on a sibling, then answered by the in-gateway
  /// fallback server. Never throws. `stats` and `shutdown` are
  /// intercepted: stats aggregates the whole fleet, shutdown stops the
  /// gateway (which stops every worker).
  [[nodiscard]] std::string handlePayload(const std::string& payload);

  /// Client-facing accept loop on `socketPath`; same connection
  /// semantics as Server::serveUnix.
  [[nodiscard]] Status serveUnix(const std::string& socketPath);

  /// Serves one already-connected duplex stream until EOF/violation.
  void serveStream(support::FdStream& stream);

  /// Signal-safe shutdown trigger (SIGINT/SIGTERM handler).
  void requestShutdown();
  [[nodiscard]] bool shutdownRequested() const {
    return transport_.shutdownRequested();
  }

  /// Async-signal-safe SIGCHLD hook: wakes the supervisor so a dead
  /// worker is reaped and rescheduled immediately instead of at the next
  /// probe tick.
  void notifyChildEvent();

  /// The aggregated `stats` body: gateway + fleet counters + per-slot
  /// supervision state + each live worker's own stats + fallback stats.
  [[nodiscard]] Json statsJson();

  [[nodiscard]] const FleetCounters& counters() const { return counters_; }
  [[nodiscard]] unsigned workerCount() const {
    return static_cast<unsigned>(slots_.size());
  }

  // Test introspection.
  [[nodiscard]] pid_t slotPid(unsigned slot) const;
  [[nodiscard]] SlotState slotState(unsigned slot) const;
  [[nodiscard]] std::uint64_t slotRestarts(unsigned slot) const;
  /// Blocks until every slot is Live (true) or the timeout lapses.
  [[nodiscard]] bool waitAllLive(int timeoutMs);

 private:
  struct Slot {
    unsigned index = 0;
    /// Serializes request exchanges on the channel; the supervisor's
    /// probes use try_lock so they never queue behind a long analysis.
    /// (mutable: const introspection still has to lock to read pid.)
    mutable std::mutex mutex;
    pid_t pid = -1;
    support::FdStream channel;
    std::atomic<SlotState> state{SlotState::Backoff};
    std::atomic<std::uint64_t> incarnation{0};
    std::atomic<std::uint64_t> restarts{0};
    unsigned consecutiveFailures = 0;          // supervisor-only
    std::chrono::steady_clock::time_point nextStartAt{};  // supervisor-only
  };

  /// Outcome of one attempted exchange with one worker.
  enum class SendResult : std::uint8_t {
    Ok,       ///< response delivered
    NotLive,  ///< slot wasn't serving; not counted as an attempt
    Failed,   ///< exchange failed; slot marked dead
  };

  /// Spawns (or respawns) the slot's worker and handshakes it with one
  /// stats probe before declaring it Live. Slot lock held.
  void spawnWorkerLocked(Slot& slot);
  void workerMain(unsigned slotIndex, std::uint64_t incarnation,
                  support::FdStream channel);
  /// One framed request/response exchange over the slot's channel with a
  /// deadline. Slot lock held. `timedOut` reports deadline expiry (the
  /// channel is desynchronized either way).
  [[nodiscard]] bool exchangeLocked(Slot& slot, const std::string& payload,
                                    std::string& response, int deadlineMs,
                                    bool* timedOut);
  /// One locked request exchange: NotLive slots are skipped, failures
  /// mark the slot dead and schedule its restart.
  SendResult sendToWorker(Slot& slot, const std::string& payload,
                          std::string& response);
  /// Marks a slot dead: closes the channel, bumps the failure streak and
  /// schedules the restart (or trips the breaker). Slot lock held.
  void markDeadLocked(Slot& slot);
  /// Recomputes state/nextStartAt from the failure streak. Slot lock held.
  void scheduleRestartLocked(Slot& slot);
  [[nodiscard]] int backoffForMs(unsigned failures) const;
  /// Ranks slots for `key` by rendezvous weight, best first.
  [[nodiscard]] std::vector<Slot*> rankSlots(const support::Hash128& key);

  void supervisorLoop();
  void reapExited();
  void probeLive();
  void restartDue();

  FleetOptions opts_;
  FleetCounters counters_;
  /// The graceful-degradation endpoint: a full Server in the gateway
  /// process sharing the workers' cache directory. Also answers
  /// `shutdown` and unparseable requests so those envelopes stay
  /// byte-identical to a standalone daemon's.
  Server local_;
  std::vector<std::unique_ptr<Slot>> slots_;

  Transport transport_;
  int childPipe_[2] = {-1, -1};  ///< SIGCHLD -> supervisor wakeup

  std::thread supervisor_;
};

}  // namespace cssame::service
