#include "loadbench/src/timed.h"

#include <sched.h>

#include <chrono>
#include <memory>

#include "loadbench/src/daemon.h"

namespace loadbench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host probe cadence during the timed phase: often enough that the
/// run's median chase step follows the host's phases, which last one to
/// three seconds, at about 0.6% of the phase's time.
constexpr double kProbeEverySeconds = 0.25;

/// Pins the calling thread, and so every daemon it spawns, to the last
/// CPU it may run on; restores the mask when destroyed. With one request
/// in flight the client and the daemon take turns, so one CPU serves
/// both, and no request waits for an idle CPU to be woken: on a VM that
/// wake-up is tens to hundreds of microseconds and varies with the
/// host's load, which on sub-millisecond requests is most of the noise.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&saved_);
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &saved_)) cpu_ = c;
    if (cpu_ < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0) cpu_ = -1;
  }
  ~PinToOneCpu() {
    if (cpu_ >= 0) (void)::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

  [[nodiscard]] int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
};

}  // namespace

TimedRun runTimed(const RunConfig& cfg) {
  TimedRun run;
  const PinToOneCpu pin;
  run.cpu = pin.cpu();
  const std::string socket = cfg.workDir + "/cssamed.sock";
  // Sends one request and returns its round trip in seconds. Building the
  // request and its payload happens before the clock starts: that is the
  // load generator's work, not the daemon's.
  auto send = [&](Daemon& d, Request r) {
    Exchange ex;
    ex.request = run.requests.size();
    ex.id = static_cast<std::int64_t>(run.exchanges.size());
    const std::string payload = r.payload(ex.id);
    const Clock::time_point t0 = Clock::now();
    ex.delivered = d.roundTrip(payload, ex.response, kRequestTimeoutMs);
    const double seconds = secondsSince(t0);
    run.requests.push_back(std::move(r));
    run.exchanges.push_back(std::move(ex));
    if (!run.exchanges.back().delivered) run.transportFailed = true;
    return seconds;
  };

  // Spawns a daemon and measures spawn to first answer. A daemon that
  // never accepts the connection leaves its set-up request undelivered,
  // so the failure is counted like any request without an answer.
  auto spawn = [&] {
    Request first = setupRequest(cfg.seed);
    const Clock::time_point t0 = Clock::now();
    auto d = std::make_unique<Daemon>(cfg.cssamed, socket);
    if (!d->connect(kRequestTimeoutMs)) {
      Exchange ex;
      ex.request = run.requests.size();
      ex.id = static_cast<std::int64_t>(run.exchanges.size());
      run.requests.push_back(std::move(first));
      run.exchanges.push_back(std::move(ex));
      run.transportFailed = true;
      return d;
    }
    (void)send(*d, first);
    if (!run.transportFailed) run.setupSeconds.push_back(secondsSince(t0));
    return d;
  };
  // Set-up is measured on several spawns, all before the warm-up: fork()
  // copies the page tables of this process, whose answers fill hundreds
  // of MB later in the run. The last spawn serves the run.
  std::unique_ptr<Daemon> daemon;
  for (int s = 0; s < kSetups && !run.transportFailed; ++s) {
    daemon.reset();
    run.spawnProbeSeconds.push_back(spawnAndWaitSeconds(cfg.spawnProbe));
    daemon = spawn();
  }

  // Warm-up: untimed requests until the daemon's cache tiers are full.
  RequestStream stream(cfg.workload, cfg.seed, cfg.repoRoot);
  while (!run.transportFailed && !stream.steady())
    (void)send(*daemon, stream.next());
  run.untimed = run.exchanges.size();
  run.probe.sample();

  // The phase lasts cfg.seconds of wall time; only the round trips are
  // timed, not request generation or the host probe (which runs while
  // the daemon idles).
  const double cpu0 = run.transportFailed ? 0 : daemon->cpuSeconds();
  const Clock::time_point start = Clock::now();
  double nextProbe = kProbeEverySeconds;
  while (!run.transportFailed && secondsSince(start) < cfg.seconds) {
    const double seconds = send(*daemon, stream.next());
    run.latencyMs.push_back(seconds * 1e3);
    run.roundTripSeconds += seconds;
    if (secondsSince(start) >= nextProbe) {
      run.probe.sample();
      nextProbe += kProbeEverySeconds;
    }
  }
  if (daemon != nullptr && !run.transportFailed) {
    run.cpuSeconds = daemon->cpuSeconds() - cpu0;
    run.peakRssMb = daemon->peakRssMb();
  }
  daemon.reset();
  run.probe.sample();
  return run;
}

CheckSummary checkTimedRun(const TimedRun& run, unsigned threads,
                           const ReferenceFn& reference) {
  CheckSummary cs =
      checkExchanges(run.requests, run.exchanges, threads, reference);
  auto fail = [&](const char* why) {
    ++cs.attempted;
    ++cs.failed;
    cs.failures.push_back(why);
  };
  // Without either there is no metric: the run itself failed.
  if (run.latencyMs.empty()) fail("the timed phase sent no request");
  for (double s : run.spawnProbeSeconds)
    if (s < 0) {
      fail("the spawn probe did not run");
      break;
    }
  return cs;
}

}  // namespace loadbench
