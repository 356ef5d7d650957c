#include "src/service/fleet.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>

#include "src/support/fingerprint.h"
#include "src/support/version.h"

namespace cssame::service {

namespace {

/// The supervision probe: a plain stats request. Workers answer it like
/// any other request; a worker that cannot is not serving.
const std::string& probePayload() {
  static const std::string payload =
      Json::object().set("id", "__fleet_probe").set("method", "stats").write();
  return payload;
}

void drainPipe(int fd) {
  char buf[64];
  while (::read(fd, buf, sizeof buf) > 0) {
  }
}

}  // namespace

const char* slotStateName(SlotState s) {
  switch (s) {
    case SlotState::Live: return "live";
    case SlotState::Backoff: return "backoff";
    case SlotState::BreakerOpen: return "breaker-open";
  }
  return "?";
}

Fleet::Fleet(FleetOptions opts)
    : opts_(std::move(opts)),
      local_(opts_.server),
      transport_(
          opts_.server.maxPayload,
          [this](const std::string& payload) { return handlePayload(payload); },
          [this] { counters_.badFrames.inc(); }) {
  if (opts_.workers == 0) opts_.workers = 1;
  if (::pipe(childPipe_) != 0) childPipe_[0] = childPipe_[1] = -1;
  for (int fd : childPipe_)
    if (fd >= 0) {
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
      // Non-blocking both ways: a signal handler must never park on a
      // full pipe, and the drain must never park on an empty one.
      ::fcntl(fd, F_SETFL, O_NONBLOCK);
    }

  slots_.reserve(opts_.workers);
  for (unsigned i = 0; i < opts_.workers; ++i) {
    slots_.push_back(std::make_unique<Slot>());
    slots_.back()->index = i;
  }
  for (auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mutex);
    spawnWorkerLocked(*slot);
  }
  supervisor_ = std::thread(&Fleet::supervisorLoop, this);
}

Fleet::~Fleet() {
  requestShutdown();
  if (supervisor_.joinable()) supervisor_.join();

  // EOF every worker channel; a serving worker exits its stream loop at
  // the next frame boundary.
  for (auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mutex);
    slot->channel.close();
  }
  // Reap with a short grace period, then force the stragglers.
  for (auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mutex);
    if (slot->pid <= 0) continue;
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 100 && !exited; ++i) {
      exited = support::childExited(slot->pid, &status);
      if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!exited) {
      ::kill(slot->pid, SIGKILL);
      for (int i = 0; i < 400 && !exited; ++i) {
        exited = support::childExited(slot->pid, &status);
        if (!exited)
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    slot->pid = -1;
  }
  for (int fd : childPipe_)
    if (fd >= 0) ::close(fd);
}

void Fleet::requestShutdown() {
  transport_.requestShutdown();
  if (childPipe_[1] >= 0) {
    const char b = 'x';
    [[maybe_unused]] ssize_t r = ::write(childPipe_[1], &b, 1);
  }
}

void Fleet::notifyChildEvent() {
  if (childPipe_[1] >= 0) {
    const char b = 'c';
    [[maybe_unused]] ssize_t r = ::write(childPipe_[1], &b, 1);
  }
}

// ---------------------------------------------------------------------------
// Worker lifecycle.

void Fleet::workerMain(unsigned slotIndex, std::uint64_t incarnation,
                       support::FdStream channel) {
  // Drop every inherited fd except our channel: a worker holding the
  // gateway's listener or a sibling's channel open would pin connections
  // (and sockets) past their owners' lifetimes.
  support::closeFdsExcept(channel.fd());
  ::signal(SIGTERM, SIG_DFL);
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGCHLD, SIG_DFL);
  ::signal(SIGPIPE, SIG_IGN);
  if (opts_.onWorkerStart) opts_.onWorkerStart(slotIndex, incarnation);
  Server server(opts_.server);
  server.serveStream(channel);
}

void Fleet::spawnWorkerLocked(Slot& slot) {
  const unsigned index = slot.index;
  const std::uint64_t inc =
      slot.incarnation.load(std::memory_order_relaxed) + 1;
  Expected<support::ChildProcess> child = support::spawnChild(
      [this, index, inc](support::FdStream channel) {
        workerMain(index, inc, std::move(channel));
      });
  bool live = false;
  if (child && child->valid()) {
    slot.pid = child->pid;
    slot.channel = std::move(child->channel);
    slot.incarnation.store(inc, std::memory_order_relaxed);
    // Handshake: the worker is not Live until it has answered one stats
    // probe — a child that dies during startup (or never starts serving)
    // is caught here, not by the first routed request.
    counters_.probes.inc();
    std::string response;
    live = exchangeLocked(slot, probePayload(), response,
                          opts_.probeDeadlineMs, nullptr);
  }
  if (live) {
    slot.state.store(SlotState::Live, std::memory_order_release);
    if (inc > 1) {
      slot.restarts.fetch_add(1, std::memory_order_relaxed);
      counters_.restarts.inc();
    }
    return;
  }
  counters_.failedRestarts.inc();
  counters_.probeFailures.inc();
  if (slot.pid > 0) ::kill(slot.pid, SIGKILL);  // reaped by the supervisor
  slot.channel.close();
  slot.consecutiveFailures += 1;
  scheduleRestartLocked(slot);
}

int Fleet::backoffForMs(unsigned failures) const {
  if (failures == 0) return 0;
  const unsigned shift = std::min(failures - 1, 20u);
  const long long ms =
      static_cast<long long>(opts_.backoffBaseMs) * (1ll << shift);
  return static_cast<int>(
      std::min<long long>(ms, opts_.backoffCeilingMs));
}

void Fleet::scheduleRestartLocked(Slot& slot) {
  const auto now = std::chrono::steady_clock::now();
  if (slot.consecutiveFailures >= opts_.breakerThreshold) {
    if (slot.state.load(std::memory_order_relaxed) != SlotState::BreakerOpen)
      counters_.breakerTrips.inc();
    slot.state.store(SlotState::BreakerOpen, std::memory_order_release);
    slot.nextStartAt =
        now + std::chrono::milliseconds(opts_.breakerCooldownMs);
  } else {
    slot.state.store(SlotState::Backoff, std::memory_order_release);
    slot.nextStartAt = now + std::chrono::milliseconds(
                                 backoffForMs(slot.consecutiveFailures));
  }
}

void Fleet::markDeadLocked(Slot& slot) {
  slot.channel.close();
  slot.consecutiveFailures += 1;
  scheduleRestartLocked(slot);
  // Wake the supervisor so the reap + restart happens now, not at the
  // next probe tick.
  notifyChildEvent();
}

// ---------------------------------------------------------------------------
// Request routing.

bool Fleet::exchangeLocked(Slot& slot, const std::string& payload,
                           std::string& response, int deadlineMs,
                           bool* timedOut) {
  if (timedOut) *timedOut = false;
  const support::Deadline deadline = support::Deadline::in(deadlineMs);
  if (Status s = writeFrameDeadline(slot.channel, payload,
                                    opts_.server.maxPayload, deadline);
      !s.ok()) {
    if (timedOut) *timedOut = support::isDeadlineFault(s.fault());
    return false;
  }
  const FrameStatus fs = readFrameDeadline(
      slot.channel, response, opts_.server.maxPayload, deadline);
  if (fs != FrameStatus::Ok) {
    if (timedOut) *timedOut = fs == FrameStatus::TimedOut;
    return false;
  }
  return true;
}

Fleet::SendResult Fleet::sendToWorker(Slot& slot,
                                      const std::string& payload,
                                      std::string& response) {
  // Fast path: don't queue on a slot that isn't serving.
  if (slot.state.load(std::memory_order_acquire) != SlotState::Live)
    return SendResult::NotLive;
  std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.state.load(std::memory_order_acquire) != SlotState::Live ||
      !slot.channel.valid())
    return SendResult::NotLive;
  bool timedOut = false;
  if (exchangeLocked(slot, payload, response, opts_.requestDeadlineMs,
                     &timedOut)) {
    slot.consecutiveFailures = 0;
    return SendResult::Ok;
  }
  if (timedOut) {
    counters_.deadlines.inc();
    // The channel is desynchronized (the late response would corrupt the
    // next exchange) and the worker may be wedged: replace it.
    if (slot.pid > 0) ::kill(slot.pid, SIGKILL);
  }
  markDeadLocked(slot);
  return SendResult::Failed;
}

std::vector<Fleet::Slot*> Fleet::rankSlots(const support::Hash128& key) {
  // Rendezvous hashing: weight(slot) = H(key, slot); the highest weight
  // owns the key. Removing a slot moves only the keys it owned; slots
  // never shift wholesale the way modulo hashing does.
  std::vector<std::pair<std::uint64_t, Slot*>> weighted;
  weighted.reserve(slots_.size());
  for (auto& slot : slots_) {
    support::Fingerprinter fp;
    fp.mix(key.hi);
    fp.mix(key.lo);
    fp.mix(slot->index);
    weighted.emplace_back(fp.digest().hi, slot.get());
  }
  std::sort(weighted.begin(), weighted.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second->index < b.second->index;
            });
  std::vector<Slot*> ranked;
  ranked.reserve(weighted.size());
  for (auto& [w, slot] : weighted) ranked.push_back(slot);
  return ranked;
}

std::string Fleet::handlePayload(const std::string& payload) {
  counters_.requests.inc();
  Expected<Json> request = parseJson(payload);
  // Unparseable requests take the local server so the parse-error
  // envelope is byte-identical to a standalone daemon's.
  if (!request) return local_.handlePayload(payload);
  const std::string method =
      request->isObject() ? request->getString("method", "") : "";
  if (method == "stats") {
    Json env = Json::object();
    env.set("id", request->get("id"))
        .set("ok", true)
        .set("method", "stats")
        .set("result", statsJson());
    return env.write();
  }
  if (method == "shutdown") {
    // The local server renders the standard ack (and counts it); the
    // gateway then takes the whole fleet down.
    std::string response = local_.handlePayload(payload);
    requestShutdown();
    return response;
  }

  const support::Hash128 key = support::fingerprintBytes(payload);
  std::string response;
  unsigned attempts = 0;
  for (Slot* slot : rankSlots(key)) {
    if (shutdownRequested()) break;
    const SendResult r = sendToWorker(*slot, payload, response);
    if (r == SendResult::NotLive) continue;
    if (attempts == 1) counters_.retried.inc();
    ++attempts;
    if (r == SendResult::Ok) {
      counters_.routed.inc();
      return response;
    }
    if (attempts >= 2) break;  // primary + one sibling, then degrade
  }
  // Every analysis request is a pure function of its payload, so
  // re-answering locally is always safe and byte-identical — the
  // degraded mode costs gateway CPU, never correctness.
  counters_.fallbacks.inc();
  return local_.handlePayload(payload);
}

// ---------------------------------------------------------------------------
// Supervision.

void Fleet::supervisorLoop() {
  while (!shutdownRequested()) {
    struct pollfd pfd = {childPipe_[0], POLLIN, 0};
    (void)::poll(&pfd, childPipe_[0] >= 0 ? 1u : 0u, opts_.probeIntervalMs);
    if (childPipe_[0] >= 0 && (pfd.revents & POLLIN) != 0)
      drainPipe(childPipe_[0]);
    if (shutdownRequested()) break;
    reapExited();
    restartDue();
    probeLive();
  }
}

void Fleet::reapExited() {
  for (auto& slotPtr : slots_) {
    Slot& slot = *slotPtr;
    std::unique_lock<std::mutex> lock(slot.mutex, std::try_to_lock);
    // A held lock is a request in flight; if its worker died the request
    // will discover that itself. Reap on a later tick.
    if (!lock.owns_lock()) continue;
    if (slot.pid <= 0) continue;
    int status = 0;
    if (!support::childExited(slot.pid, &status)) {
      // Alive but already condemned (broken channel): finish the job.
      if (slot.state.load(std::memory_order_acquire) != SlotState::Live)
        ::kill(slot.pid, SIGKILL);
      continue;
    }
    counters_.workerDeaths.inc();
    slot.pid = -1;
    if (slot.state.load(std::memory_order_acquire) == SlotState::Live) {
      // Died idle — no request was around to notice.
      markDeadLocked(slot);
    }
  }
}

void Fleet::restartDue() {
  const auto now = std::chrono::steady_clock::now();
  for (auto& slotPtr : slots_) {
    Slot& slot = *slotPtr;
    if (slot.state.load(std::memory_order_acquire) == SlotState::Live)
      continue;
    std::unique_lock<std::mutex> lock(slot.mutex, std::try_to_lock);
    if (!lock.owns_lock()) continue;
    if (slot.state.load(std::memory_order_acquire) == SlotState::Live)
      continue;
    if (slot.pid > 0) continue;  // dead but not yet reaped
    if (slot.nextStartAt > now) continue;
    // Backoff lapsed (or the breaker cooled down: this attempt is the
    // half-open trial — success closes it, failure re-arms the cooldown).
    spawnWorkerLocked(slot);
  }
}

void Fleet::probeLive() {
  for (auto& slotPtr : slots_) {
    Slot& slot = *slotPtr;
    if (slot.state.load(std::memory_order_acquire) != SlotState::Live)
      continue;
    std::unique_lock<std::mutex> lock(slot.mutex, std::try_to_lock);
    // Busy serving a request is the strongest liveness signal there is.
    if (!lock.owns_lock()) continue;
    if (slot.state.load(std::memory_order_acquire) != SlotState::Live)
      continue;
    counters_.probes.inc();
    std::string response;
    bool timedOut = false;
    if (exchangeLocked(slot, probePayload(), response, opts_.probeDeadlineMs,
                       &timedOut)) {
      slot.consecutiveFailures = 0;
      continue;
    }
    counters_.probeFailures.inc();
    if (timedOut && slot.pid > 0) ::kill(slot.pid, SIGKILL);
    markDeadLocked(slot);
  }
}

// ---------------------------------------------------------------------------
// Stats and introspection.

Json Fleet::statsJson() {
  Json fleet = Json::object();
  fleet
      .set("workers",
           static_cast<std::int64_t>(slots_.size()))
      .set("requests", counters_.requests.value())
      .set("connections", counters_.connections.value())
      .set("badFrames", counters_.badFrames.value())
      .set("routed", counters_.routed.value())
      .set("retried", counters_.retried.value())
      .set("fallbacks", counters_.fallbacks.value())
      .set("deadlines", counters_.deadlines.value())
      .set("workerDeaths", counters_.workerDeaths.value())
      .set("restarts", counters_.restarts.value())
      .set("failedRestarts", counters_.failedRestarts.value())
      .set("breakerTrips", counters_.breakerTrips.value())
      .set("probes", counters_.probes.value())
      .set("probeFailures", counters_.probeFailures.value());

  Json slots = Json::array();
  for (auto& slotPtr : slots_) {
    Slot& slot = *slotPtr;
    Json one = Json::object();
    one.set("slot", static_cast<std::int64_t>(slot.index))
        .set("state",
             slotStateName(slot.state.load(std::memory_order_acquire)))
        .set("incarnation",
             slot.incarnation.load(std::memory_order_relaxed))
        .set("restarts", slot.restarts.load(std::memory_order_relaxed));
    // Each live worker contributes its own stats body; a busy or dead
    // worker is reported without one rather than waited for.
    std::unique_lock<std::mutex> lock(slot.mutex, std::try_to_lock);
    if (lock.owns_lock()) {
      one.set("pid", static_cast<std::int64_t>(slot.pid));
      if (slot.state.load(std::memory_order_acquire) == SlotState::Live) {
        std::string response;
        if (exchangeLocked(slot, probePayload(), response,
                           opts_.probeDeadlineMs, nullptr)) {
          if (Expected<Json> parsed = parseJson(response))
            one.set("stats", parsed->get("result"));
        }
      }
    }
    slots.push(std::move(one));
  }

  Json stats = Json::object();
  stats.set("version", support::versionString())
      .set("build", support::buildFingerprint())
      .set("role", "gateway")
      .set("fleet", std::move(fleet))
      .set("slots", std::move(slots))
      .set("fallback", local_.statsJson());
  return stats;
}

pid_t Fleet::slotPid(unsigned slot) const {
  if (slot >= slots_.size()) return -1;
  std::lock_guard<std::mutex> lock(slots_[slot]->mutex);
  return slots_[slot]->pid;
}

SlotState Fleet::slotState(unsigned slot) const {
  if (slot >= slots_.size()) return SlotState::Backoff;
  return slots_[slot]->state.load(std::memory_order_acquire);
}

std::uint64_t Fleet::slotRestarts(unsigned slot) const {
  if (slot >= slots_.size()) return 0;
  return slots_[slot]->restarts.load(std::memory_order_relaxed);
}

bool Fleet::waitAllLive(int timeoutMs) {
  const support::Deadline deadline = support::Deadline::in(timeoutMs);
  for (;;) {
    bool all = true;
    for (auto& slot : slots_)
      if (slot->state.load(std::memory_order_acquire) != SlotState::Live)
        all = false;
    if (all) return true;
    if (deadline.expired()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// ---------------------------------------------------------------------------
// Client-facing transports (shared with Server; see transport.h).

void Fleet::serveStream(support::FdStream& stream) {
  transport_.serveFrames(stream, stream);
}

Status Fleet::serveUnix(const std::string& socketPath) {
  return transport_.serveUnix(socketPath, counters_.connections);
}

}  // namespace cssame::service
