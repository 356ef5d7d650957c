// Supervision and degradation tests for the multi-process fleet
// (src/service/fleet.h).
//
// The load-bearing properties:
//   - fault isolation: SIGKILLing workers (idle, mid-request, or all at
//     once) never surfaces to the client — requests retry on a sibling
//     or fall back to the in-gateway server, byte-identical either way,
//   - supervision converges: dead workers are reaped and restarted with
//     backoff; a slot whose restarts keep failing (death before the
//     handshake) trips its circuit breaker and recovers once the child
//     starts surviving again,
//   - the aggregated stats body reports the gateway role, the fleet
//     counters and every slot's supervision state.
//
// Workers are real forked processes; every test that kills one asserts
// on client-visible behavior, not on scheduler internals.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/driver/runner.h"
#include "src/service/fleet.h"
#include "src/service/json.h"
#include "src/service/server.h"

namespace cssame {
namespace {

namespace fs = std::filesystem;

/// A unique, empty scratch directory; removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("cssame_fleet_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

/// A family of distinct valid programs, so consecutive requests land on
/// different cache keys (and different rendezvous owners).
std::string makeSource(int i) {
  return "int x = 0, y = 0;\nlock L;\ncobegin {\n  thread A { lock(L); x = "
         "x + " +
         std::to_string(i + 1) +
         "; unlock(L); }\n  thread B { lock(L); x = x * 2; unlock(L); y = " +
         std::to_string(i) + "; }\n}\nprint(x); print(y);\n";
}

std::string makeRequest(const std::string& source, int id) {
  service::Json req = service::Json::object();
  req.set("id", id)
      .set("method", "analyze")
      .set("file", "fleet.cp")
      .set("source", source)
      .set("options", service::Json::object());
  return req.write();
}

service::Json parseOk(const std::string& payload) {
  Expected<service::Json> j = service::parseJson(payload);
  EXPECT_TRUE(j.ok()) << payload;
  return j.ok() ? *j : service::Json();
}

/// Small-everything options: fast probes and restarts so supervision
/// tests converge in milliseconds, breaker reachable with few failures.
service::FleetOptions quickOptions(unsigned workers,
                                   const std::string& cacheDir = "") {
  service::FleetOptions fo;
  fo.workers = workers;
  fo.server.cacheDir = cacheDir;
  fo.probeIntervalMs = 20;
  fo.probeDeadlineMs = 5000;
  fo.requestDeadlineMs = 20000;
  fo.backoffBaseMs = 1;
  fo.backoffCeilingMs = 50;
  fo.breakerThreshold = 3;
  fo.breakerCooldownMs = 100;
  return fo;
}

// ---------------------------------------------------------------------------
// Routing and byte identity

TEST(FleetRouting, AnswersByteIdenticallyToStandaloneServer) {
  service::Fleet fleet(quickOptions(2));
  ASSERT_TRUE(fleet.waitAllLive(10000));
  service::Server standalone({});
  for (int i = 0; i < 6; ++i) {
    const std::string request = makeRequest(makeSource(i), i);
    service::Json viaFleet = parseOk(fleet.handlePayload(request));
    service::Json viaServer = parseOk(standalone.handlePayload(request));
    ASSERT_TRUE(viaFleet.getBool("ok", false));
    // The result (out/err/code) must match bytewise; the cache-tier tag
    // may legitimately differ between the two topologies.
    EXPECT_EQ(viaFleet.get("result").write(),
              viaServer.get("result").write());
  }
  EXPECT_GE(fleet.counters().routed.value(), 6u);
  EXPECT_EQ(fleet.counters().fallbacks.value(), 0u);
}

TEST(FleetRouting, IdenticalRequestsLandOnTheSameWorker) {
  service::Fleet fleet(quickOptions(4));
  ASSERT_TRUE(fleet.waitAllLive(10000));
  const std::string request = makeRequest(makeSource(0), 1);
  // Warm once, then repeat: every repeat must be served from the owning
  // worker's memory tier — proof the rendezvous route is stable.
  ASSERT_TRUE(parseOk(fleet.handlePayload(request)).getBool("ok", false));
  for (int i = 0; i < 4; ++i) {
    service::Json resp = parseOk(fleet.handlePayload(request));
    ASSERT_TRUE(resp.getBool("ok", false));
    EXPECT_EQ(resp.getString("cached", "?"), "memory");
  }
}

// ---------------------------------------------------------------------------
// Crash recovery

TEST(FleetSupervision, KilledWorkerIsRestarted) {
  service::Fleet fleet(quickOptions(2));
  ASSERT_TRUE(fleet.waitAllLive(10000));
  const pid_t victim = fleet.slotPid(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  // The supervisor reaps and respawns; the slot comes back Live with a
  // new pid and a bumped restart count. (waitAllLive alone is not enough:
  // the slot still reads Live until the next probe notices the corpse.)
  for (int i = 0; i < 1000 && fleet.slotPid(0) == victim; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(fleet.waitAllLive(10000));
  EXPECT_NE(fleet.slotPid(0), victim);
  EXPECT_GE(fleet.slotRestarts(0), 1u);
  EXPECT_GE(fleet.counters().workerDeaths.value(), 1u);
  EXPECT_GE(fleet.counters().restarts.value(), 1u);
  // And it serves again.
  service::Json resp =
      parseOk(fleet.handlePayload(makeRequest(makeSource(1), 1)));
  EXPECT_TRUE(resp.getBool("ok", false));
}

TEST(FleetSupervision, DeadWorkerRetriesOnSiblingBeforeFallback) {
  // Slow the supervisor right down so the dead worker is discovered by a
  // routed request (EOF mid-exchange), not by a probe.
  service::FleetOptions fo = quickOptions(2);
  fo.probeIntervalMs = 10000;
  fo.backoffBaseMs = 10000;  // no restart during the burst either
  service::Fleet fleet(fo);
  ASSERT_TRUE(fleet.waitAllLive(10000));
  ASSERT_EQ(::kill(fleet.slotPid(0), SIGKILL), 0);
  // Distinct payloads: whichever ranks the dead slot primary fails over
  // to the live sibling on its second attempt.
  for (int i = 0; i < 10; ++i) {
    service::Json resp =
        parseOk(fleet.handlePayload(makeRequest(makeSource(i), i)));
    ASSERT_TRUE(resp.getBool("ok", false)) << i;
  }
  // Every request was answered by a worker (the sibling at worst); the
  // in-gateway fallback never had to step in.
  EXPECT_EQ(fleet.counters().routed.value(), 10u);
  EXPECT_EQ(fleet.counters().fallbacks.value(), 0u);
  EXPECT_GE(fleet.counters().retried.value(), 1u);
}

TEST(FleetSupervision, AllWorkersDeadFallsBackLocally) {
  service::FleetOptions fo = quickOptions(2);
  fo.probeIntervalMs = 10000;
  fo.backoffBaseMs = 10000;
  service::Fleet fleet(fo);
  ASSERT_TRUE(fleet.waitAllLive(10000));
  ASSERT_EQ(::kill(fleet.slotPid(0), SIGKILL), 0);
  ASSERT_EQ(::kill(fleet.slotPid(1), SIGKILL), 0);
  const std::string source = makeSource(3);
  service::Json resp = parseOk(fleet.handlePayload(makeRequest(source, 1)));
  ASSERT_TRUE(resp.getBool("ok", false));
  EXPECT_GE(fleet.counters().fallbacks.value(), 1u);
  // The degraded answer is still the standalone answer.
  driver::RunOutput expected =
      driver::runSource(source, "fleet.cp", driver::RunOptions{});
  const service::Json& result = resp.get("result");
  EXPECT_EQ(result.getString("out", ""), expected.out);
  EXPECT_EQ(result.getString("err", ""), expected.err);
  EXPECT_EQ(result.getInt("code", -1), expected.code);
}

TEST(FleetSupervision, RestartStormConverges) {
  ScratchDir dir("storm");
  service::Fleet fleet(quickOptions(3, dir.path.string()));
  ASSERT_TRUE(fleet.waitAllLive(10000));
  // Every round kills each slot's worker. A slot whose killed worker is
  // not yet noticed still reads Live with the old pid, and killing that
  // pid again would not land, so each kill waits (bounded) for a live
  // worker in the slot that has not been killed yet.
  std::set<pid_t> killed;
  const auto killSlot = [&](unsigned s) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    do {
      const pid_t victim = fleet.slotPid(s);
      if (fleet.slotState(s) == service::SlotState::Live && victim > 0 &&
          !killed.contains(victim) && ::kill(victim, SIGKILL) == 0) {
        killed.insert(victim);
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } while (std::chrono::steady_clock::now() < deadline);
    return false;
  };
  for (int round = 0; round < 3; ++round) {
    for (unsigned s = 0; s < fleet.workerCount(); ++s)
      ASSERT_TRUE(killSlot(s)) << "round " << round << ", slot " << s;
    // Clients keep getting answers throughout the massacre.
    service::Json resp = parseOk(
        fleet.handlePayload(makeRequest(makeSource(100 + round), round)));
    ASSERT_TRUE(resp.getBool("ok", false)) << round;
    ASSERT_TRUE(fleet.waitAllLive(10000)) << round;
  }
  EXPECT_EQ(killed.size(), 9u);
  // Supervision: every killed worker is reaped and replaced.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((fleet.counters().workerDeaths.value() < 9 ||
          fleet.counters().restarts.value() < 9) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(fleet.waitAllLive(10000));
  EXPECT_GE(fleet.counters().workerDeaths.value(), 9u);
  EXPECT_GE(fleet.counters().restarts.value(), 9u);
}

// ---------------------------------------------------------------------------
// Backoff and circuit breaker

TEST(FleetSupervision, PreHandshakeDeathTripsBreakerThenRecovers) {
  // Slot 0's child _exit()s before serving until its 5th incarnation —
  // death-before-handshake, the restart-keeps-failing case. The breaker
  // must open after `breakerThreshold` consecutive failures and the slot
  // must still come back once the child survives.
  service::FleetOptions fo = quickOptions(2);
  fo.onWorkerStart = [](unsigned slot, std::uint64_t incarnation) {
    if (slot == 0 && incarnation < 5) ::_exit(7);
  };
  service::Fleet fleet(fo);
  // Slot 1 is unaffected and serves alone in the meantime.
  service::Json resp =
      parseOk(fleet.handlePayload(makeRequest(makeSource(0), 1)));
  EXPECT_TRUE(resp.getBool("ok", false));
  ASSERT_TRUE(fleet.waitAllLive(20000));
  EXPECT_GE(fleet.counters().failedRestarts.value(), 4u);
  EXPECT_GE(fleet.counters().breakerTrips.value(), 1u);
  EXPECT_EQ(fleet.slotState(0), service::SlotState::Live);
  // Live again means serving again.
  resp = parseOk(fleet.handlePayload(makeRequest(makeSource(1), 2)));
  EXPECT_TRUE(resp.getBool("ok", false));
}

// ---------------------------------------------------------------------------
// Gateway request handling

TEST(FleetGateway, StatsAggregatesFleetAndSlots) {
  service::Fleet fleet(quickOptions(2));
  ASSERT_TRUE(fleet.waitAllLive(10000));
  (void)fleet.handlePayload(makeRequest(makeSource(0), 1));
  service::Json resp =
      parseOk(fleet.handlePayload(R"({"id":9,"method":"stats"})"));
  ASSERT_TRUE(resp.getBool("ok", false));
  const service::Json& result = resp.get("result");
  EXPECT_EQ(result.getString("role", ""), "gateway");
  const service::Json& counters = result.get("fleet");
  ASSERT_TRUE(counters.isObject());
  EXPECT_EQ(counters.getInt("workers", 0), 2);
  EXPECT_GE(counters.getInt("routed", 0), 1);
  const service::Json& slots = result.get("slots");
  ASSERT_TRUE(slots.isArray());
  ASSERT_EQ(slots.items().size(), 2u);
  for (const service::Json& slot : slots.items()) {
    EXPECT_EQ(slot.getString("state", "?"), "live");
    // Each live worker contributed its own stats body.
    EXPECT_TRUE(slot.get("stats").isObject());
  }
  EXPECT_TRUE(result.get("fallback").isObject());
}

TEST(FleetGateway, MalformedRequestsGetStandaloneEnvelopes) {
  service::Fleet fleet(quickOptions(2));
  service::Server standalone({});
  for (const char* payload :
       {"{not json", R"({"id":1,"method":"no-such-method"})",
        R"({"id":2})", R"([1,2,3])"}) {
    EXPECT_EQ(fleet.handlePayload(payload), standalone.handlePayload(payload))
        << payload;
  }
}

TEST(FleetGateway, ShutdownStopsTheWholeFleet) {
  service::Fleet fleet(quickOptions(2));
  ASSERT_TRUE(fleet.waitAllLive(10000));
  service::Json resp =
      parseOk(fleet.handlePayload(R"({"id":1,"method":"shutdown"})"));
  EXPECT_TRUE(resp.getBool("ok", false));
  EXPECT_TRUE(fleet.shutdownRequested());
}

// ---------------------------------------------------------------------------
// Chaos sweep: kills during sustained load, byte-identity throughout

TEST(FleetChaos, KillLoopUnderLoadStaysByteIdentical) {
  ScratchDir dir("chaos");
  service::FleetOptions fo = quickOptions(2, dir.path.string());
  service::Fleet fleet(fo);
  ASSERT_TRUE(fleet.waitAllLive(10000));

  // Precompute the expected result body of each program once.
  constexpr int kPrograms = 8;
  std::vector<std::string> expected;
  for (int i = 0; i < kPrograms; ++i) {
    driver::RunOutput r =
        driver::runSource(makeSource(i), "fleet.cp", driver::RunOptions{});
    service::Json body = service::Json::object();
    body.set("out", r.out).set("err", r.err).set("code", r.code);
    expected.push_back(body.write());
  }

  // Each kill point waits (bounded) for a live worker that has not been
  // killed yet, scanning from a rotating start so both slots get their
  // turn: a slot whose killed worker is not yet noticed still reads Live
  // with the old pid, and killing that pid again would not land.
  std::set<pid_t> killed;
  const auto killLiveWorker = [&](unsigned start) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    do {
      for (unsigned probe = 0; probe < fleet.workerCount(); ++probe) {
        const unsigned s = (start + probe) % fleet.workerCount();
        const pid_t victim = fleet.slotPid(s);
        if (fleet.slotState(s) == service::SlotState::Live && victim > 0 &&
            !killed.contains(victim) && ::kill(victim, SIGKILL) == 0) {
          killed.insert(victim);
          return true;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } while (std::chrono::steady_clock::now() < deadline);
    return false;
  };

  for (int i = 0; i < 200; ++i) {
    if (i % 25 == 24) {
      ASSERT_TRUE(killLiveWorker(static_cast<unsigned>(i / 25)))
          << "no live worker to kill at request " << i;
    }
    service::Json resp = parseOk(
        fleet.handlePayload(makeRequest(makeSource(i % kPrograms), i)));
    ASSERT_TRUE(resp.getBool("ok", false)) << "request " << i;
    ASSERT_EQ(resp.get("result").write(), expected[i % kPrograms])
        << "request " << i;
  }
  EXPECT_EQ(killed.size(), 8u);
  // Supervision: every killed worker is reaped and replaced.
  const std::uint64_t kills = killed.size();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((fleet.counters().workerDeaths.value() < kills ||
          fleet.counters().restarts.value() < kills) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(fleet.waitAllLive(10000));
  EXPECT_GE(fleet.counters().workerDeaths.value(), kills);
  EXPECT_GE(fleet.counters().restarts.value(), kills);
  // Zero client-visible errors is the whole point; the gateway's own
  // request count must cover every request we sent.
  EXPECT_EQ(fleet.counters().requests.value(), 200u);
}

}  // namespace
}  // namespace cssame
