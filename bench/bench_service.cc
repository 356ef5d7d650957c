// Experiment Service-1 (ours): latency and throughput of the cssamed
// analysis service against its own cold path.
//
//   1. Cold vs warm latency: N distinct programs through the `csan`
//      method over a real Unix socket. Cold requests run the full
//      pipeline; warm repeats answer from the in-memory response tier.
//      The warm path must be >= 10x faster — that margin is the entire
//      justification for running a daemon instead of re-execing cssamec.
//   2. Disk tier: a server restart with the same cache directory answers
//      the same requests from disk without recomputing.
//   3. Client scaling: sustained requests/second at 1, 4 and 16
//      concurrent clients over a mixed analyze/csan/vrange workload.
//      Every response is compared byte-for-byte against a standalone
//      driver::runSource run of the same request — the hard failure is
//      any error envelope or any byte of divergence, at any concurrency.
//   4. Fleet under fire: the same workload through a `--fleet=N` gateway
//      (N = 1, 2, 4 forked workers) while the bench SIGKILLs a live
//      worker every ~50 requests. The supervisor must absorb every
//      crash — zero client-visible errors, every response still
//      byte-identical — while the kill/death/restart counters prove the
//      chaos actually landed.
//
// Results go to BENCH_service.json. Exit status is nonzero when any
// identity check fails or the warm speedup misses its floor. CI's
// service-smoke job runs this with CSSAME_SERVICE_SMOKE=1.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>

#include "bench/bench_util.h"
#include "src/driver/runner.h"
#include "src/service/fleet.h"
#include "src/service/protocol.h"
#include "src/service/server.h"
#include "src/support/io.h"
#include "src/support/timer.h"

namespace {

using namespace cssame;
namespace fs = std::filesystem;

bool smokeMode() { return std::getenv("CSSAME_SERVICE_SMOKE") != nullptr; }

/// A family of distinct-but-similar lock-protected programs: every index
/// yields a different source string (different constants and a different
/// number of trailing statements), so every index is a distinct content
/// address in the service cache. All shared accesses are consistently
/// locked — the programs are race-free, so csan's finding output (and
/// with it the cached payload) stays small and the warm path measures
/// the cache, not JSON shuffling of witness traces.
std::string makeSource(int i) {
  std::string s = "int x = 0, y = 0, z = 0;\nlock L;\nlock M;\ncobegin {\n";
  s += "  thread A {\n";
  for (int k = 0; k < 44; ++k)
    s += "    lock(L); x = x + " + std::to_string(i + k + 1) +
         "; unlock(L);\n";
  s += "    lock(M); y = " + std::to_string(2 * i + 1) +
       "; unlock(M);\n  }\n";
  s += "  thread B {\n";
  for (int k = 0; k < 44; ++k)
    s += "    lock(L); x = x * 2; unlock(L); lock(M); z = z + " +
         std::to_string(i + k) + "; unlock(M);\n";
  s += "  }\n";
  s += "  thread C {\n";
  for (int k = 0; k < 28; ++k)
    s += "    lock(M); z = z + y + " + std::to_string(k) + "; unlock(M);\n";
  s += "  }\n}\n";
  for (int k = 0; k <= i % 3; ++k)
    s += "z = z + " + std::to_string(k + i) + ";\n";
  s += "print(x); print(y); print(z);\n";
  return s;
}

constexpr const char* kMethods[3] = {"analyze", "csan", "vrange"};

/// The exact options the server derives for each method from an empty
/// options object (decodeOptions defaults plus the method's forcing).
driver::RunOptions optionsFor(const std::string& method) {
  driver::RunOptions o;
  if (method == "csan") o.doCsan = true;
  if (method == "vrange") o.doVrange = true;
  return o;
}

std::string makeRequest(const std::string& method, const std::string& source,
                        int id) {
  service::Json req = service::Json::object();
  req.set("id", id)
      .set("method", method)
      .set("file", "bench.cp")
      .set("source", source)
      .set("options", service::Json::object());
  return req.write();
}

struct RoundTripResult {
  bool ok = false;
  std::string out, err;
  long long code = 0;
  std::string tier;
};

RoundTripResult roundTrip(support::FdStream& conn,
                          const std::string& payload) {
  RoundTripResult r;
  if (!service::writeFrame(conn, payload, service::kDefaultMaxPayload).ok())
    return r;
  std::string response;
  if (service::readFrame(conn, response, service::kDefaultMaxPayload) !=
      service::FrameStatus::Ok)
    return r;
  Expected<service::Json> env = service::parseJson(response);
  if (!env || !env->getBool("ok", false)) return r;
  const service::Json& result = env->get("result");
  r.ok = true;
  r.out = result.getString("out", "");
  r.err = result.getString("err", "");
  r.code = result.getInt("code", -1);
  r.tier = env->getString("cached", "");
  return r;
}

/// One request the mixed workload can issue, with the standalone answer
/// it must match byte-for-byte.
struct WorkItem {
  std::string payload;
  driver::RunOutput expected;
};

std::vector<WorkItem> makeWorkload(int programs) {
  std::vector<WorkItem> items;
  items.reserve(static_cast<std::size_t>(programs) * 3);
  for (int i = 0; i < programs; ++i) {
    const std::string source = makeSource(i);
    for (const char* method : kMethods) {
      WorkItem item;
      item.payload = makeRequest(method, source, i);
      item.expected =
          driver::runSource(source, "bench.cp", optionsFor(method));
      items.push_back(std::move(item));
    }
  }
  return items;
}

bool matches(const RoundTripResult& got, const driver::RunOutput& want) {
  return got.ok && got.out == want.out && got.err == want.err &&
         got.code == want.code;
}

struct ColdWarm {
  int programs = 0;
  double coldSeconds = 0;
  double warmSeconds = 0;
  double diskSeconds = 0;
  bool identical = true;
  bool diskTierHit = true;

  [[nodiscard]] double speedup() const {
    return warmSeconds > 0 ? coldSeconds / warmSeconds : 0.0;
  }
  [[nodiscard]] double coldMsPerRequest() const {
    return 1e3 * coldSeconds / programs;
  }
  [[nodiscard]] double warmMsPerRequest() const {
    return 1e3 * warmSeconds / programs;
  }

  [[nodiscard]] service::Json json() const {
    service::Json j = service::Json::object();
    j.set("method", "csan")
        .set("programs", programs)
        .set("cold_seconds", coldSeconds)
        .set("warm_seconds", warmSeconds)
        .set("disk_seconds", diskSeconds)
        .set("cold_ms_per_request", coldMsPerRequest())
        .set("warm_ms_per_request", warmMsPerRequest())
        .set("warm_speedup", speedup())
        .set("warm_speedup_target", 10)
        .set("disk_tier_answered_all", diskTierHit)
        .set("responses_identical_to_standalone", identical);
    return j;
  }
};

/// Cold then warm over one connection; then a fresh server on the same
/// cache directory, answered from disk.
ColdWarm runColdWarm(const std::string& sockPath,
                     const std::string& cacheDir) {
  ColdWarm cw;
  cw.programs = smokeMode() ? 6 : 16;
  std::vector<std::string> sources;
  std::vector<driver::RunOutput> expected;
  for (int i = 0; i < cw.programs; ++i) {
    sources.push_back(makeSource(i));
    expected.push_back(
        driver::runSource(sources.back(), "bench.cp", optionsFor("csan")));
  }

  auto driveOnce = [&](double& seconds, const char* wantTier,
                       bool* tierOk) {
    Expected<support::FdStream> conn = support::connectUnix(sockPath);
    if (!conn) {
      cw.identical = false;
      return;
    }
    support::Stopwatch watch;
    for (int i = 0; i < cw.programs; ++i) {
      const RoundTripResult r =
          roundTrip(*conn, makeRequest("csan", sources[i], i));
      if (!matches(r, expected[i])) cw.identical = false;
      if (tierOk != nullptr && r.tier != wantTier) *tierOk = false;
    }
    seconds = watch.seconds();
  };

  {
    service::ServerOptions opts;
    opts.cacheDir = cacheDir;
    service::Server server(opts);
    std::thread daemon([&] { (void)server.serveUnix(sockPath); });
    while (!fs::exists(sockPath)) std::this_thread::yield();
    driveOnce(cw.coldSeconds, "miss", nullptr);
    driveOnce(cw.warmSeconds, "memory", nullptr);
    server.requestShutdown();
    daemon.join();
  }
  {
    // Fresh process-equivalent: new server, empty memory tiers, same
    // disk directory. Every answer must come from the disk tier.
    service::ServerOptions opts;
    opts.cacheDir = cacheDir;
    service::Server server(opts);
    std::thread daemon([&] { (void)server.serveUnix(sockPath); });
    while (!fs::exists(sockPath)) std::this_thread::yield();
    driveOnce(cw.diskSeconds, "disk", &cw.diskTierHit);
    server.requestShutdown();
    daemon.join();
  }
  return cw;
}

struct ClientRun {
  int clients = 0;
  std::size_t requests = 0;
  double seconds = 0;
  std::size_t errors = 0;
  bool identical = true;

  [[nodiscard]] double requestsPerSecond() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  }

  [[nodiscard]] service::Json json() const {
    service::Json j = service::Json::object();
    j.set("clients", clients)
        .set("requests", requests)
        .set("seconds", seconds)
        .set("requests_per_second", requestsPerSecond())
        .set("errors", errors)
        .set("responses_identical_to_standalone", identical);
    return j;
  }
};

/// `clients` threads, each with its own connection, walking the shared
/// workload from a different offset so the interleaving of cache hits
/// and distinct keys differs per client.
ClientRun runClients(const std::string& sockPath,
                     const std::vector<WorkItem>& workload, int clients,
                     int requestsPerClient) {
  ClientRun run;
  run.clients = clients;
  run.requests =
      static_cast<std::size_t>(clients) * requestsPerClient;

  service::Server server({});
  std::thread daemon([&] { (void)server.serveUnix(sockPath); });
  while (!fs::exists(sockPath)) std::this_thread::yield();

  std::atomic<std::size_t> errors{0};
  std::atomic<bool> identical{true};
  support::Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Expected<support::FdStream> conn = support::connectUnix(sockPath);
      if (!conn) {
        errors += static_cast<std::size_t>(requestsPerClient);
        return;
      }
      for (int j = 0; j < requestsPerClient; ++j) {
        const std::size_t idx =
            (static_cast<std::size_t>(c) * 7 + j) % workload.size();
        const WorkItem& item = workload[idx];
        const RoundTripResult r = roundTrip(*conn, item.payload);
        if (!r.ok) ++errors;
        if (!matches(r, item.expected)) identical = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  run.seconds = watch.seconds();
  server.requestShutdown();
  daemon.join();

  run.errors = errors.load();
  run.identical = identical.load();
  return run;
}

struct FleetRun {
  unsigned workers = 0;
  std::size_t requests = 0;
  double seconds = 0;
  std::size_t kills = 0;
  std::size_t errors = 0;
  bool identical = true;
  std::uint64_t workerDeaths = 0;
  std::uint64_t restarts = 0;
  std::uint64_t retried = 0;
  std::uint64_t fallbacks = 0;

  [[nodiscard]] double requestsPerSecond() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  }

  [[nodiscard]] service::Json json() const {
    service::Json j = service::Json::object();
    j.set("workers", static_cast<int>(workers))
        .set("requests", requests)
        .set("seconds", seconds)
        .set("requests_per_second", requestsPerSecond())
        .set("kills_during_load", kills)
        .set("worker_deaths_observed", workerDeaths)
        .set("restarts", restarts)
        .set("requests_retried", retried)
        .set("requests_fallback_local", fallbacks)
        .set("errors", errors)
        .set("responses_identical_to_standalone", identical);
    return j;
  }
};

/// One client streaming the workload through a fleet gateway while this
/// thread SIGKILLs a live worker every `killEvery` requests. The
/// supervisor's whole job is to make that invisible: any error envelope
/// or byte of divergence fails the experiment.
FleetRun runFleet(const std::string& sockPath,
                  const std::vector<WorkItem>& workload, unsigned workers,
                  int requests, int killEvery) {
  FleetRun run;
  run.workers = workers;
  run.requests = static_cast<std::size_t>(requests);

  service::FleetOptions opts;
  opts.workers = workers;
  opts.probeIntervalMs = 25;
  opts.backoffBaseMs = 5;
  opts.backoffCeilingMs = 200;
  service::Fleet fleet(opts);
  std::thread gateway([&] { (void)fleet.serveUnix(sockPath); });
  while (!fs::exists(sockPath)) std::this_thread::yield();
  (void)fleet.waitAllLive(10000);

  Expected<support::FdStream> conn = support::connectUnix(sockPath);
  if (!conn) {
    run.errors = run.requests;
    run.identical = false;
    fleet.requestShutdown();
    gateway.join();
    return run;
  }

  support::Stopwatch watch;
  for (int i = 0; i < requests; ++i) {
    const WorkItem& item = workload[static_cast<std::size_t>(i) %
                                    workload.size()];
    const RoundTripResult r = roundTrip(*conn, item.payload);
    if (!r.ok) ++run.errors;
    if (!matches(r, item.expected)) run.identical = false;
    if (killEvery > 0 && i % killEvery == killEvery - 1) {
      // Shoot whichever slot currently holds a live pid; slots caught
      // mid-restart are skipped so every round draws blood.
      for (unsigned probe = 0; probe < fleet.workerCount(); ++probe) {
        const unsigned s = (static_cast<unsigned>(i / killEvery) + probe) %
                           fleet.workerCount();
        const pid_t victim = fleet.slotPid(s);
        if (victim > 0 && ::kill(victim, SIGKILL) == 0) {
          ++run.kills;
          break;
        }
      }
    }
  }
  run.seconds = watch.seconds();

  run.workerDeaths = fleet.counters().workerDeaths.value();
  run.restarts = fleet.counters().restarts.value();
  run.retried = fleet.counters().retried.value();
  run.fallbacks = fleet.counters().fallbacks.value();
  fleet.requestShutdown();
  gateway.join();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path scratch =
      fs::temp_directory_path() /
      ("cssame_bench_service_" + std::to_string(::getpid()));
  fs::remove_all(scratch);
  fs::create_directories(scratch / "cache");
  const std::string sockPath = (scratch / "d.sock").string();

  benchutil::Table table(
      "Service-1: cssamed cold/warm latency and client scaling");
  service::Json& json = table.json();
  json.set("smoke", smokeMode());

  const ColdWarm cw = runColdWarm(sockPath, (scratch / "cache").string());

  const int perClient = smokeMode() ? 25 : 120;
  const std::vector<WorkItem> workload =
      makeWorkload(smokeMode() ? 4 : 8);
  std::vector<ClientRun> runs;
  for (int clients : {1, 4, 16})
    runs.push_back(runClients(sockPath, workload, clients, perClient));

  table.gate("warm vs cold speedup (csan)", ">= 10x",
             benchutil::fmt("%.1fx", cw.speedup()), cw.speedup() >= 10.0);
  table.note("  cold latency per request", "(reported)",
             benchutil::fmt("%.2f ms", cw.coldMsPerRequest()));
  table.note("  warm latency per request", "(reported)",
             benchutil::fmt("%.3f ms", cw.warmMsPerRequest()));
  table.gate("  restart answers from disk tier", "1", cw.diskTierHit,
             cw.diskTierHit);
  table.gate("  responses identical to standalone", "1", cw.identical,
             cw.identical);
  json.set("cold_warm", cw.json());
  service::Json clientJson = service::Json::array();
  for (const ClientRun& r : runs) {
    table.gate(benchutil::fmt("sustained, %d client%s", r.clients,
                              r.clients == 1 ? "" : "s"),
               "0 errors, identical",
               benchutil::fmt("%.0f req/s (%zu err)", r.requestsPerSecond(),
                              r.errors),
               r.errors == 0 && r.identical);
    clientJson.push(r.json());
  }
  json.set("client_scaling", std::move(clientJson));

  const int fleetRequests = smokeMode() ? 200 : 1000;
  const int killEvery = 50;
  service::Json fleetJson = service::Json::array();
  for (unsigned workers : {1u, 2u, 4u}) {
    const FleetRun f =
        runFleet(sockPath, workload, workers, fleetRequests, killEvery);
    // The chaos must land (kills > 0 and the supervisor saw deaths) and
    // must stay invisible to the client.
    table.gate(benchutil::fmt("fleet=%u under kill-loop", f.workers),
               "0 errors, identical",
               benchutil::fmt("%.0f req/s (%zu kills, %zu err)",
                              f.requestsPerSecond(), f.kills, f.errors),
               f.errors == 0 && f.identical && f.kills > 0 &&
                   f.workerDeaths > 0);
    fleetJson.push(f.json());
  }
  json.set("fleet", std::move(fleetJson));

  benchutil::writeBenchJson("BENCH_service.json",
                            "Service-1: cssamed latency and throughput "
                            "(cold vs warm cache, client scaling)",
                            json);
  fs::remove_all(scratch);
  return table.finish(argc, argv);
}
