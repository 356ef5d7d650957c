// loadgen — the repository benchmark's load generator (README.md).
//
//   loadgen --workload NAME --seed N --seconds S --trace 0|1
//           --cssamed PATH --spawn-probe PATH [--repo-root DIR]
//           [--work-dir DIR] [--git-describe TEXT]
//
// --trace 0 drives a real cssamed over its Unix socket (one client, one
// request in flight), checks every answer and prints the end-to-end
// metrics. --trace 1 replays the same request list in-process and prints
// the per-layer metrics. Either way the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}, preceded by a
// {"metadata": ...} line; the exit code is nonzero when any operation
// failed.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "loadbench/src/check.h"
#include "loadbench/src/stats.h"
#include "loadbench/src/timed.h"
#include "loadbench/src/traced.h"

using namespace loadbench;
using cssame::service::Json;

namespace {

/// Programs the generated_* ratios are taken over: the first programs of
/// the optimize stream, so the counts repeat exactly for a seed.
constexpr std::size_t kRatioPrograms = 256;

/// The gated times are rescaled to a host whose 16 MiB pointer-chase step
/// (the host probe) takes this long: time × kReferenceChaseNs ÷ the run's
/// median chase step. The host's memory contention drifts by half over
/// minutes and the chase follows it; the program cannot move the probe
/// (README.md, "Noise").
constexpr double kReferenceChaseNs = 200;

/// setup_s is rescaled the same way to a host where the spawn probe (an
/// empty program on cssamed's C++ runtime) takes this long from fork to
/// exit: each set-up is divided by the probe spawned just before it. The
/// host's cost of creating and loading a process drifts by a third over
/// minutes; cssamed's own start-up work shows in full (README.md).
constexpr double kReferenceSpawnSeconds = 0.002;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: loadgen --workload lock_regions|optimize|service_mix "
               "--seed N --seconds S --trace 0|1 --cssamed PATH "
               "--spawn-probe PATH [--repo-root DIR] [--work-dir DIR] "
               "[--git-describe TEXT]\n");
  std::exit(2);
}

Json metric(double value, const std::string& unit) {
  Json m = Json::object();
  m.set("value", std::isfinite(value) ? value : 0.0).set("unit", unit);
  return m;
}

/// generated_* on lock_regions and service_mix, which send no optimize
/// request: the optimize stream's first programs, optimized in-process
/// (on the program, not a printout).
GeneratedRatios inProcessRatios(const RunConfig& cfg) {
  RequestStream stream(Workload::Optimize, cfg.seed, cfg.repoRoot);
  std::vector<OptimizedCounts> programs;
  for (std::size_t i = 0; i < kRatioPrograms; ++i) {
    OptimizedCounts c;
    if (countOptimizedInProcess(stream.next().source, c))
      programs.push_back(c);
  }
  return generatedRatios(programs);
}

}  // namespace

int loadgen(int argc, char** argv) {
  RunConfig cfg;
  std::string workload, gitDescribe = "unknown";
  int trace = -1;
  bool haveSeed = false;
  cfg.repoRoot = ".";
  cfg.workDir = ".bench_build/run-" + std::to_string(::getpid());
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
      haveSeed = true;
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--cssamed") {
      cfg.cssamed = value;
    } else if (flag == "--spawn-probe") {
      cfg.spawnProbe = value;
    } else if (flag == "--repo-root") {
      cfg.repoRoot = value;
    } else if (flag == "--work-dir") {
      cfg.workDir = value;
    } else if (flag == "--git-describe") {
      gitDescribe = value;
    } else {
      usage();
    }
  }
  if (argc % 2 == 0 || !parseWorkload(workload, cfg.workload) || !haveSeed ||
      cfg.seconds <= 0 || (trace != 0 && trace != 1) || cfg.cssamed.empty() ||
      (trace == 0 && cfg.spawnProbe.empty()))
    usage();
  std::filesystem::create_directories(cfg.workDir);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  Json meta = Json::object();
  meta.set("workload", workloadName(cfg.workload))
      .set("seed", static_cast<std::int64_t>(cfg.seed))
      .set("trace", trace)
      .set("seconds", cfg.seconds)
      .set("hardware_threads", static_cast<std::int64_t>(hw))
      .set("build_type", LOADBENCH_BUILD_TYPE)
      .set("git_describe", gitDescribe)
      .set("lock_regions_k", kLockRegions);

  Json metrics = Json::object();
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  auto recordProbe = [&](const HostProbe& probe) {
    Json p = Json::object();
    p.set("alu_ns_per_iter", probe.aluNs())
        .set("chase_ns_per_step", probe.chaseNs())
        .set("samples", static_cast<std::int64_t>(probe.samples()));
    meta.set("host_probe", std::move(p));
  };
  if (trace == 0) {
    const TimedRun run = runTimed(cfg);
    const unsigned threads = std::min(3u, hw);
    const CheckSummary cs = checkTimedRun(run, threads);
    attempted = cs.attempted;
    failed = cs.failed;
    failures = cs.failures;

    GeneratedRatios ratios;
    if (cfg.workload == Workload::Optimize) {
      std::vector<OptimizedCounts> programs;
      for (std::size_t i = 0;
           i < run.exchanges.size() && programs.size() < kRatioPrograms; ++i)
        if (cs.hasCounts[i]) programs.push_back(cs.counts[i]);
      ratios = generatedRatios(programs);
    } else {
      ratios = inProcessRatios(cfg);
    }

    const double n = static_cast<double>(run.latencyMs.size());
    const double p50 = quantile(run.latencyMs, 0.5);
    const double p95 = quantile(run.latencyMs, 0.95);
    const double cpuMs = n > 0 ? run.cpuSeconds * 1e3 / n : 0;
    const double chaseNs = run.probe.chaseNs();
    const double toReference = chaseNs > 0 ? kReferenceChaseNs / chaseNs : 0;
    std::vector<double> setupRatios;
    for (std::size_t i = 0; i < run.setupSeconds.size(); ++i)
      if (run.spawnProbeSeconds[i] > 0)
        setupRatios.push_back(run.setupSeconds[i] / run.spawnProbeSeconds[i]);
    metrics.set("latency_p95_hostnorm_ms", metric(p95 * toReference, "ms"))
        .set("cpu_ms_per_request_hostnorm", metric(cpuMs * toReference, "ms"))
        .set("server_peak_rss_mb", metric(run.peakRssMb, "MB"))
        .set("setup_s",
             metric(median(setupRatios) * kReferenceSpawnSeconds, "s"))
        .set("generated_steps_ratio", metric(ratios.steps, "ratio"))
        .set("generated_lock_hold_ratio", metric(ratios.holdSteps, "ratio"))
        .set("generated_size_ratio", metric(ratios.statements, "ratio"));

    std::map<std::string, std::int64_t> classes;
    for (std::size_t i = 0; i < run.latencyMs.size(); ++i)
      ++classes[run.requests[run.exchanges[run.untimed + i].request].cls];
    Json classJson = Json::object();
    for (const auto& [cls, count] : classes) classJson.set(cls, count);
    // Reported, not gated: the raw times drift with the host's phases,
    // and p50 falls between the host's two speeds whenever a run spends
    // about half its time in each (README.md, "Noise").
    meta.set("latency_p50_ms", p50)
        .set("cpu_ms_per_request", cpuMs)
        .set("latency_p95_ms", p95)
        .set("throughput_rps",
             run.roundTripSeconds > 0 ? n / run.roundTripSeconds : 0.0)
        .set("timed_requests", static_cast<std::int64_t>(n))
        .set("untimed_requests",
             static_cast<std::int64_t>(run.exchanges.size()) -
                 static_cast<std::int64_t>(n))
        .set("round_trip_seconds", run.roundTripSeconds)
        .set("pinned_cpu", run.cpu)
        .set("setup_s_raw", median(run.setupSeconds))
        .set("spawn_probe_s", median(run.spawnProbeSeconds))
        .set("requests_per_class", std::move(classJson))
        .set("p95_tail_samples",
             static_cast<std::int64_t>(n - std::ceil(0.95 * n)));
    recordProbe(run.probe);
  } else {
    const TracedRun traced = runTraced(cfg);
    attempted = traced.attempted;
    failed = traced.failed;
    failures = traced.failures;
    for (const Metric& m : traced.metrics)
      metrics.set(m.name, metric(m.value, m.unit));
    meta.set("replayed_requests", static_cast<std::int64_t>(traced.requests))
        .set("trace_file", traced.tracePath);
    recordProbe(traced.probe);
  }
  Json failureJson = Json::array();
  for (const std::string& f : failures) failureJson.push(f);
  meta.set("failures", std::move(failureJson));

  std::error_code ec;
  std::filesystem::remove_all(cfg.workDir, ec);

  const bool correct = failed == 0 && attempted > 0;
  Json top = Json::object();
  top.set("metadata", std::move(meta));
  Json result = Json::object();
  result.set("correct", correct)
      .set("attempted", static_cast<std::int64_t>(attempted))
      .set("failed", static_cast<std::int64_t>(failed))
      .set("metrics", std::move(metrics));
  std::printf("%s\n%s\n", top.write().c_str(), result.write().c_str());
  return correct ? 0 : 1;
}

int main(int argc, char** argv) {
  try {
    return loadgen(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen: %s\n", e.what());
    return 1;
  }
}
