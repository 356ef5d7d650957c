#include "src/service/server.h"

#include <unistd.h>

#include <algorithm>
#include <future>

#include "src/driver/runner.h"
#include "src/interp/explore.h"
#include "src/parser/parser.h"
#include "src/repair/repair.h"
#include "src/support/version.h"

namespace cssame::service {

namespace {

/// Decodes the per-request option object into the runner's option set.
/// Unknown keys are ignored (forward compatibility); file-writing output
/// paths are deliberately not decodable — a daemon writing client-named
/// files would not be a pure function of the request. Known keys with
/// invalid *values* are rejected: an unknown memory model silently
/// downgraded to SC would cache (and serve) answers for a question the
/// client never asked. On failure returns false with a message in `err`.
bool decodeOptions(const Json& options, driver::RunOptions& o,
                   std::string& err) {
  o.dumpPfg = options.getBool("dumpPfg", false);
  o.dumpForm = options.getBool("dumpForm", false);
  o.cssame = options.getBool("cssame", true);
  o.doOpt = options.getBool("opt", false);
  o.doRun = options.getBool("run", false);
  o.doRaces = options.getBool("races", false);
  o.doStats = options.getBool("stats", false);
  o.doCsan = options.getBool("csan", false);
  o.doSarif = options.getBool("sarif", false);
  o.doJson = options.getBool("json", false);
  o.doVrange = options.getBool("vrange", false);
  o.doTso = options.getBool("tso", false);
  o.doPointsTo = options.getBool("pointsTo", false);
  o.doExplore = options.getBool("explore", false);
  o.dpor = options.getBool("dpor", true);
  const std::string model = options.getString("memoryModel", "sc");
  if (!support::parseMemoryModel(model, o.memoryModel)) {
    err = "unknown memory model '" + model + "' (expected sc or tso)";
    return false;
  }
  o.seed = static_cast<std::uint64_t>(options.getInt("seed", 1));
  // The fix target mirrors the memory-model strictness: a present key
  // must be a string naming a known target — an unknown target silently
  // downgraded to "all" would cache a repair the client never asked for.
  const Json& fixValue = options.get("fix");
  if (!fixValue.isNull()) {
    if (!fixValue.isString()) {
      err = "option 'fix' must be a string fix target";
      return false;
    }
    repair::FixTarget target;
    if (!repair::parseFixTarget(fixValue.stringValue(), target)) {
      err = "unknown fix target '" + fixValue.stringValue() +
            "' (expected all, race, may-alias, tso, fence, or a "
            "diagnostic code name)";
      return false;
    }
    o.doFix = true;
    o.fixTarget = repair::fixTargetName(target);
  }
  // Mirror the CLI: --sarif/--json imply --csan.
  if (o.doSarif || o.doJson) o.doCsan = true;
  return true;
}

/// The result payload of an analysis run. The streams are moved into the
/// value, so they are copied once, while they are escaped.
std::string resultPayload(driver::RunOutput out) {
  Json result = Json::object();
  result.set("out", std::move(out.out))
      .set("err", std::move(out.err))
      .set("code", out.code);
  return result.write();
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(opts),
      pool_(opts.workers),
      cache_(opts.memEntries, opts.cacheDir),
      transport_(
          opts.maxPayload,
          [this](const std::string& payload) { return handleOnPool(payload); },
          [this] {
            counters_.badFrames.inc();
            counters_.errors.inc();
          }) {
  // A crashed predecessor may have left partial tmp files; they are
  // invisible to lookups but would accumulate forever.
  cache_.disk().sweepTmp();
}

Json Server::statsJson() {
  const CacheCounters& cc = cache_.counters();
  Json cacheJson = Json::object();
  cacheJson.set("responseHits", cc.responseHits.value())
      .set("diskHits", cc.diskHits.value())
      .set("compilationHits", cc.compilationHits.value())
      .set("misses", cc.misses.value())
      .set("responseEvictions", cc.responseEvictions.value())
      .set("compilationEvictions", cc.compilationEvictions.value())
      .set("responseEntries", cache_.responseEntries())
      .set("compilationEntries", cache_.compilationEntries())
      .set("diskCorruptRejected", cache_.disk().corruptRejected.value())
      .set("diskBuildRejected", cache_.disk().buildRejected.value())
      .set("diskWriteFailed", cache_.disk().writeFailed.value())
      .set("diskDegraded", cache_.disk().degraded.value())
      .set("diskEnabled", cache_.disk().enabled());
  Json methods = Json::object();
  methods.set("analyze", counters_.methodAnalyze.value())
      .set("csan", counters_.methodCsan.value())
      .set("vrange", counters_.methodVrange.value())
      .set("explore", counters_.methodExplore.value())
      .set("fix", counters_.methodFix.value())
      .set("stats", counters_.methodStats.value());
  Json dporJson = Json::object();
  dporJson.set("statesPruned", counters_.dporStatesPruned.value())
      .set("sleepSetHits", counters_.dporSleepHits.value())
      .set("depQueries", counters_.dporDepQueries.value());
  Json repairJson = Json::object();
  repairJson.set("targets", counters_.repairTargets.value())
      .set("candidatesTried", counters_.repairTried.value())
      .set("candidatesVerified", counters_.repairVerified.value())
      .set("candidatesRejected", counters_.repairRejected.value())
      .set("unverifiable", counters_.repairUnverifiable.value())
      .set("freshLockFallbacks", counters_.repairFreshLocks.value());
  Json stats = Json::object();
  stats.set("version", support::versionString())
      .set("build", support::buildFingerprint())
      .set("requests", counters_.requests.value())
      .set("errors", counters_.errors.value())
      .set("badFrames", counters_.badFrames.value())
      .set("connections", counters_.connections.value())
      .set("workers", static_cast<std::int64_t>(pool_.workers()))
      .set("methods", std::move(methods))
      .set("dpor", std::move(dporJson))
      .set("repair", std::move(repairJson))
      .set("cache", std::move(cacheJson));
  return stats;
}

Json Server::runAnalysisMethod(const std::string& method,
                               const Json& request) {
  const Json& sourceValue = request.get("source");
  if (!sourceValue.isString())
    return errorEnvelope(request.get("id"), "invalid-request", method,
                         "missing string field 'source'");
  const std::string& source = sourceValue.stringValue();
  const std::string fileName = request.getString("file", "<service>");

  driver::RunOptions o;
  if (std::string optErr;
      !decodeOptions(request.get("options"), o, optErr))
    return errorEnvelope(request.get("id"), "invalid-request", method,
                         optErr);
  if (method == "csan") o.doCsan = true;
  if (method == "vrange") o.doVrange = true;

  // The request's content address: any byte of the build, the method,
  // the canonical options, the presentation file name (it appears in
  // SARIF/JSON artifact URIs) or the source changes the key.
  support::Fingerprinter fp;
  fp.mixBytes(support::buildFingerprint());
  fp.mixBytes(method);
  fp.mixBytes(o.cacheKey());
  fp.mixBytes(fileName);
  fp.mixBytes(source);
  const support::Hash128 requestKey = fp.digest();

  const auto compute = [&](CacheTier& tier, Json&) -> std::string {
    // Read-only requests can reuse (and populate) the live-Compilation
    // tier; --opt/--run/--fix mutate, execute or repair the program and
    // always take the self-contained path.
    if (!o.doOpt && !o.doRun && !o.doFix) {
      support::Fingerprinter sfp;
      sfp.mixBytes(source);
      sfp.mix(o.cssame ? 1 : 0);
      const support::Hash128 sourceKey = sfp.digest();
      std::shared_ptr<AnalyzedProgram> ap =
          cache_.lookupCompilation(sourceKey);
      if (ap) {
        tier = CacheTier::Compilation;
        cache_.counters().compilationHits.inc();
      } else {
        parser::ParseResult pr = parser::parseChecked(source);
        if (pr.ok()) {
          try {
            ap = std::make_shared<AnalyzedProgram>(
                std::move(pr.program),
                driver::PipelineOptions{.enableCssame = o.cssame});
            for (const auto& d : pr.diag.diagnostics()) {
              d.appendTo(ap->preErr);
              ap->preErr += '\n';
            }
            cache_.storeCompilation(sourceKey, ap);
          } catch (const InvariantError&) {
            ap = nullptr;  // degrade to the self-contained path
          }
        }
      }
      if (ap)
        return resultPayload(driver::runCompiled(
            *ap->program, ap->compilation, ap->preErr, fileName, o));
    }
    return resultPayload(driver::runSource(source, fileName, o));
  };
  return serveCached(request, method, requestKey, compute);
}

Json Server::runExplore(const Json& request) {
  const Json& sourceValue = request.get("source");
  if (!sourceValue.isString())
    return errorEnvelope(request.get("id"), "invalid-request", "explore",
                         "missing string field 'source'");
  const std::string& source = sourceValue.stringValue();
  const Json& options = request.get("options");

  interp::ExploreOptions eo;
  const interp::ExploreOptions defaults;
  // Budgets are clamped to the library defaults: a client cannot demand
  // an exploration bigger than the daemon would run for itself.
  eo.maxSteps = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(options.getInt(
          "maxSteps", static_cast<std::int64_t>(1u << 16))),
      defaults.maxSteps);
  eo.maxStates = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(options.getInt(
          "maxStates", static_cast<std::int64_t>(1u << 16))),
      defaults.maxStates);
  eo.maxDepthPerRun = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(options.getInt("maxDepth", 1024)),
      defaults.maxDepthPerRun);
  eo.maxMemoryBytes = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(
          options.getInt("maxMemoryBytes", 64 << 20)),
      defaults.maxMemoryBytes);
  eo.detectRaces = options.getBool("detectRaces", false);
  eo.recordValues = options.getBool("recordValues", false);
  eo.dpor = options.getBool("dpor", true);

  support::Fingerprinter fp;
  fp.mixBytes(support::buildFingerprint());
  fp.mixBytes("explore");
  fp.mix(eo.maxSteps);
  fp.mix(eo.maxStates);
  fp.mix(eo.maxDepthPerRun);
  fp.mix(eo.maxMemoryBytes);
  // The dpor bit is keyed even though the contract fields match either
  // way: the reduction counters in the result differ, and equal keys
  // must always mean byte-equal cached payloads.
  fp.mix((eo.detectRaces ? 1u : 0u) | (eo.recordValues ? 2u : 0u) |
         (eo.dpor ? 4u : 0u));
  fp.mixBytes(source);
  const support::Hash128 requestKey = fp.digest();

  const auto compute = [&](CacheTier&, Json& error) -> std::string {
    parser::ParseResult pr = parser::parseChecked(source);
    if (!pr.ok()) {
      error = errorEnvelope(request.get("id"), "parse-error", "explore",
                            pr.status().fault().message);
      return {};
    }
    interp::ExploreResult res;
    try {
      res = interp::exploreAllSchedules(pr.program, eo);
    } catch (const InvariantError& e) {
      error = errorEnvelope(request.get("id"), "internal", "explore",
                            e.what());
      return {};
    }
    // Aggregate reduction counters feed the `stats` method — the fleet
    // gateway sums them across workers to see how much pruning buys.
    counters_.dporStatesPruned.inc(res.dpor.prunedSuccessors);
    counters_.dporSleepHits.inc(res.dpor.sleepSetHits);
    counters_.dporDepQueries.inc(res.dpor.depQueries);
    Json outputs = Json::array();
    for (const std::vector<long long>& seq : res.outputs) {
      Json one = Json::array();
      for (long long v : seq) one.push(static_cast<std::int64_t>(v));
      outputs.push(std::move(one));
    }
    Json raced = Json::array();
    for (SymbolId sym : res.racedVars)
      raced.push(pr.program.symbols.nameOf(sym));
    Json ranges = Json::object();
    for (const auto& [sym, range] : res.observedRanges) {
      Json pair = Json::array();
      pair.push(static_cast<std::int64_t>(range.first))
          .push(static_cast<std::int64_t>(range.second));
      ranges.set(pr.program.symbols.nameOf(sym), std::move(pair));
    }
    Json result = Json::object();
    result.set("complete", res.complete)
        .set("budgetExceeded",
             support::budgetKindName(res.budgetExceeded))
        .set("statesExplored", res.statesExplored)
        .set("anyDeadlock", res.anyDeadlock)
        .set("anyLockError", res.anyLockError)
        .set("anyAssertFailure", res.anyAssertFailure)
        .set("outputs", std::move(outputs))
        .set("racedVars", std::move(raced))
        .set("observedRanges", std::move(ranges));
    Json dpor = Json::object();
    dpor.set("enabled", eo.dpor)
        .set("prunedSuccessors", res.dpor.prunedSuccessors)
        .set("sleepSetHits", res.dpor.sleepSetHits)
        .set("depQueries", res.dpor.depQueries)
        .set("partialReexpansions", res.dpor.partialReexpansions);
    result.set("dpor", std::move(dpor))
        .set("peakFrontierBytes", res.peakFrontierBytes);
    return result.write();
  };
  return serveCached(request, "explore", requestKey, compute);
}

Json Server::runFix(const Json& request) {
  const Json& sourceValue = request.get("source");
  if (!sourceValue.isString())
    return errorEnvelope(request.get("id"), "invalid-request", "fix",
                         "missing string field 'source'");
  const std::string& source = sourceValue.stringValue();
  const std::string fileName = request.getString("file", "<service>");

  // Full option decoding (not just the fix key): the strict memoryModel
  // and fix-target validation apply to this method too, and the decoded
  // set feeds cacheKey() so a fix response's address reflects every
  // option the client sent.
  driver::RunOptions o;
  if (std::string optErr;
      !decodeOptions(request.get("options"), o, optErr))
    return errorEnvelope(request.get("id"), "invalid-request", "fix",
                         optErr);
  o.doFix = true;  // the method implies it when options omit the key
  repair::FixTarget target = repair::FixTarget::All;
  (void)repair::parseFixTarget(o.fixTarget, target);

  support::Fingerprinter fp;
  fp.mixBytes(support::buildFingerprint());
  fp.mixBytes("fix");
  fp.mixBytes(o.cacheKey());
  fp.mixBytes(fileName);
  fp.mixBytes(source);
  const support::Hash128 requestKey = fp.digest();

  const auto compute = [&](CacheTier&, Json& error) -> std::string {
    repair::RepairResult res;
    try {
      res = repair::repairSource(source, target);
    } catch (const std::exception& e) {
      error = errorEnvelope(request.get("id"), "internal", "fix", e.what());
      return {};
    }
    if (res.status == repair::RepairStatus::Error) {
      error = errorEnvelope(request.get("id"), "parse-error", "fix",
                            res.error);
      return {};
    }
    // Counters accumulate on genuine runs only — a cache hit repeats a
    // result, not the work (same policy as the explore dpor counters).
    counters_.repairTargets.inc(res.stats.targets);
    counters_.repairTried.inc(res.stats.candidatesTried);
    counters_.repairVerified.inc(res.stats.candidatesVerified);
    counters_.repairRejected.inc(res.stats.candidatesRejected);
    counters_.repairUnverifiable.inc(res.stats.unverifiable);
    counters_.repairFreshLocks.inc(res.stats.freshLockFallbacks);

    Json applied = Json::array();
    for (const repair::AppliedFix& f : res.applied) {
      Json one = Json::object();
      one.set("target", f.target)
          .set("candidate", f.candidate)
          .set("candidateIndex",
               static_cast<std::int64_t>(f.candidateIndex))
          .set("candidateCount",
               static_cast<std::int64_t>(f.candidateCount));
      applied.push(std::move(one));
    }
    Json unfixed = Json::array();
    for (const repair::UnfixedTarget& u : res.unfixed) {
      Json one = Json::object();
      one.set("target", u.target)
          .set("reason", u.reason)
          .set("candidatesTried",
               static_cast<std::int64_t>(u.candidatesTried));
      unfixed.push(std::move(one));
    }
    Json diff = Json::array();
    for (const repair::DiffLine& d : res.diff) {
      Json one = Json::object();
      one.set("op", std::string(1, d.op))
          .set("line", static_cast<std::int64_t>(d.op == '-' ? d.oldLine
                                                             : d.newLine))
          .set("text", d.text);
      diff.push(std::move(one));
    }
    Json stats = Json::object();
    stats.set("targets", static_cast<std::int64_t>(res.stats.targets))
        .set("candidatesTried",
             static_cast<std::int64_t>(res.stats.candidatesTried))
        .set("candidatesVerified",
             static_cast<std::int64_t>(res.stats.candidatesVerified))
        .set("candidatesRejected",
             static_cast<std::int64_t>(res.stats.candidatesRejected))
        .set("unverifiable",
             static_cast<std::int64_t>(res.stats.unverifiable))
        .set("freshLockFallbacks",
             static_cast<std::int64_t>(res.stats.freshLockFallbacks))
        .set("iterations",
             static_cast<std::int64_t>(res.stats.iterations));
    const bool failed = res.status == repair::RepairStatus::Partial ||
                        res.status == repair::RepairStatus::NoSafeFix;
    Json result = Json::object();
    result.set("status", repair::repairStatusName(res.status))
        .set("applied", std::move(applied))
        .set("unfixed", std::move(unfixed))
        .set("patchedSource", res.patchedSource)
        .set("diff", std::move(diff))
        .set("raceFree", res.finalRaceFree)
        .set("deadlockFree", res.finalDeadlockFree)
        .set("exploreComplete", res.finalExploreComplete)
        .set("tsoChecked", res.finalTsoChecked)
        .set("tsoJustified", res.finalTsoJustified)
        // The exact bytes `cssamec --fix` prints for this source, so
        // clients can render the human report without re-deriving it.
        .set("report", repair::renderFixReport(res, target))
        .set("stats", std::move(stats))
        .set("code", failed ? 1 : 0);
    return result.write();
  };
  return serveCached(request, "fix", requestKey, compute);
}

Json Server::serveCached(const Json& request, std::string_view method,
                         const support::Hash128& requestKey,
                         const ComputeResult& compute) {
  CacheTier tier = CacheTier::Miss;
  std::shared_ptr<const std::string> payload =
      cache_.lookupResponse(requestKey, tier);
  if (!payload) {
    Json error;
    std::string fresh = compute(tier, error);
    if (tier == CacheTier::Miss) cache_.counters().misses.inc();
    if (!error.isNull()) return error;
    payload = std::make_shared<const std::string>(std::move(fresh));
    cache_.storeResponse(requestKey, payload);
  }
  // The payload is this server's own compact rendering — fresh, or from
  // a tier that only admits such bytes — so it is spliced as is.
  Json env = Json::object();
  env.set("id", request.get("id"))
      .set("ok", true)
      .set("method", method)
      .set("cached", cacheTierName(tier))
      .set("result", Json::raw(std::move(payload)));
  return env;
}

Json Server::handleRequest(const Json& request) {
  if (!request.isObject())
    return errorEnvelope(Json(), "invalid-request", "router",
                         "request is not a JSON object");
  const std::string method = request.getString("method", "");
  if (method == "analyze" || method == "csan" || method == "vrange") {
    (method == "analyze"   ? counters_.methodAnalyze
     : method == "csan"    ? counters_.methodCsan
                           : counters_.methodVrange)
        .inc();
    return runAnalysisMethod(method, request);
  }
  if (method == "explore") {
    counters_.methodExplore.inc();
    return runExplore(request);
  }
  if (method == "fix") {
    counters_.methodFix.inc();
    return runFix(request);
  }
  if (method == "stats") {
    counters_.methodStats.inc();
    Json env = Json::object();
    env.set("id", request.get("id"))
        .set("ok", true)
        .set("method", "stats")
        .set("result", statsJson());
    return env;
  }
  if (method == "shutdown") {
    counters_.shutdownRequests.inc();
    requestShutdown();
    Json env = Json::object();
    env.set("id", request.get("id"))
        .set("ok", true)
        .set("method", "shutdown");
    return env;
  }
  return errorEnvelope(request.get("id"), "unknown-method", "router",
                       method.empty() ? "missing string field 'method'"
                                      : "unknown method '" + method + "'");
}

std::string Server::handlePayload(const std::string& payload) {
  counters_.requests.inc();
  Json response;
  try {
    Expected<Json> request = parseJson(payload);
    if (!request) {
      response = errorEnvelope(Json(), "parse-error", "json",
                               request.fault().message);
    } else {
      response = handleRequest(*request);
    }
  } catch (const std::exception& e) {
    response = errorEnvelope(Json(), "internal", "router", e.what());
  } catch (...) {
    response =
        errorEnvelope(Json(), "internal", "router", "unknown exception");
  }
  if (!response.getBool("ok", false)) counters_.errors.inc();
  return response.write();
}

std::string Server::handleOnPool(const std::string& payload) {
  // Each request is one unit on the shared pool, bounding analysis
  // parallelism at the pool size regardless of connection count. With
  // a pool of 1, submit() runs inline on this connection thread.
  std::string response;
  std::promise<void> done;
  pool_.submit([&] {
    response = handlePayload(payload);
    done.set_value();
  });
  done.get_future().wait();
  return response;
}

void Server::serveStream(support::FdStream& stream) {
  transport_.serveFrames(stream, stream);
}

Status Server::serveUnix(const std::string& socketPath) {
  const Status s = transport_.serveUnix(socketPath, counters_.connections);
  pool_.waitIdle();
  return s;
}

void Server::serveStdio() {
  support::FdStream in(::dup(0));
  support::FdStream out(::dup(1));
  transport_.serveFrames(in, out);
}

}  // namespace cssame::service
