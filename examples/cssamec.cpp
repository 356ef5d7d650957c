// cssamec — command line driver for the CSSAME compiler library.
//
// Usage:
//   cssamec [options] <file.cp> [more files...]
//
// Options:
//   --dump-pfg        print the Parallel Flow Graph as Graphviz DOT
//   --dump-form       print the CSSA/CSSAME form (like the paper's Fig. 3)
//   --no-cssame       stop at plain CSSA (skip the π rewriting)
//   --opt             run CSCC + PDCE + LICM and print the optimized program
//   --run [seed]      execute under the interleaving interpreter
//   --races           run csan's lock-discipline checks only: data races,
//                     inconsistent locking, lock-order deadlocks
//   --stats           print analysis statistics and per-phase wall-clock
//   --csan            run the full static concurrency analyzer
//   --vrange          run the concurrent value-range analysis (CVRA)
//   --tso             run the TSO weak-memory analysis (reorderable
//                     store/load pairs; redundant fences)
//   --points-to       print the concurrent points-to solution (per deref
//                     site targets, pointer-holding cells, solver stats)
//   --explore         exhaustively enumerate every schedule (bounded) and
//                     print the output set plus deadlock / lock-error /
//                     assertion verdicts; honors --memory-model
//   --no-dpor         disable dynamic partial-order reduction during
//                     --explore (the unreduced sweep — slower, identical
//                     verdicts; the equality oracle for the reduction)
//   --fix[=TARGET]    synthesize and print a *verified* repair for the
//                     analyses' findings: lock insertions for races,
//                     fences/atomic upgrades for TSO violations, fence
//                     deletions for FenceRedundant. TARGET is all
//                     (default), race, may-alias, tso, fence, or the
//                     corresponding diagnostic code name. Every returned
//                     patch re-passed csan/tso and the schedule explorer
//                     (docs/REPAIR.md); exit 1 when some finding has no
//                     safe fix
//   --memory-model=M  memory model for --run: sc (default) or tso (plain
//                     stores buffer per thread and flush asynchronously)
//   --sarif[=FILE]    emit all diagnostics as SARIF 2.1.0 (implies --csan);
//                     FILE defaults to stdout
//   --json[=FILE]     emit all diagnostics as compact JSON (implies --csan)
//   --jobs=N          analyze the input files on N threads (0 = one per
//                     hardware thread); output stays in input order
//   --connect=SOCK    send the files to a running cssamed at Unix socket
//                     SOCK instead of analyzing in-process; output is
//                     byte-identical to a local run (both sides call the
//                     same driver::runSource)
//   --timeout-ms=N    client-side deadline per request in --connect mode
//                     (default 30000; negative waits forever). A timed-out
//                     or failed exchange is retried once on a fresh
//                     connection after a small jittered pause — a daemon
//                     mid-restart gets one chance to come back — and then
//                     reported as a clear error with exit code 1.
//   --version         print version and build fingerprint, then exit
//
// With several input files each file is analyzed independently; with
// --jobs=N the analyses run concurrently on a thread pool, and each
// file's stdout/stderr is buffered and flushed in input order, so the
// output is byte-identical for every job count. --sarif=FILE/--json=FILE
// are single-file options (the streams would overwrite each other).
//
// SIGINT/SIGTERM during a batch run stop scheduling new files, flush the
// buffered output of every file already analyzed (in input order, as
// usual), and exit 130 — a killed batch never loses finished work.
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/driver/runner.h"
#include "src/repair/candidates.h"
#include "src/service/json.h"
#include "src/service/protocol.h"
#include "src/support/io.h"
#include "src/support/threadpool.h"
#include "src/support/version.h"

using namespace cssame;

namespace {

struct Options {
  driver::RunOptions run;
  unsigned jobs = 1;
  std::string connectPath;
  /// Per-request wall-clock budget in --connect mode; negative disables.
  int timeoutMs = 30000;
};

/// Set by the SIGINT/SIGTERM handler; the batch loop polls it before
/// starting each file.
std::atomic<bool> gInterrupted{false};

void onSignal(int) { gInterrupted.store(true, std::memory_order_relaxed); }

void usage() {
  std::fprintf(stderr,
               "usage: cssamec [--dump-pfg] [--dump-form] [--no-cssame] "
               "[--opt] [--run [seed]] [--races] [--stats] [--csan] "
               "[--vrange] [--tso] [--points-to] [--explore] [--no-dpor] "
               "[--fix[=TARGET]] [--memory-model=sc|tso] "
               "[--sarif[=FILE]] [--json[=FILE]] [--jobs=N] "
               "[--connect=SOCK] [--timeout-ms=N] [--version] "
               "<file> [more files...]\n");
  std::exit(2);
}

/// Reads one input file; returns false (with a message in `err`) when it
/// cannot be opened.
bool readFile(const std::string& file, std::string& source,
              std::string& err) {
  std::ifstream in(file);
  if (!in) {
    err += "cssamec: cannot open '" + file + "'\n";
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  source = buf.str();
  return true;
}

/// Analyzes one input file in-process. Returns the per-file exit code.
int processFile(const std::string& file, const driver::RunOptions& o,
                std::string& out, std::string& err) {
  std::string source;
  if (!readFile(file, source, err)) return 1;
  driver::RunOutput r = driver::runSource(source, file, o);
  out += r.out;
  err += r.err;
  return r.code;
}

/// Client mode: ships each file to a running cssamed and unpacks the
/// response into the same (out, err, code) triple a local run produces.
/// Every frame carries the client deadline, so a wedged or dead daemon
/// surfaces as a bounded failure, never a hang. `transportFailed` is set
/// when the *connection* broke (send/recv failure or timeout — the stream
/// is desynchronized and must be abandoned), as opposed to the daemon
/// answering with a structured error.
int processRemote(const service::Json& request, support::FdStream& conn,
                  std::size_t maxPayload, int timeoutMs, std::string& out,
                  std::string& err, bool* transportFailed = nullptr) {
  if (transportFailed) *transportFailed = false;
  const support::Deadline deadline = support::Deadline::in(timeoutMs);
  if (Status s = service::writeFrameDeadline(conn, request.write(),
                                             maxPayload, deadline);
      !s.ok()) {
    err += "cssamec: send failed: " + s.fault().message + "\n";
    if (transportFailed) *transportFailed = true;
    return 1;
  }
  std::string payload;
  const service::FrameStatus fs =
      service::readFrameDeadline(conn, payload, maxPayload, deadline);
  if (fs != service::FrameStatus::Ok) {
    err += std::string("cssamec: bad response frame: ") +
           service::frameStatusName(fs) + "\n";
    if (transportFailed) *transportFailed = true;
    return 1;
  }
  Expected<service::Json> response = service::parseJson(payload);
  if (!response) {
    err += "cssamec: unparseable response: " + response.fault().message +
           "\n";
    return 1;
  }
  if (!response->getBool("ok", false)) {
    const service::Json& fault = response->get("error");
    err += "cssamec: server error [" + fault.getString("kind", "?") +
           "/" + fault.getString("stage", "?") +
           "]: " + fault.getString("message", "") + "\n";
    return 1;
  }
  const service::Json& result = response->get("result");
  out += result.getString("out", "");
  err += result.getString("err", "");
  return static_cast<int>(result.getInt("code", 0));
}

/// One request with one recovery attempt: when the exchange breaks (the
/// daemon died, was restarting, or timed out), pause a jittered moment —
/// so a thundering herd of clients doesn't reconnect in lockstep — and
/// retry once on a fresh connection. The first attempt's error text is
/// discarded if the retry succeeds; otherwise the retry's error stands.
int processRemoteWithRetry(const service::Json& request,
                           support::FdStream& conn,
                           const std::string& connectPath,
                           std::size_t maxPayload, int timeoutMs,
                           std::string& out, std::string& err) {
  std::string out1, err1;
  bool transportFailed = false;
  const int code = processRemote(request, conn, maxPayload, timeoutMs, out1,
                                 err1, &transportFailed);
  if (!transportFailed) {
    out += out1;
    err += err1;
    return code;
  }
  const int jitterMs = 10 + static_cast<int>(::getpid() % 50);
  std::this_thread::sleep_for(std::chrono::milliseconds(jitterMs));
  Expected<support::FdStream> fresh = support::connectUnix(connectPath);
  if (!fresh) {
    err += err1;
    err += "cssamec: reconnect to '" + connectPath +
           "' failed: " + fresh.fault().message + "\n";
    return 1;
  }
  conn = std::move(*fresh);
  std::string out2, err2;
  const int retryCode = processRemote(request, conn, maxPayload, timeoutMs,
                                      out2, err2, &transportFailed);
  if (transportFailed) err += err1;  // both attempts failed: report both
  out += out2;
  err += err2;
  return retryCode;
}

/// With --stats in --connect mode, asks the daemon for its `stats` body
/// and renders the fleet-health section (when the far end is a fleet
/// gateway): routing/retry/fallback/deadline counters and per-worker
/// restart counts. Returns the empty string for a standalone daemon (or
/// any failure); the caller prints to stderr after the per-file output,
/// like the local per-phase stats.
std::string fleetHealthReport(support::FdStream& conn,
                              std::size_t maxPayload, int timeoutMs) {
  service::Json request = service::Json::object();
  request.set("id", "stats").set("method", "stats");
  const support::Deadline deadline = support::Deadline::in(timeoutMs);
  if (Status s = service::writeFrameDeadline(conn, request.write(),
                                             maxPayload, deadline);
      !s.ok())
    return "";
  std::string payload;
  if (service::readFrameDeadline(conn, payload, maxPayload, deadline) !=
      service::FrameStatus::Ok)
    return "";
  Expected<service::Json> response = service::parseJson(payload);
  if (!response || !response->getBool("ok", false)) return "";
  const service::Json& result = response->get("result");
  const service::Json& fleet = result.get("fleet");
  if (!fleet.isObject()) return "";  // a standalone daemon: nothing to add
  auto n = [&fleet](const char* key) {
    return std::to_string(fleet.getInt(key, 0));
  };
  std::string report = "== service fleet health\n";
  report += "gateway: " + n("workers") + " workers, " + n("requests") +
            " requests (" + n("routed") + " routed, " + n("retried") +
            " retried, " + n("fallbacks") + " fallbacks, " +
            n("deadlines") + " deadline expiries)\n";
  report += "supervision: " + n("workerDeaths") + " worker deaths, " +
            n("restarts") + " restarts (" + n("failedRestarts") +
            " failed), " + n("breakerTrips") + " breaker trips, " +
            n("probeFailures") + "/" + n("probes") + " probes failed\n";
  for (const service::Json& slot : result.get("slots").items()) {
    report += "worker " + std::to_string(slot.getInt("slot", -1)) + ": " +
              slot.getString("state", "?") + ", restarts " +
              std::to_string(slot.getInt("restarts", 0)) + "\n";
  }
  return report;
}

/// Builds the analyze request for one file from the CLI options — the
/// daemon decodes this back into the identical driver::RunOptions.
service::Json buildRequest(const std::string& file,
                           const std::string& source,
                           const driver::RunOptions& o, std::size_t id) {
  service::Json options = service::Json::object();
  options.set("dumpPfg", o.dumpPfg)
      .set("dumpForm", o.dumpForm)
      .set("cssame", o.cssame)
      .set("opt", o.doOpt)
      .set("run", o.doRun)
      .set("races", o.doRaces)
      .set("stats", o.doStats)
      .set("csan", o.doCsan)
      .set("sarif", o.doSarif)
      .set("json", o.doJson)
      .set("vrange", o.doVrange)
      .set("tso", o.doTso)
      .set("pointsTo", o.doPointsTo)
      .set("explore", o.doExplore)
      .set("dpor", o.dpor)
      .set("memoryModel", support::memoryModelName(o.memoryModel))
      .set("seed", o.seed);
  // Only present when requested: older daemons reject unknown keys, and
  // an absent key keeps pre-fix requests byte-identical.
  if (o.doFix) options.set("fix", o.fixTarget);
  service::Json request = service::Json::object();
  request.set("id", id)
      .set("method", "analyze")
      .set("file", file)
      .set("source", source)
      .set("options", std::move(options));
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--version") == 0) {
      std::printf("%s\n", support::versionLine("cssamec").c_str());
      return 0;
    } else if (std::strcmp(arg, "--dump-pfg") == 0) o.run.dumpPfg = true;
    else if (std::strcmp(arg, "--dump-form") == 0) o.run.dumpForm = true;
    else if (std::strcmp(arg, "--no-cssame") == 0) o.run.cssame = false;
    else if (std::strcmp(arg, "--opt") == 0) o.run.doOpt = true;
    else if (std::strcmp(arg, "--races") == 0) o.run.doRaces = true;
    else if (std::strcmp(arg, "--stats") == 0) o.run.doStats = true;
    else if (std::strcmp(arg, "--csan") == 0) o.run.doCsan = true;
    else if (std::strcmp(arg, "--vrange") == 0) o.run.doVrange = true;
    else if (std::strcmp(arg, "--tso") == 0) o.run.doTso = true;
    else if (std::strcmp(arg, "--points-to") == 0) o.run.doPointsTo = true;
    else if (std::strcmp(arg, "--explore") == 0) o.run.doExplore = true;
    else if (std::strcmp(arg, "--no-dpor") == 0) o.run.dpor = false;
    else if (std::strncmp(arg, "--fix", 5) == 0 &&
             (arg[5] == '\0' || arg[5] == '=')) {
      o.run.doFix = true;
      if (arg[5] == '=') {
        repair::FixTarget target;
        if (!repair::parseFixTarget(arg + 6, target)) {
          std::fprintf(stderr,
                       "cssamec: unknown fix target '%s' (all, race, "
                       "may-alias, tso, fence, or a diagnostic code "
                       "name)\n",
                       arg + 6);
          return 2;
        }
        o.run.fixTarget = repair::fixTargetName(target);
      }
    }
    else if (std::strncmp(arg, "--memory-model=", 15) == 0) {
      if (!support::parseMemoryModel(arg + 15, o.run.memoryModel)) {
        std::fprintf(stderr,
                     "cssamec: unknown memory model '%s' (sc or tso)\n",
                     arg + 15);
        return 2;
      }
    } else if (std::strncmp(arg, "--sarif", 7) == 0 &&
             (arg[7] == '\0' || arg[7] == '=')) {
      o.run.doSarif = o.run.doCsan = true;
      if (arg[7] == '=') o.run.sarifPath = arg + 8;
    } else if (std::strncmp(arg, "--json", 6) == 0 &&
               (arg[6] == '\0' || arg[6] == '=')) {
      o.run.doJson = o.run.doCsan = true;
      if (arg[6] == '=') o.run.jsonPath = arg + 7;
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      o.jobs = static_cast<unsigned>(std::strtoul(arg + 7, nullptr, 10));
    } else if (std::strncmp(arg, "--connect=", 10) == 0) {
      o.connectPath = arg + 10;
    } else if (std::strncmp(arg, "--timeout-ms=", 13) == 0) {
      o.timeoutMs = static_cast<int>(std::strtol(arg + 13, nullptr, 10));
    } else if (std::strcmp(arg, "--run") == 0) {
      o.run.doRun = true;
      if (i + 1 < argc && std::isdigit(static_cast<unsigned char>(
                              argv[i + 1][0])))
        o.run.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg[0] == '-') {
      usage();
    } else {
      files.emplace_back(arg);
    }
  }
  if (files.empty()) usage();
  if (files.size() > 1 &&
      (!o.run.sarifPath.empty() || !o.run.jsonPath.empty())) {
    std::fprintf(stderr,
                 "cssamec: --sarif=FILE/--json=FILE take a single input "
                 "file (outputs would overwrite each other)\n");
    return 2;
  }
  if (!o.connectPath.empty() &&
      (!o.run.sarifPath.empty() || !o.run.jsonPath.empty())) {
    std::fprintf(stderr,
                 "cssamec: --sarif=FILE/--json=FILE cannot be combined "
                 "with --connect (the daemon does not write client "
                 "files)\n");
    return 2;
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::vector<std::string> outs(files.size()), errs(files.size());
  std::string fleetHealth;
  std::vector<int> codes(files.size(), 0);
  // char, not bool: vector<bool> packs bits, and parallel workers writing
  // adjacent elements would race on the shared bytes.
  std::vector<char> ran(files.size(), 0);

  if (!o.connectPath.empty()) {
    // Client mode: one connection, files in order. The daemon runs the
    // same driver::runSource this binary would, so the flushed bytes are
    // identical to a local run.
    Expected<support::FdStream> conn = support::connectUnix(o.connectPath);
    if (!conn) {
      std::fprintf(stderr, "cssamec: cannot connect to '%s': %s\n",
                   o.connectPath.c_str(), conn.fault().message.c_str());
      return 1;
    }
    for (std::size_t i = 0; i < files.size(); ++i) {
      if (gInterrupted.load(std::memory_order_relaxed)) break;
      std::string source;
      if (!readFile(files[i], source, errs[i])) {
        codes[i] = 1;
        ran[i] = true;
        continue;
      }
      codes[i] = processRemoteWithRetry(
          buildRequest(files[i], source, o.run, i), *conn, o.connectPath,
          service::kDefaultMaxPayload, o.timeoutMs, outs[i], errs[i]);
      ran[i] = true;
    }
    if (o.run.doStats && conn->valid() &&
        !gInterrupted.load(std::memory_order_relaxed))
      fleetHealth = fleetHealthReport(*conn, service::kDefaultMaxPayload,
                                      o.timeoutMs);
  } else {
    support::ThreadPool pool(o.jobs);
    pool.parallelFor(files.size(), [&](std::size_t i) {
      // A signal stops new work; files already being analyzed finish and
      // their buffered output is flushed below.
      if (gInterrupted.load(std::memory_order_relaxed)) return;
      codes[i] = processFile(files[i], o.run, outs[i], errs[i]);
      ran[i] = true;
    });
  }

  int code = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!ran[i]) continue;
    if (files.size() > 1 && (!outs[i].empty() || !errs[i].empty())) {
      std::fprintf(stderr, "== %s\n", files[i].c_str());
    }
    std::fwrite(outs[i].data(), 1, outs[i].size(), stdout);
    std::fwrite(errs[i].data(), 1, errs[i].size(), stderr);
    if (code == 0) code = codes[i];
  }
  std::fwrite(fleetHealth.data(), 1, fleetHealth.size(), stderr);
  if (gInterrupted.load(std::memory_order_relaxed)) {
    std::fflush(stdout);
    std::fprintf(stderr, "cssamec: interrupted; flushed completed files\n");
    return 130;
  }
  return code;
}
