#include "loadbench/src/check.h"

#include <atomic>
#include <regex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "loadbench/src/stats.h"
#include "src/interp/interp.h"
#include "src/opt/optimize.h"
#include "src/parser/parser.h"
#include "src/service/json.h"
#include "src/support/fingerprint.h"

namespace loadbench {

using cssame::driver::RunOutput;
using cssame::service::Json;

namespace {

constexpr std::size_t kMaxFailureReasons = 8;

/// Runs fn(0..n-1) on up to `threads` threads.
void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

/// The explore result rendered as the lines `cssamec --explore` prints:
/// stdout, and the verdict lines of stderr.
void renderExplore(const Json& result, std::string& out, std::string& err) {
  const auto& outputs = result.get("outputs").items();
  out = "explore: " + std::to_string(outputs.size()) +
        " distinct output(s) over " +
        std::to_string(result.getInt("statesExplored", -1)) + " state(s)" +
        (result.getBool("complete", false) ? "" : " (budget exhausted)") +
        "\n";
  constexpr std::size_t kMaxOutputLines = 64;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    if (i == kMaxOutputLines) {
      out += "explore: ... " + std::to_string(outputs.size() - i) +
             " more output(s)\n";
      break;
    }
    out += "explore: output:";
    for (const Json& v : outputs[i].items()) {
      out += ' ';
      out += std::to_string(v.intValue());
    }
    out += "\n";
  }
  err.clear();
  if (result.getBool("anyDeadlock", false))
    err += "explore: some schedule deadlocks\n";
  if (result.getBool("anyLockError", false))
    err += "explore: some schedule unlocks without holding\n";
  if (result.getBool("anyAssertFailure", false))
    err += "explore: some schedule fails an assertion\n";
}

std::string exploreLines(const std::string& text) {
  std::istringstream in(text);
  std::string line, kept;
  while (std::getline(in, line))
    if (line.rfind("explore: ", 0) == 0) kept += line + "\n";
  return kept;
}

/// csan's summary line must report no race and no deadlock.
std::string checkRaceFree(const std::string& err) {
  static const std::regex summary(
      R"(csan: \d+ finding\(s\): (\d+) race\(s\)[^,]*, \d+ inconsistent, )"
      R"((\d+) deadlock\(s\), (\d+) self-deadlock\(s\))");
  std::smatch m;
  if (!std::regex_search(err, m, summary)) return "no csan summary line";
  if (m[1] != "0" || m[2] != "0" || m[3] != "0")
    return "csan reports races or deadlocks in a race-free program: " +
           m.str(0);
  return "";
}

/// Counts one program into slot `i`; false when it does not complete.
bool countRun(const cssame::ir::Program& program, int i,
              OptimizedCounts& counts, std::vector<long long>& output) {
  const cssame::interp::RunResult run =
      cssame::interp::run(program, {.seed = 1});
  counts.steps[i] = static_cast<double>(run.steps);
  counts.holdSteps[i] = static_cast<double>(run.totalHoldSteps());
  counts.statements[i] = static_cast<double>(program.size());
  output = run.output;
  return run.completed;
}

}  // namespace

bool countOptimized(const std::string& original, const std::string& optimized,
                    OptimizedCounts& counts) {
  const std::string* texts[2] = {&original, &optimized};
  std::vector<long long> outputs[2];
  for (int i = 0; i < 2; ++i) {
    cssame::parser::ParseResult pr = cssame::parser::parseChecked(*texts[i]);
    if (!pr.ok() || !countRun(pr.program, i, counts, outputs[i])) return false;
  }
  counts.sameOutput = outputs[0] == outputs[1];
  return true;
}

bool countOptimizedInProcess(const std::string& source,
                             OptimizedCounts& counts) {
  cssame::parser::ParseResult pr = cssame::parser::parseChecked(source);
  std::vector<long long> outputs[2];
  if (!pr.ok() || !countRun(pr.program, 0, counts, outputs[0])) return false;
  (void)cssame::opt::optimizeProgram(pr.program);
  if (!countRun(pr.program, 1, counts, outputs[1])) return false;
  counts.sameOutput = outputs[0] == outputs[1];
  return true;
}

std::string maskPhaseTimes(const std::string& text) {
  static const std::regex phase(R"((phase: +\S+) +[0-9.]+ ms)");
  return std::regex_replace(text, phase, "$1 # ms");
}

RunOutput referenceRun(const Request& r) {
  return cssame::driver::runSource(r.source, r.file, r.runOptions());
}

std::string checkResponse(const Request& r, const Exchange& ex,
                          const RunOutput& reference,
                          OptimizedCounts* counts) {
  if (!ex.delivered) return "no response (no connection, or timed out)";
  cssame::Expected<Json> env = cssame::service::parseJson(ex.response);
  if (!env) return "unparseable response";
  if (!env->getBool("ok", false))
    return "error envelope: " + ex.response.substr(0, 200);
  const Json& result = env->get("result");

  if (r.method == "explore") {
    std::string out, err;
    renderExplore(result, out, err);
    if (out != reference.out || err != exploreLines(reference.err))
      return "explore answer differs from the in-process reference";
  } else if (r.method == "fix") {
    if (result.getString("report", "") != reference.out ||
        result.getInt("code", -1) != reference.code)
      return "fix answer differs from the in-process reference";
  } else {
    Json expected = Json::object();
    Json expectedResult = Json::object();
    expectedResult.set("out", reference.out)
        .set("err", reference.err)
        .set("code", reference.code);
    expected.set("id", ex.id)
        .set("ok", true)
        .set("method", r.method)
        .set("cached", env->getString("cached", ""))
        .set("result", std::move(expectedResult));
    if (maskPhaseTimes(expected.write()) != maskPhaseTimes(ex.response))
      return "response differs from the in-process reference";
  }

  switch (r.oracle) {
    case Oracle::None: break;
    case Oracle::RaceFree: return checkRaceFree(result.getString("err", ""));
    case Oracle::SameOutput: {
      OptimizedCounts local;
      OptimizedCounts& c = counts != nullptr ? *counts : local;
      if (!countOptimized(r.source, result.getString("out", ""), c))
        return "optimized program does not parse or run to completion";
      if (!c.sameOutput)
        return "optimized program prints another output than the original";
      break;
    }
    case Oracle::Golden:
      if (result.getString("report", "") != r.golden)
        return "fix report differs from the golden file";
      break;
  }
  return "";
}

CheckSummary checkExchanges(const std::vector<Request>& requests,
                            const std::vector<Exchange>& exchanges,
                            unsigned threads, const ReferenceFn& reference) {
  // Group exchanges by request, so repeats share one reference run.
  std::unordered_map<cssame::support::Hash128, std::size_t,
                     cssame::support::Hash128Hasher>
      groupOf;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < exchanges.size(); ++i) {
    const auto key = cssame::support::fingerprintBytes(
        requests[exchanges[i].request].payload(0));
    auto [it, fresh] = groupOf.emplace(key, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  CheckSummary summary;
  summary.attempted = exchanges.size();
  summary.counts.resize(exchanges.size());
  std::vector<std::string> reasons(exchanges.size());
  parallelFor(groups.size(), threads, [&](std::size_t g) {
    const RunOutput ref =
        reference(requests[exchanges[groups[g].front()].request]);
    for (std::size_t i : groups[g])
      reasons[i] = checkResponse(requests[exchanges[i].request], exchanges[i],
                                 ref, &summary.counts[i]);
  });
  summary.hasCounts.resize(exchanges.size());
  for (std::size_t i = 0; i < exchanges.size(); ++i) {
    summary.hasCounts[i] =
        requests[exchanges[i].request].oracle == Oracle::SameOutput &&
        reasons[i].empty();
    if (reasons[i].empty()) continue;
    ++summary.failed;
    if (summary.failures.size() < kMaxFailureReasons)
      summary.failures.push_back("request " +
                                 std::to_string(exchanges[i].id) + " (" +
                                 requests[exchanges[i].request].cls +
                                 "): " + reasons[i]);
  }
  return summary;
}

GeneratedRatios generatedRatios(const std::vector<OptimizedCounts>& programs) {
  std::vector<double> steps, hold, stmts;
  auto ratio = [](const double (&pair)[2], std::vector<double>& into) {
    if (pair[0] > 0) into.push_back(pair[1] > 0 ? pair[1] / pair[0] : 0);
    // A program with nothing to count (no lock held) has no ratio.
  };
  for (const OptimizedCounts& c : programs) {
    ratio(c.steps, steps);
    ratio(c.holdSteps, hold);
    ratio(c.statements, stmts);
  }
  return {geomean(steps), geomean(hold), geomean(stmts)};
}

}  // namespace loadbench
