// Checking every answer the daemon gives.
//
// Each response is byte-compared with an in-process driver::runSource of
// the same request (what standalone cssamec prints), and checked against
// the request's independent oracle (workloads.h). A mismatch, an error
// envelope or a missing response is a failed operation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "loadbench/src/workloads.h"
#include "src/driver/runner.h"

namespace loadbench {

/// One request sent and what came back.
struct Exchange {
  std::size_t request = 0;  ///< index into the request list
  std::int64_t id = 0;      ///< wire id sent
  std::string response;     ///< raw response bytes
  bool delivered = false;   ///< a response arrived in time
};

/// Counts of an original program and of its optimized form under
/// interp::run at seed 1: steps, lock hold steps, statements.
struct OptimizedCounts {
  double steps[2] = {0, 0};
  double holdSteps[2] = {0, 0};
  double statements[2] = {0, 0};
  bool sameOutput = false;
};

/// Parses and runs both programs. False when either fails to parse or
/// to run to completion.
[[nodiscard]] bool countOptimized(const std::string& original,
                                  const std::string& optimized,
                                  OptimizedCounts& counts);

/// The same counts for `source` optimized in-process by
/// opt::optimizeProgram, on the program itself rather than a printout.
[[nodiscard]] bool countOptimizedInProcess(const std::string& source,
                                           OptimizedCounts& counts);

/// `--stats` reports each pipeline phase's wall-clock time, which no two
/// runs share: the text with those figures masked, for comparing.
[[nodiscard]] std::string maskPhaseTimes(const std::string& text);

/// The in-process reference answer: the bytes `cssamec` prints for the
/// request's source under the request's option set.
[[nodiscard]] cssame::driver::RunOutput referenceRun(const Request& r);

/// Checks one response. Returns "" when it passes, else the reason.
/// Fills `counts` for requests whose oracle runs the optimized program.
[[nodiscard]] std::string checkResponse(
    const Request& r, const Exchange& ex,
    const cssame::driver::RunOutput& reference, OptimizedCounts* counts);

struct CheckSummary {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< the first few reasons
  /// Per exchange, the optimized-program counts (SameOutput oracle only).
  std::vector<OptimizedCounts> counts;
  std::vector<bool> hasCounts;
};

/// Produces the in-process reference answer of a request.
using ReferenceFn =
    std::function<cssame::driver::RunOutput(const Request& request)>;

/// Checks every exchange on `threads` threads. Each distinct request's
/// reference is computed once, used for all of its exchanges, and
/// dropped.
[[nodiscard]] CheckSummary checkExchanges(
    const std::vector<Request>& requests,
    const std::vector<Exchange>& exchanges, unsigned threads,
    const ReferenceFn& reference = referenceRun);

/// Geometric means over programs of optimized ÷ original steps, lock hold
/// steps and statements: the generated_* metrics.
struct GeneratedRatios {
  double steps = 0, holdSteps = 0, statements = 0;
};
[[nodiscard]] GeneratedRatios generatedRatios(
    const std::vector<OptimizedCounts>& programs);

}  // namespace loadbench
