// Fault injection for the pipeline-hardening test harness.
//
// Two capabilities:
//
//   1. Program mutation — `corruptProgram` applies one deterministic,
//      verifier-detectable structural corruption (dangling symbol, null
//      operand, duplicate statement id, ...); `mutateProgram` applies a
//      burst of arbitrary structural mutations that may or may not leave
//      the program well formed. Both are seeded and reproducible.
//
//   2. Pass-level injection — the optimizer calls
//      `FaultInjector::instance().visitSite(pass, program)` after every
//      pass body. An armed injector fires at a chosen site visit, either
//      corrupting the IR (so per-pass verification must catch it and
//      attribute it to that pass) or throwing (so the pass wrapper must
//      contain it). Disarmed (the default) the hook is a no-op.
//
// The injector is intentionally process-global and NOT thread safe: it
// exists only for single-threaded robustness harnesses.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/ir/program.h"

namespace cssame::support {

/// What an armed injector does when it fires.
enum class FaultMode : std::uint8_t {
  CorruptIr,  ///< apply corruptProgram(seed) to the pass's output
  Throw,      ///< throw InvariantError from inside the pass boundary
};

struct FaultPlan {
  std::uint64_t seed = 0;  ///< selects the corruption applied
  int fireAtSite = 0;      ///< fire on the Nth visited site (0-based)
  FaultMode mode = FaultMode::CorruptIr;
};

class FaultInjector {
 public:
  [[nodiscard]] static FaultInjector& instance();

  void arm(FaultPlan plan);
  void disarm();
  [[nodiscard]] bool armed() const { return armed_; }

  /// Name of the site the injector fired at; empty if it has not fired.
  [[nodiscard]] const std::string& firedAt() const { return firedAt_; }
  /// Description of the corruption applied when it fired (empty if the
  /// program offered no applicable corruption site, or in Throw mode).
  [[nodiscard]] const std::string& injected() const { return injected_; }

  /// Instrumentation hook: called by the optimizer after each pass. May
  /// corrupt `program` or throw InvariantError according to the plan.
  void visitSite(std::string_view site, ir::Program& program);

 private:
  FaultPlan plan_;
  bool armed_ = false;
  int visits_ = 0;
  std::string firedAt_;
  std::string injected_;
};

/// Applies one deterministic structural corruption chosen by `seed` that
/// the ir verifier is guaranteed to detect. Returns a description of what
/// was corrupted, or an empty string if the program has no applicable
/// site (e.g. no statements at all).
[[nodiscard]] std::string corruptProgram(ir::Program& program,
                                         std::uint64_t seed);

/// Applies 1–3 seeded structural mutations that a hostile or buggy
/// producer might hand the pipeline: retargeted symbols (possibly of the
/// wrong kind), rewritten operators/constants, swapped expressions,
/// deleted statements, flipped statement kinds. The result may be valid
/// or invalid; the pipeline must diagnose either way, never crash.
/// Returns descriptions of the mutations applied.
[[nodiscard]] std::vector<std::string> mutateProgram(ir::Program& program,
                                                     std::uint64_t seed);

}  // namespace cssame::support
