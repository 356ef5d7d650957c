#include "src/repair/verify.h"

#include <algorithm>

#include "src/parser/parser.h"

namespace cssame::repair {

namespace {

interp::ExploreOptions exploreOptions(const RepairLimits& limits,
                                      support::MemoryModel model) {
  interp::ExploreOptions eo;
  eo.maxSteps = limits.exploreMaxSteps;
  eo.maxStates = limits.exploreMaxStates;
  eo.detectRaces = true;
  eo.model = model;
  return eo;
}

std::set<std::string> racedNames(const interp::ExploreResult& ex,
                                 const ir::SymbolTable& syms) {
  std::set<std::string> names;
  for (SymbolId v : ex.racedVars) names.insert(syms.nameOf(v));
  return names;
}

bool isSubset(const std::set<std::string>& small,
              const std::set<std::string>& big) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

/// First element of `small` missing from `big` ("" when subset).
std::string firstExtra(const std::set<std::string>& small,
                       const std::set<std::string>& big) {
  for (const std::string& s : small)
    if (big.find(s) == big.end()) return s;
  return "";
}

Verdict reject(std::string reason) {
  Verdict v;
  v.reason = std::move(reason);
  return v;
}

Verdict unverifiable(std::string reason) {
  Verdict v;
  v.unverifiable = true;
  v.reason = std::move(reason);
  return v;
}

}  // namespace

Snapshot analyzeForRepair(const std::string& source,
                          const RepairLimits& limits) {
  Snapshot s;
  s.source = source;
  parser::ParseResult pr = parser::parseChecked(source);
  if (!pr.ok()) {
    for (const Diagnostic& d : pr.diag.diagnostics())
      if (d.severity == DiagSeverity::Error) {
        s.error = d.str();
        break;
      }
    if (s.error.empty()) s.error = "parse failed";
    return s;
  }
  s.program = std::make_unique<ir::Program>(std::move(pr.program));
  try {
    s.comp = std::make_unique<driver::Compilation>(
        driver::analyze(*s.program));
    DiagEngine tool;
    s.csan = sanalysis::runCsan(*s.comp, tool);
    s.tso = sanalysis::runTso(*s.comp, tool);
    for (const Diagnostic& d : s.comp->diag().diagnostics())
      ++s.diagCounts[d.code];
    for (const Diagnostic& d : tool.diagnostics()) ++s.diagCounts[d.code];
  } catch (const std::exception& e) {
    s.comp.reset();
    s.error = std::string("analysis failed: ") + e.what();
    return s;
  }
  s.ok = true;
  try {
    s.sc = interp::exploreAllSchedules(
        *s.program, exploreOptions(limits, support::MemoryModel::SC));
    s.scOk = true;
    s.scRaced = racedNames(s.sc, s.program->symbols);
  } catch (const std::exception&) {
    s.scOk = false;
  }
  return s;
}

void ensureTsoExplored(Snapshot& snap, const RepairLimits& limits) {
  if (snap.tsoExplored || !snap.ok) return;
  snap.tsoExplored = true;
  try {
    snap.tsoExec = interp::exploreAllSchedules(
        *snap.program, exploreOptions(limits, support::MemoryModel::TSO));
    snap.tsoRaced = racedNames(snap.tsoExec, snap.program->symbols);
  } catch (const std::exception&) {
    snap.tsoExec = interp::ExploreResult{};
    snap.tsoExec.complete = false;
  }
}

Verdict verifyCandidate(Snapshot& base, Snapshot& patched,
                        const RepairTarget& target,
                        const RepairLimits& limits) {
  if (!patched.ok)
    return reject("patched program does not analyze: " + patched.error);

  // Static contract: the target strictly shrinks, nothing else grows.
  const char* codeName = diagCodeName(target.code);
  if (patched.countOf(target.code) >= base.countOf(target.code))
    return reject(std::string("does not remove the ") + codeName +
                  " diagnostic");
  for (const auto& [code, count] : patched.diagCounts)
    if (count > base.countOf(code))
      return reject(std::string("introduces new diagnostics (") +
                    diagCodeName(code) + ")");

  // Dynamic contract, SC.
  if (!base.scOk || !patched.scOk)
    return unverifiable("schedule exploration failed");
  if (!base.sc.complete || !patched.sc.complete)
    return unverifiable("schedule exploration budget exhausted");
  if (patched.sc.anyDeadlock)
    return reject("a schedule of the patched program deadlocks");
  if (patched.sc.anyLockError)
    return reject("a schedule of the patched program misuses a lock");
  if (patched.sc.anyAssertFailure && !base.sc.anyAssertFailure)
    return reject("introduces an assertion failure");
  if (patched.sc.anyPtrError && !base.sc.anyPtrError)
    return reject("introduces a wild pointer access");
  if (!isSubset(patched.scRaced, base.scRaced))
    return reject("introduces a dynamic race on '" +
                  firstExtra(patched.scRaced, base.scRaced) + "'");

  switch (target.kind) {
    case TargetKind::Race:
    case TargetKind::MayAlias: {
      if (patched.scRaced.count(target.varName) != 0)
        return reject("the race on '" + target.varName +
                      "' is still dynamically reachable");
      // A repair may only remove behaviors, never add them.
      for (const auto& seq : patched.sc.outputs)
        if (base.sc.outputs.find(seq) == base.sc.outputs.end())
          return reject("changes the program's outputs under SC");
      break;
    }
    case TargetKind::Tso: {
      // Fences and atomics are SC no-ops: outputs must match exactly.
      if (patched.sc.outputs != base.sc.outputs)
        return reject("changes the program's outputs under SC");
      // Per-candidate the TSO contract is *monotone progress*, not full
      // restoration: a symmetric protocol (Peterson) needs one fence per
      // thread, and no single insertion clears every witness. The static
      // count rule above already forces each accepted fix to kill
      // witnesses; dynamically it must never add a TSO behavior or race.
      // Whether mutual exclusion is fully justified again is measured on
      // the final program (RepairResult::finalTsoJustified).
      ensureTsoExplored(base, limits);
      ensureTsoExplored(patched, limits);
      if (!base.tsoExec.complete || !patched.tsoExec.complete)
        return unverifiable("TSO exploration budget exhausted");
      if (patched.tsoExec.anyDeadlock && !base.tsoExec.anyDeadlock)
        return reject("a TSO schedule of the patched program deadlocks");
      if (!isSubset(patched.tsoRaced, base.tsoRaced))
        return reject("introduces a TSO race on '" +
                      firstExtra(patched.tsoRaced, base.tsoRaced) + "'");
      for (const auto& seq : patched.tsoExec.outputs)
        if (base.tsoExec.outputs.find(seq) == base.tsoExec.outputs.end())
          return reject("introduces a TSO-only behavior");
      break;
    }
    case TargetKind::Fence: {
      // Deleting a redundant fence must change nothing under any model.
      if (patched.sc.outputs != base.sc.outputs)
        return reject("changes the program's outputs under SC");
      ensureTsoExplored(base, limits);
      ensureTsoExplored(patched, limits);
      if (!base.tsoExec.complete || !patched.tsoExec.complete)
        return unverifiable("TSO exploration budget exhausted");
      if (patched.tsoExec.outputs != base.tsoExec.outputs)
        return reject("removing the fence changes TSO outputs — it was "
                      "not redundant");
      if (patched.tsoRaced != base.tsoRaced)
        return reject("removing the fence changes the TSO race set");
      if (patched.tsoExec.anyDeadlock && !base.tsoExec.anyDeadlock)
        return reject("a TSO schedule of the patched program deadlocks");
      break;
    }
  }

  Verdict v;
  v.ok = true;
  return v;
}

}  // namespace cssame::repair
