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

/// Explores the base under `model`, then the candidate — only when the
/// base's exploration completed, since otherwise the candidate is
/// unverifiable whatever its own exploration finds. Returns why the
/// candidate is unverifiable, or "" when both explorations completed.
std::string unexplored(Snapshot& base, Snapshot& patched,
                       support::MemoryModel model,
                       const RepairLimits& limits) {
  const bool sc = model == support::MemoryModel::SC;
  for (Snapshot* snap : {&base, &patched}) {
    const Exploration& e = ensureExplored(*snap, model, limits);
    if (sc && !e.ok) return "schedule exploration failed";
    if (!e.result.complete)
      return sc ? "schedule exploration budget exhausted"
                : "TSO exploration budget exhausted";
  }
  return "";
}

}  // namespace

Snapshot analyzeForRepair(const std::string& source) {
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
  return s;
}

const Exploration& ensureExplored(Snapshot& snap, support::MemoryModel model,
                                  const RepairLimits& limits) {
  Exploration& e =
      model == support::MemoryModel::SC ? snap.scExec : snap.tsoExec;
  if (e.ran) return e;
  e.ran = true;
  try {
    e.result = interp::exploreAllSchedules(*snap.program,
                                           exploreOptions(limits, model));
    e.ok = true;
    e.raced = racedNames(e.result, snap.program->symbols);
  } catch (const std::exception&) {
    e.result.complete = false;
  }
  return e;
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
  if (std::string why =
          unexplored(base, patched, support::MemoryModel::SC, limits);
      !why.empty())
    return unverifiable(why);
  const Exploration& baseSc = base.scExec;
  const Exploration& sc = patched.scExec;
  if (sc.result.anyDeadlock)
    return reject("a schedule of the patched program deadlocks");
  if (sc.result.anyLockError)
    return reject("a schedule of the patched program misuses a lock");
  if (sc.result.anyAssertFailure && !baseSc.result.anyAssertFailure)
    return reject("introduces an assertion failure");
  if (sc.result.anyPtrError && !baseSc.result.anyPtrError)
    return reject("introduces a wild pointer access");
  if (!isSubset(sc.raced, baseSc.raced))
    return reject("introduces a dynamic race on '" +
                  firstExtra(sc.raced, baseSc.raced) + "'");

  switch (target.kind) {
    case TargetKind::Race:
    case TargetKind::MayAlias: {
      if (sc.raced.count(target.varName) != 0)
        return reject("the race on '" + target.varName +
                      "' is still dynamically reachable");
      // A repair may only remove behaviors, never add them.
      for (const auto& seq : sc.result.outputs)
        if (baseSc.result.outputs.find(seq) == baseSc.result.outputs.end())
          return reject("changes the program's outputs under SC");
      break;
    }
    case TargetKind::Tso: {
      // Fences and atomics are SC no-ops: outputs must match exactly.
      if (sc.result.outputs != baseSc.result.outputs)
        return reject("changes the program's outputs under SC");
      // Per-candidate the TSO contract is *monotone progress*, not full
      // restoration: a symmetric protocol (Peterson) needs one fence per
      // thread, and no single insertion clears every witness. The static
      // count rule above already forces each accepted fix to kill
      // witnesses; dynamically it must never add a TSO behavior or race.
      // Whether mutual exclusion is fully justified again is measured on
      // the final program (RepairResult::finalTsoJustified).
      if (std::string why =
              unexplored(base, patched, support::MemoryModel::TSO, limits);
          !why.empty())
        return unverifiable(why);
      const Exploration& baseTso = base.tsoExec;
      const Exploration& tso = patched.tsoExec;
      if (tso.result.anyDeadlock && !baseTso.result.anyDeadlock)
        return reject("a TSO schedule of the patched program deadlocks");
      if (!isSubset(tso.raced, baseTso.raced))
        return reject("introduces a TSO race on '" +
                      firstExtra(tso.raced, baseTso.raced) + "'");
      for (const auto& seq : tso.result.outputs)
        if (baseTso.result.outputs.find(seq) == baseTso.result.outputs.end())
          return reject("introduces a TSO-only behavior");
      break;
    }
    case TargetKind::Fence: {
      // Deleting a redundant fence must change nothing under any model.
      if (sc.result.outputs != baseSc.result.outputs)
        return reject("changes the program's outputs under SC");
      if (std::string why =
              unexplored(base, patched, support::MemoryModel::TSO, limits);
          !why.empty())
        return unverifiable(why);
      const Exploration& baseTso = base.tsoExec;
      const Exploration& tso = patched.tsoExec;
      if (tso.result.outputs != baseTso.result.outputs)
        return reject("removing the fence changes TSO outputs — it was "
                      "not redundant");
      if (tso.raced != baseTso.raced)
        return reject("removing the fence changes the TSO race set");
      if (tso.result.anyDeadlock && !baseTso.result.anyDeadlock)
        return reject("a TSO schedule of the patched program deadlocks");
      break;
    }
  }

  Verdict v;
  v.ok = true;
  return v;
}

}  // namespace cssame::repair
