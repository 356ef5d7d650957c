#include "src/repair/repair.h"

#include <set>
#include <utility>

namespace cssame::repair {

const char* repairStatusName(RepairStatus s) {
  switch (s) {
    case RepairStatus::Clean: return "clean";
    case RepairStatus::Fixed: return "fixed";
    case RepairStatus::Partial: return "partial";
    case RepairStatus::NoSafeFix: return "no-safe-fix";
    case RepairStatus::Error: return "error";
  }
  return "?";
}

namespace {

/// First target whose signature has not already exhausted its lattice.
const RepairTarget* pickTarget(const std::vector<RepairTarget>& targets,
                               const std::set<std::string>& failed) {
  for (const RepairTarget& t : targets)
    if (failed.find(t.signature) == failed.end()) return &t;
  return nullptr;
}

}  // namespace

RepairResult repairSource(const std::string& source, FixTarget target,
                          const RepairLimits& limits) {
  RepairResult res;
  res.patchedSource = source;

  Snapshot base = analyzeForRepair(source);
  if (!base.ok) {
    res.status = RepairStatus::Error;
    res.error = base.error;
    return res;
  }

  std::set<std::string> failed;  // signatures with exhausted lattices
  std::string working = source;
  bool touchedTso = false;

  for (std::size_t iter = 0; iter < limits.maxIterations; ++iter) {
    const std::vector<RepairTarget> targets =
        collectTargets(*base.comp, base.csan, base.tso, target, working,
                       limits.maxCandidatesPerTarget);
    const RepairTarget* t = pickTarget(targets, failed);
    if (t == nullptr) break;
    ++res.stats.iterations;
    ++res.stats.targets;
    if (t->kind == TargetKind::Tso || t->kind == TargetKind::Fence)
      touchedTso = true;

    bool fixedThis = false;
    std::string lastReason;
    std::size_t tried = 0;
    for (std::size_t ci = 0; ci < t->candidates.size(); ++ci) {
      const Candidate& cand = t->candidates[ci];
      ++tried;
      ++res.stats.candidatesTried;
      const std::string patchedText =
          applyEdits(working, cand.edits(working));
      Snapshot snap = analyzeForRepair(patchedText);
      const Verdict v = verifyCandidate(base, snap, *t, limits);
      if (v.ok) {
        ++res.stats.candidatesVerified;
        if (cand.action == FixAction::WrapWithFreshLock)
          ++res.stats.freshLockFallbacks;
        res.applied.push_back(
            {t->describe(), cand.description, ci + 1, t->candidates.size()});
        working = patchedText;
        base = std::move(snap);
        fixedThis = true;
        break;
      }
      ++res.stats.candidatesRejected;
      if (v.unverifiable) ++res.stats.unverifiable;
      lastReason = v.reason;
    }
    if (!fixedThis) {
      failed.insert(t->signature);
      res.unfixed.push_back(
          {t->describe(),
           tried == 0 ? "no applicable candidate (the witness site is not "
                        "a wrappable single-line statement)"
                      : "all candidates rejected; last: " + lastReason,
           tried});
    }
  }

  res.patchedSource = working;
  res.diff = diffLines(source, working);
  const Exploration& sc =
      ensureExplored(base, support::MemoryModel::SC, limits);
  res.finalExploreComplete = sc.ok && sc.result.complete;
  res.finalRaceFree = res.finalExploreComplete && sc.raced.empty();
  res.finalDeadlockFree = res.finalExploreComplete &&
                          !sc.result.anyDeadlock && !sc.result.anyLockError;
  if (touchedTso && res.finalExploreComplete) {
    res.finalTsoChecked = true;
    const Exploration& tso =
        ensureExplored(base, support::MemoryModel::TSO, limits);
    res.finalTsoJustified = tso.result.complete && !tso.result.anyDeadlock &&
                            tso.result.outputs == sc.result.outputs &&
                            tso.raced == sc.raced;
  }

  const std::vector<RepairTarget> remaining =
      collectTargets(*base.comp, base.csan, base.tso, target, working,
                     limits.maxCandidatesPerTarget);
  if (res.applied.empty()) {
    res.status = res.unfixed.empty() && remaining.empty()
                     ? RepairStatus::Clean
                     : RepairStatus::NoSafeFix;
  } else {
    res.status =
        remaining.empty() ? RepairStatus::Fixed : RepairStatus::Partial;
  }
  return res;
}

std::string renderFixReport(const RepairResult& r, FixTarget target) {
  std::string out;
  if (r.status == RepairStatus::Error) {
    out += "fix: cannot repair: " + r.error + "\n";
    return out;
  }
  out += "fix: target '" + std::string(fixTargetName(target)) + "': " +
         std::to_string(r.stats.targets) + " repairable finding(s)\n";
  std::size_t n = 0;
  for (const AppliedFix& f : r.applied) {
    out += "fix: [" + std::to_string(++n) + "] " + f.target + "\n";
    out += "fix:     fixed by candidate " + std::to_string(f.candidateIndex) +
           "/" + std::to_string(f.candidateCount) + ": " + f.candidate + "\n";
  }
  for (const UnfixedTarget& u : r.unfixed) {
    out += "fix: [" + std::to_string(++n) + "] " + u.target + "\n";
    out += "fix:     no safe fix (" + std::to_string(u.candidatesTried) +
           " candidate(s) tried): " + u.reason + "\n";
  }
  out += "fix: status: " + std::string(repairStatusName(r.status)) + " (" +
         std::to_string(r.applied.size()) + " fix(es) applied, " +
         std::to_string(r.unfixed.size()) + " without a safe fix)\n";
  if (!r.applied.empty()) {
    out += std::string("fix: verified: explorer reports the patched "
                       "program ") +
           (r.finalRaceFree ? "race-free" : "NOT race-free") + ", " +
           (r.finalDeadlockFree ? "deadlock-free" : "NOT deadlock-free") +
           (r.finalExploreComplete ? "" : " (exploration incomplete)") +
           "\n";
    if (r.finalTsoChecked)
      out += std::string("fix: verified: TSO ") +
             (r.finalTsoJustified
                  ? "adds no behavior beyond SC — mutual exclusion justified"
                  : "still admits behavior beyond SC") +
             "\n";
    out += "fix: diff (" + std::to_string(r.diff.size()) + " line(s)):\n";
    out += renderDiff(r.diff);
    out += "fix: patched program:\n";
    out += r.patchedSource;
  }
  return out;
}

std::string renderRepairStats(const RepairStats& s) {
  return "repair:            " + std::to_string(s.targets) + " target(s), " +
         std::to_string(s.candidatesTried) + " tried, " +
         std::to_string(s.candidatesVerified) + " verified, " +
         std::to_string(s.candidatesRejected) + " rejected (" +
         std::to_string(s.unverifiable) + " unverifiable), " +
         std::to_string(s.freshLockFallbacks) + " fresh-lock fallback(s), " +
         std::to_string(s.iterations) + " iteration(s)\n";
}

}  // namespace cssame::repair
