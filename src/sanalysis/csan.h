// csan — the CSSAME-based static concurrency analyzer (growing the
// paper's Section 6 compiler warnings into a subsystem), and the one
// lock-discipline engine: `cssamec --races` prints runLockChecks, the
// first three checks below.
//
// Runs every check below over one analyzed Compilation (PFG + MHP +
// mutex structures + CSSAME form) and reports, through the ordinary
// DiagEngine:
//
//   races        PotentialDataRace at access-site granularity — one
//                warning per conflicting site *pair* (not per variable),
//                each carrying a two-site witness trace: both statements,
//                their locksets, and the MHP justification (the cobegin
//                whose sibling arms the sites run in). MayAliasRace for
//                pairs that race only if a pointer or array access
//                aliases.
//   locking      InconsistentLocking, the paper's Section 6 warning:
//                the writes of a variable that may happen in parallel
//                with another of its accesses hold no common lock, and
//                some of them hold one. A write that can overlap nothing
//                (an initialiser, a sequential write before or after a
//                cobegin) is not counted. One note per counted write.
//   deadlocks    PotentialDeadlock via mutex::detectDeadlocks (ABBA pairs
//                and longer lock-order cycles, with witness notes).
//   lifecycle    SelfDeadlock (re-acquiring a lock that may already be
//                held — these locks are non-reentrant, so the thread
//                blocks itself) and LockLeak (some path from a lock(L)
//                reaches the end of the program, or leaves its parallel
//                section, without unlock(L)).
//   body lints   EmptyMutexBody, RedundantMutexBody (every interior
//                statement is lock independent — the lock serializes
//                nothing), OverwideMutexBody (a proper lock-independent
//                prefix or suffix per opt::LockIndependence — LICM's
//                legality reused as a lint signal).
//   π reads      UnprotectedPiRead: a use whose CSSAME π kept a conflict
//                argument from a concurrent write whose lockset is
//                disjoint from the use's — the π arguments that survive
//                the Algorithm A.3 rewriting are exactly the concurrent
//                reaching definitions mutual exclusion could not kill.
#pragma once

#include <set>
#include <span>
#include <vector>

#include "src/driver/pipeline.h"
#include "src/mutex/deadlock.h"
#include "src/support/diag.h"

namespace cssame::sanalysis {

/// One end of a race witness.
struct RaceSite {
  NodeId node;
  const ir::Stmt* stmt = nullptr;
  SourceLoc loc;
  bool isWrite = false;
  /// The locks whose well-formed mutex bodies contain the site, ascending
  /// (MutexStructures::locksAt); valid while the Compilation lives.
  std::span<const SymbolId> lockset;
  /// The access goes through a pointer (`*p`); accessedSym is then
  /// invalid and the points-to chain note names the possible targets.
  bool viaDeref = false;
  /// Syntactic symbol accessed (the array for Index accesses); invalid
  /// for Deref accesses.
  SymbolId accessedSym{};
  /// For a read: the reading expression (VarRef/Index/Deref) — keys the
  /// points-to load table. nullptr for writes.
  const ir::Expr* ref = nullptr;
  /// For Index accesses: the index expression (`i` in `a[i]`).
  const ir::Expr* indexExpr = nullptr;
};

/// The full evidence for one PotentialDataRace / MayAliasRace diagnostic.
struct RaceWitness {
  SymbolId var;  ///< alias-class representative
  /// The pair was flagged MayAliasRace: a pointer access, or array
  /// accesses whose indices are not structurally equal.
  bool mayAlias = false;
  RaceSite def;    ///< the defining end of the conflict edge
  RaceSite other;  ///< the concurrent use or second definition
  /// MHP justification: the cobegin whose distinct arms the sites occupy.
  StmtId cobegin;
  SourceLoc cobeginLoc;
  std::uint32_t armA = 0;
  std::uint32_t armB = 0;
};

struct CsanReport {
  std::size_t potentialRaces = 0;       ///< conflicting site pairs
  std::size_t mayAliasRaces = 0;        ///< pairs racing through aliasing
  std::size_t inconsistentLocking = 0;  ///< variables
  mutex::DeadlockReport deadlocks;
  std::size_t selfDeadlocks = 0;
  std::size_t lockLeaks = 0;
  std::size_t emptyBodies = 0;
  std::size_t redundantBodies = 0;
  std::size_t overwideBodies = 0;
  std::size_t unprotectedPiReads = 0;

  std::vector<RaceWitness> raceWitnesses;
  /// Alias-class representatives with at least one PotentialDataRace or
  /// MayAliasRace, for the dynamic cross-validation harnesses
  /// (bench_csan, bench_alias). Map a dynamic symbol through
  /// graph.aliases.repOf before membership tests.
  std::set<SymbolId> racedVars;

  [[nodiscard]] std::size_t totalFindings() const {
    return potentialRaces + mayAliasRaces + inconsistentLocking +
           deadlocks.abbaPairs +
           deadlocks.orderCycles + selfDeadlocks + lockLeaks + emptyBodies +
           redundantBodies + overwideBodies + unprotectedPiReads;
  }
};

/// Runs only the lock-discipline checks (races, inconsistent locking,
/// deadlocks), in that order. The report's other counts stay 0.
[[nodiscard]] CsanReport runLockChecks(const driver::Compilation& comp,
                                       DiagEngine& diag);

/// Runs every check over the compilation, emitting diagnostics (with
/// witness notes) into `diag` and returning the structured report. Its
/// first diagnostics are runLockChecks'.
[[nodiscard]] CsanReport runCsan(const driver::Compilation& comp,
                                 DiagEngine& diag);

}  // namespace cssame::sanalysis
