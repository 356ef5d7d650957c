// Lock-consistency data race warnings (paper Section 6).
//
// The prototype compiler described in the paper warns about inconsistent
// use of locks to protect shared variables: "if modifications to a
// variable are not always protected by the same lock, the compiler will
// warn the user about a potential data race". This implements that check
// as a lockset analysis over mutex structures:
//   - InconsistentLocking: writes to a shared variable occur under
//     differing locksets (some writes protected by L, others not);
//   - PotentialDataRace: two concurrent conflicting accesses (at least one
//     a write) share no common lock.
//
// The InconsistentLocking check and the lockset rendering live here once;
// csan (src/sanalysis/csan.h) calls them for its own write check.
#pragma once

#include <string>
#include <vector>

#include "src/analysis/concurrency.h"
#include "src/mutex/mutex_structures.h"
#include "src/support/bitset.h"
#include "src/support/diag.h"

namespace cssame::mutex {

/// Renders a lockset as "{L, M}" or "{}", in the order given: ascending
/// for MutexStructures::locksAt spans and for std::set<SymbolId>.
template <typename Locks>
[[nodiscard]] std::string locksetStr(const Locks& locks,
                                     const ir::SymbolTable& syms) {
  std::string out = "{";
  bool first = true;
  for (SymbolId l : locks) {
    if (!first) out += ", ";
    out += syms.nameOf(l);
    first = false;
  }
  return out + "}";
}

/// The variables (alias-class representatives, by symbol index) with
/// some conflict edge whose endpoints may happen in parallel. Conflict
/// edges are computed without the set/wait refinement (they drive
/// dataflow); accesses with a guaranteed ordering cannot overlap, so
/// their edges do not count here.
[[nodiscard]] DynBitset concurrentlyAccessed(const pfg::Graph& graph,
                                             const analysis::Mhp& mhp);

/// InconsistentLocking for one concurrently accessed variable: some write
/// holds a lock, but no lock is held by every write. Warns with one note
/// per write site and returns true when it fires.
bool warnInconsistentLocking(
    SymbolId var, const std::vector<analysis::AccessSites::Def>& defs,
    const MutexStructures& structures, const ir::SymbolTable& syms,
    DiagEngine& diag);

struct RaceReport {
  std::size_t inconsistentLocking = 0;
  std::size_t potentialRaces = 0;
};

RaceReport detectRaces(const pfg::Graph& graph, const analysis::Mhp& mhp,
                       const MutexStructures& structures, DiagEngine& diag);

/// Same, but reuses an already-collected access index for `graph` (e.g.
/// driver::Compilation::sites()) instead of re-walking every statement.
RaceReport detectRaces(const pfg::Graph& graph, const analysis::Mhp& mhp,
                       const MutexStructures& structures, DiagEngine& diag,
                       const analysis::AccessSites& sites);

}  // namespace cssame::mutex
