// tso — weak-memory (x86-TSO) soundness check for ad-hoc mutual
// exclusion protocols.
//
// Every other static pass in this repository reasons over sequentially
// consistent interleavings. Under TSO each thread issues its plain stores
// into a private FIFO store buffer, so a later load can complete while an
// earlier store of the same thread is still invisible to everyone else —
// the classic store-buffering reordering that breaks Peterson's, Dekker's
// and bakery-style protocols built from plain loads and stores. Proper
// lock()/unlock() pairs are immune (locked operations drain the buffer),
// which is why the SC-based csan verdicts stay sound for lock-protected
// programs but not for protocols justified by plain memory accesses.
//
// The pass tracks per-thread *pending-store windows* — which plain shared
// stores may still sit in the issuing thread's buffer at each PFG point —
// by reachability over control edges (dataflow::pendingStoresOnEntry): a
// plain shared store is pending wherever a walk from its block enters,
// and the walk stops at fences, atomics and every blocking
// synchronization node, which drain the window.
//
// Every call runs both checks and reports, through the ordinary
// DiagEngine:
//
//   MutualExclusionNotJustifiedUnderTSO
//       a shared load of y executed while a plain store to x != y from
//       the same thread may still be buffered, where both variables are
//       also accessed by a concurrent thread without a common lock (the
//       triangular-race shape of Owens' TSO race-freedom result). The
//       witness carries the reorderable store/load pair plus the two
//       concurrent observer sites that make the reordering observable.
//
//   FenceRedundant
//       a fence whose incoming pending-store window is empty, or holds
//       only stores no concurrent thread can observe — the fence orders
//       nothing that can race, so it can be removed.
//
// The dynamic oracle is the schedule explorer run twice, under
// MemoryModel::SC and MemoryModel::TSO: every flagged protocol must have
// a TSO-only execution where both threads co-occupy the critical section
// (the CS data variable joins ExploreResult::racedVars only under TSO),
// and fence-repaired variants must be clean under both (bench_tso).
#pragma once

#include <set>
#include <vector>

#include "src/driver/pipeline.h"
#include "src/support/diag.h"

namespace cssame::sanalysis {

/// One reorderable store/load pair, for the cross-validation harness.
struct TsoWitness {
  SymbolId storeVar;  ///< x — the plain store that may still be buffered
  SymbolId loadVar;   ///< y — the later load that can overtake it
  NodeId storeNode;
  NodeId loadNode;
  SourceLoc storeLoc;
  SourceLoc loadLoc;
  /// The witness statements themselves (owned by the analyzed program).
  /// The repair engine reads the store's rhs to synthesize an
  /// atomic_store upgrade and the load's statement to anchor a fence.
  const ir::Stmt* storeStmt = nullptr;
  const ir::Stmt* loadStmt = nullptr;
};

struct TsoReport {
  std::size_t notJustified = 0;    ///< store/load pairs flagged
  std::size_t redundantFences = 0; ///< fences draining nothing racy
  std::vector<TsoWitness> witnesses;
  /// Locations of the fences FenceRedundant flagged, in emission order —
  /// the repair engine's deletion anchors.
  std::vector<SourceLoc> redundantFenceSites;
  /// Variables appearing on either end of a flagged pair — the protocol
  /// variables whose plain-access justification TSO breaks.
  std::set<SymbolId> reorderedStores;
  std::set<SymbolId> overtakingLoads;

  [[nodiscard]] std::size_t totalFindings() const {
    return notJustified + redundantFences;
  }
};

/// Runs the TSO checks over the compilation, emitting diagnostics (with
/// witness notes) into `diag` and returning the structured report.
[[nodiscard]] TsoReport runTso(const driver::Compilation& comp,
                               DiagEngine& diag);

}  // namespace cssame::sanalysis
