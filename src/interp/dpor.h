// Dynamic partial-order reduction for the schedule explorer.
//
// The explorer enumerates interleavings; most of them are equivalent
// permutations of independent actions (Mazurkiewicz traces). This module
// computes, per dynamic state, which enabled actions actually need
// expansion:
//
//  - a *persistent set* (Godefroid): a subset P of the enabled actions
//    such that every action reachable without executing P is independent
//    with all of P. Exploring only P from the state preserves every
//    terminal state, deadlock, assertion failure and error flag of the
//    full search. The closure is seeded with the first enabled thread
//    and pulls in every thread whose *static whole-body footprint*
//    (src/ir — the same conflict information the CSSAME construction
//    derives from its conflict edges: common sync symbol, common symbol
//    with a write, or an everything-conflicts global action) may clash
//    with an enabled action's *dynamic* facts. Blocked threads that join
//    the closure contribute a necessary-enabling set instead: the lock
//    holder, every potential event setter, the first unfinished child,
//    the first blocking barrier sibling — whoever must move first before
//    the blocked operation can fire.
//
//  - the pairwise *dependence masks* the sleep-set layer needs: two
//    enabled actions are dependent iff they belong to the same thread,
//    either is global (assert / cobegin), both print, both are barrier
//    operations, both touch the same sync symbol, their dynamically
//    resolved memory cells conflict with a write, or their frame-unwind
//    loop-condition reads overlap a write at symbol granularity. TSO
//    note: a buffered store counts as a write of its target cell even
//    though commit happens at a later flush — keeping the pair dependent
//    is what preserves `racedVars` bit-exactly under reduction.
//
// Everything here is a pure function of the machine state; the explorer
// evaluates it in its classify pass (src/interp/explore.cc).
//
// Soundness caveat (shared discipline): dependence only tracks *shared*
// variables, mirroring the race oracle — the parser scopes thread-local
// declarations to their thread body, so cross-thread access to a
// non-shared symbol cannot be expressed.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/interp/machine.h"
#include "src/ir/program.h"

namespace cssame::interp::dpor {

/// Static over-approximation of everything one thread body (and every
/// thread it may transitively spawn) can do, at symbol granularity.
struct Footprint {
  std::vector<bool> reads;   ///< per symbol: some statement may read it
  std::vector<bool> writes;  ///< per symbol: some statement may write it
  std::vector<bool> syncs;   ///< per symbol: lock/unlock/set/wait on it
  std::vector<bool> sets;    ///< per symbol: a Set(e) may post the event
  bool anywhereRead = false;   ///< a pointer deref may read any cell
  bool anywhereWrite = false;  ///< a pointer deref may write any cell
  bool hasBarrier = false;
  bool hasPrint = false;
  /// Contains an assert or cobegin — conflicts with everything.
  bool hasGlobal = false;
  bool hasAnyWrite = false;  ///< any writes bit set, or anywhereWrite
};

/// Whole-body footprints for every spawnable thread body of a program:
/// the program body (main) plus each cobegin arm, keyed by the arm's
/// statement list — the same pointer Machine::rootListOf reports.
class StaticFootprints {
 public:
  explicit StaticFootprints(const ir::Program& prog);

  /// Footprint of a thread body, or nullptr for an unknown list (the
  /// caller then falls back to full expansion — never unsound).
  [[nodiscard]] const Footprint* of(const ir::StmtList* body) const {
    auto it = byBody_.find(body);
    return it == byBody_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<const ir::StmtList*, Footprint> byBody_;
};

/// Action key: bit index identifying one scheduler action of a state —
/// thread index times two, plus one for the store-buffer flush action.
/// Fits 32 threads in a 64-bit mask; states with more threads fall back
/// to full expansion.
[[nodiscard]] inline unsigned actionKey(Machine::Action a) {
  return static_cast<unsigned>(a.thread) * 2u + (a.flush ? 1u : 0u);
}
[[nodiscard]] inline std::uint64_t actionKeyBit(Machine::Action a) {
  return 1ull << actionKey(a);
}
inline constexpr std::size_t kMaxDporThreads = 32;

/// Per-state reduction sets, computed in the explorer's classify phase.
struct StateSets {
  /// False when this state cannot use the reduction (more than 32
  /// threads, or an unregistered thread body): expand everything.
  bool ok = false;
  std::uint64_t enabledMask = 0;  ///< key bits of all enabled actions
  std::uint64_t pMask = 0;        ///< key bits of the persistent set
  /// Per enabled action (parallel to the ready list): key bits of the
  /// other enabled actions it is dependent with (its own thread's other
  /// action included — same-thread actions never commute).
  std::vector<std::uint64_t> depMask;
  std::uint64_t depQueries = 0;  ///< dependence/conflict tests performed
};

/// True when the two enabled actions (facts resolved in the same state)
/// may not commute. Symmetric.
[[nodiscard]] bool dependent(const Machine::ActionFacts& a,
                             const Machine::ActionFacts& b);

/// True when thread body `fp` may ever perform an action dependent with
/// an action whose current facts are `f`.
[[nodiscard]] bool futureConflict(const Footprint& fp,
                                  const Machine::ActionFacts& f);

/// Computes the persistent set and dependence masks for one state.
/// `ready` must be machine.readyActions() (non-empty).
[[nodiscard]] StateSets computeStateSets(
    const Machine& machine, const std::vector<Machine::Action>& ready,
    const StaticFootprints& footprints);

}  // namespace cssame::interp::dpor
