// Layered breadth-first schedule exploration.
//
// Each loop iteration processes one frontier layer — all candidate
// states at the same step depth — in three in-order passes:
//
//   1. classify: per state, fingerprint, terminal / deadlock / normal
//      classification, ready-thread list, value sampling and dynamic
//      race recording. The whole layer is classified before anything is
//      recorded, so a layer whose record pass trips the States budget
//      still contributes every state's races and value samples.
//   2. record: walk the frontier in order; terminal and deadlocked
//      states record their outputs, the rest are deduplicated against
//      the visited map (the earliest frontier slot wins among equal
//      states) and the fresh ones counted against the States budget,
//      which trips exactly at maxStates + 1.
//   3. expand: every state with a selected action (a fresh state, or a
//      revisited one re-expanding what its stored visit slept) appends
//      one successor per selected action to the next frontier, so the
//      next layer's order is a pure function of this layer.
//
// Budgets are enforced at layer boundaries (Steps, Depth, States,
// Memory) plus one check inside expansion: successor bytes accumulate,
// and the search stops once they cross the memory cap.
// Partial-order reduction (ExploreOptions::dpor) layers onto the passes:
// persistent sets and dependence masks are pure functions of the state,
// computed in classify; sleep sets ride alongside the frontier and are
// inherited positionally in expand; and the visited map's sleep-mask
// merges happen in record's in-order scan. With the reduction off every
// pass degenerates bit-for-bit to the unreduced sweep.
// src/interp/dpor.h states the soundness contract.
#include "src/interp/explore.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>
#include <vector>

#include "src/interp/dpor.h"
#include "src/interp/machine.h"
#include "src/support/visited.h"

namespace cssame::interp {

namespace {

bool holdCommonLock(const std::vector<SymbolId>& a,
                    const std::vector<SymbolId>& b) {
  for (SymbolId x : a)
    for (SymbolId y : b)
      if (x == y) return true;
  return false;
}

class Explorer {
 public:
  Explorer(const ir::Program& prog, const ExploreOptions& opts)
      : prog_(prog), opts_(opts) {
    if (opts_.recordValues) {
      for (const ir::Symbol& s : prog_.symbols.all())
        if (s.kind == ir::SymbolKind::Var) sampledVars_.push_back(s.id);
    }
    if (opts_.dpor) footprints_.emplace(prog_);
  }

  ExploreResult run() {
    frontier_.emplace_back(prog_, opts_.model);
    frontierBytes_ = frontier_.front().approxBytes();
    result_.peakFrontierBytes = frontierBytes_;
    if (opts_.dpor) sleepIn_.assign(1, 0);
    std::uint64_t depth = 0;
    while (!frontier_.empty()) {
      if (stepsUsed_ >= opts_.maxSteps) {
        trip(support::BudgetKind::Steps);
        break;
      }
      const bool atDepthCap = depth >= opts_.maxDepthPerRun;
      classifyLayer(atDepthCap);
      if (atDepthCap) {
        // Every remaining state sits at or beyond the cap; states at the
        // cap are sampled (above) but not recorded or expanded.
        trip(support::BudgetKind::Depth);
        break;
      }
      if (!recordLayer()) break;  // States budget
      memBase_ = frontierBytes_ + visited_.approxBytes();
      if (memBase_ > opts_.maxMemoryBytes) {
        trip(support::BudgetKind::Memory);
        break;
      }
      if (!expandLayer()) break;  // Memory budget
      ++depth;
    }
    return std::move(result_);
  }

 private:
  /// Records the first tripped budget. Every trip ends the layer loop:
  /// unlike a depth-first search there is no "elsewhere" to continue —
  /// all shallower work is already done.
  void trip(support::BudgetKind kind) {
    result_.complete = false;
    if (result_.budgetExceeded == support::BudgetKind::None)
      result_.budgetExceeded = kind;
  }

  /// Folds every variable's current value into the observed min/max.
  /// Every frontier state — initial, terminal, duplicate and depth-capped
  /// alike — is sampled in the layer it appears.
  void sample(const Machine& machine) {
    for (SymbolId v : sampledVars_) {
      // For an array the whole cell region folds into its symbol's range.
      const auto [lo, hi] = machine.valueRangeOf(v);
      auto [it, fresh] = result_.observedRanges.try_emplace(v, lo, hi);
      if (!fresh) {
        it->second.first = std::min(it->second.first, lo);
        it->second.second = std::max(it->second.second, hi);
      }
    }
  }

  /// Two runnable threads with conflicting pending accesses and no common
  /// lock held: their next steps can execute in either order from this
  /// very state, so the conflict is a concrete (not merely may-happen)
  /// race witness.
  void recordRaces(const Machine& machine,
                   const std::vector<Machine::Action>& actions) {
    // Only program steps of runnable threads carry pending statements;
    // TSO flush actions commit already-recorded stores and are skipped
    // (under SC every action is a program step, so this filter is the
    // identity and the recorded races match the pre-TSO explorer).
    std::vector<std::size_t> ready;
    for (const Machine::Action& a : actions)
      if (!a.flush) ready.push_back(a.thread);
    // Accesses are matched by dynamically resolved memory cell (the
    // machine evaluates pointer and index addresses in the thread's own
    // view), then attributed to the owning symbol.
    std::vector<Machine::PendingAccess> acc(ready.size());
    for (std::size_t i = 0; i < ready.size(); ++i)
      acc[i] = machine.pendingAccesses(ready[i]);
    std::set<SymbolId>& raced = result_.racedVars;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      for (std::size_t j = i + 1; j < ready.size(); ++j) {
        if (holdCommonLock(machine.heldLocksOf(ready[i]),
                           machine.heldLocksOf(ready[j])))
          continue;
        auto conflict = [&](const Machine::PendingAccess& w,
                            const Machine::PendingAccess& r) {
          for (const auto& [cell, sym] : w.writes) {
            for (const auto& [c2, s2] : r.writes)
              if (c2 == cell) raced.insert(sym);
            for (const auto& [c2, s2] : r.reads)
              if (c2 == cell) raced.insert(sym);
          }
        };
        conflict(acc[i], acc[j]);
        conflict(acc[j], acc[i]);
      }
    }
  }

  /// Pass 1: per-state facts into per-slot storage. At the depth cap only
  /// the value sampling runs — the old per-state order was sample, then
  /// depth check, then terminal classification.
  void classifyLayer(bool atDepthCap) {
    slots_.assign(frontier_.size(), Slot{});
    for (std::size_t i = 0; i < frontier_.size(); ++i) {
      const Machine& m = frontier_[i];
      if (opts_.recordValues) sample(m);
      if (atDepthCap) continue;
      Slot& s = slots_[i];
      s.hash = m.stateHash128();
      if (!m.anyAlive()) {
        s.kind = Slot::Terminal;
        continue;
      }
      s.ready = m.readyActions();
      if (s.ready.empty()) {
        s.kind = Slot::Deadlock;
        continue;
      }
      // Race recording scans *all* enabled actions, before any pruning:
      // a race witness is recorded at every visited state where the
      // conflicting pair is co-enabled, slept or not.
      if (opts_.detectRaces && s.ready.size() >= 2) recordRaces(m, s.ready);
      if (opts_.dpor) {
        dpor::StateSets sets =
            dpor::computeStateSets(m, s.ready, *footprints_);
        result_.dpor.depQueries += sets.depQueries;
        s.dporOk = sets.ok;
        if (sets.ok) {
          s.pMask = sets.pMask;
          s.depMask = std::move(sets.depMask);
          // Sleep keys stay enabled along independent paths; clamping to
          // the enabled mask is defensive (dropping a key only explores
          // more) and keeps the masks meaningful for the merge rule.
          s.sleepIn = sleepIn_[i] & sets.enabledMask;
        }
      }
    }
  }

  /// Pass 2: in-order scan. Terminal and deadlocked states are recorded
  /// (never deduplicated or counted — matching the per-state order
  /// terminal-check-before-dedup of the original search). The rest are
  /// deduplicated, which also decides each slot's expansion set: fresh
  /// states expand their persistent set minus the inherited sleep set; a
  /// revisited state expands whatever the stored visit slept that this
  /// visit would run (the state-caching repair — see VisitedMap). Fresh
  /// states are counted against the States budget, which trips exactly
  /// at maxStates + 1. Returns false when the budget tripped.
  bool recordLayer() {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      const Machine& m = frontier_[i];
      if (s.kind == Slot::Terminal) {
        result_.outputs.insert(m.result().output);
        result_.anyLockError |= m.result().lockError;
        result_.anyAssertFailure |= m.result().assertFailed;
        result_.anyPtrError |= m.result().ptrError;
        continue;
      }
      if (s.kind == Slot::Deadlock) {
        result_.anyDeadlock = true;
        result_.outputs.insert(m.result().output);
        continue;
      }
      bool fresh = false;
      if (opts_.dpor && s.dporOk) {
        const auto r = visited_.insertOrMerge(s.hash, s.sleepIn, s.pMask);
        fresh = r.fresh;
        s.expandMask = r.fresh ? s.pMask & ~s.sleepIn : r.missing;
      } else {
        // Unreduced (or >32-thread fallback): full expansion, empty
        // sleep — the map behaves exactly like a plain visited set.
        fresh = visited_.insertOrMerge(s.hash, 0, 0).fresh;
        s.expandAll = fresh;
      }
      if (!fresh) {
        // A revisited state re-expanding slept actions is not a new
        // state — it only repairs coverage — so it never counts against
        // the States budget.
        if (s.expandMask != 0) ++result_.dpor.partialReexpansions;
        continue;
      }
      if (opts_.dpor && s.dporOk) {
        result_.dpor.sleepSetHits +=
            std::popcount(s.pMask & s.sleepIn);
        result_.dpor.prunedSuccessors +=
            s.ready.size() - std::popcount(s.expandMask);
      }
      ++result_.statesExplored;
      if (result_.statesExplored > opts_.maxStates) {
        trip(support::BudgetKind::States);
        return false;
      }
    }
    return true;
  }

  /// Pass 3: append each slot's selected actions to the next frontier
  /// (the last successor steals the parent machine instead of copying
  /// it). Under DPOR the selection is the expansion mask decided in
  /// record, and each successor inherits its sleep set positionally: the
  /// inherited sleep plus every action expanded before it in ready order,
  /// minus everything dependent with the action taken. Returns false,
  /// having tripped Memory, once the successors' bytes on top of the
  /// layer-boundary footprint cross the memory cap.
  bool expandLayer() {
    // Sized up front: growing a layer of 10^5-10^6 machines by doubling
    // made production-shape explorations about a tenth slower.
    std::size_t total = 0;
    for (const Slot& s : slots_)
      if (s.kind == Slot::Normal)
        total += s.expandAll ? s.ready.size()
                             : static_cast<std::size_t>(
                                   std::popcount(s.expandMask));
    std::vector<Machine> next;
    next.reserve(total);
    std::vector<std::uint64_t> nextSleep;
    if (opts_.dpor) nextSleep.reserve(total);
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = slots_[i];
      if (s.kind != Slot::Normal) continue;
      std::vector<std::size_t> sel;  // selected ready indices, in order
      sel.reserve(s.ready.size());
      for (std::size_t k = 0; k < s.ready.size(); ++k)
        if (s.expandAll ||
            (s.expandMask & dpor::actionKeyBit(s.ready[k])) != 0)
          sel.push_back(k);
      std::uint64_t acc = s.sleepIn;  // sleep ∪ actions expanded so far
      for (std::size_t j = 0; j < sel.size(); ++j) {
        const std::size_t k = sel[j];
        if (opts_.dpor) {
          nextSleep.push_back(s.dporOk ? acc & ~s.depMask[k] : 0);
          if (s.dporOk) acc |= dpor::actionKeyBit(s.ready[k]);
        }
        Machine& succ = j + 1 == sel.size()
                            ? next.emplace_back(std::move(frontier_[i]))
                            : next.emplace_back(frontier_[i]);
        succ.perform(s.ready[k]);
        bytes += succ.approxBytes();
        if (memBase_ + bytes > opts_.maxMemoryBytes) {
          trip(support::BudgetKind::Memory);
          return false;
        }
      }
    }
    stepsUsed_ += next.size();
    if (!next.empty()) {
      frontierBytes_ = bytes;
      result_.peakFrontierBytes =
          std::max(result_.peakFrontierBytes, frontierBytes_);
    }
    frontier_ = std::move(next);
    if (opts_.dpor) sleepIn_ = std::move(nextSleep);
    return true;
  }

  struct Slot {
    enum Kind : std::uint8_t { Normal, Terminal, Deadlock };
    support::Hash128 hash;
    Kind kind = Normal;
    std::vector<Machine::Action> ready;
    // DPOR per-state data (classify). dporOk falls back to full
    // expansion for states the 64-bit action-key encoding cannot cover.
    bool dporOk = false;
    std::uint64_t pMask = 0;    ///< persistent-set action keys
    std::uint64_t sleepIn = 0;  ///< inherited sleep, clamped to enabled
    std::vector<std::uint64_t> depMask;  ///< per ready action
    // Expansion selection (record): either everything (unreduced path),
    // or the action keys in expandMask.
    bool expandAll = false;
    std::uint64_t expandMask = 0;
  };

  const ir::Program& prog_;
  const ExploreOptions& opts_;
  ExploreResult result_;
  std::vector<SymbolId> sampledVars_;  ///< Var symbols, when recordValues
  std::vector<Machine> frontier_;
  /// Per frontier slot: inherited sleep mask (only maintained with dpor).
  std::vector<std::uint64_t> sleepIn_;
  std::vector<Slot> slots_;
  /// Static whole-body footprints, built once per exploration (dpor).
  std::optional<dpor::StaticFootprints> footprints_;
  support::VisitedMap visited_;
  std::uint64_t stepsUsed_ = 0;
  std::uint64_t frontierBytes_ = 0;  ///< footprint of the current layer
  std::uint64_t memBase_ = 0;        ///< frontier + visited at the boundary
};

}  // namespace

ExploreResult exploreAllSchedules(const ir::Program& program,
                                  ExploreOptions opts) {
  return Explorer(program, opts).run();
}

}  // namespace cssame::interp
