#include "src/opt/licm.h"

#include <algorithm>
#include <unordered_set>

#include "src/ir/parent_map.h"
#include "src/opt/lock_independence.h"

namespace cssame::opt {

namespace {

class Licm {
 public:
  explicit Licm(driver::Compilation& comp)
      : comp_(comp), graph_(comp.graph()), independence_(comp) {}

  LicmStats run() {
    LicmStats stats;
    // Snapshot the bodies first: motion edits the IR but leaves the
    // Lock/Unlock statement objects (our span anchors) intact.
    struct Span {
      ir::Stmt* lockStmt;
      ir::Stmt* unlockStmt;
    };
    std::vector<Span> spans;
    for (const mutex::MutexBody& b : comp_.mutexes().bodies())
      spans.push_back(Span{graph_.node(b.lockNode).syncStmt,
                           graph_.node(b.unlockNode).syncStmt});
    for (const Span& span : spans)
      processBody(span.lockStmt, span.unlockStmt, stats);
    return stats;
  }

 private:
  /// Ordering synchronization: motion never crosses these — lock
  /// independence is judged under the MHP orderings they create.
  [[nodiscard]] static bool isEventSync(const ir::Stmt& s) {
    return s.kind == ir::StmtKind::Set || s.kind == ir::StmtKind::Wait ||
           s.kind == ir::StmtKind::Barrier ||
           s.kind == ir::StmtKind::Fence;
  }

  void processBody(ir::Stmt* lockStmt, ir::Stmt* unlockStmt,
                   LicmStats& stats) {
    ir::ParentMap parents(comp_.program());
    const ir::ParentInfo& li = parents.info(lockStmt);
    const ir::ParentInfo& ui = parents.info(unlockStmt);
    if (li.list != ui.list) return;  // lock/unlock at different nesting
    ir::StmtList& list = *li.list;

    auto indexOf = [&](const ir::Stmt* s) -> std::ptrdiff_t {
      for (std::size_t i = 0; i < list.size(); ++i)
        if (list[i].get() == s) return static_cast<std::ptrdiff_t>(i);
      return -1;
    };

    // --- Sink to the post-mutex node (matches Figure 5b) ---------------
    {
      // Scan the interior backwards; `barrier` accumulates the defs/uses
      // of statements that stay between the candidate and the unlock.
      VarSet barrierDefs, barrierUses;
      std::vector<ir::Stmt*> toSink;  // collected in original order
      const std::ptrdiff_t lo = indexOf(lockStmt);
      std::ptrdiff_t hi = indexOf(unlockStmt);
      for (std::ptrdiff_t k = hi - 1; k > lo; --k) {
        ir::Stmt* s = list[static_cast<std::size_t>(k)].get();
        if (isEventSync(*s)) break;  // never move across set/wait
        const AccessSummary sum = summarizeSubtree(*s);
        // A pointer access touches a cell the symbol-keyed barrier sets
        // cannot name; nothing may move across it.
        if (sum.indirection) break;
        const bool canMove = independence_.isLockIndependent(*s) &&
                             !setsIntersect(sum.defs, barrierDefs) &&
                             !setsIntersect(sum.defs, barrierUses) &&
                             !setsIntersect(sum.uses, barrierDefs);
        if (canMove) {
          toSink.insert(toSink.begin(), s);
        } else {
          for (SymbolId v : sum.defs) barrierDefs.insert(v);
          for (SymbolId v : sum.uses) barrierUses.insert(v);
        }
      }
      // Move, preserving original relative order, to just after unlock.
      std::ptrdiff_t placed = 0;
      for (ir::Stmt* s : toSink) {
        const std::ptrdiff_t from = indexOf(s);
        ir::StmtPtr owned = std::move(list[static_cast<std::size_t>(from)]);
        list.erase(list.begin() + from);
        list.insert(list.begin() + indexOf(unlockStmt) + 1 + placed,
                    std::move(owned));
        ++placed;
        ++stats.sunk;
      }
    }

    // --- Hoist to the pre-mutex node ------------------------------------
    {
      VarSet barrierDefs, barrierUses;
      std::vector<ir::Stmt*> toHoist;
      const std::ptrdiff_t lo = indexOf(lockStmt);
      const std::ptrdiff_t hi = indexOf(unlockStmt);
      for (std::ptrdiff_t k = lo + 1; k < hi; ++k) {
        ir::Stmt* s = list[static_cast<std::size_t>(k)].get();
        if (isEventSync(*s)) break;
        const AccessSummary sum = summarizeSubtree(*s);
        if (sum.indirection) break;  // see the sink scan
        const bool canMove = independence_.isLockIndependent(*s) &&
                             !setsIntersect(sum.defs, barrierDefs) &&
                             !setsIntersect(sum.defs, barrierUses) &&
                             !setsIntersect(sum.uses, barrierDefs);
        if (canMove) {
          toHoist.push_back(s);
        } else {
          for (SymbolId v : sum.defs) barrierDefs.insert(v);
          for (SymbolId v : sum.uses) barrierUses.insert(v);
        }
      }
      for (ir::Stmt* s : toHoist) {
        const std::ptrdiff_t from = indexOf(s);
        ir::StmtPtr owned = std::move(list[static_cast<std::size_t>(from)]);
        list.erase(list.begin() + from);
        list.insert(list.begin() + indexOf(lockStmt), std::move(owned));
        ++stats.hoisted;
      }
    }

    // --- A.5 lines 43–45: delete an emptied Lock/Unlock pair ------------
    {
      const std::ptrdiff_t lo = indexOf(lockStmt);
      const std::ptrdiff_t hi = indexOf(unlockStmt);
      if (hi == lo + 1) {
        list.erase(list.begin() + lo, list.begin() + hi + 1);
        ++stats.bodiesRemoved;
      }
    }
  }

  driver::Compilation& comp_;
  pfg::Graph& graph_;
  LockIndependence independence_;
};

}  // namespace

LicmStats moveLockIndependentCode(driver::Compilation& comp) {
  return Licm(comp).run();
}

}  // namespace cssame::opt
