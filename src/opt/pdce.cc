#include "src/opt/pdce.h"

#include <deque>
#include <unordered_set>

#include "src/cssa/reaching.h"

namespace cssame::opt {

namespace {

class Pdce {
 public:
  explicit Pdce(driver::Compilation& comp)
      : comp_(comp), graph_(comp.graph()), walked_(comp.ssa().defs.size()) {}

  DceStats run() {
    seed();
    propagate();
    DceStats stats;
    clean(comp_.program().body, stats);
    return stats;
  }

 private:
  void markLive(const ir::Stmt* s) {
    if (s == nullptr || live_.contains(s)) return;
    live_.insert(s);
    work_.push_back(s);
  }

  void seed() {
    ir::forEachStmt(comp_.program().body, [&](const ir::Stmt& s) {
      switch (s.kind) {
        case ir::StmtKind::Print:
        case ir::StmtKind::Assert:
        case ir::StmtKind::CallStmt:
        case ir::StmtKind::Lock:
        case ir::StmtKind::Unlock:
        case ir::StmtKind::Set:
        case ir::StmtKind::Wait:
        case ir::StmtKind::Barrier:
        case ir::StmtKind::Fence:
          markLive(&s);
          break;
        case ir::StmtKind::Assign:
          // Calls inside a right-hand side may have side effects; atomic
          // accesses order memory under TSO even when their value is dead.
          if (s.atomic || (s.expr && ir::containsCall(*s.expr)) ||
              (s.lhsAddr && ir::containsCall(*s.lhsAddr)))
            markLive(&s);
          break;
        default:
          break;
      }
    });
  }

  void propagate() {
    while (!work_.empty()) {
      const ir::Stmt* s = work_.front();
      work_.pop_front();

      // Condition 2: definitions reaching this statement's uses are live.
      // Algorithm A.4 walks φ and π terms down to real definitions. Every
      // reading expression — VarRef, Index, Deref — has a use-def link;
      // so do the uses inside a store's address (`i` in `a[i] = e`),
      // which keep index/pointer computations alive. Liveness only
      // grows, so a name walked for an earlier use needs no second walk.
      const ssa::SsaForm& form = comp_.ssa();
      auto markReaching = [&](const ir::Expr& root) {
        ir::forEachExpr(root, [&](const ir::Expr& e) {
          auto it = form.useDef.find(&e);
          if (it == form.useDef.end()) return;
          cssa::forEachReachingDef(
              form, it->second, walked_, [&](SsaNameId d) {
                const ssa::Definition& def = form.def(d);
                if (def.kind == ssa::DefKind::Assign) markLive(def.stmt);
              });
        });
      };
      if (s->expr) markReaching(*s->expr);
      if (s->lhsAddr) markReaching(*s->lhsAddr);

      // Condition 3: branches this statement is control dependent on are
      // live; the reverse dominance frontier gives exactly those nodes.
      // A cobegin node in the frontier realizes the paper's rule that a
      // cobegin is live when a child statement is live.
      const NodeId n = graph_.nodeOf(s);
      if (!n.valid()) continue;
      for (NodeId c : comp_.pdom().frontier(n)) {
        const pfg::Node& cn = graph_.node(c);
        if (cn.terminator != nullptr) markLive(cn.terminator);
        if (cn.kind == pfg::NodeKind::Cobegin) markLive(cn.syncStmt);
      }
    }
  }

  /// Structural sweep: removes statements never marked live, serializes
  /// single-live-thread cobegins.
  void clean(ir::StmtList& list, DceStats& stats) {
    for (std::size_t i = 0; i < list.size();) {
      ir::Stmt& s = *list[i];
      switch (s.kind) {
        case ir::StmtKind::Assign:
        case ir::StmtKind::CallStmt:
        case ir::StmtKind::Print:
        case ir::StmtKind::Assert:
        case ir::StmtKind::Lock:
        case ir::StmtKind::Unlock:
        case ir::StmtKind::Set:
        case ir::StmtKind::Wait:
        case ir::StmtKind::Barrier:
        case ir::StmtKind::Fence:
          if (!live_.contains(&s)) {
            list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
            ++stats.stmtsRemoved;
            continue;
          }
          break;
        case ir::StmtKind::If:
        case ir::StmtKind::While:
          clean(s.thenBody, stats);
          clean(s.elseBody, stats);
          if (!live_.contains(&s) && s.thenBody.empty() &&
              s.elseBody.empty()) {
            list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
            ++stats.stmtsRemoved;
            continue;
          }
          break;
        case ir::StmtKind::Cobegin: {
          std::size_t liveThreads = 0;
          std::size_t liveIdx = 0;
          for (std::size_t t = 0; t < s.threads.size(); ++t) {
            clean(s.threads[t].body, stats);
            if (!s.threads[t].body.empty()) {
              ++liveThreads;
              liveIdx = t;
            }
          }
          if (liveThreads == 0) {
            list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
            ++stats.stmtsRemoved;
            continue;
          }
          if (liveThreads == 1) {
            // Serialize: replace the cobegin by the single live thread.
            ir::StmtList body = std::move(s.threads[liveIdx].body);
            list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
            list.insert(list.begin() + static_cast<std::ptrdiff_t>(i),
                        std::make_move_iterator(body.begin()),
                        std::make_move_iterator(body.end()));
            ++stats.cobeginsSerialized;
            continue;  // re-examine the spliced statements
          }
          break;
        }
      }
      ++i;
    }
  }

  driver::Compilation& comp_;
  pfg::Graph& graph_;
  DynBitset walked_;  ///< SSA names Algorithm A.4 has walked so far
  std::unordered_set<const ir::Stmt*> live_;
  std::deque<const ir::Stmt*> work_;
};

}  // namespace

DceStats eliminateDeadCode(driver::Compilation& comp) {
  return Pdce(comp).run();
}

}  // namespace cssame::opt
