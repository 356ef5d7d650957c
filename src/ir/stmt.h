// Statements of the explicitly parallel language.
//
// A single tagged struct (rather than a class hierarchy) keeps traversal
// and transformation code uniform: passes switch on `kind` and only touch
// the fields that kind uses. Statements are uniquely owned by their parent
// statement list and carry a dense StmtId for side tables.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/ir/expr.h"
#include "src/support/ids.h"
#include "src/support/source_loc.h"

namespace cssame::ir {

enum class StmtKind : std::uint8_t {
  Assign,    ///< lhs = rhs
  CallStmt,  ///< f(args)  — expression statement, may have side effects
  If,        ///< if (cond) thenBody [else elseBody]
  While,     ///< while (cond) thenBody
  Cobegin,   ///< cobegin { thread {..} thread {..} }  (paper Figure 1)
  Lock,      ///< Lock(L)
  Unlock,    ///< Unlock(L)
  Set,       ///< Set(e)   — event post
  Wait,      ///< Wait(e)  — event wait
  Print,     ///< print(expr) — the observable output of a program
  Barrier,   ///< barrier — all threads of the enclosing cobegin rendezvous
             ///< (extension; the paper lists barriers as future work)
  Assert,    ///< assert(expr) — traps the execution when expr == 0; the
             ///< value-range analysis proves or refutes it statically
  Fence,     ///< fence — full memory barrier; under TSO it drains the
             ///< issuing thread's store buffer (mfence). No effect under SC.
};

[[nodiscard]] const char* stmtKindName(StmtKind k);

/// The shape of an Assign statement's store target.
enum class LValueKind : std::uint8_t {
  Var,    ///< x = e       — `lhs` is the variable
  Deref,  ///< *p = e      — `lhsAddr` evaluates to the cell address
  Index,  ///< a[i] = e    — `lhs` is the array, `lhsAddr` the cell index
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

/// One arm of a cobegin construct.
struct ThreadBody {
  std::string name;  ///< optional label ("T0"); may be empty
  StmtList body;
};

struct Stmt {
  StmtId id;
  StmtKind kind = StmtKind::Assign;
  SourceLoc loc;

  // Assign: target variable (LValueKind::Var) or target array
  // (LValueKind::Index); invalid for a Deref store.
  SymbolId lhs;
  // Assign: the store-target shape. Var for every scalar assignment (the
  // only shape that existed before pointers), so zero-initialized
  // statements keep their old meaning.
  LValueKind lhsKind = LValueKind::Var;
  // Assign: Deref store — the address expression of `*addr = e`;
  // Index store — the cell index expression of `a[i] = e`. Null for Var.
  ExprPtr lhsAddr;
  // Assign: value; CallStmt: the Call expression; If/While: condition;
  // Print: printed value.
  ExprPtr expr;
  // If: then branch; While: loop body.
  StmtList thenBody;
  // If: else branch (possibly empty).
  StmtList elseBody;
  // Cobegin: the concurrent threads.
  std::vector<ThreadBody> threads;
  // Lock/Unlock: the lock variable; Set/Wait: the event variable.
  SymbolId sync;
  // Assign only: sequentially consistent atomic access. An atomic store
  // (`atomic_store(x, e)`) commits straight to memory under TSO instead of
  // entering the store buffer; an atomic load (`x = atomic_load(y)`) waits
  // for the issuing thread's buffer to drain. SC semantics are unchanged.
  bool atomic = false;
};

/// Pre-order traversal of a statement list, recursing into nested bodies.
template <typename Fn>
void forEachStmt(const StmtList& list, Fn&& fn) {
  for (const auto& s : list) {
    fn(*s);
    forEachStmt(s->thenBody, fn);
    forEachStmt(s->elseBody, fn);
    for (const auto& t : s->threads) forEachStmt(t.body, fn);
  }
}

template <typename Fn>
void forEachStmt(StmtList& list, Fn&& fn) {
  for (auto& s : list) {
    fn(*s);
    forEachStmt(s->thenBody, fn);
    forEachStmt(s->elseBody, fn);
    for (auto& t : s->threads) forEachStmt(t.body, fn);
  }
}

/// Number of statements in the list including all nested bodies.
[[nodiscard]] std::size_t countStmts(const StmtList& list);

/// Invokes `fn` on every expression tree a statement owns: the lvalue
/// address (`lhsAddr` of a Deref/Index store) first, then `expr`. Walks
/// this statement only — nested bodies are not entered. Every pass that
/// collects variable uses must go through this (or visit both fields),
/// since `a[i] = e` reads `i` as surely as it reads the operands of `e`.
template <typename Fn>
void forEachStmtExpr(const Stmt& s, Fn&& fn) {
  if (s.lhsAddr) fn(*s.lhsAddr);
  if (s.expr) fn(*s.expr);
}

template <typename Fn>
void forEachStmtExpr(Stmt& s, Fn&& fn) {
  if (s.lhsAddr) fn(*s.lhsAddr);
  if (s.expr) fn(*s.expr);
}

}  // namespace cssame::ir
