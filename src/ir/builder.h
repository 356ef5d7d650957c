// Fluent programmatic construction of IR programs.
//
// Tests and examples build programs either from source text (src/parser)
// or with this builder. Nesting is expressed with lambdas so the builder
// can maintain the current insertion point:
//
//   ProgramBuilder b;
//   auto a = b.var("a"), L = b.lock("L");
//   b.assign(a, b.lit(0));
//   b.cobegin({
//       [&] { b.lockStmt(L); b.assign(a, b.add(b.ref(a), b.lit(1)));
//             b.unlockStmt(L); },
//       [&] { b.print(b.ref(a)); },
//   });
//   ir::Program p = b.take();
#pragma once

#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/program.h"

namespace cssame::ir {

class ProgramBuilder {
 public:
  ProgramBuilder() { stack_.push_back(&prog_.body); }

  // --- Symbols ------------------------------------------------------------

  /// Declares a shared integer variable.
  SymbolId var(std::string name) {
    return prog_.symbols.create(std::move(name), SymbolKind::Var, true);
  }
  /// Declares a thread-private integer variable.
  SymbolId privateVar(std::string name) {
    return prog_.symbols.create(std::move(name), SymbolKind::Var, false);
  }
  /// Declares a shared fixed-size integer array (`int name[size]`).
  SymbolId arrayVar(std::string name, std::uint32_t size) {
    return prog_.symbols.createArray(std::move(name), size, true);
  }
  SymbolId lock(std::string name) {
    return prog_.symbols.create(std::move(name), SymbolKind::Lock);
  }
  SymbolId event(std::string name) {
    return prog_.symbols.create(std::move(name), SymbolKind::Event);
  }
  SymbolId func(std::string name) {
    return prog_.symbols.create(std::move(name), SymbolKind::Function);
  }

  // --- Expressions ----------------------------------------------------------

  [[nodiscard]] ExprPtr lit(long long v) { return makeInt(v); }
  [[nodiscard]] ExprPtr ref(SymbolId v) { return makeVar(v); }
  [[nodiscard]] ExprPtr add(ExprPtr a, ExprPtr b) {
    return makeBinary(BinOp::Add, std::move(a), std::move(b));
  }
  [[nodiscard]] ExprPtr sub(ExprPtr a, ExprPtr b) {
    return makeBinary(BinOp::Sub, std::move(a), std::move(b));
  }
  [[nodiscard]] ExprPtr mul(ExprPtr a, ExprPtr b) {
    return makeBinary(BinOp::Mul, std::move(a), std::move(b));
  }
  [[nodiscard]] ExprPtr bin(BinOp op, ExprPtr a, ExprPtr b) {
    return makeBinary(op, std::move(a), std::move(b));
  }
  [[nodiscard]] ExprPtr gt(ExprPtr a, ExprPtr b) {
    return makeBinary(BinOp::Gt, std::move(a), std::move(b));
  }
  [[nodiscard]] ExprPtr lt(ExprPtr a, ExprPtr b) {
    return makeBinary(BinOp::Lt, std::move(a), std::move(b));
  }
  /// `&v`, or `&a[i]` when an index is given.
  [[nodiscard]] ExprPtr addrOf(SymbolId v, ExprPtr index = nullptr) {
    return makeAddrOf(v, std::move(index));
  }
  /// `*address`.
  [[nodiscard]] ExprPtr deref(ExprPtr address) {
    return makeDeref(std::move(address));
  }
  /// `a[i]` as a load.
  [[nodiscard]] ExprPtr index(SymbolId array, ExprPtr idx) {
    return makeIndex(array, std::move(idx));
  }
  [[nodiscard]] ExprPtr call(SymbolId fn, std::vector<ExprPtr> args) {
    return makeCall(fn, std::move(args));
  }
  /// Variadic convenience: b.call(f, b.ref(x), b.lit(2)). (ExprPtr is
  /// move-only, so initializer lists cannot be used for arguments.)
  template <typename... Args>
  [[nodiscard]] ExprPtr call(SymbolId fn, ExprPtr first, Args... rest) {
    std::vector<ExprPtr> args;
    args.push_back(std::move(first));
    (args.push_back(std::move(rest)), ...);
    return makeCall(fn, std::move(args));
  }

  // --- Statements -----------------------------------------------------------

  Stmt* assign(SymbolId lhs, ExprPtr rhs) {
    auto s = prog_.newStmt(StmtKind::Assign);
    s->lhs = lhs;
    s->expr = std::move(rhs);
    return append(std::move(s));
  }

  /// `*address = rhs` — store through a pointer.
  Stmt* assignDeref(ExprPtr address, ExprPtr rhs) {
    auto s = prog_.newStmt(StmtKind::Assign);
    s->lhsKind = LValueKind::Deref;
    s->lhsAddr = std::move(address);
    s->expr = std::move(rhs);
    return append(std::move(s));
  }

  /// `array[idx] = rhs` — store into an array cell.
  Stmt* assignIndex(SymbolId array, ExprPtr idx, ExprPtr rhs) {
    auto s = prog_.newStmt(StmtKind::Assign);
    s->lhs = array;
    s->lhsKind = LValueKind::Index;
    s->lhsAddr = std::move(idx);
    s->expr = std::move(rhs);
    return append(std::move(s));
  }

  Stmt* callStmt(SymbolId fn, std::vector<ExprPtr> args) {
    auto s = prog_.newStmt(StmtKind::CallStmt);
    s->expr = makeCall(fn, std::move(args));
    return append(std::move(s));
  }

  Stmt* print(ExprPtr value) {
    auto s = prog_.newStmt(StmtKind::Print);
    s->expr = std::move(value);
    return append(std::move(s));
  }

  Stmt* assertion(ExprPtr cond) {
    auto s = prog_.newStmt(StmtKind::Assert);
    s->expr = std::move(cond);
    return append(std::move(s));
  }

  /// `atomic_store(lhs, rhs)` — an Assign that stays sequentially
  /// consistent under TSO (commits past the store buffer).
  Stmt* atomicStore(SymbolId lhs, ExprPtr rhs) {
    Stmt* s = assign(lhs, std::move(rhs));
    s->atomic = true;
    return s;
  }

  /// `lhs = atomic_load(src)` — an atomic Assign reading one variable.
  Stmt* atomicLoad(SymbolId lhs, SymbolId src) {
    Stmt* s = assign(lhs, makeVar(src));
    s->atomic = true;
    return s;
  }

  Stmt* fence() { return append(prog_.newStmt(StmtKind::Fence)); }

  Stmt* lockStmt(SymbolId l) { return syncStmt(StmtKind::Lock, l); }
  Stmt* unlockStmt(SymbolId l) { return syncStmt(StmtKind::Unlock, l); }
  Stmt* setStmt(SymbolId e) { return syncStmt(StmtKind::Set, e); }
  Stmt* waitStmt(SymbolId e) { return syncStmt(StmtKind::Wait, e); }

  using BodyFn = std::function<void()>;

  Stmt* if_(ExprPtr cond, const BodyFn& then, const BodyFn& els = nullptr) {
    auto s = prog_.newStmt(StmtKind::If);
    s->expr = std::move(cond);
    Stmt* raw = append(std::move(s));
    fillBody(&raw->thenBody, then);
    if (els) fillBody(&raw->elseBody, els);
    return raw;
  }

  Stmt* while_(ExprPtr cond, const BodyFn& body) {
    auto s = prog_.newStmt(StmtKind::While);
    s->expr = std::move(cond);
    Stmt* raw = append(std::move(s));
    fillBody(&raw->thenBody, body);
    return raw;
  }

  Stmt* cobegin(std::initializer_list<BodyFn> threads) {
    return cobegin(std::vector<BodyFn>(threads));
  }
  Stmt* cobegin(const std::vector<BodyFn>& threads) {
    auto s = prog_.newStmt(StmtKind::Cobegin);
    Stmt* raw = append(std::move(s));
    raw->threads.resize(threads.size());
    for (std::size_t i = 0; i < threads.size(); ++i) {
      raw->threads[i].name = "T" + std::to_string(i);
      fillBody(&raw->threads[i].body, threads[i]);
    }
    return raw;
  }

  /// Finishes construction; the builder must not be reused afterwards.
  [[nodiscard]] Program take() { return std::move(prog_); }

  [[nodiscard]] Program& program() { return prog_; }

 private:
  Stmt* syncStmt(StmtKind kind, SymbolId sym) {
    auto s = prog_.newStmt(kind);
    s->sync = sym;
    return append(std::move(s));
  }

  Stmt* append(StmtPtr s) {
    stack_.back()->push_back(std::move(s));
    return stack_.back()->back().get();
  }

  void fillBody(StmtList* list, const BodyFn& fn) {
    stack_.push_back(list);
    if (fn) fn();
    stack_.pop_back();
  }

  Program prog_;
  std::vector<StmtList*> stack_;
};

}  // namespace cssame::ir
