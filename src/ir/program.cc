#include "src/ir/program.h"

namespace cssame::ir {

const char* stmtKindName(StmtKind k) {
  switch (k) {
    case StmtKind::Assign: return "assign";
    case StmtKind::CallStmt: return "call";
    case StmtKind::If: return "if";
    case StmtKind::While: return "while";
    case StmtKind::Cobegin: return "cobegin";
    case StmtKind::Lock: return "lock";
    case StmtKind::Unlock: return "unlock";
    case StmtKind::Set: return "set";
    case StmtKind::Wait: return "wait";
    case StmtKind::Print: return "print";
    case StmtKind::Barrier: return "barrier";
    case StmtKind::Assert: return "assert";
    case StmtKind::Fence: return "fence";
  }
  return "?";
}

std::size_t countStmts(const StmtList& list) {
  std::size_t n = 0;
  forEachStmt(list, [&](const Stmt&) { ++n; });
  return n;
}

namespace {

StmtPtr cloneStmt(const Stmt& s);

StmtList cloneList(const StmtList& list) {
  StmtList out;
  out.reserve(list.size());
  for (const auto& s : list) out.push_back(cloneStmt(*s));
  return out;
}

StmtPtr cloneStmt(const Stmt& s) {
  auto out = std::make_unique<Stmt>();
  out->id = s.id;
  out->kind = s.kind;
  out->loc = s.loc;
  out->lhs = s.lhs;
  out->lhsKind = s.lhsKind;
  if (s.lhsAddr) out->lhsAddr = cloneExpr(*s.lhsAddr);
  if (s.expr) out->expr = cloneExpr(*s.expr);
  out->thenBody = cloneList(s.thenBody);
  out->elseBody = cloneList(s.elseBody);
  out->threads.reserve(s.threads.size());
  for (const auto& t : s.threads)
    out->threads.push_back(ThreadBody{t.name, cloneList(t.body)});
  out->sync = s.sync;
  out->atomic = s.atomic;
  return out;
}

}  // namespace

Program Program::clone() const {
  Program out;
  out.symbols = symbols;
  out.body = cloneList(body);
  out.nextStmtId_ = nextStmtId_;
  return out;
}

}  // namespace cssame::ir
