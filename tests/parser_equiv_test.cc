// Equivalence sweep for the view-based lexer and parser.
//
// src/parser/lexer.cc hands out tokens that view the source instead of
// owning their spelling, classifies keywords by a switch and tracks
// columns from the line start; src/parser/parser.cc takes tokens by
// reference and resolves names through string_view-keyed scopes. Both
// promise exactly the behavior of the front end as first written. This
// test holds them to that: a verbatim transcription of the original
// lexer and parser serves as the reference, and every example program,
// the paper figures, lock-region sources for k = 1..32, hand-written
// doall shapes, 400 generated programs (pointers, arrays, events, fences,
// atomics) and about a hundred malformed sources are checked for exact
// equality of
//
//   * the token stream: kind, text, integer value and location, and the
//     lexer's error list,
//   * the diagnostics (severity, code and str(), in order),
//   * the parsed program as printed by ir::printProgram,
//   * the symbol table: name, kind, sharing, array size and location of
//     every symbol, in order.
//
// A coverage floor keeps the sweep honest: every diagnostic the lexer and
// parser can emit must fire at least once over the corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/printer.h"
#include "src/parser/lexer.h"
#include "src/parser/parser.h"
#include "src/workload/generator.h"
#include "src/workload/paper_programs.h"

namespace cssame::parser {
namespace {

// ---------------------------------------------------------------------------
// Reference implementation: a verbatim transcription of the lexer and
// parser as first written — owned-string tokens, keyword lookup through a
// hash map, tokens copied out of take(), std::string-keyed scopes. Only
// the names are changed (Ref*), so it can sit next to the production code.
// ---------------------------------------------------------------------------

struct RefToken {
  TokKind kind = TokKind::End;
  std::string text;       ///< identifier spelling
  long long intValue = 0; ///< for IntLit
  SourceLoc loc;
};

struct RefLexResult {
  std::vector<RefToken> tokens;
  std::vector<std::pair<SourceLoc, std::string>> errors;
};

const std::unordered_map<std::string_view, TokKind>& keywords() {
  static const std::unordered_map<std::string_view, TokKind> kw = {
      {"int", TokKind::KwInt},         {"lock", TokKind::KwLock},
      {"event", TokKind::KwEvent},     {"if", TokKind::KwIf},
      {"else", TokKind::KwElse},       {"while", TokKind::KwWhile},
      {"cobegin", TokKind::KwCobegin}, {"thread", TokKind::KwThread},
      {"unlock", TokKind::KwUnlock},   {"set", TokKind::KwSet},
      {"wait", TokKind::KwWait},       {"print", TokKind::KwPrint},
      {"barrier", TokKind::KwBarrier}, {"doall", TokKind::KwDoall},
      {"assert", TokKind::KwAssert},   {"fence", TokKind::KwFence},
      {"atomic_load", TokKind::KwAtomicLoad},
      {"atomic_store", TokKind::KwAtomicStore},
  };
  return kw;
}

RefLexResult refLex(std::string_view src) {
  RefLexResult result;
  std::uint32_t line = 1, col = 1;
  std::size_t i = 0;

  auto loc = [&]() { return SourceLoc{line, col}; };
  auto advance = [&](std::size_t n = 1) {
    for (std::size_t k = 0; k < n && i < src.size(); ++k) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
  };
  auto peek = [&](std::size_t off = 0) -> char {
    return i + off < src.size() ? src[i + off] : '\0';
  };
  auto push = [&](TokKind kind, SourceLoc l, std::string text = {},
                  long long v = 0) {
    result.tokens.push_back(RefToken{kind, std::move(text), v, l});
  };

  while (i < src.size()) {
    const char c = peek();
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();
      continue;
    }
    // Comments: // line and /* block */.
    if (c == '/' && peek(1) == '/') {
      while (i < src.size() && peek() != '\n') advance();
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      const SourceLoc start = loc();
      advance(2);
      while (i < src.size() && !(peek() == '*' && peek(1) == '/')) advance();
      if (i >= src.size())
        result.errors.emplace_back(start, "unterminated block comment");
      else
        advance(2);
      continue;
    }
    const SourceLoc l = loc();
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
        advance();
      std::string_view word = src.substr(start, i - start);
      auto it = keywords().find(word);
      if (it != keywords().end())
        push(it->second, l);
      else
        push(TokKind::Ident, l, std::string(word));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      long long v = 0;
      bool overflow = false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        const long long digit = peek() - '0';
        if (v > (std::numeric_limits<long long>::max() - digit) / 10)
          overflow = true;
        else
          v = v * 10 + digit;
        advance();
      }
      if (overflow) result.errors.emplace_back(l, "integer literal overflow");
      push(TokKind::IntLit, l, {}, v);
      continue;
    }
    switch (c) {
      case '(': push(TokKind::LParen, l); advance(); break;
      case ')': push(TokKind::RParen, l); advance(); break;
      case '{': push(TokKind::LBrace, l); advance(); break;
      case '}': push(TokKind::RBrace, l); advance(); break;
      case '[': push(TokKind::LBracket, l); advance(); break;
      case ']': push(TokKind::RBracket, l); advance(); break;
      case ';': push(TokKind::Semi, l); advance(); break;
      case ',': push(TokKind::Comma, l); advance(); break;
      case '+': push(TokKind::Plus, l); advance(); break;
      case '-': push(TokKind::Minus, l); advance(); break;
      case '*': push(TokKind::Star, l); advance(); break;
      case '/': push(TokKind::Slash, l); advance(); break;
      case '%': push(TokKind::Percent, l); advance(); break;
      case '<':
        if (peek(1) == '=') { push(TokKind::Le, l); advance(2); }
        else { push(TokKind::Lt, l); advance(); }
        break;
      case '>':
        if (peek(1) == '=') { push(TokKind::Ge, l); advance(2); }
        else { push(TokKind::Gt, l); advance(); }
        break;
      case '=':
        if (peek(1) == '=') { push(TokKind::EqEq, l); advance(2); }
        else { push(TokKind::Assign, l); advance(); }
        break;
      case '!':
        if (peek(1) == '=') { push(TokKind::Ne, l); advance(2); }
        else { push(TokKind::Bang, l); advance(); }
        break;
      case '&':
        if (peek(1) == '&') { push(TokKind::AndAnd, l); advance(2); }
        else { push(TokKind::Amp, l); advance(); }
        break;
      case '|':
        if (peek(1) == '|') { push(TokKind::OrOr, l); advance(2); }
        else {
          result.errors.emplace_back(l, "unexpected character '|'");
          advance();
        }
        break;
      default:
        result.errors.emplace_back(
            l, std::string("unexpected character '") + c + "'");
        advance();
        break;
    }
  }
  result.tokens.push_back(RefToken{TokKind::End, {}, 0, loc()});
  return result;
}

using ir::BinOp;
using ir::Expr;
using ir::ExprPtr;
using ir::Program;
using ir::Stmt;
using ir::StmtKind;
using ir::StmtList;
using ir::SymbolKind;
using ir::UnOp;

class RefParser {
 public:
  RefParser(std::vector<RefToken> tokens, DiagEngine& diag)
      : tokens_(std::move(tokens)), diag_(diag) {}

  Program run() {
    pushScope();
    parseItems(&prog_.body, /*stopAtBrace=*/false);
    popScope();
    return std::move(prog_);
  }

 private:
  // --- RefToken helpers -----------------------------------------------------

  [[nodiscard]] const RefToken& cur() const { return tokens_[pos_]; }
  [[nodiscard]] const RefToken& peek(std::size_t off = 1) const {
    const std::size_t idx = pos_ + off;
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }
  [[nodiscard]] bool at(TokKind k) const { return cur().kind == k; }

  RefToken take() {
    RefToken t = cur();
    if (!at(TokKind::End)) ++pos_;
    return t;
  }

  bool accept(TokKind k) {
    if (!at(k)) return false;
    take();
    return true;
  }

  bool expect(TokKind k) {
    if (accept(k)) return true;
    error(std::string("expected ") + tokKindName(k) + " before " +
          tokKindName(cur().kind));
    return false;
  }

  void error(const std::string& msg) {
    diag_.error(DiagCode::SyntaxError, cur().loc, msg);
  }

  /// Error recovery: skip to the next ';' or '}' boundary.
  void synchronize() {
    while (!at(TokKind::End) && !at(TokKind::Semi) && !at(TokKind::RBrace))
      take();
    accept(TokKind::Semi);
  }

  // --- Scopes ---------------------------------------------------------------

  void pushScope() { scopes_.emplace_back(); }
  void popScope() { scopes_.pop_back(); }

  SymbolId declare(const std::string& name, SymbolKind kind, SourceLoc loc,
                   std::uint32_t arraySize = 0) {
    auto& scope = scopes_.back();
    if (scope.contains(name)) {
      diag_.error(DiagCode::Redeclaration, loc,
                  "redeclaration of '" + name + "' in the same scope");
      return scope[name];
    }
    const bool shared = threadDepth_ == 0;
    const SymbolId id =
        arraySize > 0
            ? prog_.symbols.createArray(name, arraySize, shared, loc)
            : prog_.symbols.create(name, kind, shared, loc);
    scope[name] = id;
    return id;
  }

  [[nodiscard]] SymbolId lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) return found->second;
    }
    return SymbolId{};
  }

  /// Resolves a variable-position identifier; reports and fabricates a
  /// symbol on failure so parsing can continue.
  SymbolId resolveVar(const RefToken& tok, SymbolKind expected) {
    SymbolId id = lookup(tok.text);
    if (!id.valid()) {
      diag_.error(DiagCode::UndeclaredIdentifier, tok.loc,
                  "use of undeclared identifier '" + tok.text + "'");
      return prog_.symbols.create(tok.text, expected,
                                  /*shared=*/threadDepth_ == 0, tok.loc);
    }
    if (prog_.symbols[id].kind != expected) {
      diag_.error(DiagCode::WrongSymbolKind, tok.loc,
                  "'" + tok.text + "' is a " +
                      symbolKindName(prog_.symbols[id].kind) + ", expected " +
                      symbolKindName(expected));
    }
    return id;
  }

  SymbolId resolveFunction(const RefToken& tok) {
    // An identifier already visible as a variable/lock/event cannot be
    // called; otherwise it implicitly declares an external function.
    SymbolId id = lookup(tok.text);
    if (id.valid()) {
      if (prog_.symbols[id].kind != SymbolKind::Function)
        diag_.error(DiagCode::WrongSymbolKind, tok.loc,
                    "'" + tok.text + "' is not a function");
      return id;
    }
    auto it = functions_.find(tok.text);
    if (it != functions_.end()) return it->second;
    const SymbolId fn =
        prog_.symbols.create(tok.text, SymbolKind::Function, true, tok.loc);
    functions_[tok.text] = fn;
    return fn;
  }

  // --- Items ------------------------------------------------------------------

  void parseItems(StmtList* list, bool stopAtBrace) {
    while (!at(TokKind::End) && !(stopAtBrace && at(TokKind::RBrace))) {
      parseItem(list);
    }
  }

  void parseItem(StmtList* list) {
    switch (cur().kind) {
      case TokKind::KwInt:
        parseVarDecl(list);
        return;
      case TokKind::KwLock:
        // 'lock x;' declares; 'lock(x);' is a statement.
        if (peek().kind == TokKind::LParen)
          parseSyncStmt(list, StmtKind::Lock, SymbolKind::Lock);
        else
          parseSyncDecl(SymbolKind::Lock);
        return;
      case TokKind::KwEvent:
        parseSyncDecl(SymbolKind::Event);
        return;
      default:
        parseStmt(list);
        return;
    }
  }

  void parseVarDecl(StmtList* list) {
    take();  // 'int'
    do {
      if (!at(TokKind::Ident)) {
        error("expected variable name in declaration");
        synchronize();
        return;
      }
      const RefToken nameTok = take();
      // `int a[N];` — fixed-size array. The size must be a positive
      // integer literal (the analyses collapse all cells into one
      // abstract location, but the interpreter models each cell).
      if (at(TokKind::LBracket)) {
        take();
        constexpr long long kMaxArraySize = 1024;
        long long size = 0;
        if (at(TokKind::IntLit)) {
          size = take().intValue;
        } else {
          error("array size must be an integer literal");
        }
        expect(TokKind::RBracket);
        if (size < 1 || size > kMaxArraySize) {
          error("array size must be between 1 and " +
                std::to_string(kMaxArraySize));
          size = 1;
        }
        declare(nameTok.text, SymbolKind::Var, nameTok.loc,
                static_cast<std::uint32_t>(size));
        if (at(TokKind::Assign))
          error("array declarations cannot have initializers");
        continue;
      }
      const SymbolId var = declare(nameTok.text, SymbolKind::Var, nameTok.loc);
      if (accept(TokKind::Assign)) {
        ExprPtr init = parseExpr();
        auto s = prog_.newStmt(StmtKind::Assign, nameTok.loc);
        s->lhs = var;
        s->expr = std::move(init);
        list->push_back(std::move(s));
      }
    } while (accept(TokKind::Comma));
    expect(TokKind::Semi);
  }

  void parseSyncDecl(SymbolKind kind) {
    take();  // 'lock' | 'event'
    do {
      if (!at(TokKind::Ident)) {
        error("expected name in declaration");
        synchronize();
        return;
      }
      const RefToken nameTok = take();
      declare(nameTok.text, kind, nameTok.loc);
    } while (accept(TokKind::Comma));
    expect(TokKind::Semi);
  }

  void parseSyncStmt(StmtList* list, StmtKind kind, SymbolKind symKind) {
    const SourceLoc loc = cur().loc;
    take();  // keyword
    expect(TokKind::LParen);
    if (!at(TokKind::Ident)) {
      error("expected synchronization variable");
      synchronize();
      return;
    }
    const RefToken nameTok = take();
    const SymbolId sym = resolveVar(nameTok, symKind);
    expect(TokKind::RParen);
    expect(TokKind::Semi);
    auto s = prog_.newStmt(kind, loc);
    s->sync = sym;
    list->push_back(std::move(s));
  }

  void parseStmt(StmtList* list) {
    const SourceLoc loc = cur().loc;
    switch (cur().kind) {
      case TokKind::Ident: {
        const RefToken nameTok = take();
        // `a[i] = e;` — array-cell store.
        if (at(TokKind::LBracket)) {
          take();
          ExprPtr idx = parseExpr();
          expect(TokKind::RBracket);
          const SymbolId arr = resolveVar(nameTok, SymbolKind::Var);
          if (prog_.symbols[arr].kind == SymbolKind::Var &&
              !prog_.symbols[arr].isArray())
            diag_.error(DiagCode::WrongSymbolKind, nameTok.loc,
                        "'" + nameTok.text + "' is not an array");
          expect(TokKind::Assign);
          ExprPtr value = parseExpr();
          expect(TokKind::Semi);
          auto s = prog_.newStmt(StmtKind::Assign, loc);
          s->lhs = arr;
          s->lhsKind = ir::LValueKind::Index;
          s->lhsAddr = std::move(idx);
          s->expr = std::move(value);
          list->push_back(std::move(s));
          return;
        }
        if (at(TokKind::Assign)) {
          take();
          const SymbolId var = resolveVar(nameTok, SymbolKind::Var);
          // `x = atomic_load(y);` — an atomic Assign whose value is the
          // bare variable read. Only the statement form is atomic; the
          // keyword is not a general expression.
          if (at(TokKind::KwAtomicLoad)) {
            take();
            expect(TokKind::LParen);
            if (!at(TokKind::Ident)) {
              error("expected variable in atomic_load");
              synchronize();
              return;
            }
            const RefToken srcTok = take();
            const SymbolId src = resolveVar(srcTok, SymbolKind::Var);
            expect(TokKind::RParen);
            expect(TokKind::Semi);
            auto s = prog_.newStmt(StmtKind::Assign, loc);
            s->lhs = var;
            s->expr = ir::makeVar(src, srcTok.loc);
            s->atomic = true;
            list->push_back(std::move(s));
            return;
          }
          ExprPtr value = parseExpr();
          expect(TokKind::Semi);
          auto s = prog_.newStmt(StmtKind::Assign, loc);
          s->lhs = var;
          s->expr = std::move(value);
          list->push_back(std::move(s));
        } else if (at(TokKind::LParen)) {
          const SymbolId fn = resolveFunction(nameTok);
          ExprPtr callExpr = parseCallArgs(fn, nameTok.loc);
          expect(TokKind::Semi);
          auto s = prog_.newStmt(StmtKind::CallStmt, loc);
          s->expr = std::move(callExpr);
          list->push_back(std::move(s));
        } else {
          error("expected '=' or '(' after identifier");
          synchronize();
        }
        return;
      }
      case TokKind::KwIf: {
        take();
        expect(TokKind::LParen);
        ExprPtr cond = parseExpr();
        expect(TokKind::RParen);
        auto s = prog_.newStmt(StmtKind::If, loc);
        s->expr = std::move(cond);
        Stmt* raw = list->emplace_back(std::move(s)).get();
        parseBlock(&raw->thenBody);
        if (accept(TokKind::KwElse)) parseBlock(&raw->elseBody);
        return;
      }
      case TokKind::KwWhile: {
        take();
        expect(TokKind::LParen);
        ExprPtr cond = parseExpr();
        expect(TokKind::RParen);
        auto s = prog_.newStmt(StmtKind::While, loc);
        s->expr = std::move(cond);
        Stmt* raw = list->emplace_back(std::move(s)).get();
        parseBlock(&raw->thenBody);
        return;
      }
      case TokKind::KwCobegin: {
        take();
        expect(TokKind::LBrace);
        auto s = prog_.newStmt(StmtKind::Cobegin, loc);
        Stmt* raw = list->emplace_back(std::move(s)).get();
        while (at(TokKind::KwThread)) {
          take();
          std::string name;
          if (at(TokKind::Ident)) name = take().text;
          raw->threads.push_back(ir::ThreadBody{std::move(name), {}});
          ++threadDepth_;
          parseBlock(&raw->threads.back().body);
          --threadDepth_;
        }
        if (raw->threads.empty())
          error("cobegin requires at least one 'thread' block");
        expect(TokKind::RBrace);
        return;
      }
      case TokKind::KwUnlock:
        parseSyncStmt(list, StmtKind::Unlock, SymbolKind::Lock);
        return;
      case TokKind::KwSet:
        parseSyncStmt(list, StmtKind::Set, SymbolKind::Event);
        return;
      case TokKind::KwWait:
        parseSyncStmt(list, StmtKind::Wait, SymbolKind::Event);
        return;
      case TokKind::KwPrint:
      case TokKind::KwAssert: {
        const StmtKind kind = cur().kind == TokKind::KwPrint
                                  ? StmtKind::Print
                                  : StmtKind::Assert;
        take();
        expect(TokKind::LParen);
        ExprPtr value = parseExpr();
        expect(TokKind::RParen);
        expect(TokKind::Semi);
        auto s = prog_.newStmt(kind, loc);
        s->expr = std::move(value);
        list->push_back(std::move(s));
        return;
      }
      case TokKind::LBrace:
        // Bare block: new scope, statements appended in place.
        parseBlock(list);
        return;
      case TokKind::KwBarrier: {
        take();
        expect(TokKind::Semi);
        list->push_back(prog_.newStmt(StmtKind::Barrier, loc));
        return;
      }
      case TokKind::KwFence: {
        take();
        expect(TokKind::Semi);
        list->push_back(prog_.newStmt(StmtKind::Fence, loc));
        return;
      }
      case TokKind::KwAtomicStore: {
        take();
        expect(TokKind::LParen);
        if (!at(TokKind::Ident)) {
          error("expected variable in atomic_store");
          synchronize();
          return;
        }
        const RefToken nameTok = take();
        const SymbolId var = resolveVar(nameTok, SymbolKind::Var);
        expect(TokKind::Comma);
        ExprPtr value = parseExpr();
        expect(TokKind::RParen);
        expect(TokKind::Semi);
        auto s = prog_.newStmt(StmtKind::Assign, loc);
        s->lhs = var;
        s->expr = std::move(value);
        s->atomic = true;
        list->push_back(std::move(s));
        return;
      }
      case TokKind::KwDoall:
        parseDoall(list);
        return;
      case TokKind::Star: {
        // `*addr = e;` — store through a pointer. The address expression
        // binds like the unary deref operator, so `**q = e` nests.
        take();
        ExprPtr addr = parseUnary();
        expect(TokKind::Assign);
        ExprPtr value = parseExpr();
        expect(TokKind::Semi);
        auto s = prog_.newStmt(StmtKind::Assign, loc);
        s->lhsKind = ir::LValueKind::Deref;
        s->lhsAddr = std::move(addr);
        s->expr = std::move(value);
        list->push_back(std::move(s));
        return;
      }
      default:
        error(std::string("unexpected ") + tokKindName(cur().kind));
        take();
        synchronize();
        return;
    }
  }

  /// doall parallel loops (paper Section 6: supported via language
  /// macros). `doall i = lo, hi { body }` expands, macro-style, into a
  /// cobegin with one thread per iteration; each thread declares a
  /// private copy of the index variable bound to its iteration value.
  /// Bounds must be integer literals so the trip count is known at
  /// parse time.
  void parseDoall(StmtList* list) {
    const SourceLoc loc = cur().loc;
    take();  // 'doall'
    if (!at(TokKind::Ident)) {
      error("expected index variable after 'doall'");
      synchronize();
      return;
    }
    const RefToken nameTok = take();
    expect(TokKind::Assign);
    long long lo = 0, hi = 0;
    if (!parseIntBound(&lo)) return;
    expect(TokKind::Comma);
    if (!parseIntBound(&hi)) return;
    if (!at(TokKind::LBrace)) {
      error("expected '{' after doall bounds");
      synchronize();
      return;
    }

    const long long trip = hi - lo + 1;
    constexpr long long kMaxTrip = 64;
    if (trip < 1 || trip > kMaxTrip) {
      error("doall trip count must be between 1 and " +
            std::to_string(kMaxTrip));
      skipBlock();
      return;
    }

    auto s = prog_.newStmt(StmtKind::Cobegin, loc);
    Stmt* raw = list->emplace_back(std::move(s)).get();
    const std::size_t bodyStart = pos_;
    const std::size_t errsBefore = diag_.errorCount();
    for (long long iter = 0; iter < trip; ++iter) {
      // A syntax error inside the body would repeat once per iteration;
      // stop expanding after the first faulty copy.
      if (iter > 0 && diag_.errorCount() > errsBefore) break;
      pos_ = bodyStart;  // re-parse the body for each iteration
      raw->threads.push_back(
          ir::ThreadBody{nameTok.text + std::to_string(lo + iter), {}});
      ir::StmtList& body = raw->threads.back().body;
      ++threadDepth_;
      pushScope();
      // Fresh private index symbol per iteration, bound to its value.
      const SymbolId idx =
          declare(nameTok.text, SymbolKind::Var, nameTok.loc);
      auto init = prog_.newStmt(StmtKind::Assign, nameTok.loc);
      init->lhs = idx;
      init->expr = ir::makeInt(lo + iter, nameTok.loc);
      body.push_back(std::move(init));
      parseBlock(&body);
      popScope();
      --threadDepth_;
    }
  }

  bool parseIntBound(long long* out) {
    bool negative = accept(TokKind::Minus);
    if (!at(TokKind::IntLit)) {
      error("doall bounds must be integer literals");
      synchronize();
      return false;
    }
    const RefToken t = take();
    *out = negative ? -t.intValue : t.intValue;
    return true;
  }

  /// Skips a balanced { ... } block during error recovery.
  void skipBlock() {
    if (!at(TokKind::LBrace)) return;
    int depth = 0;
    do {
      if (at(TokKind::LBrace)) ++depth;
      if (at(TokKind::RBrace)) --depth;
      take();
    } while (depth > 0 && !at(TokKind::End));
  }

  void parseBlock(StmtList* list) {
    expect(TokKind::LBrace);
    pushScope();
    parseItems(list, /*stopAtBrace=*/true);
    popScope();
    expect(TokKind::RBrace);
  }

  // --- Expressions (precedence climbing) -------------------------------------

  ExprPtr parseExpr() { return parseBinary(0); }

  struct OpInfo {
    BinOp op;
    int prec;
  };

  [[nodiscard]] static bool binaryOpOf(TokKind k, OpInfo* out) {
    switch (k) {
      case TokKind::OrOr: *out = {BinOp::Or, 1}; return true;
      case TokKind::AndAnd: *out = {BinOp::And, 2}; return true;
      case TokKind::EqEq: *out = {BinOp::Eq, 3}; return true;
      case TokKind::Ne: *out = {BinOp::Ne, 3}; return true;
      case TokKind::Lt: *out = {BinOp::Lt, 4}; return true;
      case TokKind::Le: *out = {BinOp::Le, 4}; return true;
      case TokKind::Gt: *out = {BinOp::Gt, 4}; return true;
      case TokKind::Ge: *out = {BinOp::Ge, 4}; return true;
      case TokKind::Plus: *out = {BinOp::Add, 5}; return true;
      case TokKind::Minus: *out = {BinOp::Sub, 5}; return true;
      case TokKind::Star: *out = {BinOp::Mul, 6}; return true;
      case TokKind::Slash: *out = {BinOp::Div, 6}; return true;
      case TokKind::Percent: *out = {BinOp::Mod, 6}; return true;
      default: return false;
    }
  }

  ExprPtr parseBinary(int minPrec) {
    ExprPtr lhs = parseUnary();
    OpInfo info;
    while (binaryOpOf(cur().kind, &info) && info.prec >= minPrec) {
      const SourceLoc loc = cur().loc;
      take();
      ExprPtr rhs = parseBinary(info.prec + 1);  // left-associative
      lhs = ir::makeBinary(info.op, std::move(lhs), std::move(rhs), loc);
    }
    return lhs;
  }

  ExprPtr parseUnary() {
    const SourceLoc loc = cur().loc;
    if (accept(TokKind::Minus))
      return ir::makeUnary(UnOp::Neg, parseUnary(), loc);
    if (accept(TokKind::Bang))
      return ir::makeUnary(UnOp::Not, parseUnary(), loc);
    if (accept(TokKind::Star)) return ir::makeDeref(parseUnary(), loc);
    if (accept(TokKind::Amp)) {
      // `&x`, `&a`, or `&a[i]` — the operand of & must name a variable.
      if (!at(TokKind::Ident)) {
        error("expected variable after '&'");
        return ir::makeInt(0, loc);
      }
      const RefToken t = take();
      const SymbolId var = resolveVar(t, SymbolKind::Var);
      ExprPtr idx;
      if (accept(TokKind::LBracket)) {
        idx = parseExpr();
        expect(TokKind::RBracket);
        if (prog_.symbols[var].kind == SymbolKind::Var &&
            !prog_.symbols[var].isArray())
          diag_.error(DiagCode::WrongSymbolKind, t.loc,
                      "'" + t.text + "' is not an array");
      }
      return ir::makeAddrOf(var, std::move(idx), loc);
    }
    return parsePrimary();
  }

  ExprPtr parseCallArgs(SymbolId fn, SourceLoc loc) {
    expect(TokKind::LParen);
    std::vector<ExprPtr> args;
    if (!at(TokKind::RParen)) {
      do {
        args.push_back(parseExpr());
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen);
    return ir::makeCall(fn, std::move(args), loc);
  }

  ExprPtr parsePrimary() {
    const SourceLoc loc = cur().loc;
    switch (cur().kind) {
      case TokKind::IntLit: {
        const RefToken t = take();
        return ir::makeInt(t.intValue, loc);
      }
      case TokKind::Ident: {
        const RefToken t = take();
        if (at(TokKind::LParen)) {
          const SymbolId fn = resolveFunction(t);
          return parseCallArgs(fn, loc);
        }
        const SymbolId var = resolveVar(t, SymbolKind::Var);
        if (accept(TokKind::LBracket)) {
          ExprPtr idx = parseExpr();
          expect(TokKind::RBracket);
          if (prog_.symbols[var].kind == SymbolKind::Var &&
              !prog_.symbols[var].isArray())
            diag_.error(DiagCode::WrongSymbolKind, t.loc,
                        "'" + t.text + "' is not an array");
          return ir::makeIndex(var, std::move(idx), loc);
        }
        if (prog_.symbols[var].kind == SymbolKind::Var &&
            prog_.symbols[var].isArray())
          diag_.error(DiagCode::WrongSymbolKind, t.loc,
                      "array '" + t.text +
                          "' needs an index here (use " + t.text +
                          "[i] or &" + t.text + ")");
        return ir::makeVar(var, loc);
      }
      case TokKind::LParen: {
        take();
        ExprPtr inner = parseExpr();
        expect(TokKind::RParen);
        return inner;
      }
      default:
        error(std::string("expected expression, found ") +
              tokKindName(cur().kind));
        take();
        return ir::makeInt(0, loc);
    }
  }

  std::vector<RefToken> tokens_;
  std::size_t pos_ = 0;
  DiagEngine& diag_;
  Program prog_;
  std::vector<std::unordered_map<std::string, SymbolId>> scopes_;
  std::unordered_map<std::string, SymbolId> functions_;
  int threadDepth_ = 0;
};

ir::Program refParseProgram(std::string_view source, DiagEngine& diag) {
  RefLexResult lexed = refLex(source);
  for (const auto& [loc, msg] : lexed.errors)
    diag.error(DiagCode::SyntaxError, loc, msg);
  return RefParser(std::move(lexed.tokens), diag).run();
}

// ---------------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------------

/// One diagnostic shape the front end can emit, matched on the message.
struct DiagShape {
  const char* name;
  DiagCode code;
  std::function<bool(const std::string&)> matches;
};

bool contains(const std::string& s, const char* part) {
  return s.find(part) != std::string::npos;
}
bool startsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

const std::vector<DiagShape>& diagShapes() {
  using C = DiagCode;
  static const std::vector<DiagShape> shapes = {
      // Lexer.
      {"unterminated comment", C::SyntaxError,
       [](const std::string& m) { return m == "unterminated block comment"; }},
      {"literal overflow", C::SyntaxError,
       [](const std::string& m) { return m == "integer literal overflow"; }},
      {"lone '|'", C::SyntaxError,
       [](const std::string& m) { return m == "unexpected character '|'"; }},
      {"unknown character", C::SyntaxError,
       [](const std::string& m) {
         return startsWith(m, "unexpected character '") &&
                m != "unexpected character '|'";
       }},
      // Parser.
      {"expected X before Y", C::SyntaxError,
       [](const std::string& m) {
         return startsWith(m, "expected ") && contains(m, " before ");
       }},
      {"declaration name", C::SyntaxError,
       [](const std::string& m) {
         return m == "expected variable name in declaration";
       }},
      {"array size literal", C::SyntaxError,
       [](const std::string& m) {
         return m == "array size must be an integer literal";
       }},
      {"array size range", C::SyntaxError,
       [](const std::string& m) {
         return startsWith(m, "array size must be between 1 and ");
       }},
      {"array initializer", C::SyntaxError,
       [](const std::string& m) {
         return m == "array declarations cannot have initializers";
       }},
      {"sync declaration name", C::SyntaxError,
       [](const std::string& m) {
         return m == "expected name in declaration";
       }},
      {"sync variable", C::SyntaxError,
       [](const std::string& m) {
         return m == "expected synchronization variable";
       }},
      {"atomic_load operand", C::SyntaxError,
       [](const std::string& m) {
         return m == "expected variable in atomic_load";
       }},
      {"atomic_store operand", C::SyntaxError,
       [](const std::string& m) {
         return m == "expected variable in atomic_store";
       }},
      {"identifier statement", C::SyntaxError,
       [](const std::string& m) {
         return m == "expected '=' or '(' after identifier";
       }},
      {"empty cobegin", C::SyntaxError,
       [](const std::string& m) {
         return m == "cobegin requires at least one 'thread' block";
       }},
      {"unexpected token", C::SyntaxError,
       [](const std::string& m) {
         return startsWith(m, "unexpected ") &&
                !startsWith(m, "unexpected character");
       }},
      {"doall index", C::SyntaxError,
       [](const std::string& m) {
         return m == "expected index variable after 'doall'";
       }},
      {"doall body", C::SyntaxError,
       [](const std::string& m) {
         return m == "expected '{' after doall bounds";
       }},
      {"doall trip count", C::SyntaxError,
       [](const std::string& m) {
         return startsWith(m, "doall trip count must be between 1 and ");
       }},
      {"doall bounds", C::SyntaxError,
       [](const std::string& m) {
         return m == "doall bounds must be integer literals";
       }},
      {"address-of operand", C::SyntaxError,
       [](const std::string& m) { return m == "expected variable after '&'"; }},
      {"expected expression", C::SyntaxError,
       [](const std::string& m) {
         return startsWith(m, "expected expression, found ");
       }},
      {"redeclaration", C::Redeclaration,
       [](const std::string& m) {
         return startsWith(m, "redeclaration of '");
       }},
      {"undeclared", C::UndeclaredIdentifier,
       [](const std::string& m) {
         return startsWith(m, "use of undeclared identifier '");
       }},
      {"wrong kind", C::WrongSymbolKind,
       [](const std::string& m) {
         return contains(m, "' is a ") && contains(m, ", expected ");
       }},
      {"call of non-function", C::WrongSymbolKind,
       [](const std::string& m) { return contains(m, "' is not a function"); }},
      {"index of non-array", C::WrongSymbolKind,
       [](const std::string& m) { return contains(m, "' is not an array"); }},
      {"array without index", C::WrongSymbolKind,
       [](const std::string& m) {
         return startsWith(m, "array '") &&
                contains(m, "' needs an index here (use ");
       }},
  };
  return shapes;
}

/// Hits per diagnostic shape over the whole corpus, plus totals.
struct Coverage {
  std::vector<std::size_t> hits = std::vector<std::size_t>(diagShapes().size());
  std::size_t sources = 0;
  std::size_t tokens = 0;
  std::size_t cleanParses = 0;

  void record(const Diagnostic& d) {
    for (std::size_t i = 0; i < diagShapes().size(); ++i)
      if (diagShapes()[i].code == d.code && diagShapes()[i].matches(d.message))
        ++hits[i];
  }
};

std::string describe(const SourceLoc& l) { return l.str(); }

/// Lexes and parses `source` with both implementations and requires
/// identical tokens, lexer errors, diagnostics, printed program and
/// symbol table.
void checkEquivalent(const std::string& name, const std::string& source,
                     Coverage& cov) {
  SCOPED_TRACE(name);
  ++cov.sources;

  const LexResult got = lex(source);
  const RefLexResult want = refLex(source);
  ASSERT_EQ(got.tokens.size(), want.tokens.size());
  cov.tokens += want.tokens.size();
  for (std::size_t i = 0; i < want.tokens.size(); ++i) {
    const Token& g = got.tokens[i];
    const RefToken& w = want.tokens[i];
    ASSERT_EQ(g.kind, w.kind) << "token " << i << " at " << describe(w.loc);
    ASSERT_EQ(g.text, w.text) << "token " << i;
    ASSERT_EQ(g.intValue, w.intValue) << "token " << i;
    ASSERT_EQ(g.loc, w.loc) << "token " << i << ": " << describe(g.loc)
                            << " vs " << describe(w.loc);
  }
  ASSERT_EQ(got.errors.size(), want.errors.size());
  for (std::size_t i = 0; i < want.errors.size(); ++i) {
    EXPECT_EQ(got.errors[i].first, want.errors[i].first) << "lex error " << i;
    EXPECT_EQ(got.errors[i].second, want.errors[i].second);
  }

  DiagEngine gotDiag, wantDiag;
  const ir::Program gotProg = parseProgram(source, gotDiag);
  const ir::Program wantProg = refParseProgram(source, wantDiag);
  const auto& gd = gotDiag.diagnostics();
  const auto& wd = wantDiag.diagnostics();
  ASSERT_EQ(gd.size(), wd.size());
  for (std::size_t i = 0; i < wd.size(); ++i) {
    EXPECT_EQ(gd[i].severity, wd[i].severity) << "diagnostic " << i;
    EXPECT_EQ(gd[i].code, wd[i].code) << "diagnostic " << i;
    EXPECT_EQ(gd[i].str(), wd[i].str()) << "diagnostic " << i;
    cov.record(wd[i]);
  }
  if (wd.empty()) ++cov.cleanParses;
  EXPECT_EQ(ir::printProgram(gotProg), ir::printProgram(wantProg));

  const auto& gs = gotProg.symbols.all();
  const auto& ws = wantProg.symbols.all();
  ASSERT_EQ(gs.size(), ws.size());
  for (std::size_t i = 0; i < ws.size(); ++i) {
    EXPECT_EQ(gs[i].name, ws[i].name) << "symbol " << i;
    EXPECT_EQ(gs[i].kind, ws[i].kind) << "symbol " << i;
    EXPECT_EQ(gs[i].shared, ws[i].shared) << "symbol " << i;
    EXPECT_EQ(gs[i].arraySize, ws[i].arraySize) << "symbol " << i;
    EXPECT_EQ(gs[i].loc, ws[i].loc) << "symbol " << i;
  }
}

// ---------------------------------------------------------------------------
// Corpus.
// ---------------------------------------------------------------------------

std::filesystem::path examplesDir() {
  return std::filesystem::path(__FILE__).parent_path().parent_path() /
         "examples" / "programs";
}

using Corpus = std::vector<std::pair<std::string, std::string>>;

Corpus exampleCorpus() {
  Corpus out;
  for (const auto& entry : std::filesystem::directory_iterator(examplesDir())) {
    if (entry.path().extension() != ".cp") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    out.emplace_back(entry.path().filename().string(), text.str());
  }
  std::sort(out.begin(), out.end());
  return out;
}

workload::GeneratorConfig generatedConfig(std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.threads = 2 + static_cast<int>(seed % 3);
  cfg.sharedVars = 3 + static_cast<int>(seed % 5);
  cfg.locks = 1 + static_cast<int>(seed % 3);
  cfg.stmtsPerThread = 6 + static_cast<int>(seed % 11);
  cfg.useEvents = seed % 4 == 1;
  cfg.determinate = seed % 3 != 0;
  cfg.ptrProb = seed % 5 == 2 ? 0.2 : 0.0;
  cfg.arrayProb = seed % 5 == 3 ? 0.2 : 0.0;
  cfg.fenceProb = seed % 7 == 4 ? 0.15 : 0.0;
  cfg.atomicFraction = seed % 6 == 3 ? 0.5 : 0.0;  // needs !determinate
  return cfg;
}

constexpr const char* kDoallShapes[] = {
    // Plain, negative bounds, a single trip, nested and inside a thread.
    "int s = 0; lock L;\n"
    "doall i = 1, 4 { lock(L); s = s + i; unlock(L); }\nprint(s);\n",
    "int s = 0; lock L;\n"
    "doall k = -2, 1 { int t = k * 2; lock(L); s = s + t; unlock(L); }\n",
    "int s = 0; doall i = 7, 7 { s = i; }\n",
    "int s = 0; lock L;\n"
    "doall i = 0, 2 {\n"
    "  doall j = 0, 1 { lock(L); s = s + i + j; unlock(L); }\n"
    "}\n",
    "int s = 0; lock L;\n"
    "cobegin { thread T { doall i = 1, 3 { lock(L); s = s + i; unlock(L); } }"
    " thread U { s = 1; } }\n",
    // Errors: inside the body (reported once), bad bounds, bad trip
    // counts, a missing body, a missing index.
    "int s = 0; doall i = 1, 3 { s = ; }\n",
    "int s = 0; doall i = 1, 3 { s = s + q; }\n",
    "int s = 0; doall i = 1, 3 { int i = 2; s = i; }\n",
    "int n = 3; doall i = 1, n { }\n",
    "doall i = x, 4 { }\n",
    "doall i = 1, 100 { int z = 1; }\n",
    "doall i = 5, 1 { }\n",
    "int x = 0; doall i = 1, 2 x = 1;\n",
    "doall = 1, 2 { }\n",
    "doall i 1, 2 { }\n",
    "doall i = 1 2 { }\n",
};

/// Hand-written malformed sources, aimed at every diagnostic.
constexpr const char* kMalformed[] = {
    "int x = 1 | 2;\n",
    "int x = 1; x = x @ 2;\n",
    "int x = 1; # x = 2;\n",
    "int x = $;\n",
    "int x = 99999999999999999999999;\n",
    "int x = 9223372036854775807; int y = 9223372036854775808;\n",
    "int x = 92233720368547758079;\n",
    "int x = 0; /* never closed\n x = 1;\n",
    "int x = 0; /* closed */ x = 1; /*\n",
    "int x = 0; // line comment at end",
    "int x = 0;\r\n\tx = x + 1;\v\f\n",
    "int ;\n",
    "int 5 = 2;\n",
    "int a[n];\n",
    "int a[0];\n",
    "int a[2000];\n",
    "int a[4] = 3;\n",
    "int a[3; a[1] = 2;\n",
    "lock ;\n",
    "event 3;\n",
    "lock L, ;\n",
    "lock L; lock(5);\n",
    "lock L; unlock();\n",
    "event E; set(E; wait E);\n",
    "int x; x = atomic_load(5);\n",
    "int x; x = atomic_load(y);\n",
    "int x; atomic_store(3, 1);\n",
    "int x; atomic_store(x 1);\n",
    "int x; x;\n",
    "int x; x + 1;\n",
    "cobegin { }\n",
    "cobegin { thread { int x = 1; }\n",
    "cobegin thread { }\n",
    ") ;\n",
    "int x; else { x = 1; }\n",
    "int x; x = &5;\n",
    "int x; x = &;\n",
    "int x; x = ;\n",
    "int x; x = (1 + ;\n",
    "int x; x = ((((1));\n",
    "int x; x = 1 +* 2;\n",
    "int x; int x;\n",
    "lock L; int L;\n",
    "event E; lock E;\n",
    "int x; cobegin { thread { int y; int y; } }\n",
    "x = 1;\n",
    "int x = y + 1;\n",
    "lock(M);\n",
    "set(E);\n",
    "int x; lock(x); unlock(x);\n",
    "lock L; L = 1;\n",
    "event E; lock(E);\n",
    "lock L; set(L);\n",
    "int x; x(1);\n",
    "lock L; int y = L(2);\n",
    "f(1); int f;\n",
    "f(1); f = 2;\n",
    "int x; x[1] = 2;\n",
    "int x; int y = x[0];\n",
    "int x; int p = &x[1];\n",
    "int a[4]; int y = a;\n",
    "int a[4]; int y = a + a[1];\n",
    "int a[4]; print(a);\n",
    "int x; if (x) { x = 1; } else x = 2;\n",
    "int x; while x > 0 { x = x - 1; }\n",
    "int x; if (x { }\n",
    "int x; print(x;\n",
    "int x; assert();\n",
    "int x; barrier\n",
    "int x; fence x;\n",
    "int x; *;\n",
    "int x; *x = ;\n",
    "int x; int p = &x; *p 3;\n",
    "{ int x; } x = 1;\n",
    "int x; { int x; x = 2; } x = 3; { x = 4;\n",
    "thread T { }\n",
    "int x; x = 1 x = 2;\n",
    "int x = 0\nint y = 1;\n",
    "int if = 3;\n",
    "int _a1 = 1, b_ = _a1 * 2, c9 = -b_;\n",
    "int x; x = !!x && !(x || x) == x != 1 <= 2 >= 3 < 4 > 5 % 6 / 7;\n",
    "int \xff = 1;\n",
    "int x; x = 1;\xc3\xa9\n",
};

/// Deterministic damage to a valid source: truncation, byte flips,
/// inserted and deleted bytes.
std::vector<std::string> damaged(const std::string& src, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto at = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % std::max<std::size_t>(n, 1));
  };
  static constexpr char kJunk[] = {'|', '@', '#', '$', '`', '~', '?', ':',
                                   '"', '\'', '\\', '^', '\0', '\x7f',
                                   '\x80', '\xff', '{', '}', '(', ')', ';',
                                   '/', '*', '&', '=', '[', ']', '9'};
  std::vector<std::string> out;
  out.push_back(src.substr(0, at(src.size())));  // truncated
  std::string flipped = src;
  for (int k = 0; k < 3; ++k)
    flipped[at(flipped.size())] = kJunk[at(sizeof kJunk)];
  out.push_back(flipped);
  std::string inserted = src;
  inserted.insert(at(inserted.size()), 1, kJunk[at(sizeof kJunk)]);
  out.push_back(inserted);
  std::string deleted = src;
  if (!deleted.empty()) deleted.erase(at(deleted.size()), 1 + at(4));
  out.push_back(deleted);
  return out;
}

Corpus figureCorpus() {
  return {{"figure 1", workload::figure1Source()},
          {"figure 2", workload::figure2Source()},
          {"figure 5a", workload::figure5aSource()}};
}

Corpus lockRegionCorpus() {
  Corpus out;
  for (int k = 1; k <= 32; ++k)
    out.emplace_back("lockRegionSource(3, " + std::to_string(k) + ")",
                     workload::lockRegionSource(3, k));
  return out;
}

Corpus doallCorpus() {
  Corpus out;
  for (const char* source : kDoallShapes)
    out.emplace_back("doall shape " + std::to_string(out.size()), source);
  return out;
}

Corpus generatedCorpus() {
  Corpus out;
  for (std::uint64_t seed = 1; seed <= 400; ++seed)
    out.emplace_back(
        "generateRandom seed=" + std::to_string(seed),
        ir::printProgram(workload::generateRandom(generatedConfig(seed))));
  return out;
}

Corpus malformedCorpus() {
  Corpus out;
  for (const char* source : kMalformed)
    out.emplace_back("malformed " + std::to_string(out.size()), source);
  // Embedded NUL bytes, which a C string literal cannot carry.
  out.emplace_back("NUL in code", std::string("int x = 1;\0 x = 2;\n", 19));
  out.emplace_back("NUL in comment",
                   std::string("int x; /* a\0b */ x = 1;", 24));
  // Damaged copies of valid sources.
  std::uint64_t seed = 1;
  for (const Corpus& valid : {exampleCorpus(), doallCorpus()})
    for (const auto& [name, source] : valid)
      for (std::string& bad : damaged(source, seed++))
        out.emplace_back("damaged " + name, std::move(bad));
  return out;
}

Coverage checkAll(const Corpus& corpus) {
  Coverage cov;
  for (const auto& [name, source] : corpus)
    checkEquivalent(name, source, cov);
  return cov;
}

TEST(ParserEquivalence, ExamplePrograms) {
  const Coverage cov = checkAll(exampleCorpus());
  EXPECT_GE(cov.sources, 16u) << "examples not found under " << examplesDir();
}

TEST(ParserEquivalence, PaperFigures) {
  EXPECT_EQ(checkAll(figureCorpus()).cleanParses, 3u);
}

TEST(ParserEquivalence, LockRegions) {
  EXPECT_EQ(checkAll(lockRegionCorpus()).cleanParses, 32u);
}

TEST(ParserEquivalence, DoallShapes) { (void)checkAll(doallCorpus()); }

TEST(ParserEquivalence, GeneratedPrograms) {
  const Corpus corpus = generatedCorpus();
  EXPECT_EQ(checkAll(corpus).cleanParses, 400u);
  // The configurations reach every construct the generator knows.
  for (const char* feature :
       {"*", "&", "[", "set(", "wait(", "fence;", "atomic_store(",
        "atomic_load("}) {
    const auto uses = std::count_if(
        corpus.begin(), corpus.end(),
        [&](const auto& c) { return contains(c.second, feature); });
    EXPECT_GE(uses, 10) << feature;
  }
}

TEST(ParserEquivalence, MalformedSources) {
  const Coverage cov = checkAll(malformedCorpus());
  EXPECT_GE(cov.sources, 100u);
  EXPECT_GE(cov.sources - cov.cleanParses, 90u);
}

/// The non-vacuity floor: over the whole corpus, every diagnostic the
/// lexer and parser can emit fires at least once.
TEST(ParserEquivalence, EveryDiagnosticFires) {
  Corpus all;
  for (Corpus part : {exampleCorpus(), figureCorpus(), lockRegionCorpus(),
                      doallCorpus(), generatedCorpus(), malformedCorpus()})
    all.insert(all.end(), part.begin(), part.end());
  const Coverage cov = checkAll(all);
  for (std::size_t i = 0; i < diagShapes().size(); ++i)
    EXPECT_GE(cov.hits[i], 1u) << "never emitted: " << diagShapes()[i].name;
}

}  // namespace
}  // namespace cssame::parser
