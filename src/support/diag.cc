#include "src/support/diag.h"

#include <charconv>
#include <limits>

namespace cssame {

const char* diagCodeName(DiagCode code) {
  switch (code) {
    case DiagCode::SyntaxError: return "syntax-error";
    case DiagCode::UndeclaredIdentifier: return "undeclared-identifier";
    case DiagCode::Redeclaration: return "redeclaration";
    case DiagCode::WrongSymbolKind: return "wrong-symbol-kind";
    case DiagCode::UnmatchedLock: return "unmatched-lock";
    case DiagCode::UnmatchedUnlock: return "unmatched-unlock";
    case DiagCode::IllFormedMutexBody: return "ill-formed-mutex-body";
    case DiagCode::InconsistentLocking: return "inconsistent-locking";
    case DiagCode::PotentialDataRace: return "potential-data-race";
    case DiagCode::MayAliasRace: return "may-alias-race";
    case DiagCode::PotentialDeadlock: return "potential-deadlock";
    case DiagCode::SelfDeadlock: return "self-deadlock";
    case DiagCode::LockLeak: return "lock-leak";
    case DiagCode::EmptyMutexBody: return "empty-mutex-body";
    case DiagCode::RedundantMutexBody: return "redundant-mutex-body";
    case DiagCode::OverwideMutexBody: return "overwide-mutex-body";
    case DiagCode::UnprotectedPiRead: return "unprotected-pi-read";
    case DiagCode::VerifyFailed: return "verify-failed";
    case DiagCode::InvariantViolation: return "invariant-violation";
    case DiagCode::BudgetExceeded: return "budget-exceeded";
    case DiagCode::PassFailure: return "pass-failure";
    case DiagCode::DeadBranch: return "dead-branch";
    case DiagCode::UnreachableCode: return "unreachable-code";
    case DiagCode::DivByZero: return "div-by-zero";
    case DiagCode::AssertProved: return "assert-proved";
    case DiagCode::AssertMayFail: return "assert-may-fail";
    case DiagCode::MutualExclusionNotJustifiedUnderTSO:
      return "mutual-exclusion-not-justified-under-tso";
    case DiagCode::FenceRedundant: return "fence-redundant";
  }
  return "unknown";
}

const char* diagCodeDescription(DiagCode code) {
  switch (code) {
    case DiagCode::SyntaxError:
      return "the front end rejected the source text";
    case DiagCode::UndeclaredIdentifier:
      return "an identifier is used before any declaration";
    case DiagCode::Redeclaration:
      return "an identifier is declared twice in one scope";
    case DiagCode::WrongSymbolKind:
      return "a symbol is used as the wrong kind (e.g. locking a variable)";
    case DiagCode::UnmatchedLock:
      return "a lock(L) delimits no well-formed mutex body";
    case DiagCode::UnmatchedUnlock:
      return "an unlock(L) delimits no well-formed mutex body";
    case DiagCode::IllFormedMutexBody:
      return "a candidate mutex body nests a lock/unlock of its own lock "
             "and is never used to reduce dependencies";
    case DiagCode::InconsistentLocking:
      return "writes to a concurrently accessed shared variable are not "
             "all protected by one common lock";
    case DiagCode::PotentialDataRace:
      return "two accesses to a shared variable may happen in parallel "
             "with disjoint locksets, at least one being a write";
    case DiagCode::MayAliasRace:
      return "two accesses that may alias — through a pointer or "
             "differing array indices — may happen in parallel with "
             "disjoint locksets, at least one being a write";
    case DiagCode::PotentialDeadlock:
      return "concurrent threads acquire the same locks in conflicting "
             "orders";
    case DiagCode::SelfDeadlock:
      return "a thread may re-acquire a (non-reentrant) lock it already "
             "holds, blocking itself forever";
    case DiagCode::LockLeak:
      return "some path from a lock(L) leaves the program or its parallel "
             "section without executing unlock(L)";
    case DiagCode::EmptyMutexBody:
      return "a well-formed mutex body protects no statements at all";
    case DiagCode::RedundantMutexBody:
      return "a mutex body contains only lock-independent statements, so "
             "the lock serializes nothing";
    case DiagCode::OverwideMutexBody:
      return "a mutex body starts or ends with lock-independent "
             "statements that could execute outside the critical section";
    case DiagCode::UnprotectedPiRead:
      return "a use reached by a concurrent definition (a surviving "
             "CSSAME pi argument) shares no lock with that definition";
    case DiagCode::VerifyFailed:
      return "a structural verifier found violations after a pass";
    case DiagCode::InvariantViolation:
      return "an internal invariant check tripped inside an analysis";
    case DiagCode::BudgetExceeded:
      return "a resource budget (steps/states/memory) was exhausted";
    case DiagCode::PassFailure:
      return "an optimization pass failed and was rolled back";
    case DiagCode::DeadBranch:
      return "a branch condition's value range proves one side never "
             "executes under any interleaving";
    case DiagCode::UnreachableCode:
      return "no interleaving reaches these statements";
    case DiagCode::DivByZero:
      return "a divisor's value range is exactly zero, or contains zero";
    case DiagCode::AssertProved:
      return "an assert condition's value range excludes zero on every "
             "interleaving, so the assert can never fire";
    case DiagCode::AssertMayFail:
      return "an assert condition's value range contains zero, so some "
             "interleaving may trip the assert";
    case DiagCode::MutualExclusionNotJustifiedUnderTSO:
      return "a shared load may overtake an earlier pending plain store of "
             "the same thread under TSO, so the store/load pair cannot "
             "justify mutual exclusion without a fence or atomics";
    case DiagCode::FenceRedundant:
      return "a fence drains a store buffer that provably holds no store "
             "a concurrent thread could observe early";
  }
  return "unknown check";
}

namespace {

/// Appends "line:col: " (nothing for an invalid location), the bytes
/// SourceLoc::str() renders, without building a temporary.
void appendLocPrefix(std::string& out, SourceLoc loc) {
  if (!loc.valid()) return;
  // Bounding each conversion at the most digits a line or column can
  // take keeps every separator write provably inside the buffer.
  constexpr std::ptrdiff_t kDigits =
      std::numeric_limits<decltype(loc.line)>::digits10 + 1;
  char buf[2 * kDigits + 3];
  char* p = std::to_chars(buf, buf + kDigits, loc.line).ptr;
  *p++ = ':';
  p = std::to_chars(p, p + kDigits, loc.column).ptr;
  *p++ = ':';
  *p++ = ' ';
  out.append(buf, static_cast<std::size_t>(p - buf));
}

}  // namespace

void Diagnostic::appendTo(std::string& out) const {
  switch (severity) {
    case DiagSeverity::Note: out += "note"; break;
    case DiagSeverity::Warning: out += "warning"; break;
    case DiagSeverity::Error: out += "error"; break;
  }
  out += " [";
  out += diagCodeName(code);
  out += "] ";
  appendLocPrefix(out, loc);
  out += message;
  for (const DiagNote& n : notes) {
    out += "\n  note ";
    appendLocPrefix(out, n.loc);
    out += n.message;
  }
}

std::string Diagnostic::str() const {
  std::string out;
  appendTo(out);
  return out;
}

std::size_t DiagEngine::countOf(DiagCode code) const {
  std::size_t n = 0;
  for (const auto& d : diags_)
    if (d.code == code) ++n;
  return n;
}

}  // namespace cssame
