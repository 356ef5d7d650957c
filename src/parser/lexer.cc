#include "src/parser/lexer.h"

#include <array>
#include <cstdint>
#include <limits>
#include <string>

namespace cssame::parser {

const char* tokKindName(TokKind k) {
  switch (k) {
    case TokKind::End: return "<eof>";
    case TokKind::Ident: return "identifier";
    case TokKind::IntLit: return "integer";
    case TokKind::KwInt: return "'int'";
    case TokKind::KwLock: return "'lock'";
    case TokKind::KwEvent: return "'event'";
    case TokKind::KwIf: return "'if'";
    case TokKind::KwElse: return "'else'";
    case TokKind::KwWhile: return "'while'";
    case TokKind::KwCobegin: return "'cobegin'";
    case TokKind::KwThread: return "'thread'";
    case TokKind::KwUnlock: return "'unlock'";
    case TokKind::KwSet: return "'set'";
    case TokKind::KwWait: return "'wait'";
    case TokKind::KwPrint: return "'print'";
    case TokKind::KwBarrier: return "'barrier'";
    case TokKind::KwDoall: return "'doall'";
    case TokKind::KwAssert: return "'assert'";
    case TokKind::KwFence: return "'fence'";
    case TokKind::KwAtomicLoad: return "'atomic_load'";
    case TokKind::KwAtomicStore: return "'atomic_store'";
    case TokKind::LParen: return "'('";
    case TokKind::RParen: return "')'";
    case TokKind::LBrace: return "'{'";
    case TokKind::RBrace: return "'}'";
    case TokKind::LBracket: return "'['";
    case TokKind::RBracket: return "']'";
    case TokKind::Semi: return "';'";
    case TokKind::Comma: return "','";
    case TokKind::Assign: return "'='";
    case TokKind::Plus: return "'+'";
    case TokKind::Minus: return "'-'";
    case TokKind::Star: return "'*'";
    case TokKind::Slash: return "'/'";
    case TokKind::Percent: return "'%'";
    case TokKind::Lt: return "'<'";
    case TokKind::Le: return "'<='";
    case TokKind::Gt: return "'>'";
    case TokKind::Ge: return "'>='";
    case TokKind::EqEq: return "'=='";
    case TokKind::Ne: return "'!='";
    case TokKind::AndAnd: return "'&&'";
    case TokKind::OrOr: return "'||'";
    case TokKind::Bang: return "'!'";
    case TokKind::Amp: return "'&'";
  }
  return "?";
}

namespace {

/// Byte classes of the C locale, by table: the language is ASCII, and
/// std::isspace and friends are out-of-line, locale-dependent calls.
enum : std::uint8_t { kSpace = 1, kDigit = 2, kIdentStart = 4, kIdentRest = 8 };

constexpr std::array<std::uint8_t, 256> kByteClass = [] {
  std::array<std::uint8_t, 256> t{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) t[c] = kSpace;
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit | kIdentRest;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kIdentStart | kIdentRest;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kIdentStart | kIdentRest;
  t['_'] = kIdentStart | kIdentRest;
  return t;
}();

[[nodiscard]] std::uint8_t byteClass(char c) {
  return kByteClass[static_cast<unsigned char>(c)];
}

/// Keyword kind of a word, or Ident.
[[nodiscard]] TokKind classifyWord(std::string_view w) {
  switch (w.front()) {
    case 'a':
      if (w == "assert") return TokKind::KwAssert;
      if (w == "atomic_load") return TokKind::KwAtomicLoad;
      if (w == "atomic_store") return TokKind::KwAtomicStore;
      break;
    case 'b':
      if (w == "barrier") return TokKind::KwBarrier;
      break;
    case 'c':
      if (w == "cobegin") return TokKind::KwCobegin;
      break;
    case 'd':
      if (w == "doall") return TokKind::KwDoall;
      break;
    case 'e':
      if (w == "else") return TokKind::KwElse;
      if (w == "event") return TokKind::KwEvent;
      break;
    case 'f':
      if (w == "fence") return TokKind::KwFence;
      break;
    case 'i':
      if (w == "if") return TokKind::KwIf;
      if (w == "int") return TokKind::KwInt;
      break;
    case 'l':
      if (w == "lock") return TokKind::KwLock;
      break;
    case 'p':
      if (w == "print") return TokKind::KwPrint;
      break;
    case 's':
      if (w == "set") return TokKind::KwSet;
      break;
    case 't':
      if (w == "thread") return TokKind::KwThread;
      break;
    case 'u':
      if (w == "unlock") return TokKind::KwUnlock;
      break;
    case 'w':
      if (w == "wait") return TokKind::KwWait;
      if (w == "while") return TokKind::KwWhile;
      break;
  }
  return TokKind::Ident;
}

}  // namespace

LexResult lex(std::string_view src) {
  LexResult result;
  const std::size_t n = src.size();
  std::size_t i = 0;
  // The column is the distance from the start of the current line, so
  // only a newline has to update position state.
  std::uint32_t line = 1;
  std::size_t lineStart = 0;

  auto loc = [&]() {
    return SourceLoc{line, static_cast<std::uint32_t>(i - lineStart + 1)};
  };
  auto newlineAt = [&](std::size_t at) {
    ++line;
    lineStart = at + 1;
  };
  auto peek = [&](std::size_t off = 0) -> char {
    return i + off < n ? src[i + off] : '\0';
  };
  auto push = [&](TokKind kind, SourceLoc l, std::size_t len) {
    result.tokens.push_back(Token{kind, {}, 0, l});
    i += len;
  };

  while (i < n) {
    const char c = src[i];
    const std::uint8_t cls = byteClass(c);
    if (cls & kSpace) {
      if (c == '\n') newlineAt(i);
      ++i;
      continue;
    }
    // Comments: // line and /* block */.
    if (c == '/' && peek(1) == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      const SourceLoc start = loc();
      i += 2;
      while (i < n && !(src[i] == '*' && peek(1) == '/')) {
        if (src[i] == '\n') newlineAt(i);
        ++i;
      }
      if (i >= n)
        result.errors.emplace_back(start, "unterminated block comment");
      else
        i += 2;
      continue;
    }
    const SourceLoc l = loc();
    if (cls & kIdentStart) {
      const std::size_t start = i;
      while (i < n && (byteClass(src[i]) & kIdentRest)) ++i;
      const std::string_view word = src.substr(start, i - start);
      const TokKind kind = classifyWord(word);
      result.tokens.push_back(
          Token{kind, kind == TokKind::Ident ? word : std::string_view{}, 0,
                l});
      continue;
    }
    if (cls & kDigit) {
      long long v = 0;
      bool overflow = false;
      while (i < n && (byteClass(src[i]) & kDigit)) {
        const long long digit = src[i] - '0';
        if (v > (std::numeric_limits<long long>::max() - digit) / 10)
          overflow = true;
        else
          v = v * 10 + digit;
        ++i;
      }
      if (overflow) result.errors.emplace_back(l, "integer literal overflow");
      result.tokens.push_back(Token{TokKind::IntLit, {}, v, l});
      continue;
    }
    // One- and two-byte operators; `second` is the kind when the next
    // byte is `next`.
    auto pair = [&](char next, TokKind second, TokKind first) {
      if (peek(1) == next)
        push(second, l, 2);
      else
        push(first, l, 1);
    };
    switch (c) {
      case '(': push(TokKind::LParen, l, 1); break;
      case ')': push(TokKind::RParen, l, 1); break;
      case '{': push(TokKind::LBrace, l, 1); break;
      case '}': push(TokKind::RBrace, l, 1); break;
      case '[': push(TokKind::LBracket, l, 1); break;
      case ']': push(TokKind::RBracket, l, 1); break;
      case ';': push(TokKind::Semi, l, 1); break;
      case ',': push(TokKind::Comma, l, 1); break;
      case '+': push(TokKind::Plus, l, 1); break;
      case '-': push(TokKind::Minus, l, 1); break;
      case '*': push(TokKind::Star, l, 1); break;
      case '/': push(TokKind::Slash, l, 1); break;
      case '%': push(TokKind::Percent, l, 1); break;
      case '<': pair('=', TokKind::Le, TokKind::Lt); break;
      case '>': pair('=', TokKind::Ge, TokKind::Gt); break;
      case '=': pair('=', TokKind::EqEq, TokKind::Assign); break;
      case '!': pair('=', TokKind::Ne, TokKind::Bang); break;
      case '&': pair('&', TokKind::AndAnd, TokKind::Amp); break;
      case '|':
        if (peek(1) == '|') {
          push(TokKind::OrOr, l, 2);
        } else {
          result.errors.emplace_back(l, "unexpected character '|'");
          ++i;
        }
        break;
      default:
        result.errors.emplace_back(
            l, std::string("unexpected character '") + c + "'");
        ++i;
        break;
    }
  }
  result.tokens.push_back(Token{TokKind::End, {}, 0, loc()});
  return result;
}

}  // namespace cssame::parser
