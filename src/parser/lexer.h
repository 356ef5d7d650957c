// Lexer for the explicitly parallel toy language.
#pragma once

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/support/source_loc.h"

namespace cssame::parser {

enum class TokKind : std::uint8_t {
  End,
  Ident,
  IntLit,
  // Keywords.
  KwInt, KwLock, KwEvent, KwIf, KwElse, KwWhile, KwCobegin, KwThread,
  KwUnlock, KwSet, KwWait, KwPrint, KwBarrier, KwDoall, KwAssert,
  KwFence, KwAtomicLoad, KwAtomicStore,
  // Punctuation / operators.
  LParen, RParen, LBrace, RBrace, LBracket, RBracket, Semi, Comma,
  Assign,          // =
  Plus, Minus, Star, Slash, Percent,
  Lt, Le, Gt, Ge, EqEq, Ne,
  AndAnd, OrOr, Bang,
  Amp,             // & — address-of (a lone & is not a binary operator)
};

[[nodiscard]] const char* tokKindName(TokKind k);

/// One token. `text` is a view into the lexed source, not a copy: a token
/// (and a LexResult) must not outlive the string it was lexed from. The
/// parser copies a spelling only when it creates a symbol from it.
struct Token {
  TokKind kind = TokKind::End;
  std::string_view text;  ///< identifier spelling (empty for other kinds)
  long long intValue = 0; ///< for IntLit
  SourceLoc loc;
};
static_assert(std::is_trivially_copyable_v<Token>,
              "tokens view the source; they own nothing");

/// Tokenizes the whole input. Unknown characters become diagnostics via the
/// returned error list (the lexer itself has no DiagEngine dependency so it
/// can be tested standalone). The tokens view `source`; keep it alive for
/// as long as they are used.
struct LexResult {
  std::vector<Token> tokens;
  std::vector<std::pair<SourceLoc, std::string>> errors;
};

[[nodiscard]] LexResult lex(std::string_view source);

}  // namespace cssame::parser
