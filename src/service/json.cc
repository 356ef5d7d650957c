#include "src/service/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "src/sanalysis/sarif.h"  // appendJsonEscaped

namespace cssame::service {

namespace {

/// Nesting bound for hostile inputs; frames are cheap but the parser is
/// recursive, so the depth must stay well under the thread stack.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Expected<Json> parse() {
    Json value;
    if (Status s = parseValue(value, 0); !s.ok()) return s.fault();
    skipWs();
    if (pos_ != text_.size())
      return fail("trailing bytes after JSON document");
    return value;
  }

 private:
  Fault fail(const std::string& what) const {
    return Fault{FaultKind::ParseError, "json",
                 what + " at byte " + std::to_string(pos_), {}};
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool consumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  Status parseValue(Json& out, int depth) {
    if (depth > kMaxDepth)
      return Status(fail("nesting deeper than " +
                         std::to_string(kMaxDepth) + " levels"));
    skipWs();
    if (pos_ >= text_.size()) return Status(fail("unexpected end of input"));
    const char c = text_[pos_];
    switch (c) {
      case '{': return parseObject(out, depth);
      case '[': return parseArray(out, depth);
      case '"': {
        std::string s;
        if (Status st = parseString(s); !st.ok()) return st;
        out = Json(std::move(s));
        return Status::okStatus();
      }
      case 't':
        if (consumeWord("true")) {
          out = Json(true);
          return Status::okStatus();
        }
        return Status(fail("expected 'true'"));
      case 'f':
        if (consumeWord("false")) {
          out = Json(false);
          return Status::okStatus();
        }
        return Status(fail("expected 'false'"));
      case 'n':
        if (consumeWord("null")) {
          out = Json();
          return Status::okStatus();
        }
        return Status(fail("expected 'null'"));
      default:
        return parseNumber(out);
    }
  }

  Status parseObject(Json& out, int depth) {
    ++pos_;  // '{'
    out = Json::object();
    skipWs();
    if (consume('}')) return Status::okStatus();
    while (true) {
      skipWs();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return Status(fail("expected object key string"));
      if (Status st = parseString(key); !st.ok()) return st;
      skipWs();
      if (!consume(':')) return Status(fail("expected ':' after object key"));
      Json value;
      if (Status st = parseValue(value, depth + 1); !st.ok()) return st;
      out.set(std::move(key), std::move(value));
      skipWs();
      if (consume(',')) continue;
      if (consume('}')) return Status::okStatus();
      return Status(fail("expected ',' or '}' in object"));
    }
  }

  Status parseArray(Json& out, int depth) {
    ++pos_;  // '['
    out = Json::array();
    skipWs();
    if (consume(']')) return Status::okStatus();
    while (true) {
      Json value;
      if (Status st = parseValue(value, depth + 1); !st.ok()) return st;
      out.push(std::move(value));
      skipWs();
      if (consume(',')) continue;
      if (consume(']')) return Status::okStatus();
      return Status(fail("expected ',' or ']' in array"));
    }
  }

  Status parseString(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (true) {
      // The run of bytes up to the next quote, backslash or control byte
      // is copied in one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const unsigned char c = static_cast<unsigned char>(text_[pos_]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size())
        return Status(fail("unterminated string"));
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::okStatus();
      }
      if (c < 0x20) return Status(fail("raw control character in string"));
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return Status(fail("unterminated escape"));
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          if (!parseHex4(code)) return Status(fail("bad \\u escape"));
          appendUtf8(out, code);
          break;
        }
        default: return Status(fail("unknown escape character"));
      }
    }
  }

  bool parseHex4(unsigned& code) {
    if (pos_ + 4 > text_.size()) return false;
    code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      unsigned v;
      if (c >= '0' && c <= '9') v = static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v = static_cast<unsigned>(c - 'a') + 10;
      else if (c >= 'A' && c <= 'F') v = static_cast<unsigned>(c - 'A') + 10;
      else return false;
      code = (code << 4) | v;
    }
    pos_ += 4;
    return true;
  }

  static void appendUtf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      // Surrogate pairs are not recombined — the protocol is ASCII in
      // practice; lone surrogates transcribe as the replacement pattern.
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  Status parseNumber(Json& out) {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    bool isDouble = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      isDouble = true;
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      isDouble = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    const std::string_view num = text_.substr(start, pos_ - start);
    if (num.empty() || num == "-")
      return Status(fail("expected a JSON value"));
    if (!isDouble) {
      std::int64_t v = 0;
      const auto [p, ec] =
          std::from_chars(num.data(), num.data() + num.size(), v);
      if (ec == std::errc() && p == num.data() + num.size()) {
        out = Json(v);
        return Status::okStatus();
      }
      // Out-of-range integers fall through to double.
    }
    double d = 0.0;
    const auto [p, ec] =
        std::from_chars(num.data(), num.data() + num.size(), d);
    if (ec != std::errc() || p != num.data() + num.size())
      return Status(fail("malformed number"));
    out = Json(d);
    return Status::okStatus();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void writeValue(const Json& v, std::string& out) {
  switch (v.kind()) {
    case Json::Kind::Null: out += "null"; break;
    case Json::Kind::Bool: out += v.boolValue() ? "true" : "false"; break;
    case Json::Kind::Int: {
      char buf[24];
      const char* end = std::to_chars(buf, buf + sizeof buf, v.intValue()).ptr;
      out.append(buf, static_cast<std::size_t>(end - buf));
      break;
    }
    case Json::Kind::Double: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v.doubleValue());
      out += buf;
      break;
    }
    case Json::Kind::String:
      out += '"';
      sanalysis::appendJsonEscaped(out, v.stringValue());
      out += '"';
      break;
    case Json::Kind::Array: {
      out += '[';
      bool first = true;
      for (const Json& item : v.items()) {
        if (!first) out += ',';
        first = false;
        writeValue(item, out);
      }
      out += ']';
      break;
    }
    case Json::Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : v.members()) {
        if (!first) out += ',';
        first = false;
        out += '"';
        sanalysis::appendJsonEscaped(out, key);
        out += "\":";
        writeValue(value, out);
      }
      out += '}';
      break;
    }
    case Json::Kind::Raw: out += v.rawBytes(); break;
  }
}

}  // namespace

const Json& Json::get(std::string_view key) const {
  static const Json kNull;
  const Json* found = &kNull;
  // Last occurrence wins, matching common JSON-parser behavior for
  // duplicate keys.
  for (const auto& [k, v] : members_)
    if (k == key) found = &v;
  return *found;
}

bool Json::getBool(std::string_view key, bool dflt) const {
  const Json& v = get(key);
  return v.isBool() ? v.boolValue() : dflt;
}

std::int64_t Json::getInt(std::string_view key, std::int64_t dflt) const {
  const Json& v = get(key);
  return v.isNumber() ? v.intValue() : dflt;
}

std::string Json::getString(std::string_view key,
                            std::string_view dflt) const {
  const Json& v = get(key);
  return v.isString() ? v.stringValue() : std::string(dflt);
}

std::string Json::write() const {
  std::string out;
  writeValue(*this, out);
  return out;
}

Expected<Json> parseJson(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace cssame::service
