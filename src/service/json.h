// A small JSON value type, parser and writer for the service protocol.
//
// cssamed's wire format is JSON (docs/SERVICE.md); requests arrive from
// untrusted clients, so the parser must degrade every malformed input
// into a structured error — it never throws and never reads past the
// buffer. The emitters elsewhere in the tree (sanalysis/sarif) are
// write-only; this is the repository's only JSON *reader*, kept
// deliberately minimal: objects, arrays, strings (with escapes), 64-bit
// integers, doubles, booleans, null. Object member order is preserved so
// writes are deterministic — responses must be byte-stable for the
// content-addressed cache and the byte-identity CI checks.
//
// Limits: parse depth is capped (deeply nested hostile payloads would
// otherwise overflow the stack) and \uXXXX escapes outside ASCII are
// transcribed as UTF-8.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/support/status.h"

namespace cssame::service {

/// One JSON value. A tagged union over the seven syntactic shapes;
/// numbers keep an integer/double distinction so 64-bit ids and sizes
/// round-trip exactly. An eighth kind, Raw, holds an already serialized
/// value for the writer to splice in verbatim.
class Json {
 public:
  enum class Kind : std::uint8_t {
    Null,
    Bool,
    Int,
    Double,
    String,
    Array,
    Object,
    Raw,
  };

  Json() = default;  // null
  /*implicit*/ Json(bool b) : kind_(Kind::Bool), bool_(b) {}
  /*implicit*/ Json(std::int64_t v) : kind_(Kind::Int), int_(v) {}
  /*implicit*/ Json(int v) : Json(static_cast<std::int64_t>(v)) {}
  /*implicit*/ Json(std::uint64_t v)
      : Json(static_cast<std::int64_t>(v)) {}
  /*implicit*/ Json(double v) : kind_(Kind::Double), double_(v) {}
  /*implicit*/ Json(std::string s)
      : kind_(Kind::String), string_(std::move(s)) {}
  /*implicit*/ Json(const char* s) : Json(std::string(s)) {}
  /*implicit*/ Json(std::string_view s) : Json(std::string(s)) {}

  [[nodiscard]] static Json array() {
    Json j;
    j.kind_ = Kind::Array;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.kind_ = Kind::Object;
    return j;
  }
  /// A value that write() renders as exactly `bytes`, which must hold one
  /// JSON value in the writer's compact form (the server splices cached
  /// result payloads this way; docs/SERVICE.md). Shared, not copied;
  /// parseJson never produces this kind, and lookups on it see null.
  [[nodiscard]] static Json raw(std::shared_ptr<const std::string> bytes) {
    Json j;
    j.kind_ = Kind::Raw;
    j.raw_ = std::move(bytes);
    return j;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool isNull() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool isBool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool isNumber() const {
    return kind_ == Kind::Int || kind_ == Kind::Double;
  }
  [[nodiscard]] bool isString() const { return kind_ == Kind::String; }
  [[nodiscard]] bool isArray() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool isObject() const { return kind_ == Kind::Object; }

  [[nodiscard]] bool boolValue() const { return bool_; }
  [[nodiscard]] std::int64_t intValue() const {
    return kind_ == Kind::Double ? static_cast<std::int64_t>(double_) : int_;
  }
  [[nodiscard]] double doubleValue() const {
    return kind_ == Kind::Double ? double_ : static_cast<double>(int_);
  }
  [[nodiscard]] const std::string& stringValue() const { return string_; }
  [[nodiscard]] const std::string& rawBytes() const { return *raw_; }

  [[nodiscard]] const std::vector<Json>& items() const { return items_; }
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const {
    return members_;
  }

  /// Array append (value must be an array).
  Json& push(Json v) {
    items_.push_back(std::move(v));
    return *this;
  }
  /// Object member append (value must be an object). Keeps insertion
  /// order; duplicate keys are not checked — the writer emits both, as
  /// the parser keeps the last.
  Json& set(std::string key, Json v) {
    members_.emplace_back(std::move(key), std::move(v));
    return *this;
  }

  /// Object lookup; returns null (by reference to a static) when absent
  /// or when this value is not an object.
  [[nodiscard]] const Json& get(std::string_view key) const;

  /// Typed convenience lookups with defaults, for request decoding.
  [[nodiscard]] bool getBool(std::string_view key, bool dflt) const;
  [[nodiscard]] std::int64_t getInt(std::string_view key,
                                    std::int64_t dflt) const;
  [[nodiscard]] std::string getString(std::string_view key,
                                      std::string_view dflt) const;

  /// Compact deterministic rendering (no whitespace, members in
  /// insertion order, integers in decimal).
  [[nodiscard]] std::string write() const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
  std::shared_ptr<const std::string> raw_;
};

/// Parses one JSON document (surrounding whitespace allowed, trailing
/// garbage rejected). On failure the Fault's message names the byte
/// offset and what was expected.
[[nodiscard]] Expected<Json> parseJson(std::string_view text);

}  // namespace cssame::service
