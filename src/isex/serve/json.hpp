// isex::serve — strict, resource-bounded JSON parsing for the request
// protocol.
//
// The daemon's first line of defense: every byte stream a client sends is
// decoded by this parser before anything else looks at it. The contract is
// absolute — json_parse never throws, never crashes, never recurses deeper
// than JsonLimits::max_depth, never materializes more than max_values values
// or a string longer than max_string_bytes, and rejects everything that is
// not a single well-formed RFC 8259 value with a one-line error naming the
// byte offset. Malformed input is the *expected* case for a server, so the
// error path is a value, not an exception.
//
// Writing JSON is util::JsonWriter's job. The parser is the writer's test
// oracle (every document the program emits must parse back here) and shares
// only util::utf8_length with it, the one rule for well-formed UTF-8; the
// writer's tests pin its replacement bytes literally, so the shared rule is
// checked on its own.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace isex::serve {

/// Hard resource ceilings enforced during parsing (each one is a defense
/// against a hostile request: deep nesting -> stack exhaustion, huge arrays
/// -> memory exhaustion, long strings -> memory exhaustion).
struct JsonLimits {
  int max_depth = 64;                       // nesting of arrays/objects
  long max_values = 1 << 16;                // total parsed values
  std::size_t max_string_bytes = 1 << 16;   // per decoded string
};

/// Immutable parsed JSON value. Object members keep source order; lookup is
/// linear (requests are small — the limits above guarantee it).
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }
  const std::vector<Json>& items() const { return arr_; }
  const std::vector<std::pair<std::string, Json>>& members() const {
    return obj_;
  }

  /// Object member by key, or nullptr (also nullptr on non-objects). With
  /// duplicate keys the last occurrence wins, matching common decoders.
  const Json* find(std::string_view key) const;

  static Json make_null() { return Json(); }
  static Json make_bool(bool b);
  static Json make_number(double v);
  static Json make_string(std::string s);
  static Json make_array(std::vector<Json> items);
  static Json make_object(std::vector<std::pair<std::string, Json>> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

struct JsonParseResult {
  Json value;
  std::string error;  // empty iff parse succeeded; includes the byte offset
  bool ok() const { return error.empty(); }
};

/// Parses exactly one JSON value spanning all of `text` (trailing whitespace
/// allowed, trailing garbage rejected). Strict grammar: no NaN/Infinity, no
/// comments, no unquoted keys, no control characters inside strings,
/// surrogate pairs validated. Numbers that overflow double are rejected.
JsonParseResult json_parse(std::string_view text, const JsonLimits& limits = {});

/// `s` as a quoted JSON string (util::JsonWriter::string). Kept for the
/// end-to-end benchmark's trace replay, which renders its op list with it.
std::string json_quote(std::string_view s);

}  // namespace isex::serve
