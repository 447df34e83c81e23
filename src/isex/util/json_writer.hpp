// isex::util — the one JSON writer. Every JSON document the program emits
// (serve responses, stats/introspect, report files, traces, BENCH_*.json)
// is built through it, so there is one string escaper, one number format
// and one separator rule. The layout is compact: no whitespace at all.
//
//   util::JsonWriter w;
//   w.begin_object().key("n").integer(3).key("xs").begin_array();
//   for (double x : xs) w.number(x);
//   w.end_array().end_object();
//   send(w.str());                       // {"n":3,"xs":[0.5,2]}
//
// The writer places commas and colons; callers only say what comes next.
// It does not check that begin/end calls pair up or that object members get
// keys — serve::json_parse, a separate implementation, is its test oracle.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

namespace isex::util {

/// Byte length of the well-formed UTF-8 sequence at s[i] (lead byte >= 0x80),
/// or 0 for a truncated sequence, stray continuation byte, overlong form,
/// surrogate or code point above U+10FFFF. The writer's escaper and
/// serve::json_parse both judge bytes by this one rule.
std::size_t utf8_length(std::string_view s, std::size_t i);

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// An object member's key; the next call writes its value.
  JsonWriter& key(std::string_view k);

  /// A quoted string. Quotes, backslashes and control bytes are escaped, and
  /// bytes that are not well-formed UTF-8 become U+FFFD, so the output always
  /// parses under a strict decoder whatever bytes the caller holds (request
  /// ids, file names, messages).
  JsonWriter& string(std::string_view s);

  /// A double. Integral values below 2^53 print without a fraction, others
  /// round-trip exactly ("%.17g"); with decimals >= 0 a value below 1e15
  /// prints with that many digits after the point ("%.3f" for decimals 3),
  /// the format of measured durations. NaN and infinities become null.
  JsonWriter& number(double v, int decimals = -1);

  template <std::integral T>
  JsonWriter& integer(T v) {
    value();
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }

  JsonWriter& boolean(bool b) { return raw(b ? "true" : "false"); }
  JsonWriter& null() { return raw("null"); }

  /// An already-rendered JSON value (a cached result object, a report made
  /// by another tool), copied verbatim.
  JsonWriter& raw(std::string_view json) {
    value();
    out_ += json;
    return *this;
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }
  /// Drops the text written so far but keeps the separator state, so a long
  /// document can be streamed out in pieces.
  void clear_text() { out_.clear(); }

 private:
  void value() {
    if (comma_) out_ += ',';
    comma_ = true;
  }
  JsonWriter& open(char c) {
    value();
    out_ += c;
    comma_ = false;
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    comma_ = true;
    return *this;
  }

  std::string out_;
  bool comma_ = false;  // the next value or key needs a ',' first
};

}  // namespace isex::util
