#include "isex/util/json_writer.hpp"

#include <cmath>

namespace isex::util {

std::size_t utf8_length(std::string_view s, std::size_t i) {
  const auto lead = static_cast<unsigned char>(s[i]);
  const std::size_t n = lead >= 0xF0   ? 4
                        : lead >= 0xE0 ? 3
                        : lead >= 0xC0 ? 2
                                       : 0;
  if (n == 0 || lead > 0xF4 || i + n > s.size()) return 0;
  unsigned cp = lead & (0x7Fu >> n);
  for (std::size_t k = 1; k < n; ++k) {
    const auto c = static_cast<unsigned char>(s[i + k]);
    if ((c & 0xC0u) != 0x80u) return 0;
    cp = (cp << 6) | (c & 0x3Fu);
  }
  constexpr unsigned kMin[] = {0, 0, 0x80, 0x800, 0x10000};
  if (cp < kMin[n] || (cp >= 0xD800 && cp <= 0xDFFF) || cp > 0x10FFFF)
    return 0;
  return n;
}

namespace {

void append_quoted(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (std::size_t i = 0; i < s.size();) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x80) {
      if (const std::size_t n = utf8_length(s, i); n > 0) {
        out.append(s.substr(i, n));
        i += n;
      } else {
        out += "\xEF\xBF\xBD";  // U+FFFD for each byte of a bad sequence
        ++i;
      }
      continue;
    }
    ++i;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xF];
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

}  // namespace

JsonWriter& JsonWriter::key(std::string_view k) {
  if (comma_) out_ += ',';
  comma_ = false;
  append_quoted(out_, k);
  out_ += ':';
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view s) {
  value();
  append_quoted(out_, s);
  return *this;
}

JsonWriter& JsonWriter::number(double v, int decimals) {
  if (!std::isfinite(v)) return null();
  value();
  char buf[64];
  char* const end = buf + sizeof buf;
  std::to_chars_result r{};
  // The range check comes before the cast: a double at or beyond 2^63 has no
  // long long value.
  if (decimals >= 0 && std::abs(v) < 1e15)
    r = std::to_chars(buf, end, v, std::chars_format::fixed, decimals);
  else if (std::abs(v) < 0x1p53 && v == std::trunc(v))
    r = std::to_chars(buf, end, static_cast<long long>(v));
  else
    r = std::to_chars(buf, end, v, std::chars_format::general, 17);
  out_.append(buf, r.ptr);
  return *this;
}

}  // namespace isex::util
