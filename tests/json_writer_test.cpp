// util::JsonWriter against its oracle: every document it writes must parse
// back under serve::json_parse (a separate implementation) to the values
// that went in. Covers separators and nesting, empty containers, every
// control byte, U+FFFD substitution for bytes that are not UTF-8, and the
// number format (round-trip exact, null for non-finite, the same bytes the
// serve renderers have always written).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "isex/serve/json.hpp"
#include "isex/util/json_writer.hpp"
#include "isex/util/rng.hpp"

namespace isex::util {
namespace {

serve::Json parse_ok(const std::string& doc) {
  const serve::JsonParseResult r = serve::json_parse(doc);
  EXPECT_TRUE(r.ok()) << r.error << " in " << doc;
  return r.value;
}

std::string str(std::string_view s) { return JsonWriter().string(s).take(); }
std::string num(double v, int decimals = -1) {
  return JsonWriter().number(v, decimals).take();
}

/// The number format the serve wire has always used: integral values below
/// 2^53 without a fraction, everything else "%.17g", non-finite as null.
std::string reference_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  if (std::abs(v) < 9007199254740992.0 && v == std::trunc(v))
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  else
    std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

TEST(JsonWriter, NestingAndSeparators) {
  JsonWriter w;
  w.begin_object().key("a").integer(1).key("b").begin_array();
  w.integer(1).string("x").begin_object().key("c").null().end_object();
  w.begin_array().boolean(true).boolean(false).end_array().end_array();
  w.key("d").begin_object().key("e").begin_object().end_object();
  w.key("f").begin_array().end_array().end_object();
  w.key("g").raw("{\"h\":[1,2]}").end_object();
  EXPECT_EQ(w.str(),
            "{\"a\":1,\"b\":[1,\"x\",{\"c\":null},[true,false]],"
            "\"d\":{\"e\":{},\"f\":[]},\"g\":{\"h\":[1,2]}}");
  const serve::Json v = parse_ok(w.str());
  ASSERT_EQ(v.members().size(), 4u);
  EXPECT_EQ(v.find("b")->items().size(), 4u);
  EXPECT_TRUE(v.find("d")->find("e")->members().empty());
  EXPECT_EQ(v.find("g")->find("h")->items()[1].as_number(), 2);
}

TEST(JsonWriter, EmptyContainersAndScalars) {
  EXPECT_EQ(JsonWriter().begin_object().end_object().take(), "{}");
  EXPECT_EQ(JsonWriter().begin_array().end_array().take(), "[]");
  JsonWriter w;
  w.begin_array().begin_array().end_array().begin_object().end_object();
  w.begin_array().begin_array().end_array().end_array().end_array();
  EXPECT_EQ(w.str(), "[[],{},[[]]]");
  parse_ok(w.str());
  EXPECT_EQ(JsonWriter().null().take(), "null");
  EXPECT_EQ(JsonWriter().boolean(true).take(), "true");
  EXPECT_EQ(str(""), "\"\"");
}

TEST(JsonWriter, EscapesEveryControlByte) {
  std::string all;
  for (int c = 0; c < 0x20; ++c) all += static_cast<char>(c);
  const std::string out = str(all);
  for (int c = 0; c < 0x20; ++c) {
    std::string one(1, static_cast<char>(c));
    std::string expect;
    switch (c) {
      case '\b': expect = "\\b"; break;
      case '\f': expect = "\\f"; break;
      case '\n': expect = "\\n"; break;
      case '\r': expect = "\\r"; break;
      case '\t': expect = "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        expect = buf;
      }
    }
    EXPECT_EQ(str(one), "\"" + expect + "\"") << "byte " << c;
  }
  EXPECT_EQ(parse_ok(out).as_string(), all);
  EXPECT_EQ(str("q\"b\\s/d\x7f"), "\"q\\\"b\\\\s/d\x7f\"");
  EXPECT_EQ(parse_ok(str("q\"b\\s/d\x7f")).as_string(), "q\"b\\s/d\x7f");
}

TEST(JsonWriter, KeysAreEscapedLikeStrings) {
  JsonWriter w;
  w.begin_object().key("a\"\n\xff").integer(1).end_object();
  EXPECT_EQ(w.str(), "{\"a\\\"\\n\xEF\xBF\xBD\":1}");
  EXPECT_EQ(parse_ok(w.str()).members()[0].first, "a\"\n\xEF\xBF\xBD");
}

TEST(JsonWriter, InvalidUtf8BecomesReplacementCharacters) {
  const std::string fffd = "\xEF\xBF\xBD";
  struct Case {
    std::string in, out;
  };
  const Case cases[] = {
      {"\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\xf4\x8f\xbf\xbf",  // kept
       "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\xf4\x8f\xbf\xbf"},
      {"\x80", fffd},                               // stray continuation
      {"\xc0\x80", fffd + fffd},                    // overlong NUL
      {"\xe0\x80\x80", fffd + fffd + fffd},         // overlong 3-byte
      {"\xed\xa0\x80", fffd + fffd + fffd},         // surrogate
      {"\xf4\x90\x80\x80", fffd + fffd + fffd + fffd},  // above U+10FFFF
      {"\xf5", fffd},
      {"a\xe2\x82", "a" + fffd + fffd},             // truncated at the end
      {"\xe2\x82z", fffd + fffd + "z"},             // truncated mid-string
  };
  for (const Case& c : cases) {
    EXPECT_EQ(str(c.in), "\"" + c.out + "\"");
    EXPECT_EQ(parse_ok(str(c.in)).as_string(), c.out);
  }
}

TEST(JsonWriter, RandomBytesAlwaysParseBack) {
  Rng rng(2007);
  for (int i = 0; i < 3000; ++i) {
    std::string s;
    const int len = rng.uniform_int(0, 40);
    for (int k = 0; k < len; ++k)
      s += static_cast<char>(rng.uniform_int(0, 255));
    JsonWriter w;
    w.begin_object().key(s).string(s).end_object();
    const serve::Json v = parse_ok(w.str());
    ASSERT_EQ(v.members().size(), 1u);
    EXPECT_EQ(v.members()[0].first, v.members()[0].second.as_string());
    // Printable ASCII survives byte for byte.
    bool ascii = true;
    for (const char c : s) ascii &= c >= 0x20 && c < 0x7f;
    if (ascii) {
      EXPECT_EQ(v.members()[0].second.as_string(), s);
    }
  }
}

TEST(JsonWriter, NumberEdgeCases) {
  const double two53 = 9007199254740992.0;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(num(std::nan("")), "null");
  EXPECT_EQ(num(inf), "null");
  EXPECT_EQ(num(-inf), "null");
  EXPECT_EQ(num(-0.0), "0");
  EXPECT_EQ(num(two53 - 1), "9007199254740991");
  EXPECT_EQ(num(two53), "9007199254740992");
  EXPECT_EQ(num(two53 + 1), "9007199254740992");  // not representable
  EXPECT_EQ(num(two53 + 2), "9007199254740994");
  EXPECT_EQ(num(1e300), "1.0000000000000001e+300");
  EXPECT_EQ(num(-1e300), "-1.0000000000000001e+300");
  EXPECT_EQ(num(9223372036854775808.0), "9.2233720368547758e+18");
  EXPECT_EQ(num(-9223372036854775808.0), "-9.2233720368547758e+18");
  EXPECT_EQ(num(std::numeric_limits<double>::denorm_min()),
            "4.9406564584124654e-324");
  EXPECT_EQ(num(0.1), "0.10000000000000001");
  EXPECT_EQ(num(3), "3");
  EXPECT_EQ(num(-0.5), "-0.5");
  for (const double v : {1e300, -1e300, 9223372036854775808.0, two53 + 2,
                         std::numeric_limits<double>::denorm_min(), 0.1,
                         -123.456, std::numeric_limits<double>::max()})
    EXPECT_EQ(parse_ok(num(v)).as_number(), v) << num(v);
  // Measured durations: fixed decimals, like printf's "%.3f" / "%f".
  EXPECT_EQ(num(1.5, 3), "1.500");
  EXPECT_EQ(num(0.0004, 3), "0.000");
  EXPECT_EQ(num(2.0, 6), "2.000000");
  EXPECT_EQ(num(inf, 3), "null");
}

TEST(JsonWriter, NumbersMatchTheWireFormatAndRoundTrip) {
  Rng rng(53);
  for (int i = 0; i < 20000; ++i) {
    double v;
    switch (i % 4) {
      case 0: {  // any bit pattern
        const std::uint64_t bits = rng.engine()();
        std::memcpy(&v, &bits, sizeof v);
        break;
      }
      case 1: v = rng.uniform_int(-1000000, 1000000); break;
      case 2: v = rng.uniform_int(-1000000, 1000000) / 1000.0; break;
      default:
        v = std::ldexp(rng.uniform_real(0.5, 1.0), rng.uniform_int(-60, 80));
    }
    const std::string s = num(v);
    ASSERT_EQ(s, reference_number(v)) << v;
    if (std::isfinite(v)) {
      ASSERT_EQ(parse_ok(s).as_number(), v) << s;
    }
    if (std::isfinite(v) && std::abs(v) < 1e9) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.3f", v);
      ASSERT_EQ(num(v, 3), buf);
    }
  }
}

TEST(JsonWriter, IntegersOfEveryWidth) {
  JsonWriter w;
  w.begin_array().integer(std::numeric_limits<std::int64_t>::min());
  w.integer(std::numeric_limits<std::uint64_t>::max()).integer(-7);
  w.integer(std::size_t{42}).end_array();
  EXPECT_EQ(w.str(),
            "[-9223372036854775808,18446744073709551615,-7,42]");
  parse_ok(w.str());
}

TEST(JsonWriter, StreamedPiecesFormOneDocument) {
  JsonWriter w;
  std::string out;
  w.begin_array();
  for (int i = 0; i < 5; ++i) {
    w.integer(i);
    out += w.str();
    w.clear_text();
  }
  w.end_array();
  out += w.str();
  EXPECT_EQ(out, "[0,1,2,3,4]");
}

}  // namespace
}  // namespace isex::util
