/**
 * @file
 * util/json.hh: parser, serializer, and round-trip behavior the
 * scenario pipeline depends on (canonical key ordering, exact double
 * round-trips, strict trailing-garbage rejection).
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "util/json.hh"
#include "util/rng.hh"

using namespace mcscope;

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parseJson("null")->isNull());
    EXPECT_TRUE(parseJson("true")->asBool());
    EXPECT_FALSE(parseJson("false")->asBool());
    EXPECT_DOUBLE_EQ(parseJson("42")->asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(parseJson("-1.5e3")->asNumber(), -1500.0);
    EXPECT_EQ(parseJson("\"hi\"")->asString(), "hi");
}

TEST(Json, ParsesNested)
{
    auto doc = parseJson(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
    ASSERT_TRUE(doc.has_value());
    const JsonValue *a = doc->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items().size(), 3u);
    EXPECT_DOUBLE_EQ(a->items()[0].asNumber(), 1.0);
    ASSERT_NE(a->items()[2].find("b"), nullptr);
    EXPECT_EQ(a->items()[2].find("b")->asString(), "c");
    EXPECT_TRUE(doc->find("d")->isObject());
    EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(Json, StringEscapes)
{
    auto doc = parseJson(R"("a\"b\\c\n\tA")");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->asString(), "a\"b\\c\n\tA");

    // Serialization escapes what JSON requires and round-trips.
    JsonValue v = JsonValue::str("x\"\\\n\x01y");
    auto back = parseJson(v.dump());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->asString(), "x\"\\\n\x01y");
}

TEST(Json, RejectsMalformed)
{
    std::string err;
    EXPECT_FALSE(parseJson("", &err).has_value());
    EXPECT_FALSE(parseJson("{", &err).has_value());
    EXPECT_FALSE(parseJson("[1,]", &err).has_value());
    EXPECT_FALSE(parseJson("{\"a\" 1}", &err).has_value());
    EXPECT_FALSE(parseJson("nul", &err).has_value());
    EXPECT_FALSE(parseJson("\"unterminated", &err).has_value());
    EXPECT_FALSE(err.empty());
}

TEST(Json, RejectsOutOfRangeNumbers)
{
    // strtod turns "1e999" into HUGE_VAL and only reports it via
    // errno; without the check the infinity flowed straight into
    // result digests.  Overflow is rejected...
    std::string err;
    EXPECT_FALSE(parseJson("1e999", &err).has_value());
    EXPECT_NE(err.find("out of double range"), std::string::npos)
        << err;
    EXPECT_FALSE(parseJson("-1e999").has_value());
    EXPECT_FALSE(parseJson("1e309").has_value());
    EXPECT_FALSE(parseJson("{\"seconds\": 2e308}").has_value());

    // ...but gradual underflow is not an error: "1e-999" reads as a
    // (de)normalized ~0, which is a representable, honest value.
    auto tiny = parseJson("1e-999");
    ASSERT_TRUE(tiny.has_value());
    EXPECT_EQ(tiny->asNumber(), 0.0);
    auto large = parseJson("1e308");
    ASSERT_TRUE(large.has_value());
    EXPECT_DOUBLE_EQ(large->asNumber(), 1e308);
}

TEST(Json, RejectsTrailingGarbage)
{
    // A truncated-then-concatenated cache file must not parse.
    EXPECT_FALSE(parseJson("{} {}").has_value());
    EXPECT_FALSE(parseJson("1 2").has_value());
    EXPECT_TRUE(parseJson("  {}  ").has_value());
}

TEST(Json, RejectsRunawayDepth)
{
    std::string deep(1000, '[');
    deep += std::string(1000, ']');
    EXPECT_FALSE(parseJson(deep).has_value());
}

TEST(Json, DoublesRoundTripExactly)
{
    // The result cache stores simulated seconds as JSON numbers; a
    // cache hit must reproduce them bit-for-bit.
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        double v = rng.uniform(-1e6, 1e6) *
                   std::pow(10.0, static_cast<double>(rng.below(13)) - 6);
        auto parsed = parseJson(JsonValue::number(v).dump());
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->asNumber(), v) << "value " << v;
    }
}

namespace {

uint64_t
bitsOf(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** strtod's bits for a whole token (which must be consumed whole). */
uint64_t
strtodBits(const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    EXPECT_EQ(end, text.c_str() + text.size()) << text;
    return bitsOf(v);
}

} // namespace

TEST(Json, NumbersMatchStrtodBitForBit)
{
    // Numbers are read with from_chars and, for tokens it does not
    // take whole, strtod: either way a value must parse to exactly
    // the bits strtod gives it.  Random bit patterns cover every
    // exponent, subnormals included; each is printed as the
    // serializer prints it and as "%.17g".
    Rng rng(2006);
    for (int i = 0; i < 20000; ++i) {
        uint64_t raw = rng.next();
        if (i % 8 == 0)
            raw &= 0x800fffffffffffffULL; // subnormal or zero
        double v = 0.0;
        std::memcpy(&v, &raw, sizeof(v));
        if (!std::isfinite(v))
            continue;
        char g17[64];
        std::snprintf(g17, sizeof(g17), "%.17g", v);
        for (const std::string &text :
             {JsonValue::number(v).dump(), std::string(g17)}) {
            auto parsed = parseJson(text);
            ASSERT_TRUE(parsed.has_value()) << text;
            EXPECT_EQ(bitsOf(parsed->asNumber()), strtodBits(text))
                << text;
        }
    }

    // Edge tokens keep their historical acceptance and value.
    for (const char *text : {"+1", "1.", ".5", "-0", "1e-400"}) {
        auto parsed = parseJson(text);
        ASSERT_TRUE(parsed.has_value()) << text;
        EXPECT_EQ(bitsOf(parsed->asNumber()), strtodBits(text)) << text;
    }
    EXPECT_EQ(parseJson("+1")->asNumber(), 1.0);
    EXPECT_EQ(parseJson("1.")->asNumber(), 1.0);
    EXPECT_EQ(parseJson(".5")->asNumber(), 0.5);
    EXPECT_TRUE(std::signbit(parseJson("-0")->asNumber()));
    EXPECT_EQ(parseJson("1e-400")->asNumber(), 0.0);
    EXPECT_FALSE(parseJson("1e400").has_value());
    EXPECT_FALSE(parseJson("0x10").has_value());
    EXPECT_FALSE(parseJson("[0x10]").has_value());
    EXPECT_FALSE(parseJson("1e").has_value());
    EXPECT_FALSE(parseJson("--1").has_value());
}

// The historical number serialization: "%.0f" for integral values,
// otherwise the first precision in 9..17 whose "%.*g" output reparses
// to the same bits.  Scenario digests hash the serialized text, so
// the production formatter (now a single to_chars-bounded snprintf)
// must stay byte-identical to this forever.
static std::string
referenceNumberText(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    for (int prec = 9; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        // Round-trip check against our own snprintf output.
        // MCSCOPE_LINT_ALLOW(PARSE-1)
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

TEST(Json, NumberTextMatchesHistoricalFormatting)
{
    // Directed values that straddle every branch: integral, -0.0,
    // short decimals, full-precision ties, subnormals, and the 1e15
    // integral cutoff.
    const double directed[] = {0.0,     -0.0,    1.0,     -5.0,
                               1e15,    -1e15,   9.99e14, 0.1,
                               1.0 / 3, 1.2e-7,  2.66e9,  1e300,
                               5e-324,  1e-308,  0.3,     1024.5,
                               1e15 + 2.0,       123456.789};
    for (double v : directed)
        EXPECT_EQ(JsonValue::number(v).dump(), referenceNumberText(v))
            << "value " << v;

    // Fuzz with random bit patterns (finite ones) and random decimal
    // magnitudes; any divergence here silently moves every scenario
    // digest, so this is load-bearing, not belt-and-braces.
    Rng rng(0x5eedf00dULL);
    for (int i = 0; i < 20000; ++i) {
        uint64_t bits = rng.next();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        if (!std::isfinite(v))
            continue;
        ASSERT_EQ(JsonValue::number(v).dump(), referenceNumberText(v))
            << "bits " << bits;
    }
    for (int i = 0; i < 20000; ++i) {
        double v = rng.uniform(-1e6, 1e6) *
                   std::pow(10.0, static_cast<double>(rng.below(25)) - 12);
        ASSERT_EQ(JsonValue::number(v).dump(), referenceNumberText(v))
            << "value " << v;
    }
}

TEST(Json, SortedKeysAreCanonical)
{
    JsonValue a = JsonValue::object();
    a.set("z", JsonValue::number(1));
    a.set("a", JsonValue::number(2));
    JsonValue b = JsonValue::object();
    b.set("a", JsonValue::number(2));
    b.set("z", JsonValue::number(1));
    // Insertion order differs...
    EXPECT_NE(a.dump(), b.dump());
    // ...but the canonical form does not.
    EXPECT_EQ(a.dump(-1, true), b.dump(-1, true));
}

TEST(Json, SetReplacesExistingKey)
{
    JsonValue o = JsonValue::object();
    o.set("k", JsonValue::number(1));
    o.set("k", JsonValue::number(2));
    ASSERT_EQ(o.members().size(), 1u);
    EXPECT_DOUBLE_EQ(o.find("k")->asNumber(), 2.0);
}

TEST(Json, DuplicateKeysKeepFirstPositionLastValue)
{
    // Short objects (scanned) and wide ones (sorted) merge alike.
    for (int width : {3, 40}) {
        std::string text = "{";
        for (int k = 0; k < width; ++k)
            text += "\"k" + std::to_string(k) + "\":" + std::to_string(k) + ",";
        text += "\"k1\":100,\"k0\":200,\"k1\":300}";
        std::optional<JsonValue> doc = parseJson(text);
        ASSERT_TRUE(doc.has_value()) << width;
        const auto &members = doc->members();
        ASSERT_EQ(members.size(), static_cast<size_t>(width)) << width;
        EXPECT_EQ(members[0].first, "k0");
        EXPECT_DOUBLE_EQ(members[0].second.asNumber(), 200.0);
        EXPECT_EQ(members[1].first, "k1");
        EXPECT_DOUBLE_EQ(members[1].second.asNumber(), 300.0);
        EXPECT_EQ(members[2].first, "k2");
        EXPECT_DOUBLE_EQ(members[2].second.asNumber(), 2.0);
        EXPECT_EQ(members.back().first, "k" + std::to_string(width - 1));
    }
}

TEST(Json, WideObjectParsesInNearLinearTime)
{
    // A hostile peer's frame may hold hundreds of thousands of keys;
    // parsing must not be quadratic in their count.  The bound is
    // generous enough for sanitizer builds; a quadratic parse makes
    // some 2*10^10 key comparisons here.
    const int width = 200000;
    std::string text = "{";
    for (int k = 0; k < width; ++k) {
        text += (k ? ",\"k" : "\"k") + std::to_string(k) + "\":" +
                std::to_string(k);
    }
    text += "}";
    const auto start = std::chrono::steady_clock::now();
    std::optional<JsonValue> doc = parseJson(text);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->members().size(), static_cast<size_t>(width));
    EXPECT_LT(seconds, 10.0);
}
