/**
 * @file
 * Minimal JSON document model: parse, build, and serialize.
 *
 * mcscope emits JSON in several places (telemetry dumps, Chrome
 * traces) but until the scenario pipeline it never had to *read* any.
 * Batch spec files and the on-disk result cache both need a
 * round-trippable document model, so this module provides one small
 * enough to audit: a tagged-union JsonValue, a recursive-descent
 * parser with a depth limit, and a serializer whose object-key
 * ordering is caller-controlled (insertion order, or sorted for
 * canonical output -- see JsonValue::dump).
 *
 * Scope intentionally excluded: \u surrogate pairs are decoded to
 * UTF-8 but never re-encoded (the serializer escapes only what JSON
 * requires), and numbers round-trip through double (fine for specs
 * and cache records; do not store 64-bit identifiers as numbers --
 * store them as strings, as the result cache does with digests).
 */

#ifndef MCSCOPE_UTIL_JSON_HH
#define MCSCOPE_UTIL_JSON_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcscope {

/** One JSON value; objects preserve insertion order. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /** Default-constructed value is null. */
    JsonValue() = default;

    static JsonValue null() { return JsonValue(); }
    static JsonValue boolean(bool b);
    static JsonValue number(double v);
    static JsonValue str(std::string s);
    static JsonValue array();
    static JsonValue object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Value accessors; MCSCOPE_PANIC on kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /** Array elements (panics unless isArray). */
    const std::vector<JsonValue> &items() const;
    void append(JsonValue v);

    /** Object members in insertion order (panics unless isObject). */
    const std::vector<std::pair<std::string, JsonValue>> &members() const;

    /** Set (or replace) an object key. */
    void set(std::string key, JsonValue v);

    /** Lookup an object key; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /**
     * Serialize.  indent < 0 gives a single line; indent >= 0 pretty-
     * prints with that many spaces per level.  When `sort_keys` is
     * true, object members are emitted in lexicographic key order --
     * the canonical form the scenario digest hashes, so two specs that
     * differ only in key order serialize identically.
     */
    std::string dump(int indent = -1, bool sort_keys = false) const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Parse a JSON document.  Returns nullopt on malformed input and, when
 * `error` is non-null, stores a one-line description with the byte
 * offset of the failure.  Trailing non-whitespace after the document
 * is an error (a truncated or concatenated cache record must not parse).
 */
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string *error = nullptr);

/**
 * A JSON number as integer type T, its fraction truncated as by
 * static_cast.  nullopt when `v` is not a number or is outside T's
 * range (NaN included): casting such a double is undefined
 * behaviour, so every parsed number that becomes an integer goes
 * through here.
 */
template <typename T>
std::optional<T>
jsonInteger(const JsonValue &v)
{
    static_assert(std::numeric_limits<T>::is_integer);
    if (!v.isNumber())
        return std::nullopt;
    const double x = v.asNumber();
    // [min, 2^digits) holds every double whose cast is defined (both
    // bounds are exact doubles); NaN fails both tests.
    if (!(x >= static_cast<double>(std::numeric_limits<T>::min()) &&
          x < std::ldexp(1.0, std::numeric_limits<T>::digits)))
        return std::nullopt;
    return static_cast<T>(x);
}

/** Escape a string for embedding in JSON (no surrounding quotes). */
std::string jsonEscapeString(const std::string &s);

} // namespace mcscope

#endif // MCSCOPE_UTIL_JSON_HH
