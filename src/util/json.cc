#include "util/json.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "util/logging.hh"

namespace mcscope {

JsonValue
JsonValue::boolean(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::number(double n)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.num_ = n;
    return v;
}

JsonValue
JsonValue::str(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.str_ = std::move(s);
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
}

JsonValue
JsonValue::object(std::vector<std::pair<std::string, JsonValue>> m)
{
    // Group equal keys by sorting positions on (key, position), so a
    // wide, maybe hostile object costs O(n log n).  Each group's first
    // member takes the group's last value; the others are dropped.
    std::vector<size_t> order(m.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&m](size_t a, size_t b) {
        const int c = m[a].first.compare(m[b].first);
        return c < 0 || (c == 0 && a < b);
    });
    std::vector<bool> dropped(m.size(), false);
    for (size_t k = 1, head = 0; k < order.size(); ++k) {
        const size_t i = order[k];
        if (m[i].first != m[order[head]].first) {
            head = k;
            continue;
        }
        m[order[head]].second = std::move(m[i].second);
        dropped[i] = true;
    }
    size_t kept = 0;
    for (size_t i = 0; i < m.size(); ++i) {
        if (dropped[i])
            continue;
        if (kept != i)
            m[kept] = std::move(m[i]);
        ++kept;
    }
    m.erase(m.begin() + static_cast<std::ptrdiff_t>(kept), m.end());
    JsonValue v = object();
    v.members_ = std::move(m);
    return v;
}

bool
JsonValue::asBool() const
{
    MCSCOPE_ASSERT(kind_ == Kind::Bool, "JSON value is not a bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    MCSCOPE_ASSERT(kind_ == Kind::Number, "JSON value is not a number");
    return num_;
}

const std::string &
JsonValue::asString() const
{
    MCSCOPE_ASSERT(kind_ == Kind::String, "JSON value is not a string");
    return str_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    MCSCOPE_ASSERT(kind_ == Kind::Array, "JSON value is not an array");
    return items_;
}

void
JsonValue::append(JsonValue v)
{
    MCSCOPE_ASSERT(kind_ == Kind::Array, "JSON value is not an array");
    items_.push_back(std::move(v));
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    MCSCOPE_ASSERT(kind_ == Kind::Object, "JSON value is not an object");
    return members_;
}

void
JsonValue::set(std::string key, JsonValue v)
{
    MCSCOPE_ASSERT(kind_ == Kind::Object, "JSON value is not an object");
    for (auto &[k, existing] : members_) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    members_.emplace_back(std::move(key), std::move(v));
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::string
jsonEscapeString(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

namespace {

/**
 * Shortest decimal form that round-trips the double: integral values
 * print without an exponent or trailing ".0" noise, everything else
 * uses %.17g trimmed through a re-parse check.
 */
std::string
numberToString(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no Inf/NaN; null is the convention
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        // Integral values fit int64 exactly below 1e15; to_chars on
        // the integer emits the same digits as "%.0f" at a fraction
        // of the cost.  (-0.0 still needs the sign printf gives it.)
        if (v == 0.0)
            return std::signbit(v) ? "-0" : "0";
        char buf[32];
        auto res = std::to_chars(buf, buf + sizeof(buf),
                                 static_cast<long long>(v));
        return std::string(buf, res.ptr);
    }
    // std::to_chars yields the shortest round-tripping digit string;
    // its length bounds the "%.*g" precision that first round-trips,
    // so one verified snprintf replaces the old 9..17 trial loop.
    // The output stays byte-identical: "%.*g" is correctly rounded
    // and strips trailing zeros, so any precision >= the shortest
    // digit count prints the same text.
    {
        char digits[64];
        auto res = std::to_chars(digits, digits + sizeof(digits), v,
                                 std::chars_format::scientific);
        int shortest = 0;
        for (char *p = digits; p != res.ptr && *p != 'e'; ++p)
            if (*p >= '0' && *p <= '9')
                ++shortest;
        char buf[64];
        int prec = std::clamp(shortest, 9, 17);
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        // The input is our own snprintf output and the == round-trip
        // comparison is the check. MCSCOPE_LINT_ALLOW(PARSE-1)
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    // Cold fallback: the historical trial loop, kept as the authority
    // on output shape in case the bound above ever misses.
    for (int prec = 9; prec <= 17; ++prec) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        // MCSCOPE_LINT_ALLOW(PARSE-1)
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
dumpValue(const JsonValue &v, std::string &out, int indent, int depth,
          bool sort_keys)
{
    auto newline = [&](int d) {
        if (indent < 0)
            return;
        out.push_back('\n');
        out.append(static_cast<size_t>(indent) * d, ' ');
    };
    switch (v.kind()) {
      case JsonValue::Kind::Null:
        out += "null";
        break;
      case JsonValue::Kind::Bool:
        out += v.asBool() ? "true" : "false";
        break;
      case JsonValue::Kind::Number:
        out += numberToString(v.asNumber());
        break;
      case JsonValue::Kind::String:
        out.push_back('"');
        out += jsonEscapeString(v.asString());
        out.push_back('"');
        break;
      case JsonValue::Kind::Array: {
        const auto &items = v.items();
        if (items.empty()) {
            out += "[]";
            break;
        }
        out.push_back('[');
        for (size_t i = 0; i < items.size(); ++i) {
            if (i)
                out.push_back(',');
            newline(depth + 1);
            dumpValue(items[i], out, indent, depth + 1, sort_keys);
        }
        newline(depth);
        out.push_back(']');
        break;
      }
      case JsonValue::Kind::Object: {
        const auto &members = v.members();
        if (members.empty()) {
            out += "{}";
            break;
        }
        std::vector<size_t> order(members.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        if (sort_keys) {
            std::sort(order.begin(), order.end(),
                      [&](size_t a, size_t b) {
                          return members[a].first < members[b].first;
                      });
        }
        out.push_back('{');
        for (size_t i = 0; i < order.size(); ++i) {
            if (i)
                out.push_back(',');
            newline(depth + 1);
            const auto &[key, val] = members[order[i]];
            out.push_back('"');
            out += jsonEscapeString(key);
            out += indent < 0 ? "\":" : "\": ";
            dumpValue(val, out, indent, depth + 1, sort_keys);
        }
        newline(depth);
        out.push_back('}');
        break;
      }
    }
}

/** Recursive-descent JSON parser over a string; tracks a byte cursor. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    std::optional<JsonValue>
    parse(std::string *error)
    {
        std::optional<JsonValue> v = parseValue(0);
        if (v) {
            skipWs();
            if (pos_ != text_.size())
                fail("trailing characters after document");
        }
        if (!error_.empty()) {
            if (error)
                *error = error_ + " at byte " + std::to_string(errorPos_);
            return std::nullopt;
        }
        return v;
    }

  private:
    static constexpr int kMaxDepth = 64;

    void
    fail(const std::string &msg)
    {
        if (error_.empty()) {
            error_ = msg;
            errorPos_ = pos_;
        }
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.compare(pos_, word.size(), word) == 0) {
            pos_ += word.size();
            return true;
        }
        return false;
    }

    std::optional<JsonValue>
    parseValue(int depth)
    {
        if (depth > kMaxDepth) {
            fail("nesting too deep");
            return std::nullopt;
        }
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return std::nullopt;
        }
        char c = text_[pos_];
        if (c == '{')
            return parseObject(depth);
        if (c == '[')
            return parseArray(depth);
        if (c == '"') {
            std::optional<std::string> s = parseString();
            if (!s)
                return std::nullopt;
            return JsonValue::str(std::move(*s));
        }
        if (literal("true"))
            return JsonValue::boolean(true);
        if (literal("false"))
            return JsonValue::boolean(false);
        if (literal("null"))
            return JsonValue::null();
        return parseNumber();
    }

    std::optional<JsonValue>
    parseNumber()
    {
        const size_t start = pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (!(c >= '0' && c <= '9') && c != '.' && c != 'e' &&
                c != 'E' && c != '+' && c != '-')
                break;
            ++pos_;
        }
        if (pos_ == start) {
            fail("expected a value");
            return std::nullopt;
        }
        // from_chars reads the token in place and rounds correctly,
        // as strtod does.  A token it does not take whole or reports
        // out of range ("+1", "1e-999", "1e999", "1e") goes through
        // strtod, which stays the authority on what is accepted.
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        double v = 0.0;
        const std::from_chars_result res = std::from_chars(first, last, v);
        if (res.ec == std::errc() && res.ptr == last)
            return JsonValue::number(v);
        const std::string token(first, last);
        errno = 0;
        char *end = nullptr;
        v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
            pos_ = start;
            fail("malformed number '" + token + "'");
            return std::nullopt;
        }
        // Overflow check: strtod("1e999") "succeeds" with HUGE_VAL
        // and ERANGE, and an infinity here would flow straight into
        // result digests and the max-min solver.  Underflow (ERANGE
        // with a denormal-or-zero result, e.g. "1e-999") stays
        // accepted -- rounding tiny literals toward zero is what
        // every producer of our JSON expects.
        if (errno == ERANGE && !std::isfinite(v)) {
            pos_ = start;
            fail("number '" + token + "' is out of double range");
            return std::nullopt;
        }
        return JsonValue::number(v);
    }

    std::optional<std::string>
    parseString()
    {
        if (!consume('"')) {
            fail("expected '\"'");
            return std::nullopt;
        }
        std::string out;
        while (pos_ < text_.size()) {
            // Copy the run up to the next quote, backslash or control
            // character in one append.
            size_t run = pos_;
            while (run < text_.size() && text_[run] != '"' &&
                   text_[run] != '\\' &&
                   static_cast<unsigned char>(text_[run]) >= 0x20)
                ++run;
            out.append(text_.data() + pos_, run - pos_);
            pos_ = run;
            if (pos_ >= text_.size())
                break;
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20) {
                --pos_;
                fail("unescaped control character in string");
                return std::nullopt;
            }
            if (pos_ >= text_.size())
                break;
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return std::nullopt;
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else {
                        fail("bad hex digit in \\u escape");
                        return std::nullopt;
                    }
                }
                // Encode the code point as UTF-8 (surrogate halves
                // are passed through as-is; specs and cache records
                // never contain them).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(static_cast<char>(0xc0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                } else {
                    out.push_back(static_cast<char>(0xe0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3f)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                }
                break;
              }
              default:
                fail(std::string("bad escape '\\") + esc + "'");
                return std::nullopt;
            }
        }
        fail("unterminated string");
        return std::nullopt;
    }

    std::optional<JsonValue>
    parseArray(int depth)
    {
        consume('[');
        JsonValue arr = JsonValue::array();
        skipWs();
        if (consume(']'))
            return arr;
        while (true) {
            std::optional<JsonValue> v = parseValue(depth + 1);
            if (!v)
                return std::nullopt;
            arr.append(std::move(*v));
            skipWs();
            if (consume(']'))
                return arr;
            if (!consume(',')) {
                fail("expected ',' or ']' in array");
                return std::nullopt;
            }
        }
    }

    std::optional<JsonValue>
    parseObject(int depth)
    {
        consume('{');
        std::vector<std::pair<std::string, JsonValue>> members;
        skipWs();
        if (consume('}'))
            return JsonValue::object();
        while (true) {
            skipWs();
            std::optional<std::string> key = parseString();
            if (!key)
                return std::nullopt;
            skipWs();
            if (!consume(':')) {
                fail("expected ':' after object key");
                return std::nullopt;
            }
            std::optional<JsonValue> v = parseValue(depth + 1);
            if (!v)
                return std::nullopt;
            members.emplace_back(std::move(*key), std::move(*v));
            skipWs();
            if (consume('}'))
                return JsonValue::object(std::move(members));
            if (!consume(',')) {
                fail("expected ',' or '}' in object");
                return std::nullopt;
            }
        }
    }

    std::string_view text_;
    size_t pos_ = 0;
    std::string error_;
    size_t errorPos_ = 0;
};

} // namespace

std::string
JsonValue::dump(int indent, bool sort_keys) const
{
    std::string out;
    dumpValue(*this, out, indent, 0, sort_keys);
    return out;
}

std::optional<JsonValue>
parseJson(std::string_view text, std::string *error)
{
    Parser p(text);
    return p.parse(error);
}

} // namespace mcscope
