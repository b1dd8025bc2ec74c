/**
 * @file
 * The one JSON reader and the one JSON string escaper.  Header-only and
 * dependency-free, so it sits at the bottom of the layering (below
 * zbp_obs).
 *
 * The reader is strict: the input must be exactly one value, so a torn
 * or corrupt record is an error, never a partial result.  Number tokens
 * are kept verbatim, so u64() reads a 64-bit seed exactly (far above a
 * double's 2^53) and num() reads a "%.17g" double back to the same
 * bits.  \uXXXX escapes decode to UTF-8, so whatever escape() writes
 * round-trips.  Nesting is capped, so hostile input cannot exhaust the
 * stack.
 */

#ifndef ZBP_UTIL_JSON_HH
#define ZBP_UTIL_JSON_HH

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace zbp::json
{

/** Escape @p s for the inside of a JSON string literal: '"' and '\'
 * get a backslash, every byte below 0x20 becomes \u00XX, all other
 * bytes (UTF-8 included) pass through. */
inline std::string
escape(std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (u < 0x20) {
            out += "\\u00";
            out += kHex[u >> 4];
            out += kHex[u & 0xF];
        } else {
            out += c;
        }
    }
    return out;
}

/** One parsed JSON value. */
struct Value
{
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool flag = false;        ///< kBool
    std::string text;         ///< kString: decoded bytes; kNumber: token
    std::vector<Value> items; ///< kArray
    std::vector<std::pair<std::string, Value>> members; ///< kObject

    /** Member @p key (the first, if repeated), else nullptr — also
     * when this is not an object. */
    const Value *
    find(std::string_view key) const
    {
        for (const auto &[k, v] : members)
            if (k == key)
                return &v;
        return nullptr;
    }

    /** Member @p key, or a null value when absent. */
    const Value &
    operator[](std::string_view key) const
    {
        static const Value kAbsent;
        const Value *v = find(key);
        return v != nullptr ? *v : kAbsent;
    }

    /** A number token that is a non-negative integer fitting 64 bits,
     * read exactly; nullopt for anything else. */
    std::optional<std::uint64_t> u64() const { return as<std::uint64_t>(); }

    /** Any number token as the nearest double. */
    std::optional<double> num() const { return as<double>(); }

    /** The decoded string, or nullptr when this is not a string. */
    const std::string *
    str() const
    {
        return kind == Kind::kString ? &text : nullptr;
    }

    std::optional<bool>
    boolean() const
    {
        return kind == Kind::kBool ? std::optional<bool>(flag)
                                   : std::nullopt;
    }

  private:
    template <typename T>
    std::optional<T>
    as() const
    {
        T v{};
        const char *end = text.data() + text.size();
        const auto [p, ec] = std::from_chars(text.data(), end, v);
        if (kind != Kind::kNumber || ec != std::errc() || p != end)
            return std::nullopt;
        return v;
    }
};

namespace detail
{

class Parser
{
  public:
    explicit Parser(std::string_view text) : s(text) {}

    bool
    document(Value &out)
    {
        if (!value(out, 0))
            return false;
        skipWs();
        return at == s.size();
    }

  private:
    static constexpr unsigned kMaxDepth = 64;

    void
    skipWs()
    {
        while (at < s.size() && (s[at] == ' ' || s[at] == '\t' ||
                                 s[at] == '\n' || s[at] == '\r'))
            ++at;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (at >= s.size() || s[at] != c)
            return false;
        ++at;
        return true;
    }

    bool
    literal(std::string_view word)
    {
        if (s.substr(at, word.size()) != word)
            return false;
        at += word.size();
        return true;
    }

    bool
    value(Value &v, unsigned depth)
    {
        skipWs();
        if (at >= s.size() || depth > kMaxDepth)
            return false;
        switch (s[at]) {
          case '{': return object(v, depth);
          case '[': return array(v, depth);
          case '"': v.kind = Value::Kind::kString; return string(v.text);
          case 'n': return literal("null");
          case 't':
          case 'f':
            v.kind = Value::Kind::kBool;
            v.flag = s[at] == 't';
            return literal(v.flag ? "true" : "false");
          default: return number(v);
        }
    }

    bool
    digits()
    {
        const std::size_t start = at;
        while (at < s.size() && s[at] >= '0' && s[at] <= '9')
            ++at;
        return at > start;
    }

    /** -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    bool
    number(Value &v)
    {
        const std::size_t start = at;
        const auto next = [&](std::string_view set) {
            const bool hit = at < s.size() &&
                             set.find(s[at]) != std::string_view::npos;
            at += hit;
            return hit;
        };
        next("-");
        if (!next("0") && !digits())
            return false;
        if (next(".") && !digits())
            return false;
        if (next("eE")) {
            next("+-");
            if (!digits())
                return false;
        }
        v.kind = Value::Kind::kNumber;
        v.text = s.substr(start, at - start);
        return true;
    }

    bool
    hex4(std::uint32_t &cp)
    {
        if (s.size() - at < 4)
            return false;
        const char *p = s.data() + at;
        at += 4;
        return std::from_chars(p, p + 4, cp, 16).ptr == p + 4;
    }

    /** \uXXXX (the "\u" already consumed) to UTF-8, a surrogate pair
     * taken whole; a lone surrogate is an error. */
    bool
    unicodeEscape(std::string &out)
    {
        std::uint32_t cp = 0, lo = 0;
        if (!hex4(cp) || (cp >= 0xDC00 && cp <= 0xDFFF))
            return false;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (!literal("\\u") || !hex4(lo) || lo < 0xDC00 || lo > 0xDFFF)
                return false;
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        }
        static constexpr unsigned char kLead[] = {0, 0xC0, 0xE0, 0xF0};
        const int tail = cp < 0x80      ? 0
                         : cp < 0x800   ? 1
                         : cp < 0x10000 ? 2
                                        : 3;
        out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
        for (int i = tail - 1; i >= 0; --i)
            out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
        return true;
    }

    bool
    string(std::string &out)
    {
        static constexpr std::string_view kEscaped = "\"\\/bfnrt";
        static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
        ++at; // opening quote
        while (at < s.size()) {
            const char c = s[at++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control bytes are invalid JSON
            if (c != '\\') {
                out += c;
            } else if (at >= s.size()) {
                return false;
            } else if (const auto k = kEscaped.find(s[at++]);
                       k != std::string_view::npos) {
                out += kDecoded[k];
            } else if (s[at - 1] != 'u' || !unicodeEscape(out)) {
                return false;
            }
        }
        return false; // unterminated
    }

    bool
    array(Value &v, unsigned depth)
    {
        v.kind = Value::Kind::kArray;
        ++at; // '['
        if (eat(']'))
            return true;
        do {
            if (!value(v.items.emplace_back(), depth + 1))
                return false;
        } while (eat(','));
        return eat(']');
    }

    bool
    object(Value &v, unsigned depth)
    {
        v.kind = Value::Kind::kObject;
        ++at; // '{'
        if (eat('}'))
            return true;
        do {
            skipWs();
            std::string key;
            if (at >= s.size() || s[at] != '"' || !string(key) || !eat(':'))
                return false;
            auto &member = v.members.emplace_back(std::move(key), Value{});
            if (!value(member.second, depth + 1))
                return false;
        } while (eat(','));
        return eat('}');
    }

    std::string_view s;
    std::size_t at = 0;
};

} // namespace detail

/** Parse @p text as exactly one JSON value (surrounding whitespace
 * allowed); nullopt on any syntax error, truncation or trailing
 * bytes. */
inline std::optional<Value>
parse(std::string_view text)
{
    Value v;
    if (!detail::Parser(text).document(v))
        return std::nullopt;
    return v;
}

} // namespace zbp::json

#endif // ZBP_UTIL_JSON_HH
