#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/logging.hpp"

namespace crisp
{

Json
Json::boolean(bool b)
{
    Json j;
    j.type_ = Type::Bool;
    j.bool_ = b;
    return j;
}

Json
Json::number(double v)
{
    Json j;
    j.type_ = Type::Number;
    j.num_ = v;
    return j;
}

Json
Json::str(std::string s)
{
    Json j;
    j.type_ = Type::String;
    j.str_ = std::move(s);
    return j;
}

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

bool
Json::asBool(bool fallback) const
{
    return type_ == Type::Bool ? bool_ : fallback;
}

double
Json::asDouble(double fallback) const
{
    return type_ == Type::Number ? num_ : fallback;
}

uint64_t
Json::asU64(uint64_t fallback) const
{
    if (type_ != Type::Number || num_ < 0.0 ||
        num_ != std::floor(num_) || num_ > 9.007199254740992e15) {
        return fallback;
    }
    return static_cast<uint64_t>(num_);
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object) {
        return nullptr;
    }
    for (const auto &[k, v] : obj_) {
        if (k == key) {
            return &v;
        }
    }
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    static const Json null_value;
    const Json *v = find(key);
    return v ? *v : null_value;
}

Json &
Json::set(const std::string &key, Json value)
{
    panic_if(type_ != Type::Object, "Json::set on a non-object");
    for (auto &[k, v] : obj_) {
        if (k == key) {
            v = std::move(value);
            return *this;
        }
    }
    obj_.emplace_back(key, std::move(value));
    return *this;
}

Json &
Json::push(Json value)
{
    panic_if(type_ != Type::Array, "Json::push on a non-array");
    arr_.push_back(std::move(value));
    return *this;
}

void
Json::offsetToLineCol(const std::string &text, size_t offset,
                      uint32_t &line, uint32_t &col)
{
    line = 1;
    col = 1;
    const size_t end = offset < text.size() ? offset : text.size();
    for (size_t i = 0; i < end; ++i) {
        if (text[i] == '\n') {
            ++line;
            col = 1;
        } else {
            ++col;
        }
    }
}

namespace
{

/** Recursive-descent parser over a byte range; positions for errors. */
class Parser
{
  public:
    Parser(const std::string &text, std::string &err)
        : text_(text), err_(err)
    {
    }

    bool
    parseDocument(Json &out)
    {
        skipWs();
        if (!parseValue(out, 0)) {
            return false;
        }
        skipWs();
        if (pos_ != text_.size()) {
            return fail("trailing characters after document");
        }
        return true;
    }

  private:
    static constexpr int kMaxDepth = 64;

    bool
    fail(const std::string &what)
    {
        err_ = "offset " + std::to_string(pos_) + ": " + what;
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
                break;
            }
            ++pos_;
        }
    }

    bool
    literal(const char *word)
    {
        const size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0) {
            return fail("invalid literal");
        }
        pos_ += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (true) {
            if (pos_ >= text_.size()) {
                return fail("unterminated string");
            }
            const unsigned char c =
                static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20) {
                return fail("raw control character in string");
            }
            if (c != '\\') {
                out += static_cast<char>(c);
                ++pos_;
                continue;
            }
            ++pos_;
            if (pos_ >= text_.size()) {
                return fail("unterminated escape");
            }
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
                if (pos_ + 4 > text_.size()) {
                    return fail("truncated \\u escape");
                }
                unsigned value = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    value <<= 4;
                    if (h >= '0' && h <= '9') {
                        value |= static_cast<unsigned>(h - '0');
                    } else if (h >= 'a' && h <= 'f') {
                        value |= static_cast<unsigned>(h - 'a' + 10);
                    } else if (h >= 'A' && h <= 'F') {
                        value |= static_cast<unsigned>(h - 'A' + 10);
                    } else {
                        return fail("bad hex digit in \\u escape");
                    }
                }
                // Encode as UTF-8 (surrogate pairs unsupported: scenario
                // strings are names and paths, not astral text).
                if (value < 0x80) {
                    out += static_cast<char>(value);
                } else if (value < 0x800) {
                    out += static_cast<char>(0xc0 | (value >> 6));
                    out += static_cast<char>(0x80 | (value & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (value >> 12));
                    out += static_cast<char>(0x80 | ((value >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (value & 0x3f));
                }
                break;
              }
              default:
                return fail("unknown escape character");
            }
        }
    }

    /** Consume a run of decimal digits; returns how many. */
    size_t
    digits()
    {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
        return pos_ - start;
    }

    bool
    peek(char c) const
    {
        return pos_ < text_.size() && text_[pos_] == c;
    }

    bool
    parseNumber(Json &out)
    {
        // JSON's grammar: -?int(.digits)?([eE][+-]?digits)?, where int
        // has no leading zero. strtod accepts more ("01", "1.", "1.e5"),
        // so the grammar is checked first.
        const size_t start = pos_;
        if (peek('-')) {
            ++pos_;
        }
        const size_t int_start = pos_;
        const size_t int_digits = digits();
        bool ok = int_digits > 0 &&
                  (int_digits == 1 || text_[int_start] != '0');
        if (ok && peek('.')) {
            ++pos_;
            ok = digits() > 0;
        }
        if (ok && (peek('e') || peek('E'))) {
            ++pos_;
            if (peek('+') || peek('-')) {
                ++pos_;
            }
            ok = digits() > 0;
        }
        const double v =
            ok ? std::strtod(text_.substr(start, pos_ - start).c_str(),
                             nullptr)
               : 0.0;
        if (!ok || !std::isfinite(v)) {
            pos_ = start;
            return fail("malformed number");
        }
        out = Json::number(v);
        return true;
    }

    bool
    parseValue(Json &out, int depth)
    {
        const size_t value_start = pos_;
        if (!parseValueInner(out, depth)) {
            return false;
        }
        out.setSrcOffset(value_start);
        return true;
    }

    bool
    parseValueInner(Json &out, int depth)
    {
        if (depth > kMaxDepth) {
            return fail("nesting too deep");
        }
        if (pos_ >= text_.size()) {
            return fail("unexpected end of input");
        }
        const char c = text_[pos_];
        if (c == 'n') {
            if (!literal("null")) {
                return false;
            }
            out = Json::null();
            return true;
        }
        if (c == 't') {
            if (!literal("true")) {
                return false;
            }
            out = Json::boolean(true);
            return true;
        }
        if (c == 'f') {
            if (!literal("false")) {
                return false;
            }
            out = Json::boolean(false);
            return true;
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s)) {
                return false;
            }
            out = Json::str(std::move(s));
            return true;
        }
        if (c == '[') {
            ++pos_;
            Json arr = Json::array();
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                out = std::move(arr);
                return true;
            }
            while (true) {
                Json item;
                skipWs();
                if (!parseValue(item, depth + 1)) {
                    return false;
                }
                arr.push(std::move(item));
                skipWs();
                if (pos_ >= text_.size()) {
                    return fail("unterminated array");
                }
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == ']') {
                    ++pos_;
                    out = std::move(arr);
                    return true;
                }
                return fail("expected ',' or ']' in array");
            }
        }
        if (c == '{') {
            ++pos_;
            Json obj = Json::object();
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                out = std::move(obj);
                return true;
            }
            while (true) {
                skipWs();
                if (pos_ >= text_.size() || text_[pos_] != '"') {
                    return fail("expected object key string");
                }
                const size_t key_start = pos_;
                std::string key;
                if (!parseString(key)) {
                    return false;
                }
                if (obj.find(key) != nullptr) {
                    pos_ = key_start;
                    return fail("duplicate key \"" + key + "\"");
                }
                skipWs();
                if (pos_ >= text_.size() || text_[pos_] != ':') {
                    return fail("expected ':' after object key");
                }
                ++pos_;
                skipWs();
                Json value;
                if (!parseValue(value, depth + 1)) {
                    return false;
                }
                obj.set(key, std::move(value));
                skipWs();
                if (pos_ >= text_.size()) {
                    return fail("unterminated object");
                }
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == '}') {
                    ++pos_;
                    out = std::move(obj);
                    return true;
                }
                return fail("expected ',' or '}' in object");
            }
        }
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
            return parseNumber(out);
        }
        return fail("unexpected character");
    }

    const std::string &text_;
    std::string &err_;
    size_t pos_ = 0;
};

} // namespace

bool
Json::parse(const std::string &text, Json &out, std::string &err)
{
    Json parsed;
    Parser p(text, err);
    if (!p.parseDocument(parsed)) {
        return false;
    }
    out = std::move(parsed);
    return true;
}

} // namespace crisp
