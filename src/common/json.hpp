#ifndef CRISP_COMMON_JSON_HPP
#define CRISP_COMMON_JSON_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace crisp
{

/**
 * Minimal JSON document: the value model behind the scenario description
 * files.
 *
 * The simulator's output side already writes JSON by hand (Chrome
 * traces, bench result files); the scenario loader must also *read*
 * JSON — from hand-edited, user-supplied files — so parsing is strict
 * and total: parse() either produces a fully-validated document or a
 * position-carrying error string, never a partial value. A key repeated
 * within one object is an error, not a silent overwrite. Numbers are
 * kept as doubles (every scenario field fits a double exactly).
 *
 * Input may span multiple lines (pretty-printed scenario files).
 */
class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** srcOffset() value for constructed (non-parsed) values. */
    static constexpr size_t kNoOffset = static_cast<size_t>(-1);

    Json() = default;
    static Json null() { return Json(); }
    static Json boolean(bool b);
    static Json number(double v);
    static Json str(std::string s);
    static Json array();
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    bool asBool(bool fallback = false) const;
    double asDouble(double fallback = 0.0) const;
    /** Number as a non-negative integer; fallback on non-numbers,
     *  negatives and non-integral values. */
    uint64_t asU64(uint64_t fallback = 0) const;
    const std::string &asString() const { return str_; }

    /** Object field by key, or nullptr (also nullptr on non-objects). */
    const Json *find(const std::string &key) const;
    /** Object field by key, defaulting: missing keys act as Null. */
    const Json &at(const std::string &key) const;

    const std::vector<Json> &items() const { return arr_; }
    const std::vector<std::pair<std::string, Json>> &fields() const
    {
        return obj_;
    }

    /** Set (or replace) an object field; fatal on non-objects. */
    Json &set(const std::string &key, Json value);
    /** Append an array element; fatal on non-arrays. */
    Json &push(Json value);

    /**
     * Parse one complete JSON document. Trailing non-whitespace, bad
     * escapes, unterminated containers, numbers outside JSON's grammar,
     * repeated object keys and non-UTF8-safe control bytes are all
     * errors; @p err gets "offset N: what" on failure and @p out
     * is untouched.
     */
    static bool parse(const std::string &text, Json &out, std::string &err);

    /**
     * Byte offset of this value's first character in the text parse()
     * consumed, kNoOffset for values built with the factories. Consumers
     * holding the source text (the scenario loader) turn this into a
     * line:column coordinate for semantic errors — "unknown key" or
     * "wrong type" diagnostics that fire long after the parse itself
     * succeeded.
     */
    size_t srcOffset() const { return srcOffset_; }
    void setSrcOffset(size_t offset) { srcOffset_ = offset; }

    /** Convert a byte offset into 1-based line/column against @p text. */
    static void offsetToLineCol(const std::string &text, size_t offset,
                                uint32_t &line, uint32_t &col);

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
    size_t srcOffset_ = kNoOffset;
};

} // namespace crisp

#endif // CRISP_COMMON_JSON_HPP
