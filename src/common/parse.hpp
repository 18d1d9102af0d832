#ifndef CRISP_COMMON_PARSE_HPP
#define CRISP_COMMON_PARSE_HPP

#include <charconv>
#include <cstring>
#include <system_error>

#include "common/logging.hpp"

namespace crisp
{

/**
 * @p text as a whole decimal number; anything else ("1e6", "4k", "-1",
 * "", a value out of range for @p T) is fatal, naming @p what (the flag
 * or variable the text came from).
 */
template <typename T>
T
wholeNumber(const char *what, const char *text)
{
    T value = 0;
    const char *end = text + std::strlen(text);
    const auto [stop, ec] = std::from_chars(text, end, value);
    fatal_if(ec != std::errc() || stop != end,
             "%s needs a whole decimal number, got \"%s\"", what, text);
    return value;
}

} // namespace crisp

#endif // CRISP_COMMON_PARSE_HPP
