#include "support/str_util.h"

#include <cstdarg>
#include <cstdio>
#include <sstream>

namespace tlp {

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::string current;
    for (char c : text) {
        if (c == sep) {
            parts.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    parts.push_back(current);
    return parts;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string result;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            result += sep;
        result += parts[i];
    }
    return result;
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.size() >= prefix.size() &&
           text.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

std::string
strip(const std::string &text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

std::string
strFormat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int size = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string result(static_cast<size_t>(size), '\0');
    std::vsnprintf(result.data(), static_cast<size_t>(size) + 1, fmt,
                   args_copy);
    va_end(args_copy);
    return result;
}

std::string
formatDouble(double value, int digits)
{
    return strFormat("%.*f", digits, value);
}

} // namespace tlp
