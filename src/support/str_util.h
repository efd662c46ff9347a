/**
 * @file
 * Small string helpers used across the library.
 */
#pragma once

#include <string>
#include <vector>

namespace tlp {

/** Split @p text on @p sep; empty fields are preserved. */
std::vector<std::string> split(const std::string &text, char sep);

/** Join @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** True if @p text begins with @p prefix. */
bool startsWith(const std::string &text, const std::string &prefix);

/** True if @p text ends with @p suffix. */
bool endsWith(const std::string &text, const std::string &suffix);

/** Strip ASCII whitespace from both ends. */
std::string strip(const std::string &text);

/** printf-style formatting into a std::string. */
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Render a double with @p digits significant decimal places. */
std::string formatDouble(double value, int digits = 4);

} // namespace tlp
