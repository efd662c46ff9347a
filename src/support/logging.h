/**
 * @file
 * Logging and error-termination helpers.
 *
 * Severity model follows the gem5 convention:
 *   - fatal():  the run cannot continue because of a user error
 *               (bad arguments, missing file); exits with status 2.
 *   - panic():  an internal invariant was violated (a library bug);
 *               aborts so a debugger or core dump can catch it.
 *   - warn()/inform(): non-fatal status messages.
 *
 * CLI tools additionally exit with status 3 (kExitCorruptArtifact) when
 * a recoverable loader reports a corrupt / truncated / version-skewed
 * artifact — scripts can tell "you called it wrong" (2) apart from
 * "your file is damaged" (3).
 */
#pragma once

#include <sstream>
#include <string>

namespace tlp {

/** Process exit code of TLP_FATAL (user error). */
inline constexpr int kExitUserError = 2;

/** Process exit code CLI tools use for damaged/version-skewed artifacts. */
inline constexpr int kExitCorruptArtifact = 3;

/** Log severity levels in increasing order of importance. */
enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Silent = 4 };

namespace detail {

/** Emit one formatted log line to stderr if @p level passes the filter. */
void logLine(LogLevel level, const std::string &msg);

/** Print @p msg and exit(kExitUserError). Used for user errors. */
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);

/** Print @p msg and abort(). Used for internal invariant violations. */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);

/** Build a string from stream-style arguments. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Informational message (level Info). */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::logLine(LogLevel::Info, detail::concat(std::forward<Args>(args)...));
}

/** Warning message (level Warn). */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::logLine(LogLevel::Warn, detail::concat(std::forward<Args>(args)...));
}

} // namespace tlp

/** User-error termination: print message with location and exit(2). */
#define TLP_FATAL(...) \
    ::tlp::detail::fatalImpl(__FILE__, __LINE__, \
                             ::tlp::detail::concat(__VA_ARGS__))

/** Internal-bug termination: print message with location and abort(). */
#define TLP_PANIC(...) \
    ::tlp::detail::panicImpl(__FILE__, __LINE__, \
                             ::tlp::detail::concat(__VA_ARGS__))

/** Invariant check that survives NDEBUG; panics with a message on failure. */
#define TLP_CHECK(cond, ...) \
    do { \
        if (!(cond)) { \
            ::tlp::detail::panicImpl(__FILE__, __LINE__, \
                ::tlp::detail::concat("check failed: " #cond " ", \
                                      ##__VA_ARGS__)); \
        } \
    } while (0)
