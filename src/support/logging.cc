#include "support/logging.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace tlp {

namespace {

std::mutex log_mutex;

const char *
levelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::Info:  return "info";
      case LogLevel::Warn:  return "warn";
      case LogLevel::Error: break;
    }
    return "error";
}

} // namespace

namespace detail {

void
logLine(LogLevel level, const std::string &msg)
{
    std::lock_guard<std::mutex> guard(log_mutex);
    std::fprintf(stderr, "[tlp:%s] %s\n", levelTag(level), msg.c_str());
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "[tlp:fatal] %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(kExitUserError);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "[tlp:panic] %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

} // namespace detail

} // namespace tlp
