#include "support/argparse.h"

#include <cstdio>
#include <cstdlib>

#include "support/logging.h"
#include "support/str_util.h"

namespace tlp {

ArgParser::ArgParser(std::string description)
    : description_(std::move(description))
{
}

void
ArgParser::addString(const std::string &name, const std::string &default_value,
                     const std::string &help)
{
    flags_[name] = Flag{Kind::String, default_value, help};
}

void
ArgParser::addInt(const std::string &name, int64_t default_value,
                  const std::string &help)
{
    flags_[name] = Flag{Kind::Int, std::to_string(default_value), help};
}

void
ArgParser::addDouble(const std::string &name, double default_value,
                     const std::string &help)
{
    flags_[name] = Flag{Kind::Double, std::to_string(default_value), help};
}

void
ArgParser::addBool(const std::string &name, bool default_value,
                   const std::string &help)
{
    flags_[name] = Flag{Kind::Bool, default_value ? "1" : "0", help};
}

void
ArgParser::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(argv[0]);
            std::exit(0);
        }
        if (!startsWith(arg, "--"))
            TLP_FATAL("unexpected positional argument: ", arg);
        arg = arg.substr(2);
        std::string name = arg;
        std::string value;
        bool has_value = false;
        const size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            has_value = true;
        }
        auto it = flags_.find(name);
        if (it == flags_.end())
            TLP_FATAL("unknown flag --", name, " (try --help)");
        // Values are assigned as std::string: GCC 12 reports a false
        // -Wrestrict overlap for a literal assigned here.
        if (!has_value) {
            if (it->second.kind == Kind::Bool) {
                value = std::string("1");
            } else {
                if (i + 1 >= argc)
                    TLP_FATAL("flag --", name, " expects a value");
                value = argv[++i];
            }
        }
        if (it->second.kind == Kind::Bool &&
            (value == "true" || value == "yes")) {
            value = std::string("1");
        }
        if (it->second.kind == Kind::Bool &&
            (value == "false" || value == "no")) {
            value = std::string("0");
        }
        it->second.value = value;
    }
}

const ArgParser::Flag &
ArgParser::find(const std::string &name, Kind kind) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        TLP_PANIC("flag --", name, " was never registered");
    if (it->second.kind != kind)
        TLP_PANIC("flag --", name, " accessed with wrong type");
    return it->second;
}

std::string
ArgParser::getString(const std::string &name) const
{
    return find(name, Kind::String).value;
}

int64_t
ArgParser::getInt(const std::string &name) const
{
    return std::strtoll(find(name, Kind::Int).value.c_str(), nullptr, 10);
}

double
ArgParser::getDouble(const std::string &name) const
{
    return std::strtod(find(name, Kind::Double).value.c_str(), nullptr);
}

bool
ArgParser::getBool(const std::string &name) const
{
    return find(name, Kind::Bool).value == "1";
}

void
ArgParser::printHelp(const char *prog) const
{
    std::printf("%s — %s\n\nflags:\n", prog, description_.c_str());
    for (const auto &[name, flag] : flags_) {
        std::printf("  --%-24s %s (default: %s)\n", name.c_str(),
                    flag.help.c_str(), flag.value.c_str());
    }
}

} // namespace tlp
