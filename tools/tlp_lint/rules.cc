/**
 * @file
 * Manifest parser and rule engine for tlp_lint.
 *
 * Every rule runs on the stripped views produced by stripSource (see
 * lexer.cc), so banned tokens inside comments or log-message strings
 * never fire. Rules emit raw findings; suppression resolution happens
 * once at the end of lintFile so that the unused-suppression rule can
 * see the complete picture.
 */
#include "tools/tlp_lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "support/str_util.h"

namespace tlp::lint {

namespace fs = std::filesystem;

std::string
Finding::toString() const
{
    std::ostringstream os;
    os << file << ":" << line << ": [" << rule << "] " << message;
    return os.str();
}

// --- Manifest -----------------------------------------------------------

namespace {

/** Split on runs of whitespace. */
std::vector<std::string>
splitWhitespace(const std::string &text)
{
    std::vector<std::string> tokens;
    std::istringstream is(text);
    std::string token;
    while (is >> token)
        tokens.push_back(token);
    return tokens;
}

Status
manifestError(int line, const std::string &what)
{
    return Status::error(ErrorCode::Invalid,
                         "lint manifest line " + std::to_string(line) +
                             ": " + what);
}

/** Split a directive operand of the form "lhs -> rhs...". */
bool
splitArrow(const std::vector<std::string> &tokens, size_t &arrow_pos)
{
    for (size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i] == "->") {
            arrow_pos = i;
            return true;
        }
    }
    return false;
}

} // namespace

Result<Manifest>
parseManifest(const std::string &text)
{
    Manifest manifest;
    std::istringstream is(text);
    std::string raw;
    int lineno = 0;
    while (std::getline(is, raw)) {
        ++lineno;
        const size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw.resize(hash);
        const std::string line = strip(raw);
        if (line.empty())
            continue;
        const std::vector<std::string> tokens = splitWhitespace(line);
        const std::string &directive = tokens[0];

        if (directive == "exclude" || directive == "allow-wallclock" ||
            directive == "loader-tu" ||
            directive == "serialize-consumer" || directive == "hot-tu" ||
            directive == "forbid-raw-io" ||
            directive == "raw-io-exempt" || directive == "must-check" ||
            directive == "hot-entry" || directive == "forbid-tmp-path") {
            if (tokens.size() != 2) {
                return manifestError(lineno, directive +
                                                 " expects exactly one "
                                                 "path operand");
            }
            const std::string &path = tokens[1];
            if (directive == "exclude")
                manifest.excludes.push_back(path);
            else if (directive == "allow-wallclock")
                manifest.wallclock_allow.push_back(path);
            else if (directive == "loader-tu")
                manifest.loader_tus.insert(path);
            else if (directive == "hot-tu")
                manifest.hot_tus.insert(path);
            else if (directive == "forbid-raw-io")
                manifest.raw_io_scopes.push_back(path);
            else if (directive == "raw-io-exempt")
                manifest.raw_io_exempt.insert(path);
            else if (directive == "must-check")
                manifest.must_check.push_back(path);
            else if (directive == "hot-entry")
                manifest.hot_entries.insert(path);
            else if (directive == "forbid-tmp-path")
                manifest.tmp_path_scopes.push_back(path);
            else
                manifest.serialize_consumers.insert(path);
            continue;
        }
        if (directive == "suppression-budget") {
            if (tokens.size() != 2 ||
                tokens[1].find_first_not_of("0123456789") !=
                    std::string::npos) {
                return manifestError(lineno,
                                     "suppression-budget expects one "
                                     "non-negative integer");
            }
            if (manifest.suppression_budget >= 0)
                return manifestError(lineno,
                                     "duplicate suppression-budget");
            manifest.suppression_budget = std::stoi(tokens[1]);
            continue;
        }
        if (directive == "layer") {
            size_t arrow = 0;
            if (!splitArrow(tokens, arrow) || arrow != 2) {
                return manifestError(lineno,
                                     "expected \"layer <module> -> "
                                     "[dep ...]\"");
            }
            const std::string &module = tokens[1];
            auto [it, inserted] = manifest.layers.try_emplace(module);
            if (!inserted)
                return manifestError(lineno, "duplicate layer " + module);
            it->second.insert(tokens.begin() + 3, tokens.end());
            continue;
        }
        if (directive == "forbid-include" ||
            directive == "require-include") {
            size_t arrow = 0;
            if (!splitArrow(tokens, arrow) || arrow != 2 ||
                tokens.size() != 4) {
                return manifestError(lineno,
                                     "expected \"" + directive +
                                         " <file-prefix> -> <include>\"");
            }
            auto &list = directive == "forbid-include"
                             ? manifest.forbid_includes
                             : manifest.require_includes;
            list.emplace_back(tokens[1], tokens[3]);
            continue;
        }
        return manifestError(lineno, "unknown directive \"" + directive +
                                         "\"");
    }
    // Layer deps must themselves be declared, so a typo cannot silently
    // open an edge.
    for (const auto &[module, deps] : manifest.layers) {
        for (const std::string &dep : deps) {
            if (!manifest.layers.count(dep)) {
                return Status::error(ErrorCode::Invalid,
                                     "lint manifest: layer " + module +
                                         " depends on undeclared layer " +
                                         dep);
            }
        }
    }
    return manifest;
}

Result<Manifest>
loadManifest(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        return Status::error(ErrorCode::IoError,
                             "cannot open lint manifest " + path);
    }
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return parseManifest(buffer.str());
}

// --- Rule helpers -------------------------------------------------------

namespace {

bool
hasPrefix(const std::string &path, const std::string &prefix)
{
    return path.compare(0, prefix.size(), prefix) == 0;
}

} // namespace

bool
pathInScope(const std::string &path, const std::string &prefix)
{
    if (!hasPrefix(path, prefix))
        return false;
    // Match only at a path-component or extension boundary: a prefix
    // "src/tuner/session" covers session.cc / session.h / session/ but
    // never session_extra.cc. A prefix ending in '/' already sits on a
    // boundary.
    if (path.size() == prefix.size() || prefix.empty() ||
        prefix.back() == '/')
        return true;
    const char next = path[prefix.size()];
    return next == '/' || next == '.';
}

namespace {

bool
matchesAnyPrefix(const std::string &path,
                 const std::vector<std::string> &prefixes)
{
    return std::any_of(prefixes.begin(), prefixes.end(),
                       [&](const std::string &p) {
                           return pathInScope(path, p);
                       });
}

/**
 * Longest declared layer owning @p path (a src/-relative file path or
 * an include path), segment-aligned; empty when no declared layer is a
 * prefix. Nested modules ("tuner/service") shadow their parent for the
 * files and includes under them.
 */
std::string
resolveLayer(const std::string &path, const Manifest &manifest)
{
    std::string best;
    for (const auto &[name, deps] : manifest.layers) {
        (void)deps;
        if (name.size() > best.size() && hasPrefix(path, name + "/"))
            best = name;
    }
    return best;
}

/** src/<module>/... -> deepest declared layer (or the first path
 *  segment when none is declared); empty when not under src/. */
std::string
moduleOf(const std::string &rel_path, const Manifest &manifest)
{
    if (!hasPrefix(rel_path, "src/"))
        return "";
    const std::string rest = rel_path.substr(4);
    const std::string declared = resolveLayer(rest, manifest);
    if (!declared.empty())
        return declared;
    const size_t slash = rest.find('/');
    if (slash == std::string::npos)
        return "";
    return rest.substr(0, slash);
}

struct TokenRule
{
    const char *rule;
    std::regex pattern;
    const char *message;
};

const std::vector<TokenRule> &
tokenRules()
{
    static const std::vector<TokenRule> rules = [] {
        std::vector<TokenRule> r;
        r.push_back({"rand",
                     std::regex(R"(\b(rand|srand|rand_r|drand48|lrand48|mrand48)\s*\()"),
                     "libc random source; draw from a seeded "
                     "support/rng Rng instead"});
        r.push_back({"random-device",
                     std::regex(R"(\brandom_device\b)"),
                     "std::random_device is not reproducible; seeds come "
                     "from config, never from entropy"});
        r.push_back({"std-engine",
                     std::regex(R"(\b(mt19937(_64)?|minstd_rand0?|ranlux\w*|knuth_b|default_random_engine|(uniform_int|uniform_real|normal|bernoulli|discrete|poisson|exponential|geometric)_distribution)\b)"),
                     "std <random> engine/distribution; all stochasticity "
                     "must flow through support/rng"});
        r.push_back({"wallclock",
                     std::regex(R"(\b(system_clock|steady_clock|high_resolution_clock|utc_clock|file_clock|gettimeofday|clock_gettime|timespec_get|localtime|gmtime|strftime|mktime|time|clock)\s*(\(|::))"),
                     "clock read outside an allowlisted timing TU; "
                     "determinism requires seeded Rngs, not time"});
        r.push_back({"float-eq",
                     std::regex(R"((==|!=)\s*[-+]?(\d+\.\d*|\.\d+|\d+[eE][-+]?\d+|\d+\.)f?\b|(\d+\.\d*|\.\d+|\d+[eE][-+]?\d+)f?\s*(==|!=))"),
                     "exact comparison against a float literal; NaN "
                     "labels make this a hazard (std::isnan / epsilon)"});
        return r;
    }();
    return rules;
}

const std::regex &
includeRegex()
{
    static const std::regex re(
        R"(^\s*#\s*include\s*[<"]([^">]+)[">])");
    return re;
}

const std::regex &
pragmaOnceRegex()
{
    static const std::regex re(R"(^\s*#\s*pragma\s+once\b)");
    return re;
}

bool
isHeaderPath(const std::string &rel_path)
{
    return rel_path.size() > 2 &&
           rel_path.compare(rel_path.size() - 2, 2, ".h") == 0;
}

// --- member-underscore --------------------------------------------------

/**
 * A deliberately small structural pass: track class/struct bodies and
 * their access sections; inside private/protected sections, a
 * declaration statement (no parentheses, not a type alias) whose last
 * declarator lacks a trailing underscore is flagged.
 */
void
checkMemberStyle(const std::vector<std::string> &code,
                 const std::string &rel_path,
                 std::vector<Finding> &findings)
{
    struct Scope
    {
        bool class_like = false;
        // 'r' private, 'o' protected, 'u' public
        char access = 'u';
    };
    std::vector<Scope> scopes;
    bool pending_class = false;  // saw class/struct, before '{' or ';'
    bool last_was_enum = false;
    std::string statement;       // code since last ; { } or access label
    int statement_line = 0;

    static const std::regex ident(R"([A-Za-z_][A-Za-z0-9_]*)");
    static const std::regex decl_tail(
        R"(\b([A-Za-z_][A-Za-z0-9_]*)\s*(\[[^\]]*\]\s*)?(=[^;=]*|\{[^}]*\})?\s*$)");
    // `struct Name;` declares a nested type, not a data member.
    static const std::regex forward_decl(
        R"(^\s*(class|struct|union)\s+[A-Za-z_][A-Za-z0-9_]*\s*$)");

    auto flagIfBadMember = [&](int line) {
        if (scopes.empty() || !scopes.back().class_like)
            return;
        if (scopes.back().access == 'u')
            return;
        const std::string stmt = statement;
        if (stmt.find('(') != std::string::npos ||
            stmt.find("using ") != std::string::npos ||
            stmt.find("typedef ") != std::string::npos ||
            stmt.find("friend ") != std::string::npos ||
            stmt.find("template") != std::string::npos ||
            stmt.find("static ") != std::string::npos ||
            std::regex_search(stmt, forward_decl))
            return;
        // A lone ':' (not part of '::') marks a bitfield — the "name"
        // before it is fine without an underscore check on the width.
        for (size_t k = 0; k < stmt.size(); ++k) {
            if (stmt[k] == ':' &&
                (k == 0 || stmt[k - 1] != ':') &&
                (k + 1 >= stmt.size() || stmt[k + 1] != ':'))
                return;
        }
        std::smatch m;
        if (!std::regex_search(stmt, m, decl_tail))
            return;
        const std::string name = m[1];
        if (name.empty() || name.back() == '_')
            return;
        // A lone identifier is not a declaration (e.g. goto labels,
        // macro invocations already excluded by the '(' check).
        std::sregex_iterator it(stmt.begin(), stmt.end(), ident), end;
        if (std::distance(it, end) < 2)
            return;
        Finding f;
        f.file = rel_path;
        f.line = line;
        f.rule = "member-underscore";
        f.message = "member \"" + name +
                    "\" missing trailing underscore (style: "
                    "trailing_underscore_ members)";
        findings.push_back(f);
    };

    for (size_t li = 0; li < code.size(); ++li) {
        const std::string &line = code[li];
        const int lineno = static_cast<int>(li) + 1;
        for (size_t i = 0; i < line.size(); ++i) {
            const char c = line[i];
            if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
                size_t j = i;
                while (j < line.size() &&
                       (std::isalnum(static_cast<unsigned char>(
                            line[j])) ||
                        line[j] == '_'))
                    ++j;
                const std::string word = line.substr(i, j - i);
                if (word == "enum") {
                    last_was_enum = true;
                } else if (word == "class" || word == "struct") {
                    if (!last_was_enum)
                        pending_class = true;
                    last_was_enum = false;
                } else if ((word == "public" || word == "private" ||
                            word == "protected") &&
                           j < line.size() && line[j] == ':' &&
                           (j + 1 >= line.size() || line[j + 1] != ':') &&
                           !scopes.empty() && scopes.back().class_like) {
                    scopes.back().access =
                        word == "public" ? 'u'
                                         : (word == "private" ? 'r' : 'o');
                    statement.clear();
                    i = j; // consume the ':' too
                    continue;
                } else {
                    last_was_enum = false;
                }
                if (statement.empty())
                    statement_line = lineno;
                statement.append(word);
                statement += ' ';
                i = j - 1;
                continue;
            }
            switch (c) {
            case '{': {
                Scope scope;
                scope.class_like = pending_class;
                // gem5 style: class default-private, struct
                // default-public — but a missing base-clause parse is
                // harmless: we only ever *narrow* to sections that are
                // explicitly private/protected for structs.
                scope.access = pending_class ? 'r' : 'u';
                if (pending_class &&
                    statement.find("struct") != std::string::npos)
                    scope.access = 'u';
                scopes.push_back(scope);
                pending_class = false;
                statement.clear();
                break;
            }
            case '}':
                if (!scopes.empty())
                    scopes.pop_back();
                statement.clear();
                break;
            case ';':
                flagIfBadMember(statement_line);
                pending_class = false;
                statement.clear();
                break;
            default:
                if (!std::isspace(static_cast<unsigned char>(c))) {
                    if (statement.empty())
                        statement_line = lineno;
                    statement += c;
                }
                break;
            }
        }
    }
}

} // namespace

// --- per-file rules -----------------------------------------------------

namespace {

/** Run every per-file rule; returns raw (pre-suppression) findings. */
std::vector<Finding>
collectFileFindings(const std::string &rel_path, const StrippedSource &src,
                    const Manifest &manifest)
{
    std::vector<Finding> raw;

    auto add = [&](int line, const char *rule, std::string message) {
        Finding f;
        f.file = rel_path;
        f.line = line;
        f.rule = rule;
        f.message = std::move(message);
        raw.push_back(std::move(f));
    };

    // (1) determinism + float-eq token rules over literal-free code.
    const bool wallclock_ok =
        matchesAnyPrefix(rel_path, manifest.wallclock_allow);
    for (size_t li = 0; li < src.code.size(); ++li) {
        const std::string &line = src.code[li];
        if (line.find_first_not_of(' ') == std::string::npos)
            continue;
        for (const TokenRule &rule : tokenRules()) {
            if (wallclock_ok && std::string(rule.rule) == "wallclock")
                continue;
            if (std::regex_search(line, rule.pattern))
                add(static_cast<int>(li) + 1, rule.rule, rule.message);
        }
    }

    // (2) include rules over the directive view.
    const std::string module = moduleOf(rel_path, manifest);
    bool saw_pragma_once = false;
    std::vector<std::pair<int, std::string>> includes;
    for (size_t li = 0; li < src.directives.size(); ++li) {
        const std::string &line = src.directives[li];
        std::smatch m;
        if (std::regex_search(line, m, includeRegex()))
            includes.emplace_back(static_cast<int>(li) + 1, m[1]);
        else if (std::regex_search(line, pragmaOnceRegex()))
            saw_pragma_once = true;
    }
    if (!module.empty()) {
        const auto layer = manifest.layers.find(module);
        if (layer == manifest.layers.end()) {
            if (!manifest.layers.empty()) {
                add(1, "layering",
                    "module src/" + module +
                        "/ is not declared in the lint manifest; add a "
                        "\"layer\" directive");
            }
        } else {
            for (const auto &[line, inc] : includes) {
                const size_t slash = inc.find('/');
                if (slash == std::string::npos)
                    continue;
                // A nested declared layer (e.g. tuner/service) claims
                // its includes away from the parent layer.
                const std::string declared = resolveLayer(inc, manifest);
                const std::string target =
                    !declared.empty() ? declared : inc.substr(0, slash);
                if (target == module ||
                    !manifest.layers.count(target))
                    continue;
                if (!layer->second.count(target)) {
                    add(line, "layering",
                        "src/" + module + "/ must not include " + inc +
                            " (allowed deps: " +
                            (layer->second.empty()
                                 ? std::string("none")
                                 : join(std::vector<std::string>(
                                            layer->second.begin(),
                                            layer->second.end()),
                                        ", ")) +
                            ")");
                }
            }
        }
    }
    for (const auto &[prefix, banned] : manifest.forbid_includes) {
        if (!pathInScope(rel_path, prefix))
            continue;
        for (const auto &[line, inc] : includes) {
            if (inc.find(banned) != std::string::npos) {
                add(line, "include-forbidden",
                    rel_path + " must not include " + inc +
                        " (forbid-include " + prefix + " -> " + banned +
                        ")");
            }
        }
    }
    for (const auto &[prefix, required] : manifest.require_includes) {
        if (!pathInScope(rel_path, prefix))
            continue;
        const bool found = std::any_of(
            includes.begin(), includes.end(), [&](const auto &entry) {
                return entry.second.find(required) != std::string::npos;
            });
        if (!found) {
            add(1, "include-required",
                rel_path + " must include " + required +
                    " (require-include " + prefix + " -> " + required +
                    ")");
        }
    }
    if (isHeaderPath(rel_path) && !saw_pragma_once)
        add(1, "pragma-once", "header is missing #pragma once");

    // (3) artifact-safety rules.
    if (manifest.loader_tus.count(rel_path)) {
        static const std::regex fatal(R"(\bTLP_(FATAL|PANIC)\s*\()");
        for (size_t li = 0; li < src.code.size(); ++li) {
            if (std::regex_search(src.code[li], fatal)) {
                add(static_cast<int>(li) + 1, "loader-fatal",
                    "loader TU is contracted to return Status/Result<T>; "
                    "TLP_FATAL/TLP_PANIC aborts the process");
            }
        }
    }
    if (manifest.serialize_consumers.count(rel_path)) {
        static const std::regex alloc(R"(\.(resize|reserve)\s*\()");
        static const std::regex bounded(
            R"(\bremaining\s*\(|\brequireBytes\s*\()");
        static const std::regex size_arg(R"(\.(resize|reserve)\s*\([^;]*\.size\s*\()");
        for (size_t li = 0; li < src.code.size(); ++li) {
            const std::string &line = src.code[li];
            if (!std::regex_search(line, alloc))
                continue;
            if (std::regex_search(line, size_arg))
                continue; // sized from an in-memory container, not a
                          // stream-supplied count
            bool guarded = false;
            const size_t lookback = li >= 10 ? li - 10 : 0;
            for (size_t lj = lookback; lj <= li && !guarded; ++lj)
                guarded = std::regex_search(src.code[lj], bounded);
            if (!guarded) {
                add(static_cast<int>(li) + 1, "unbounded-alloc",
                    "resize/reserve in a serialize-consumer TU with no "
                    "remaining-bytes check in the preceding 10 lines");
            }
        }
    }
    if (matchesAnyPrefix(rel_path, manifest.raw_io_scopes) &&
        !manifest.raw_io_exempt.count(rel_path)) {
        // Artifact bytes reach disk only through the io_env/serialize
        // seam (DESIGN.md §14): a raw ofstream or rename here would
        // bypass fault injection and the crash-consistency drill.
        static const std::regex raw_io(R"(\bofstream\b|\brename\s*\()");
        for (size_t li = 0; li < src.code.size(); ++li) {
            if (std::regex_search(src.code[li], raw_io)) {
                add(static_cast<int>(li) + 1, "raw-io",
                    "raw file write/rename outside the io_env/serialize "
                    "seam; route artifact bytes through atomicWriteFile "
                    "/ quarantineArtifact (DESIGN.md §14)");
            }
        }
    }
    if (matchesAnyPrefix(rel_path, manifest.tmp_path_scopes)) {
        // Tests own their scratch state (tests/scratch.h): a fixed /tmp/
        // path is shared between the test processes `ctest -j` runs
        // side by side. Only string literals count: the directive view
        // keeps their contents, the code view blanks them.
        for (size_t li = 0; li < src.directives.size(); ++li) {
            const std::string &line = src.directives[li];
            for (size_t pos = line.find("/tmp/"); pos != std::string::npos;
                 pos = line.find("/tmp/", pos + 1)) {
                if (src.code[li].compare(pos, 5, "     ") == 0) {
                    add(static_cast<int>(li) + 1, "tmp-path",
                        "literal /tmp/ path in a test; take the directory "
                        "from scratchDir() (tests/scratch.h)");
                    break;
                }
            }
        }
    }
    if (manifest.hot_tus.count(rel_path)) {
        // The steady-state scoring path (DESIGN.md §13) must not touch
        // the heap: scratch comes from an Arena, persistent storage is
        // sized once at construction. One-time warm-up growth carries an
        // audited suppression.
        static const std::regex hot_alloc(
            R"(\bnew\b|\bmake_unique\s*<|\bmake_shared\s*<)"
            R"(|\b(malloc|calloc|realloc)\s*\()"
            R"(|\.(push_back|emplace_back|resize|reserve|insert|assign)\s*\()");
        for (size_t li = 0; li < src.code.size(); ++li) {
            if (std::regex_search(src.code[li], hot_alloc)) {
                add(static_cast<int>(li) + 1, "hot-alloc",
                    "heap allocation in a hot TU (DESIGN.md §13): use "
                    "the Arena / preallocated storage, or audit "
                    "one-time sizing with a suppression");
            }
        }
    }

    // (4) member naming style.
    checkMemberStyle(src.code, rel_path, raw);
    return raw;
}

/**
 * Resolve suppressions against the raw findings of one file, marking
 * used audits and reporting unused/malformed ones. Runs once per file,
 * after every rule (per-file and cross-TU) has contributed.
 */
std::vector<Finding>
resolveSuppressions(const std::string &rel_path, StrippedSource &src,
                    std::vector<Finding> raw)
{
    std::vector<Finding> findings;
    for (Finding &f : raw) {
        bool suppressed = false;
        for (Suppression &s : src.suppressions) {
            if (s.rule != f.rule)
                continue;
            const bool whole_file =
                f.rule == "pragma-once" || f.rule == "include-required";
            if (whole_file || s.line == f.line || s.line == f.line - 1) {
                s.used = true;
                suppressed = true;
                break;
            }
        }
        if (!suppressed)
            findings.push_back(std::move(f));
    }
    for (const Suppression &s : src.suppressions) {
        if (!s.used) {
            Finding f;
            f.file = rel_path;
            f.line = s.line;
            f.rule = "unused-suppression";
            f.message = "suppression allow(" + s.rule +
                        ") matches no finding; delete it";
            findings.push_back(std::move(f));
        }
    }
    for (Finding f : src.bad_suppressions) {
        f.file = rel_path;
        findings.push_back(std::move(f));
    }
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.line, a.rule) <
                         std::tie(b.line, b.rule);
              });
    return findings;
}

/** True when @p rel_path belongs in the cross-TU symbol index: every
 *  must-check scope plus the declared loader / hot TUs. */
bool
inIndexScope(const std::string &rel_path, const Manifest &manifest)
{
    if (manifest.loader_tus.count(rel_path) ||
        manifest.hot_tus.count(rel_path))
        return true;
    return matchesAnyPrefix(rel_path, manifest.must_check);
}

} // namespace

// --- lintFile -----------------------------------------------------------

std::vector<Finding>
lintFile(const std::string &rel_path, const std::string &text,
         const Manifest &manifest)
{
    StrippedSource src = stripSource(text);
    return resolveSuppressions(
        rel_path, src, collectFileFindings(rel_path, src, manifest));
}

// --- lintSources --------------------------------------------------------

std::vector<std::string>
allRuleIds()
{
    return {
        "rand",           "random-device",     "std-engine",
        "wallclock",      "layering",          "include-forbidden",
        "include-required", "loader-fatal",    "unbounded-alloc",
        "hot-alloc",      "raw-io",            "tmp-path",
        "unchecked-result", "hot-call-alloc",  "unknown-hot-entry",
        "suppression-budget",
        "pragma-once",    "float-eq",          "member-underscore",
        "bad-suppression", "unused-suppression",
    };
}

Result<LintReport>
lintSources(const std::vector<SourceFile> &files, const Manifest &manifest,
            bool whole_tree)
{
    // Pass 1: per-file rules + the symbol index over in-scope files.
    std::vector<StrippedSource> stripped(files.size());
    std::vector<std::vector<Finding>> raw(files.size());
    SymbolIndex index;
    for (size_t f = 0; f < files.size(); ++f) {
        stripped[f] = stripSource(files[f].text);
        raw[f] = collectFileFindings(files[f].rel_path, stripped[f],
                                     manifest);
        if (inIndexScope(files[f].rel_path, manifest))
            indexSource(files[f].rel_path, stripped[f], index);
    }
    finalizeIndex(index);

    // Pass 2: flow-aware rules, routed back to their file so the
    // audited-suppression mechanism applies at the finding's line.
    std::map<std::string, size_t> file_of;
    for (size_t f = 0; f < files.size(); ++f)
        file_of.emplace(files[f].rel_path, f);
    for (Finding &finding : analyzeIndex(index, manifest)) {
        const auto it = file_of.find(finding.file);
        TLP_CHECK(it != file_of.end(),
                  "cross-TU finding in unscanned file ", finding.file);
        raw[it->second].push_back(std::move(finding));
    }

    LintReport report;
    report.files_scanned = static_cast<int>(files.size());
    for (size_t f = 0; f < files.size(); ++f) {
        report.suppressions +=
            static_cast<int>(stripped[f].suppressions.size());
        std::vector<Finding> findings = resolveSuppressions(
            files[f].rel_path, stripped[f], std::move(raw[f]));
        report.findings.insert(report.findings.end(),
                               std::make_move_iterator(findings.begin()),
                               std::make_move_iterator(findings.end()));
    }

    if (whole_tree) {
        for (Finding &finding : unknownHotEntries(index, manifest))
            report.findings.push_back(std::move(finding));
    }

    // The suppression budget: audits may only grow deliberately.
    if (manifest.suppression_budget >= 0 &&
        report.suppressions > manifest.suppression_budget) {
        Finding f;
        f.file = "<tree>";
        f.line = 0;
        f.rule = "suppression-budget";
        f.message = "tree carries " +
                    std::to_string(report.suppressions) +
                    " tlp-lint suppressions, budget is " +
                    std::to_string(manifest.suppression_budget) +
                    "; remove audits or raise suppression-budget / "
                    "--max-suppressions deliberately";
        report.findings.push_back(std::move(f));
    }
    return report;
}

// --- lintTree -----------------------------------------------------------

Result<LintReport>
lintTree(const std::string &root, const std::vector<std::string> &dirs,
         const Manifest &manifest)
{
    std::vector<std::string> files;
    for (const std::string &dir : dirs) {
        const fs::path base = fs::path(root) / dir;
        std::error_code ec;
        if (fs::is_regular_file(base, ec)) {
            files.push_back(dir);
            continue;
        }
        if (!fs::is_directory(base, ec)) {
            return Status::error(ErrorCode::IoError,
                                 "lint path does not exist: " +
                                     base.string());
        }
        for (auto it = fs::recursive_directory_iterator(base, ec);
             it != fs::recursive_directory_iterator();
             it.increment(ec)) {
            if (ec) {
                return Status::error(ErrorCode::IoError,
                                     "cannot walk " + base.string() +
                                         ": " + ec.message());
            }
            if (!it->is_regular_file())
                continue;
            const std::string ext = it->path().extension().string();
            if (ext != ".h" && ext != ".cc" && ext != ".cpp")
                continue;
            files.push_back(
                fs::relative(it->path(), root).generic_string());
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    std::vector<SourceFile> sources;
    sources.reserve(files.size());
    for (const std::string &rel : files) {
        if (matchesAnyPrefix(rel, manifest.excludes))
            continue;
        std::ifstream is(fs::path(root) / rel, std::ios::binary);
        if (!is) {
            return Status::error(ErrorCode::IoError,
                                 "cannot read " + rel);
        }
        std::ostringstream buffer;
        buffer << is.rdbuf();
        sources.push_back({rel, buffer.str()});
    }
    return lintSources(sources, manifest, true);
}

} // namespace tlp::lint
