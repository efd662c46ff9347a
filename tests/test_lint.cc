/**
 * @file
 * Tests for tools/tlp_lint: the lexer, the manifest parser, each rule
 * id against golden fixtures (in-memory and on-disk under
 * tests/lint_fixtures/), the suppression contract, and the Fig. 10
 * asymmetry the layering rules encode.
 *
 * The deliberate-violation snippets below live inside raw string
 * literals, which is itself a regression test for the real-tree lint
 * job: the lexer blanks string contents, so scanning THIS file must
 * produce no findings.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "tools/tlp_lint/lint.h"

using namespace tlp;
using namespace tlp::lint;

namespace {

/** Rule ids present in a finding list. */
std::set<std::string>
ruleSet(const std::vector<Finding> &findings)
{
    std::set<std::string> rules;
    for (const Finding &f : findings)
        rules.insert(f.rule);
    return rules;
}

/** A manifest mirroring the real tree's structure for in-memory tests. */
Manifest
testManifest()
{
    const char *text = R"(
layer support ->
layer schedule -> support
layer features -> schedule support
layer nn -> support
layer tuner -> nn schedule support
layer tuner/service -> tuner support
forbid-include src/features/tlp_features -> schedule/lower.h
require-include src/features/ansor_features -> schedule/lower.h
loader-tu src/loader.cc
serialize-consumer src/consumer.cc
hot-tu src/hot.cc
allow-wallclock bench/timing.cc
forbid-raw-io src/
forbid-raw-io bench/
raw-io-exempt src/support/serialize.cc
forbid-tmp-path tests/
must-check src/
hot-entry hotLoop
)";
    auto result = parseManifest(text);
    EXPECT_TRUE(result.ok()) << result.status().toString();
    return result.take();
}

} // namespace

// --- lexer --------------------------------------------------------------

TEST(LintLexer, BlanksCommentsAndStringsButKeepsLineNumbers)
{
    const std::string text =
        "int a; // rand()\n"
        "/* system_clock\n"
        "   rand() */ int b;\n"
        "const char *s = \"rand()\";\n";
    const StrippedSource src = stripSource(text);
    ASSERT_EQ(src.code.size(), 4u);
    for (const std::string &line : src.code)
        EXPECT_EQ(line.find("rand"), std::string::npos) << line;
    EXPECT_NE(src.code[0].find("int a;"), std::string::npos);
    EXPECT_NE(src.code[2].find("int b;"), std::string::npos);
    // The directive view keeps string contents (for #include paths).
    EXPECT_NE(src.directives[3].find("rand()"), std::string::npos);
}

TEST(LintLexer, RawStringsAndDigitSeparators)
{
    const std::string text =
        "auto s = R\"(rand() mt19937)\";\n"
        "long big = 1'000'000; int c = 'x';\n";
    const StrippedSource src = stripSource(text);
    EXPECT_EQ(src.code[0].find("mt19937"), std::string::npos);
    EXPECT_NE(src.code[1].find("1'000'000"), std::string::npos);
}

TEST(LintLexer, ParsesWellFormedSuppressions)
{
    const std::string text =
        "// tlp-lint: allow(wallclock) -- budget timing is intentional\n"
        "int x;\n";
    const StrippedSource src = stripSource(text);
    ASSERT_EQ(src.suppressions.size(), 1u);
    EXPECT_EQ(src.suppressions[0].line, 1);
    EXPECT_EQ(src.suppressions[0].rule, "wallclock");
    EXPECT_EQ(src.suppressions[0].reason, "budget timing is intentional");
}

TEST(LintLexer, ProseMentioningTheSyntaxIsNotASuppression)
{
    // Only `//` comments *starting* with the marker parse; doc prose
    // and block comments never do.
    const std::string text =
        "// see the tlp-lint: allow(...) syntax in DESIGN.md\n"
        "/* tlp-lint: allow(rand) -- block comments do not count */\n";
    const StrippedSource src = stripSource(text);
    EXPECT_TRUE(src.suppressions.empty());
    EXPECT_TRUE(src.bad_suppressions.empty());
}

TEST(LintLexer, MalformedSuppressionIsAFinding)
{
    const StrippedSource src =
        stripSource("// tlp-lint: allow rand, because\n");
    ASSERT_EQ(src.bad_suppressions.size(), 1u);
    EXPECT_EQ(src.bad_suppressions[0].rule, "bad-suppression");
}

TEST(LintLexer, MissingReasonIsMalformed)
{
    const StrippedSource src =
        stripSource("// tlp-lint: allow(rand)\n");
    EXPECT_TRUE(src.suppressions.empty());
    ASSERT_EQ(src.bad_suppressions.size(), 1u);
}

// --- manifest -----------------------------------------------------------

TEST(LintManifest, ParsesDirectives)
{
    const Manifest m = testManifest();
    EXPECT_EQ(m.layers.size(), 6u);
    EXPECT_TRUE(m.layers.at("tuner").count("nn"));
    EXPECT_TRUE(m.layers.at("support").empty());
    ASSERT_EQ(m.forbid_includes.size(), 1u);
    EXPECT_EQ(m.forbid_includes[0].second, "schedule/lower.h");
    EXPECT_TRUE(m.loader_tus.count("src/loader.cc"));
    EXPECT_TRUE(m.hot_tus.count("src/hot.cc"));
}

TEST(LintManifest, UnknownDirectiveFailsWithLineNumber)
{
    const auto result = parseManifest("layer a ->\nfrobnicate b\n");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().toString().find("line 2"),
              std::string::npos);
}

TEST(LintManifest, LayerMissingArrowFails)
{
    EXPECT_FALSE(parseManifest("layer broken support\n").ok());
}

TEST(LintManifest, UndeclaredLayerDependencyFails)
{
    EXPECT_FALSE(parseManifest("layer a -> ghost\n").ok());
}

// --- determinism rules --------------------------------------------------

TEST(LintRules, DeterminismTokensFire)
{
    const Manifest m = testManifest();
    const char *text = R"(
#include <random>
int a() { return rand(); }
std::random_device rd;
std::mt19937 gen(rd());
std::uniform_real_distribution<double> dist(0, 1);
long t() { return time(nullptr); }
)";
    const auto rules = ruleSet(lintFile("src/support/bad.cc", text, m));
    EXPECT_TRUE(rules.count("rand"));
    EXPECT_TRUE(rules.count("random-device"));
    EXPECT_TRUE(rules.count("std-engine"));
    EXPECT_TRUE(rules.count("wallclock"));
}

TEST(LintRules, BannedTokensInStringsAndCommentsDoNotFire)
{
    const Manifest m = testManifest();
    const char *text = R"(
// calling rand() here would break determinism
const char *kMessage = "mt19937 and system_clock are banned";
int fine() { return 7; }
)";
    EXPECT_TRUE(lintFile("src/support/fine.cc", text, m).empty());
}

TEST(LintRules, WallclockAllowlistHonored)
{
    const Manifest m = testManifest();
    const char *text =
        "#include <chrono>\n"
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_EQ(ruleSet(lintFile("src/support/t.cc", text, m))
                  .count("wallclock"),
              1u);
    EXPECT_TRUE(lintFile("bench/timing.cc", text, m).empty());
}

TEST(LintRules, SeededRngUseIsClean)
{
    // The sanctioned pattern: explicit seeds, support/rng draws.
    const Manifest m = testManifest();
    const char *text = R"(
#include "support/rng.h"
double draw(tlp::Rng &rng) { return rng.uniform(); }
tlp::Rng seeded(0x5eed);
)";
    EXPECT_TRUE(lintFile("src/support/good.cc", text, m).empty());
}

// --- layering + Fig. 10 asymmetry ---------------------------------------

TEST(LintRules, LayeringRejectsUpwardInclude)
{
    const Manifest m = testManifest();
    const auto findings = lintFile("src/nn/bad.cc",
                                   "#include \"tuner/evolution.h\"\n", m);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "layering");
    EXPECT_EQ(findings[0].line, 1);
}

TEST(LintRules, LayeringAcceptsDeclaredEdge)
{
    const Manifest m = testManifest();
    EXPECT_TRUE(lintFile("src/tuner/fine.cc",
                         "#include \"nn/tensor.h\"\n"
                         "#include \"schedule/state.h\"\n",
                         m)
                    .empty());
}

TEST(LintRules, NestedLayerOwnsItsFilesAndIncludes)
{
    // A declared nested layer (tuner/service) shadows its parent: its
    // files resolve to the nested module and may use the nested deps.
    const Manifest m = testManifest();
    EXPECT_TRUE(lintFile("src/tuner/service/service.cc",
                         "#include \"tuner/service/service.h\"\n"
                         "#include \"tuner/session.h\"\n"
                         "#include \"support/result.h\"\n",
                         m)
                    .empty());
    // ...but the nested layer only gets its OWN edges: tuner may see
    // nn, tuner/service here may not.
    const auto rules = ruleSet(
        lintFile("src/tuner/service/service.cc",
                 "#include \"nn/tensor.h\"\n", m));
    EXPECT_TRUE(rules.count("layering"));
}

TEST(LintRules, ParentLayerMustNotIncludeNestedLayer)
{
    // The include "tuner/service/..." resolves to the nested layer, so
    // the parent needs an explicit (undeclared here) edge to use it:
    // sessions never know about the service above them.
    const Manifest m = testManifest();
    const auto findings =
        lintFile("src/tuner/session.cc",
                 "#include \"tuner/service/service.h\"\n", m);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "layering");
}

TEST(LintRules, UndeclaredModuleIsAFinding)
{
    const Manifest m = testManifest();
    const auto rules =
        ruleSet(lintFile("src/mystery/new.cc", "int x;\n", m));
    EXPECT_TRUE(rules.count("layering"));
}

TEST(LintRules, Fig10AsymmetryTlpRejectedAnsorAccepted)
{
    // The paper's Fig. 10 claim, machine-enforced: the SAME include of
    // the lowering header is a finding in the TLP extractor TU and
    // clean in the Ansor extractor TU.
    const Manifest m = testManifest();
    const std::string include_lower =
        "#include \"schedule/lower.h\"\n";
    const auto tlp_findings =
        lintFile("src/features/tlp_features.cc", include_lower, m);
    ASSERT_EQ(tlp_findings.size(), 1u);
    EXPECT_EQ(tlp_findings[0].rule, "include-forbidden");

    EXPECT_TRUE(
        lintFile("src/features/ansor_features.cc", include_lower, m)
            .empty());
}

TEST(LintRules, AnsorWithoutLoweringIsAFinding)
{
    // ...and the other direction: the Ansor extractor MUST lower.
    const Manifest m = testManifest();
    const auto rules = ruleSet(lintFile(
        "src/features/ansor_features.h",
        "#pragma once\n#include \"schedule/primitive.h\"\n", m));
    EXPECT_TRUE(rules.count("include-required"));
}

// --- artifact-safety rules ----------------------------------------------

TEST(LintRules, LoaderFatalFlaggedOnlyInLoaderTus)
{
    const Manifest m = testManifest();
    const char *text = "void f() { TLP_FATAL(\"bad artifact\"); }\n";
    EXPECT_EQ(ruleSet(lintFile("src/loader.cc", text, m))
                  .count("loader-fatal"),
              1u);
    EXPECT_TRUE(lintFile("src/support/cli.cc", text, m).empty());
}

TEST(LintRules, UnboundedAllocNeedsNearbyBoundCheck)
{
    const Manifest m = testManifest();
    const char *unguarded = R"(
void parse(BinaryReader &r, std::vector<float> &v)
{
    const auto count = r.readPod<uint64_t>();
    v.resize(count);
}
)";
    EXPECT_EQ(ruleSet(lintFile("src/consumer.cc", unguarded, m))
                  .count("unbounded-alloc"),
              1u);

    const char *guarded = R"(
void parse(BinaryReader &r, std::vector<float> &v)
{
    const auto count = r.readPod<uint64_t>();
    if (count > r.remaining() / sizeof(float))
        throw SerializeError(ErrorCode::Truncated, "bad count");
    v.resize(count);
}
)";
    EXPECT_TRUE(lintFile("src/consumer.cc", guarded, m).empty());

    // Sizing from an in-memory container is not stream-controlled.
    const char *from_size =
        "void copy() { dst.resize(src.size()); }\n";
    EXPECT_TRUE(lintFile("src/consumer.cc", from_size, m).empty());
}

TEST(LintRules, HotAllocFlaggedOnlyInHotTus)
{
    const Manifest m = testManifest();
    const char *text = R"(
void warm(std::vector<float> &v)
{
    v.resize(64);
    v.push_back(1.0f);
    auto p = std::make_unique<float[]>(8);
    float *q = new float[4];
}
)";
    // Four allocations, four findings — but only in the declared hot TU.
    const auto findings = lintFile("src/hot.cc", text, m);
    EXPECT_EQ(findings.size(), 4u);
    EXPECT_EQ(ruleSet(findings),
              std::set<std::string>{"hot-alloc"});
    EXPECT_TRUE(lintFile("src/support/cold.cc", text, m).empty());

    // Pure arithmetic over caller-provided storage stays clean, and a
    // construction-time sizing passes with an audited suppression.
    const char *clean = R"(
void score(const float *x, float *out, long n)
{
    for (long i = 0; i < n; ++i)
        out[i] = x[i] * 2.0f;
}
void sizeOnce(Slab &slab, long capacity)
{
    // tlp-lint: allow(hot-alloc) -- one-time construction sizing
    slab.storage.resize(capacity);
}
)";
    EXPECT_TRUE(lintFile("src/hot.cc", clean, m).empty());
}

TEST(LintRules, RawIoBannedOutsideTheSeam)
{
    const Manifest m = testManifest();
    const char *text = R"(
void save(const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    std::rename("a.tmp", "a.bin");
}
)";
    // Two raw-io findings in scoped TUs; the exempt seam TU and
    // out-of-scope paths (tests/) stay clean.
    const auto findings = lintFile("src/tuner/writer.cc", text, m);
    EXPECT_EQ(findings.size(), 2u);
    EXPECT_EQ(ruleSet(findings), std::set<std::string>{"raw-io"});
    EXPECT_TRUE(
        lintFile("src/support/serialize.cc", text, m).empty());
    EXPECT_TRUE(lintFile("tests/test_x.cc", text, m).empty());

    // ofstream inside a comment or string never fires (stripped view),
    // and an audited suppression is honored.
    const char *clean = R"lint(
// std::ofstream in prose is fine
void log() { inform("use std::rename (sic)"); }
void plant(const std::string &path)
{
    // tlp-lint: allow(raw-io) -- fixture plants corruption
    std::ofstream os(path);
}
)lint";
    EXPECT_TRUE(lintFile("bench/bench_x.cc", clean, m).empty());
}

TEST(LintRules, TmpPathLiteralBannedInTests)
{
    const Manifest m = testManifest();
    // Built from pieces so this file's own literals hold no such path.
    const std::string tmp = std::string("/") + "tmp/";
    const std::string text = "// scratch once lived under " + tmp +
                             "\n"
                             "std::string a() { return \"" + tmp +
                             "x.bin\"; }\n"
                             "std::string b() { return \"tmp/x\"; }\n";
    // One finding: the literal, not the comment or a relative tmp/.
    const auto findings = lintFile("tests/test_x.cc", text, m);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "tmp-path");
    EXPECT_EQ(findings[0].line, 2);
    // Out of scope: src/ may name /tmp/ (e.g. a CLI default).
    EXPECT_TRUE(lintFile("src/tool.cc", text, m).empty());
}

// --- hygiene rules ------------------------------------------------------

TEST(LintRules, PragmaOnceRequiredInHeaders)
{
    const Manifest m = testManifest();
    const auto rules =
        ruleSet(lintFile("src/support/naked.h", "int x;\n", m));
    EXPECT_TRUE(rules.count("pragma-once"));
    EXPECT_TRUE(lintFile("src/support/good.h",
                         "#pragma once\nint x;\n", m)
                    .empty());
    // Sources do not need it.
    EXPECT_TRUE(lintFile("src/support/main.cc", "int x;\n", m).empty());
}

TEST(LintRules, FloatEqFlagged)
{
    const Manifest m = testManifest();
    const auto rules = ruleSet(lintFile(
        "src/support/f.cc",
        "bool b(double x) { return x == 1.0; }\n"
        "bool c(float y) { return 0.5f != y; }\n", m));
    EXPECT_TRUE(rules.count("float-eq"));
    // Integer comparisons and epsilon tests stay clean.
    EXPECT_TRUE(lintFile("src/support/g.cc",
                         "bool b(int x) { return x == 1; }\n"
                         "bool c(double y) { return y <= 0.5; }\n", m)
                    .empty());
}

TEST(LintRules, MemberUnderscoreStyle)
{
    const Manifest m = testManifest();
    const char *text = R"(
class Widget
{
  public:
    int visible;
  private:
    int hidden;
    double fine_;
    static constexpr int kLimit = 4;
    void helper(int arg);
    struct Scratch;
    struct Pair *linked;
};
struct PlainData
{
    int field;
};
)";
    // A nested-type forward declaration is not a data member; an
    // elaborated-type member still is.
    const auto findings = lintFile("src/support/w.cc", text, m);
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(ruleSet(findings),
              std::set<std::string>{"member-underscore"});
    EXPECT_NE(findings[0].message.find("hidden"), std::string::npos);
    EXPECT_NE(findings[1].message.find("linked"), std::string::npos);
}

// --- suppression contract -----------------------------------------------

TEST(LintSuppression, SameLineAndLineAboveBothWork)
{
    const Manifest m = testManifest();
    const char *text = R"(
// tlp-lint: allow(rand) -- fixture reason one
int a() { return rand(); }
int b() { return rand(); } // tlp-lint: allow(rand) -- fixture reason two
)";
    EXPECT_TRUE(lintFile("src/support/s.cc", text, m).empty());
}

TEST(LintSuppression, WrongRuleIdDoesNotSuppress)
{
    const Manifest m = testManifest();
    const char *text =
        "// tlp-lint: allow(wallclock) -- wrong rule for the line below\n"
        "int a() { return rand(); }\n";
    const auto rules = ruleSet(lintFile("src/support/s.cc", text, m));
    // The rand finding survives AND the suppression is unused.
    EXPECT_TRUE(rules.count("rand"));
    EXPECT_TRUE(rules.count("unused-suppression"));
}

TEST(LintSuppression, UnusedSuppressionIsAFinding)
{
    const Manifest m = testManifest();
    const auto findings = lintFile(
        "src/support/s.cc",
        "// tlp-lint: allow(rand) -- stale audit\nint a;\n", m);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "unused-suppression");
}

// --- flow-aware pass: symbol index + call graph (DESIGN.md §11) ---------

namespace {

/** Rule ids in a LintReport. */
std::set<std::string>
ruleSet(const LintReport &report)
{
    return ruleSet(report.findings);
}

/** In-memory linting must always succeed; unwrap the report. */
LintReport
runSources(const std::vector<SourceFile> &files, const Manifest &m)
{
    auto result = lintSources(files, m);
    EXPECT_TRUE(result.ok()) << result.status().toString();
    return result.take();
}

} // namespace

TEST(LintFlow, DiscardedStatusCallIsFlaggedAcrossTus)
{
    const Manifest m = testManifest();
    const std::vector<SourceFile> sources = {
        {"src/support/saver.h",
         "#pragma once\nStatus saveHeader(const std::string &path);\n"},
        {"src/dropper.cc",
         "void saveAll(const std::string &path)\n"
         "{\n"
         "    saveHeader(path);\n"
         "}\n"},
    };
    const auto findings = runSources(sources, m).findings;
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "unchecked-result");
    EXPECT_EQ(findings[0].file, "src/dropper.cc");
    EXPECT_EQ(findings[0].line, 3);
    // The message names the declaration the index resolved the call to.
    EXPECT_NE(findings[0].message.find("src/support/saver.h"),
              std::string::npos);
}

TEST(LintFlow, ConsumedStatusCallsStayClean)
{
    const Manifest m = testManifest();
    const std::vector<SourceFile> sources = {
        {"src/checked.cc", R"(
Status saveHeader(const std::string &path) { return Status{}; }
void logStatus(const Status &status);
Status
useEveryShape(const std::string &path)
{
    const Status assigned = saveHeader(path);
    if (!assigned.ok())
        return assigned;
    if (!saveHeader(path).ok())
        return Status{};
    logStatus(saveHeader(path));
    return saveHeader(path);
}
)"},
    };
    const auto report = runSources(sources, m);
    EXPECT_TRUE(report.findings.empty())
        << report.findings[0].toString();
}

TEST(LintFlow, MixedVoidOverloadIsNotFlagged)
{
    // save/load families pair a Status path wrapper with a void stream
    // overload; by-name resolution must not flag calls to the void one.
    const Manifest m = testManifest();
    const std::vector<SourceFile> sources = {
        {"src/pair.cc", R"(
Status saveBlob(const std::string &path) { return Status{}; }
void saveBlob(std::ostream &os) {}
void
writeStream(std::ostream &os)
{
    saveBlob(os);
}
)"},
    };
    EXPECT_TRUE(runSources(sources, m).findings.empty());
}

TEST(LintFlow, StatusRefAccessorIsNotFlagged)
{
    // `const Status &status()` accessors return a view, not an
    // obligation: a discarded accessor call is dead code, not a
    // dropped error.
    const Manifest m = testManifest();
    const std::vector<SourceFile> sources = {
        {"src/accessor.cc", R"(
const Status &statusOf(const Thing &thing);
void
poke(const Thing &thing)
{
    statusOf(thing);
}
)"},
    };
    EXPECT_TRUE(runSources(sources, m).findings.empty());
}

TEST(LintFlow, HotCallAllocReachesAcrossTus)
{
    const Manifest m = testManifest();
    const std::vector<SourceFile> sources = {
        {"src/hot.cc",
         "float hotLoop(std::vector<int> &v)\n"
         "{\n"
         "    grow(v);\n"
         "    return 0.0f;\n"
         "}\n"},
        {"src/support/growing.cc",
         "void grow(std::vector<int> &v)\n"
         "{\n"
         "    v.push_back(1);\n"
         "}\n"},
    };
    const auto findings = runSources(sources, m).findings;
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "hot-call-alloc");
    EXPECT_EQ(findings[0].file, "src/support/growing.cc");
    EXPECT_EQ(findings[0].line, 3);
    // The message carries the call path from the hot entry.
    EXPECT_NE(findings[0].message.find("hotLoop -> grow"),
              std::string::npos);
}

TEST(LintFlow, ArenaOnlyCalleeStaysClean)
{
    const Manifest m = testManifest();
    const std::vector<SourceFile> sources = {
        {"src/hot.cc",
         "float hotLoop(Arena &arena)\n"
         "{\n"
         "    return fill(arena);\n"
         "}\n"},
        {"src/support/filler.cc",
         "float fill(Arena &arena)\n"
         "{\n"
         "    float *scratch = arena.alloc(16);\n"
         "    return scratch[0];\n"
         "}\n"},
    };
    EXPECT_TRUE(runSources(sources, m).findings.empty());
}

TEST(LintFlow, UnreachableAllocatorIsNotFlagged)
{
    // Allocating code that the hot entry never reaches is the per-TU
    // hot-alloc rule's business, not the transitive walk's.
    const Manifest m = testManifest();
    const std::vector<SourceFile> sources = {
        {"src/hot.cc",
         "float hotLoop(const float *x) { return x[0]; }\n"},
        {"src/support/cold.cc",
         "void coldPath(std::vector<int> &v) { v.push_back(1); }\n"},
    };
    EXPECT_TRUE(runSources(sources, m).findings.empty());
}

TEST(LintFlow, LocalLambdaDoesNotAliasCrossTuName)
{
    // A local `split` lambda must not resolve to an allocating free
    // function of the same name in another TU.
    const Manifest m = testManifest();
    const std::vector<SourceFile> sources = {
        {"src/hot.cc", R"(
float
hotLoop(long n)
{
    auto split = [](long v) { return v / 2; };
    return static_cast<float>(split(n));
}
)"},
        {"src/support/strings.cc", R"(
std::string
split(const std::string &text)
{
    return text.substr(1);
}
)"},
    };
    const auto report = runSources(sources, m);
    EXPECT_TRUE(report.findings.empty())
        << report.findings[0].toString();
}

TEST(LintFlow, SuppressionBudgetIsTreeWide)
{
    auto parsed = parseManifest(
        "must-check src/\nsuppression-budget 1\n");
    ASSERT_TRUE(parsed.ok());
    const char *suppressed =
        "bool near(double x)\n"
        "{\n"
        "    return x == 0.5; "
        "// tlp-lint: allow(float-eq) -- fixture tolerance\n"
        "}\n";
    const std::vector<SourceFile> sources = {
        {"src/a.cc", suppressed},
        {"src/b.cc", suppressed},
    };
    const auto over = runSources(sources, parsed.value());
    EXPECT_EQ(over.suppressions, 2);
    EXPECT_EQ(ruleSet(over),
              std::set<std::string>{"suppression-budget"});

    // At or under budget is clean; -1 (unset) never fires.
    parsed.value().suppression_budget = 2;
    EXPECT_TRUE(runSources(sources, parsed.value()).findings.empty());
    parsed.value().suppression_budget = -1;
    EXPECT_TRUE(runSources(sources, parsed.value()).findings.empty());
}

TEST(LintFlow, ManifestPathMatchingStopsAtComponentBoundaries)
{
    // The regression shape: a directive scoped to src/tuner/session
    // must not leak onto src/tuner/session_extra.cc, while extension
    // and directory boundaries still match.
    EXPECT_TRUE(pathInScope("src/tuner/session.cc",
                            "src/tuner/session.cc"));
    EXPECT_TRUE(pathInScope("src/tuner/session.cc", "src/tuner/session"));
    EXPECT_TRUE(pathInScope("src/tuner/session.h", "src/tuner/session"));
    EXPECT_FALSE(pathInScope("src/tuner/session_extra.cc",
                             "src/tuner/session"));
    EXPECT_FALSE(pathInScope("src/tuner/session_extra.cc",
                             "src/tuner/session.cc"));
    EXPECT_TRUE(pathInScope("src/tuner/session.cc", "src/tuner/"));
    EXPECT_TRUE(pathInScope("src/tuner/session.cc", "src/tuner"));
    EXPECT_FALSE(pathInScope("src/tuner_extra/x.cc", "src/tuner"));

    // Through the rule engine: the Fig. 10 forbid-include prefix
    // covers tlp_features.{cc,h} but not a sibling with a longer stem.
    const Manifest m = testManifest();
    const char *text = "#include \"schedule/lower.h\"\n";
    EXPECT_EQ(ruleSet(lintFile("src/features/tlp_features.cc", text, m))
                  .count("include-forbidden"),
              1u);
    EXPECT_EQ(ruleSet(lintFile("src/features/tlp_features_extra.cc",
                               text, m))
                  .count("include-forbidden"),
              0u);
}

// --- golden fixture trees (on disk) -------------------------------------

TEST(LintFixtures, CleanTreeIsClean)
{
    const auto manifest = loadManifest(
        std::string(TLP_LINT_FIXTURE_DIR) + "/clean/manifest.txt");
    ASSERT_TRUE(manifest.ok()) << manifest.status().toString();
    const auto report = lintTree(
        std::string(TLP_LINT_FIXTURE_DIR) + "/clean", {"."},
        manifest.value());
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_GE(report.value().files_scanned, 5);
    for (const Finding &f : report.value().findings)
        ADD_FAILURE() << f.toString();
}

TEST(LintFixtures, DirtyTreeFlagsEveryRuleExactlyWhereExpected)
{
    const auto manifest = loadManifest(
        std::string(TLP_LINT_FIXTURE_DIR) + "/dirty/manifest.txt");
    ASSERT_TRUE(manifest.ok()) << manifest.status().toString();
    const auto report = lintTree(
        std::string(TLP_LINT_FIXTURE_DIR) + "/dirty", {"."},
        manifest.value());
    ASSERT_TRUE(report.ok()) << report.status().toString();

    const std::set<std::string> expected = {
        "rand",          "random-device",    "std-engine",
        "wallclock",     "layering",         "include-forbidden",
        "include-required", "loader-fatal",  "unbounded-alloc",
        "hot-alloc",     "raw-io",           "tmp-path",
        "pragma-once",
        "float-eq",      "member-underscore", "unused-suppression",
        "bad-suppression", "unchecked-result", "hot-call-alloc",
        "unknown-hot-entry", "suppression-budget",
    };
    EXPECT_EQ(ruleSet(report.value().findings), expected);

    // The Fig. 10 pair: forbidden include flagged in the TLP TU, the
    // missing lowering include flagged in the Ansor TU.
    auto has = [&](const std::string &file, const std::string &rule) {
        return std::any_of(report.value().findings.begin(),
                           report.value().findings.end(),
                           [&](const Finding &f) {
                               return f.file == file && f.rule == rule;
                           });
    };
    EXPECT_TRUE(has("src/features/tlp_features.cc", "include-forbidden"));
    EXPECT_TRUE(has("src/features/ansor_features.cc",
                    "include-required"));

    // The flow-aware pair: the planted discarded Status fires in its
    // own TU, and the allocating helper fires in the helper's TU (the
    // hot entry lives in hot_entry.cc).
    EXPECT_TRUE(has("unchecked_result.cc", "unchecked-result"));
    EXPECT_TRUE(has("hot_call_alloc.cc", "hot-call-alloc"));

    // Only the undefined root is unknown; hotScore is defined.
    const auto unknown = std::count_if(
        report.value().findings.begin(), report.value().findings.end(),
        [](const Finding &f) { return f.rule == "unknown-hot-entry"; });
    EXPECT_EQ(unknown, 1);
    EXPECT_TRUE(has("<manifest>", "unknown-hot-entry"));
}

TEST(LintFixtures, EveryRuleIdIsExercisedByAGoldenFixture)
{
    // Meta-test: a rule the engine knows but no fixture fires is a
    // rule that can silently stop working.
    const auto manifest = loadManifest(
        std::string(TLP_LINT_FIXTURE_DIR) + "/dirty/manifest.txt");
    ASSERT_TRUE(manifest.ok()) << manifest.status().toString();
    const auto report = lintTree(
        std::string(TLP_LINT_FIXTURE_DIR) + "/dirty", {"."},
        manifest.value());
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const std::set<std::string> fired = ruleSet(report.value().findings);
    for (const std::string &rule : allRuleIds())
        EXPECT_TRUE(fired.count(rule))
            << "rule \"" << rule
            << "\" is not exercised by any golden fixture";
}

TEST(LintFixtures, BadManifestFailsToParse)
{
    const auto manifest = loadManifest(
        std::string(TLP_LINT_FIXTURE_DIR) + "/badmanifest/manifest.txt");
    ASSERT_FALSE(manifest.ok());
    EXPECT_NE(manifest.status().toString().find("line 5"),
              std::string::npos);
}

TEST(LintFixtures, MissingTreeIsAnIoError)
{
    const auto report =
        lintTree("/nonexistent/fixture/root", {"."}, Manifest{});
    ASSERT_FALSE(report.ok());
}
