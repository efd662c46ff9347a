/**
 * @file
 * tlp_lint: a self-hosted invariant checker for the TLP tree.
 *
 * The repo's correctness story rests on invariants that used to live only
 * in prose (CLAUDE.md / DESIGN.md): all stochasticity flows through seeded
 * support/rng generators, the TLP feature path never touches lowering
 * (the paper's Fig. 10 asymmetry), artifact loaders return Status /
 * Result<T> instead of aborting, and length-prefixed allocations sit next
 * to remaining-bytes bound checks. tlp_lint machine-enforces them: a small
 * C++ lexer strips comments and string literals (so banned tokens inside
 * doc comments or message strings never fire), and a rule engine driven by
 * a checked-in manifest (tools/lint_manifest.txt) scans the tree.
 *
 * Since v2 the scan is two-pass and flow-aware: pass 1 builds a tree-wide
 * symbol index from the lexer's token stream (function definitions and
 * declarations with their return-type facts, a per-function call graph,
 * and per-function may-allocate facts), and pass 2 runs cross-TU rule
 * families over that index — a Status/Result<T> dropped at any call site
 * (unchecked-result) and heap allocation transitively reachable from a
 * hot-path entry point (hot-call-alloc) are findings even when caller and
 * callee live in different TUs.
 *
 * Findings are suppressible only via an audited comment on the offending
 * line or the line above:
 *
 *     // tlp-lint: allow(<rule-id>) -- <reason>
 *
 * A suppression that matches no finding is itself a finding
 * (unused-suppression), so stale audits cannot accumulate.
 *
 * Exit codes follow the CLI contract (DESIGN.md §10): 0 = clean,
 * 1 = unsuppressed findings, 2 = usage / manifest error (TLP_FATAL).
 *
 * Rule catalogue (see DESIGN.md §11 for the full prose):
 *   rand               libc random sources (rand, srand, drand48, ...)
 *   random-device      std::random_device (non-reproducible seeding)
 *   std-engine         any <random> engine or distribution; stochasticity
 *                      must flow through support/rng
 *   wallclock          clock reads (system_clock, steady_clock, time(),
 *                      gettimeofday, ...) outside allowlisted timing TUs
 *   layering           include edge violating the module DAG declared in
 *                      the manifest (`layer` directives)
 *   include-forbidden  file-level include ban (`forbid-include`), e.g.
 *                      features/tlp_* must not see schedule/lower.h
 *   include-required   file-level include mandate (`require-include`),
 *                      e.g. the Ansor extractor must see schedule/lower.h
 *   loader-fatal       TLP_FATAL / TLP_PANIC inside a TU contracted to
 *                      return Status / Result<T> (`loader-tu`)
 *   unbounded-alloc    resize/reserve in a `serialize-consumer` TU with no
 *                      remaining-bytes check in the preceding lines
 *   raw-io             raw std::ofstream / rename on a TU under a
 *                      `forbid-raw-io` prefix that is not a declared
 *                      `raw-io-exempt` TU; artifact bytes must flow
 *                      through the io_env/serialize seam
 *                      (atomicWriteFile, quarantineArtifact) so fault
 *                      injection and crash-consistency guarantees
 *                      cannot be bypassed (DESIGN.md §14)
 *   tmp-path           a string literal holding a /tmp/ path in a TU
 *                      under a `forbid-tmp-path` prefix; tests own their
 *                      scratch state (tests/scratch.h scratchDir()), and
 *                      a fixed /tmp/ path is shared between tests that
 *                      `ctest -j` runs side by side
 *   hot-alloc          heap allocation (new, make_unique/make_shared,
 *                      malloc, or container growth) in a `hot-tu` TU; the
 *                      scoring hot path (DESIGN.md §13) must draw scratch
 *                      from an Arena or storage preallocated at
 *                      construction — one-time sizing carries an audited
 *                      suppression
 *   unchecked-result   call to a Status/Result<T>-returning function whose
 *                      value is discarded (not assigned, returned, passed
 *                      as an argument, or tested) inside a `must-check`
 *                      scope or a `loader-tu`; flow-aware: the return
 *                      types come from the tree-wide symbol index, so a
 *                      dropped Status at any call site is caught even when
 *                      the callee lives in another TU
 *   hot-call-alloc     transitive form of hot-alloc: a function reachable
 *                      on the call graph from a manifest-declared
 *                      `hot-entry` root that may allocate (heap tokens,
 *                      container growth, or returning std::string by
 *                      value) is a finding even when its body lives in a
 *                      non-hot TU; functions defined inside `hot-tu` TUs
 *                      are covered by the per-TU hot-alloc rule instead
 *   unknown-hot-entry  a `hot-entry` root matches no function defined in
 *                      the indexed tree (whole-tree runs only), so its
 *                      no-allocation contract would reach nothing
 *   suppression-budget the tree carries more `tlp-lint: allow(...)`
 *                      audits than the manifest's `suppression-budget N`
 *                      (or --max-suppressions) allows — suppressions may
 *                      only grow deliberately
 *   pragma-once        header missing #pragma once
 *   float-eq           == / != against a floating-point literal (NaN-label
 *                      hazard; use std::isnan or an epsilon)
 *   member-underscore  private/protected data member without the
 *                      trailing_underscore_ style
 *   bad-suppression    malformed tlp-lint comment (missing rule or reason)
 *   unused-suppression suppression that matched no finding
 */
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/result.h"

namespace tlp::lint {

/** One rule violation at a source location. */
struct Finding
{
    std::string file;   ///< root-relative path
    int line = 0;       ///< 1-based; 0 for whole-file findings
    std::string rule;   ///< rule id, e.g. "wallclock"
    std::string message;

    /** "file:line: [rule] message" for terminal output. */
    std::string toString() const;
};

/** One `tlp-lint: allow(rule) -- reason` comment. */
struct Suppression
{
    int line = 0;
    std::string rule;
    std::string reason;
    bool used = false;
};

/**
 * A source file with comments and literal contents blanked out.
 *
 * All views preserve line numbers exactly (same number of lines as the
 * input, bytes replaced by spaces), so rule hits map back to the
 * original file.
 */
struct StrippedSource
{
    /** Comments blanked AND string/char literal contents blanked. Token
     *  rules (rand, wallclock, float-eq, ...) run on this view so a
     *  banned name inside a log message can never fire. */
    std::vector<std::string> code;
    /** Comments blanked, string literals kept. Preprocessor rules
     *  (#include extraction, #pragma once) run on this view. */
    std::vector<std::string> directives;
    /** Parsed suppression comments, in line order. */
    std::vector<Suppression> suppressions;
    /** Malformed tlp-lint comments (reported as bad-suppression). */
    std::vector<Finding> bad_suppressions;
};

/** Strip @p text; never fails (unterminated constructs end at EOF). */
StrippedSource stripSource(const std::string &text);

/** Parsed tools/lint_manifest.txt. All paths are root-relative. */
struct Manifest
{
    /** Path prefixes exempt from the wallclock rule (timing TUs). */
    std::vector<std::string> wallclock_allow;
    /** Path prefixes skipped entirely. */
    std::vector<std::string> excludes;
    /** Module -> modules it may #include from (src/ layering DAG). */
    std::map<std::string, std::set<std::string>> layers;
    /** (file prefix, include substring) bans. */
    std::vector<std::pair<std::string, std::string>> forbid_includes;
    /** (file prefix, include substring) mandates. */
    std::vector<std::pair<std::string, std::string>> require_includes;
    /** TUs contracted to return Status/Result<T> (no FATAL/PANIC). */
    std::set<std::string> loader_tus;
    /** TUs whose resize/reserve must sit near a bound check. */
    std::set<std::string> serialize_consumers;
    /** Hot-path TUs (DESIGN.md §13): no unaudited heap allocation. */
    std::set<std::string> hot_tus;
    /** Prefixes where raw ofstream/rename is banned (DESIGN.md §14). */
    std::vector<std::string> raw_io_scopes;
    /** TUs exempt from the raw-io ban (the seam itself). */
    std::set<std::string> raw_io_exempt;
    /** Prefixes where a literal /tmp/ path is banned (tests). */
    std::vector<std::string> tmp_path_scopes;
    /** Prefixes where a discarded Status/Result call is a finding
     *  (loader-tus are always in scope). */
    std::vector<std::string> must_check;
    /** Hot-path roots for transitive allocation tracking; a bare name
     *  ("seqKeyOf") or a Class::method suffix of the qualified name. */
    std::set<std::string> hot_entries;
    /** Max tree-wide `tlp-lint: allow(...)` count; -1 = unlimited. */
    int suppression_budget = -1;
};

/**
 * True when @p path falls under @p prefix at a path-component (or
 * extension) boundary: "src/tuner/session" matches "src/tuner/session",
 * "src/tuner/session.cc" and "src/tuner/session/x.cc" but never
 * "src/tuner/session_extra.cc". A prefix ending in '/' matches every
 * path under that directory.
 */
bool pathInScope(const std::string &path, const std::string &prefix);

/**
 * Parse manifest text. Returns Invalid with a line number on a syntax
 * error (unknown directive, missing `->`, empty operand).
 */
Result<Manifest> parseManifest(const std::string &text);

/** Convenience: read and parse a manifest file. */
Result<Manifest> loadManifest(const std::string &path);

/**
 * Lint one file. @p rel_path is the root-relative path used for rule
 * scoping (layer membership, allowlists); @p text is the file contents.
 * Returns only unsuppressed findings (plus unused-suppression /
 * bad-suppression findings). Per-file rules only: the cross-TU rule
 * families (unchecked-result, hot-call-alloc) need the whole tree and
 * run through lintSources/lintTree.
 */
std::vector<Finding> lintFile(const std::string &rel_path,
                              const std::string &text,
                              const Manifest &manifest);

// --- cross-TU symbol index (pass 1 of the flow-aware analysis) ----------

/** One call site inside a function body. */
struct CallSite
{
    std::string name;       ///< unqualified callee name
    int line = 0;
    /** True when the call is a whole statement whose value is dropped
     *  (not assigned, returned, passed as an argument, or tested). */
    bool discarded = false;
};

/** One may-allocate fact inside a function body. */
struct AllocSite
{
    int line = 0;
    std::string what;       ///< e.g. "make_unique", ".push_back("
};

/** One function definition or declaration seen by the indexer. */
struct FunctionInfo
{
    std::string name;       ///< unqualified, e.g. "parallelFor"
    std::string qualified;  ///< as written, e.g. "ThreadPool::parallelFor"
    std::string file;       ///< root-relative defining/declaring TU
    int line = 0;
    bool defined = false;   ///< has a body (vs a prototype)
    /** Returns Status or Result<T> by value (references/pointers are
     *  accessors and do not count). */
    bool returns_status = false;
    /** Returns std::string by value — an allocation at every call. */
    bool returns_string = false;
    std::vector<CallSite> calls;    ///< body call sites (defined only)
    std::vector<AllocSite> allocs;  ///< body may-allocate facts
    std::set<std::string> locals;   ///< local lambda bindings; calls to
                                    ///< these resolve inside the body
};

/** Tree-wide symbol index: pass 1 of the flow-aware rule families. */
struct SymbolIndex
{
    std::vector<FunctionInfo> functions;
    /** Unqualified name -> indices into functions (finalizeIndex). */
    std::map<std::string, std::vector<size_t>> by_name;
};

/** Append every function of one stripped file to @p index. */
void indexSource(const std::string &rel_path, const StrippedSource &src,
                 SymbolIndex &index);

/** Rebuild by_name after the last indexSource call. */
void finalizeIndex(SymbolIndex &index);

/**
 * Pass 2: run the flow-aware rule families over the finalized index —
 * unchecked-result over `must-check` scopes + loader-tus, and
 * hot-call-alloc over everything reachable from the `hot-entry` roots.
 * Returns raw findings; suppression resolution happens in lintSources.
 */
std::vector<Finding> analyzeIndex(const SymbolIndex &index,
                                  const Manifest &manifest);

/**
 * unknown-hot-entry: one finding (file "<manifest>") per `hot-entry`
 * root that matches no defined function of the finalized index.
 */
std::vector<Finding> unknownHotEntries(const SymbolIndex &index,
                                       const Manifest &manifest);

/** An in-memory source file for lintSources. */
struct SourceFile
{
    std::string rel_path;
    std::string text;
};

/** Result of walking a tree. */
struct LintReport
{
    std::vector<Finding> findings;
    int files_scanned = 0;
    /** Well-formed `tlp-lint: allow(...)` audits across scanned files. */
    int suppressions = 0;
};

/**
 * Lint a whole in-memory tree: per-file rules, the cross-TU index and
 * flow rules, suppression resolution, and the suppression-budget check.
 * Files matching a manifest `exclude` prefix must already be filtered
 * out by the caller. @p whole_tree says @p files are the whole tree the
 * manifest describes, which adds the unknown-hot-entry check.
 */
Result<LintReport> lintSources(const std::vector<SourceFile> &files,
                               const Manifest &manifest,
                               bool whole_tree = false);

/** Every rule id the engine can emit (for fixture-coverage meta-tests). */
std::vector<std::string> allRuleIds();

/**
 * Lint every *.h / *.cc / *.cpp under @p root joined with each of
 * @p dirs (a dir entry may also name a single file) as a whole tree
 * (lintSources with whole_tree). Files matching a manifest `exclude`
 * prefix are skipped. Deterministic: files are visited in sorted
 * root-relative order. Fails with IoError if a requested dir does not
 * exist.
 */
Result<LintReport> lintTree(const std::string &root,
                            const std::vector<std::string> &dirs,
                            const Manifest &manifest);

} // namespace tlp::lint
