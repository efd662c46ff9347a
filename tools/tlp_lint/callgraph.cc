/**
 * @file
 * Pass 2 of the flow-aware analysis: rule families over the symbol
 * index built by index.cc.
 *
 * unchecked-result — a call to any function the index knows to return
 * Status/Result<T> by value, whose value is discarded (the call is a
 * whole statement), is a finding in every `must-check` scope and every
 * `loader-tu`. The return-type facts are tree-wide, so a dropped Status
 * fires even when the callee's declaration lives in a different TU.
 *
 * hot-call-alloc — the transitive closure of the no-allocation contract
 * (DESIGN.md §13): starting from the manifest's `hot-entry` roots, walk
 * the call graph (breadth-first, deterministic order) and flag every
 * reachable function that may allocate — heap tokens, container growth,
 * or returning std::string by value — unless its body lives in a
 * declared `hot-tu` (those are already covered, line by line, by the
 * per-TU hot-alloc rule and its audited suppressions). Call edges
 * resolve by unqualified name to every known definition (conservative
 * for overloads); names the index never saw create no edge, so code
 * outside the indexed scope is a documented blind spot, not a crash.
 *
 * Findings land on the offending line in the *callee's* file, carrying
 * the call path from the root, so the regular audited-suppression
 * mechanism applies at the allocation site.
 *
 * unknown-hot-entry — a `hot-entry` root that names no indexed
 * definition would silently drop its no-allocation contract (a renamed
 * root reaches nothing). Only whole-tree runs check it: an in-memory
 * tree may leave a root undefined on purpose.
 */
#include "tools/tlp_lint/lint.h"

#include <algorithm>
#include <deque>

namespace tlp::lint {

namespace {

/** True when @p file must not drop Status/Result values. */
bool
inMustCheckScope(const std::string &file, const Manifest &manifest)
{
    if (manifest.loader_tus.count(file))
        return true;
    return std::any_of(manifest.must_check.begin(),
                       manifest.must_check.end(),
                       [&](const std::string &prefix) {
                           return pathInScope(file, prefix);
                       });
}

/** True when @p fn matches a `hot-entry` name ("seqKeyOf") or
 *  qualified suffix ("FusedTlpInference::predict"). */
bool
isHotEntry(const FunctionInfo &fn, const Manifest &manifest)
{
    if (manifest.hot_entries.count(fn.name))
        return true;
    return manifest.hot_entries.count(fn.qualified) > 0;
}

} // namespace

std::vector<Finding>
unknownHotEntries(const SymbolIndex &index, const Manifest &manifest)
{
    std::set<std::string> matched;
    for (const FunctionInfo &fn : index.functions) {
        if (!fn.defined)
            continue;
        if (manifest.hot_entries.count(fn.name))
            matched.insert(fn.name);
        if (manifest.hot_entries.count(fn.qualified))
            matched.insert(fn.qualified);
    }
    std::vector<Finding> findings;
    for (const std::string &root : manifest.hot_entries) {
        if (matched.count(root))
            continue;
        Finding f;
        f.file = "<manifest>";
        f.rule = "unknown-hot-entry";
        f.message = "hot-entry " + root +
                    " matches no function defined in the indexed tree; "
                    "its no-allocation contract reaches nothing (renamed, "
                    "removed, or outside every must-check scope)";
        findings.push_back(std::move(f));
    }
    return findings;
}

std::vector<Finding>
analyzeIndex(const SymbolIndex &index, const Manifest &manifest)
{
    std::vector<Finding> findings;

    // --- unchecked-result ----------------------------------------------
    // Name -> the first declaration site that returns Status/Result, for
    // the finding message. A name is flagged only when *every* indexed
    // overload returns Status/Result: the tree's save/load families pair
    // a Status-returning path wrapper with a void stream overload of the
    // same name, and a by-name index cannot tell those calls apart.
    std::map<std::string, const FunctionInfo *> status_names;
    for (const FunctionInfo &fn : index.functions) {
        if (fn.returns_status && !status_names.count(fn.name))
            status_names.emplace(fn.name, &fn);
    }
    for (const FunctionInfo &fn : index.functions) {
        if (!fn.returns_status)
            status_names.erase(fn.name);
    }
    for (const FunctionInfo &fn : index.functions) {
        if (!fn.defined || !inMustCheckScope(fn.file, manifest))
            continue;
        for (const CallSite &call : fn.calls) {
            if (!call.discarded)
                continue;
            const auto it = status_names.find(call.name);
            if (it == status_names.end())
                continue;
            Finding f;
            f.file = fn.file;
            f.line = call.line;
            f.rule = "unchecked-result";
            f.message =
                "call to " + call.name + "() discards its Status/Result (" +
                it->second->file + ":" +
                std::to_string(it->second->line) +
                "); assign and check it, propagate it, or route it "
                "through artifactFatal";
            findings.push_back(std::move(f));
        }
    }

    // --- hot-call-alloc -------------------------------------------------
    // Deterministic BFS from the hot-entry roots, tracking one shortest
    // call path per function for the finding message.
    std::map<size_t, std::vector<std::string>> reached;  // fn -> path
    std::deque<size_t> queue;
    for (size_t f = 0; f < index.functions.size(); ++f) {
        const FunctionInfo &fn = index.functions[f];
        if (fn.defined && isHotEntry(fn, manifest)) {
            reached.emplace(f, std::vector<std::string>{fn.name});
            queue.push_back(f);
        }
    }
    std::vector<size_t> order;  // visit order, for stable reporting
    while (!queue.empty()) {
        const size_t f = queue.front();
        queue.pop_front();
        order.push_back(f);
        const FunctionInfo &fn = index.functions[f];
        for (const CallSite &call : fn.calls) {
            const auto targets = index.by_name.find(call.name);
            if (targets == index.by_name.end())
                continue;
            for (size_t t : targets->second) {
                if (!index.functions[t].defined || reached.count(t))
                    continue;
                std::vector<std::string> path = reached.at(f);
                path.push_back(index.functions[t].name);
                reached.emplace(t, std::move(path));
                queue.push_back(t);
            }
        }
    }
    std::set<std::pair<std::string, int>> emitted;
    for (size_t f : order) {
        const FunctionInfo &fn = index.functions[f];
        // Hot-TU bodies are the per-TU hot-alloc rule's jurisdiction.
        if (manifest.hot_tus.count(fn.file))
            continue;
        const std::vector<std::string> &path = reached.at(f);
        std::string via = path.front();
        for (size_t p = 1; p < path.size(); ++p)
            via += " -> " + path[p];
        auto emit = [&](int line, const std::string &what) {
            if (!emitted.insert({fn.file, line}).second)
                return;
            Finding finding;
            finding.file = fn.file;
            finding.line = line;
            finding.rule = "hot-call-alloc";
            finding.message =
                what + " in " + fn.name +
                "(), reachable from hot entry via " + via +
                " (DESIGN.md §13): use the Arena / preallocated "
                "storage, or audit warm-up growth with a suppression";
            findings.push_back(std::move(finding));
        };
        for (const AllocSite &alloc : fn.allocs)
            emit(alloc.line, "heap allocation (" + alloc.what + ")");
        if (fn.returns_string)
            emit(fn.line, "std::string returned by value");
    }
    return findings;
}

} // namespace tlp::lint
