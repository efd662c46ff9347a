/**
 * @file
 * Artifact doctor: audit (and optionally repair) a directory of TLP
 * artifacts without rerunning the service that produced them
 * (DESIGN.md §15).
 *
 * Usage: tlp_fsck --dir /tmp/tlp_serve [--repair] [--quiet]
 *
 * The audit classifies every regular file in the directory — the three
 * checksummed artifact formats (dataset, bench memos included; model
 * snapshot; tuning checkpoint) are detected by magic and verified with
 * the same loader-grade checks a consumer would run;
 * curve files are recognized by their text header; atomic-write temp
 * debris and earlier quarantine evidence are classified by name; and
 * anything else is reported but never touched. The report is
 * deterministic (name-sorted, fixed grammar), so two audits of the
 * same directory are byte-identical.
 *
 * --repair contains the damage: corrupt or version-skewed artifacts
 * are renamed to the first free "*.quarantined.N" (every generation of
 * evidence kept), "*.tmp.<pid>.<seq>" debris is swept, and corrupt
 * datasets are salvaged — their intact records re-saved through the
 * atomic-write seam while the damaged original stays quarantined as
 * evidence. After --repair the directory is runnable again: rerunning
 * the same `tlp_serve` command converges to curves byte-identical to
 * an uninterrupted run (the fsck drill of tools/fleet_drill.sh, run by
 * CI's fleet-drills job, proves it).
 *
 * Exit codes follow the artifact contract: 0 = nothing damaged,
 * 2 = user error (TLP_FATAL), 3 = damage found — also in --repair
 * mode, so scripts can tell "was dirty, now repaired" from "was
 * clean".
 */
#include <cstdio>
#include <filesystem>

#include "artifact/audit.h"
#include "support/argparse.h"
#include "support/logging.h"

using namespace tlp;

int
main(int argc, char **argv)
{
    ArgParser args("audit and repair a directory of TLP artifacts");
    args.addString("dir", "", "directory to audit (required)");
    args.addBool("repair", false,
                 "quarantine damaged artifacts, sweep temp debris, "
                 "salvage datasets");
    args.addBool("no-salvage", false,
                 "with --repair: quarantine corrupt datasets instead "
                 "of salvaging their intact records");
    args.addBool("quiet", false, "summary only, no per-file lines");
    args.parse(argc, argv);

    const std::string dir = args.getString("dir");
    if (dir.empty())
        TLP_FATAL("--dir is required");
    if (!std::filesystem::is_directory(dir))
        TLP_FATAL("not a directory: ", dir);

    const artifact::AuditReport audit = artifact::auditDirectory(dir);
    const std::string report = artifact::formatAuditReport(audit);
    if (args.getBool("quiet")) {
        // Keep only the header and the summary line.
        const size_t summary = report.rfind("summary ");
        std::fputs(report.substr(0, report.find("file ")).c_str(),
                   stdout);
        if (summary != std::string::npos)
            std::fputs(report.substr(summary).c_str(), stdout);
    } else {
        std::fputs(report.c_str(), stdout);
    }

    if (args.getBool("repair") && audit.damaged()) {
        artifact::RepairOptions options;
        options.salvage_datasets = !args.getBool("no-salvage");
        const artifact::RepairReport repaired =
            artifact::repairDirectory(dir, options);
        for (const std::string &action : repaired.actions)
            std::printf("repair %s\n", action.c_str());
        std::printf("repaired quarantined %d swept %d salvaged %d "
                    "(records %lld) failures %d\n",
                    repaired.quarantined, repaired.swept,
                    repaired.salvaged_datasets,
                    static_cast<long long>(repaired.salvaged_records),
                    repaired.failures);
    }

    // Damage found exits 3 even after a successful repair: the caller
    // learns the directory was dirty; a clean follow-up audit is the
    // proof the repair landed.
    return audit.damaged() ? kExitCorruptArtifact : 0;
}
