/**
 * @file
 * The tensor-program dataset (our TenSet stand-in).
 *
 * A Dataset holds deduplicated subgraph groups, the networks that use
 * them (with occurrence weights), and program records: (group, schedule
 * primitive sequence, per-platform latency labels). Labels are aligned
 * with the dataset's platform list; NaN marks a missing label, which is
 * how MTL-TLP's partially labeled tuples (Sec. 5.2) are represented.
 */
#pragma once

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "ir/subgraph.h"
#include "schedule/primitive.h"
#include "support/result.h"
#include "support/serialize.h"

namespace tlp::data {

/** One tensor program and its labels. */
struct ProgramRecord
{
    uint32_t group = 0;               ///< index into Dataset::groups
    sched::PrimitiveSeq seq;
    /** latency_ms[i] on Dataset::platforms[i]; NaN = not measured. */
    std::vector<float> latency_ms;

    bool hasLabel(size_t platform) const
    {
        return platform < latency_ms.size() &&
               !std::isnan(latency_ms[platform]);
    }
};

/** A deduplicated subgraph with per-platform minimum latencies. */
struct SubgraphGroup
{
    ir::SubgraphPtr subgraph;
    std::string key;
    /** min over records per platform (the label normalizer). */
    std::vector<float> min_latency_ms;
};

/** How a dataset file is read back (see Dataset::tryLoad). */
struct LoadOptions
{
    /**
     * Skip corrupt record chunks / trailing sections instead of failing:
     * every record preceding the first corruption loads bit-identically,
     * later intact chunks are also kept, and the per-class tallies land
     * in Dataset::corruption_counts. The platform and group sections
     * must still be intact — without them records are uninterpretable.
     */
    bool salvage = false;
    /**
     * Verify the per-section CRC32s (default). Benches switch this off
     * to measure the checksum cost; leave it on everywhere else.
     */
    bool verify_checksums = true;
};

/** The dataset proper. */
class Dataset
{
  public:
    /** On-disk header magic, "TLPD" — the artifact audit
     *  (src/artifact) keys format detection on it. */
    static constexpr uint32_t kMagic = 0x544c5044;

    /**
     * Current on-disk format version (header version of save()).
     * v3 wraps everything in CRC32-checksummed sections; v2 (flat
     * stream) is still readable, v1 gets a clean versioned error.
     */
    static constexpr uint32_t kFormatVersion = 3;

    /** Oldest format version load() still understands. */
    static constexpr uint32_t kMinFormatVersion = 2;

    /** Hardware platform names, defining the label axes. */
    std::vector<std::string> platforms;
    /** True when schedules were generated with the GPU sketch rules. */
    bool is_gpu = false;

    std::vector<SubgraphGroup> groups;
    std::vector<ProgramRecord> records;
    /** network name -> (group index, occurrence weight). */
    std::map<std::string, std::vector<std::pair<int, int>>> network_groups;
    /**
     * Measurement-campaign failure counts by class name (e.g.
     * "timeout"); failed measurements leave NaN labels in the records.
     */
    std::map<std::string, int64_t> failure_counts;
    /**
     * Corruption tallies from the last salvage load of this object, by
     * class name (e.g. "records_crc", "truncated"). Describes the file
     * the dataset came from, not the data itself, so save() does not
     * persist it.
     */
    std::map<std::string, int64_t> corruption_counts;

    /** Recompute per-group minimum latencies from the records. */
    void refreshMinLatencies();

    /**
     * Normalized label of record @p r on platform @p p:
     * min_latency / latency in (0, 1]; NaN when unlabeled.
     */
    float label(int record, int platform) const;

    /**
     * Save atomically (write-tmp-then-rename through atomicWriteFile);
     * an I/O failure comes back as a Status and leaves any previous
     * file at @p path intact.
     */
    Status save(const std::string &path) const;

    /** Stream variant: the bytes save(path) writes. */
    void save(std::ostream &os) const;

    /**
     * Load with recoverable errors: corruption, truncation, version
     * skew, and I/O failures come back as a Status instead of killing
     * the process. With options.salvage, corrupt record chunks are
     * skipped and counted in corruption_counts.
     */
    static Result<Dataset> tryLoad(const std::string &path,
                                   const LoadOptions &options = {});
    static Result<Dataset> tryLoad(std::istream &is,
                                   const LoadOptions &options = {});

    // --- statistics (paper Fig. 6, Table 1, Sec. 4.3) ---

    /** Max embedding size per primitive kind (paper Table 1). */
    std::map<std::string, int> maxEmbeddingSizes() const;

    /** Fraction of records whose sequence duplicates another (Sec 4.3). */
    double repetitionRate() const;
};

} // namespace tlp::data
