#include "dataset/dataset.h"

#include <algorithm>
#include <set>

#include "features/tlp_features.h"

namespace tlp::data {

namespace {

constexpr uint32_t kMagic = Dataset::kMagic;   // "TLPD"

// v3 section tags, in file order.
constexpr uint32_t kMetaTag = sectionTag("META");
constexpr uint32_t kGroupsTag = sectionTag("GRPS");
constexpr uint32_t kRecordsTag = sectionTag("RECS");
constexpr uint32_t kNetworksTag = sectionTag("NETS");
constexpr uint32_t kFailuresTag = sectionTag("FAIL");

/**
 * Records are framed in chunks of this many so one flipped byte costs at
 * most one chunk in salvage mode, while the CRC/length overhead stays
 * far below 1% of the payload.
 */
constexpr size_t kRecordsPerChunk = 256;

/** Human name of a v3 section tag, for corruption_counts keys. */
std::string
sectionName(uint32_t tag)
{
    if (tag == kMetaTag)       return "meta";
    if (tag == kGroupsTag)     return "groups";
    if (tag == kRecordsTag)    return "records";
    if (tag == kNetworksTag)   return "networks";
    if (tag == kFailuresTag)   return "failures";
    if (tag == kEndSectionTag) return "end";
    return "tag_" + sectionTagName(tag);
}

void
writeRecord(BinaryWriter &writer, const ProgramRecord &record)
{
    writer.writePod(record.group);
    record.seq.serialize(writer);
    writer.writeVector(record.latency_ms);
}

ProgramRecord
readRecord(BinaryReader &reader)
{
    ProgramRecord record;
    record.group = reader.readPod<uint32_t>();
    record.seq = sched::PrimitiveSeq::deserialize(reader);
    record.latency_ms = reader.readVector<float>();
    return record;
}

/** Structural validity of one record against the loaded spine. */
bool
recordFits(const ProgramRecord &record, const Dataset &dataset)
{
    return record.group < dataset.groups.size() &&
           record.latency_ms.size() == dataset.platforms.size();
}

void
parseMeta(BinaryReader &reader, Dataset &dataset)
{
    dataset.is_gpu = reader.readPod<uint8_t>() != 0;
    const auto num_platforms = reader.readPod<uint32_t>();
    // A platform name costs >= 8 bytes (its length prefix).
    if (num_platforms > reader.remaining() / 8 + 1) {
        throw SerializeError(ErrorCode::Corrupt,
                             "invalid platform count " +
                                 std::to_string(num_platforms));
    }
    for (uint32_t i = 0; i < num_platforms; ++i)
        dataset.platforms.push_back(reader.readString());
}

void
parseGroups(BinaryReader &reader, Dataset &dataset)
{
    const auto num_groups = reader.readPod<uint32_t>();
    // A group costs well over 30 stream bytes (subgraph + key + mins).
    if (num_groups > reader.remaining() / 30 + 1) {
        throw SerializeError(ErrorCode::Corrupt,
                             "invalid group count " +
                                 std::to_string(num_groups));
    }
    for (uint32_t i = 0; i < num_groups; ++i) {
        SubgraphGroup group;
        group.subgraph = std::make_shared<ir::Subgraph>(
            ir::Subgraph::deserialize(reader));
        group.key = reader.readString();
        group.min_latency_ms = reader.readVector<float>();
        if (group.min_latency_ms.size() != dataset.platforms.size()) {
            throw SerializeError(ErrorCode::Corrupt,
                                 "group min-latency arity " +
                                     std::to_string(
                                         group.min_latency_ms.size()) +
                                     " != platform count " +
                                     std::to_string(
                                         dataset.platforms.size()));
        }
        dataset.groups.push_back(std::move(group));
    }
}

void
parseNetworks(BinaryReader &reader, Dataset &dataset)
{
    const auto num_networks = reader.readPod<uint32_t>();
    if (num_networks > reader.remaining() / 12 + 1) {
        throw SerializeError(ErrorCode::Corrupt,
                             "invalid network count " +
                                 std::to_string(num_networks));
    }
    for (uint32_t i = 0; i < num_networks; ++i) {
        const std::string network = reader.readString();
        const auto count = reader.readPod<uint32_t>();
        if (count > reader.remaining() / 8 + 1) {
            throw SerializeError(ErrorCode::Corrupt,
                                 "invalid network group count " +
                                     std::to_string(count));
        }
        auto &entries = dataset.network_groups[network];
        for (uint32_t j = 0; j < count; ++j) {
            const auto group = reader.readPod<int32_t>();
            const auto weight = reader.readPod<int32_t>();
            entries.push_back({group, weight});
        }
    }
}

void
parseFailures(BinaryReader &reader, Dataset &dataset)
{
    const auto num_statuses = reader.readPod<uint32_t>();
    if (num_statuses > reader.remaining() / 16 + 1) {
        throw SerializeError(ErrorCode::Corrupt,
                             "invalid failure-count entries " +
                                 std::to_string(num_statuses));
    }
    for (uint32_t i = 0; i < num_statuses; ++i) {
        const std::string status = reader.readString();
        dataset.failure_counts[status] = reader.readPod<int64_t>();
    }
}

/** The flat (unframed) v2 stream body, kept for old files. */
void
parseV2Body(BinaryReader &reader, Dataset &dataset)
{
    parseMeta(reader, dataset);
    parseGroups(reader, dataset);
    const auto num_records = reader.readPod<uint64_t>();
    // A record costs >= 16 stream bytes (group + seq len + latency len).
    if (num_records > reader.remaining() / 16 + 1) {
        throw SerializeError(ErrorCode::Corrupt,
                             "invalid record count " +
                                 std::to_string(num_records));
    }
    dataset.records.reserve(num_records);
    for (uint64_t i = 0; i < num_records; ++i) {
        ProgramRecord record = readRecord(reader);
        if (!recordFits(record, dataset)) {
            throw SerializeError(ErrorCode::Corrupt,
                                 "record " + std::to_string(i) +
                                     " references a missing group or has "
                                     "wrong label arity");
        }
        dataset.records.push_back(std::move(record));
    }
    parseNetworks(reader, dataset);
    parseFailures(reader, dataset);
}

} // namespace

void
Dataset::refreshMinLatencies()
{
    for (auto &group : groups)
        group.min_latency_ms.assign(platforms.size(),
                                    std::numeric_limits<float>::quiet_NaN());
    for (const auto &record : records) {
        auto &mins = groups.at(record.group).min_latency_ms;
        for (size_t p = 0; p < platforms.size(); ++p) {
            if (!record.hasLabel(p))
                continue;
            if (std::isnan(mins[p]) || record.latency_ms[p] < mins[p])
                mins[p] = record.latency_ms[p];
        }
    }
}

float
Dataset::label(int record, int platform) const
{
    const ProgramRecord &rec = records.at(static_cast<size_t>(record));
    if (!rec.hasLabel(static_cast<size_t>(platform)))
        return std::numeric_limits<float>::quiet_NaN();
    const float min_lat =
        groups.at(rec.group).min_latency_ms.at(
            static_cast<size_t>(platform));
    return min_lat / rec.latency_ms[static_cast<size_t>(platform)];
}

Status
Dataset::save(const std::string &path) const
{
    return atomicWriteFile(path,
                           [this](std::ostream &os) { save(os); });
}

void
Dataset::save(std::ostream &os) const
{
    BinaryWriter writer(os);
    writeHeader(writer, kMagic, kFormatVersion);
    writeSection(writer, kMetaTag, [&](BinaryWriter &w) {
        w.writePod<uint8_t>(is_gpu ? 1 : 0);
        w.writePod<uint32_t>(static_cast<uint32_t>(platforms.size()));
        for (const auto &platform : platforms)
            w.writeString(platform);
    });
    writeSection(writer, kGroupsTag, [&](BinaryWriter &w) {
        w.writePod<uint32_t>(static_cast<uint32_t>(groups.size()));
        for (const auto &group : groups) {
            group.subgraph->serialize(w);
            w.writeString(group.key);
            w.writeVector(group.min_latency_ms);
        }
    });
    for (size_t start = 0; start < records.size();
         start += kRecordsPerChunk) {
        const size_t count =
            std::min(kRecordsPerChunk, records.size() - start);
        writeSection(writer, kRecordsTag, [&](BinaryWriter &w) {
            w.writePod<uint32_t>(static_cast<uint32_t>(count));
            for (size_t i = start; i < start + count; ++i)
                writeRecord(w, records[i]);
        });
    }
    writeSection(writer, kNetworksTag, [&](BinaryWriter &w) {
        w.writePod<uint32_t>(
            static_cast<uint32_t>(network_groups.size()));
        for (const auto &[network, groups_of] : network_groups) {
            w.writeString(network);
            w.writePod<uint32_t>(static_cast<uint32_t>(groups_of.size()));
            for (const auto &[group, weight] : groups_of) {
                w.writePod<int32_t>(group);
                w.writePod<int32_t>(weight);
            }
        }
    });
    writeSection(writer, kFailuresTag, [&](BinaryWriter &w) {
        w.writePod<uint32_t>(
            static_cast<uint32_t>(failure_counts.size()));
        for (const auto &[status, count] : failure_counts) {
            w.writeString(status);
            w.writePod<int64_t>(count);
        }
    });
    writeSectionRaw(writer, kEndSectionTag, "");
}

Result<Dataset>
Dataset::tryLoad(const std::string &path, const LoadOptions &options)
{
    return readArtifactFile(
        path, [&](std::istream &is) { return tryLoad(is, options); });
}

Result<Dataset>
Dataset::tryLoad(std::istream &is, const LoadOptions &options)
{
    Dataset dataset;
    const Status status = guardedParse([&] {
        BinaryReader reader(is);
        const uint32_t version =
            readHeader(reader, kMagic, kMinFormatVersion, kFormatVersion);
        if (version == 2) {
            // Flat stream without checksums: bounded reads still apply,
            // but there is nothing to salvage around.
            parseV2Body(reader, dataset);
            return;
        }

        auto fail = [&](ErrorCode code, const std::string &message) {
            throw SerializeError(code, message);
        };
        auto tally = [&](const std::string &what) {
            dataset.corruption_counts[what] += 1;
        };

        bool seen_meta = false;
        bool seen_groups = false;
        bool seen_networks = false;
        bool seen_failures = false;
        bool seen_end = false;
        // Not readSectionsToEnd: salvage must keep reading past a bad
        // checksum or a section that fails to parse, and count it.
        while (!seen_end && reader.remaining() > 0) {
            Section section;
            try {
                section = readSection(reader);
            } catch (const SerializeError &error) {
                // The frame itself is broken (inflated length field or
                // a cut-off header): nothing after it can be trusted.
                if (!options.salvage)
                    throw;
                tally("truncated");
                break;
            }
            const std::string name = sectionName(section.tag);
            if (!section.crc_ok && options.verify_checksums) {
                if (!options.salvage) {
                    fail(ErrorCode::Corrupt,
                         "checksum mismatch in section " + name);
                }
                tally(name + "_crc");
                continue;
            }
            if (section.tag == kEndSectionTag) {
                seen_end = true;
                continue;
            }

            std::istringstream payload(section.payload);
            BinaryReader body(payload);
            try {
                if (section.tag == kMetaTag) {
                    if (seen_meta)
                        fail(ErrorCode::Corrupt, "duplicate meta section");
                    parseMeta(body, dataset);
                    seen_meta = true;
                } else if (section.tag == kGroupsTag) {
                    if (seen_groups || !seen_meta) {
                        fail(ErrorCode::Corrupt,
                             "misplaced groups section");
                    }
                    parseGroups(body, dataset);
                    seen_groups = true;
                } else if (section.tag == kRecordsTag) {
                    if (!seen_groups) {
                        if (!options.salvage) {
                            fail(ErrorCode::Corrupt,
                                 "records section before groups");
                        }
                        tally("orphan_records");
                        continue;
                    }
                    const auto count = body.readPod<uint32_t>();
                    for (uint32_t i = 0; i < count; ++i) {
                        ProgramRecord record = readRecord(body);
                        if (!recordFits(record, dataset)) {
                            if (!options.salvage) {
                                fail(ErrorCode::Corrupt,
                                     "record references a missing group "
                                     "or has wrong label arity");
                            }
                            tally("bad_record");
                            continue;
                        }
                        dataset.records.push_back(std::move(record));
                    }
                } else if (section.tag == kNetworksTag) {
                    if (seen_networks) {
                        fail(ErrorCode::Corrupt,
                             "duplicate networks section");
                    }
                    parseNetworks(body, dataset);
                    seen_networks = true;
                } else {
                    if (section.tag != kFailuresTag)
                        continue;   // unknown section: skip, forward compat
                    if (seen_failures) {
                        fail(ErrorCode::Corrupt,
                             "duplicate failures section");
                    }
                    parseFailures(body, dataset);
                    seen_failures = true;
                }
            } catch (const SerializeError &error) {
                // A CRC-valid section that still fails to parse (or a
                // structural rule above): salvage skips the section.
                if (!options.salvage)
                    throw;
                tally(name + "_parse");
            }
        }

        // The platform list and group spine are unrecoverable: without
        // them no record can be interpreted, salvage or not.
        if (!seen_meta) {
            fail(ErrorCode::Corrupt,
                 "dataset meta section missing or corrupt");
        }
        if (!seen_groups) {
            fail(ErrorCode::Corrupt,
                 "dataset groups section missing or corrupt");
        }
        if (!seen_end) {
            if (!options.salvage) {
                fail(ErrorCode::Truncated,
                     "file ends before the end-of-file marker");
            }
            if (dataset.corruption_counts.empty())
                tally("missing_end");
        } else if (reader.remaining() > 0) {
            if (!options.salvage) {
                fail(ErrorCode::Corrupt,
                     "trailing bytes after the end-of-file marker");
            }
            tally("trailing_bytes");
        }
        if (!options.salvage && (!seen_networks || !seen_failures))
            fail(ErrorCode::Corrupt, "dataset section missing");
    });
    if (!status.ok())
        return status;
    return dataset;
}

std::map<std::string, int>
Dataset::maxEmbeddingSizes() const
{
    std::map<std::string, int> sizes;
    for (const auto &record : records) {
        for (const auto &prim : record.seq.prims) {
            const std::string name = sched::primKindName(prim.kind);
            const int width = sched::kNumPrimKinds + prim.numParams();
            auto it = sizes.find(name);
            if (it == sizes.end() || it->second < width)
                sizes[name] = width;
        }
    }
    return sizes;
}

double
Dataset::repetitionRate() const
{
    if (records.empty())
        return 0.0;
    std::set<uint64_t> distinct;
    for (const auto &record : records)
        distinct.insert(record.seq.hash());
    const double repeats = static_cast<double>(records.size()) -
                           static_cast<double>(distinct.size());
    return repeats / static_cast<double>(records.size());
}

} // namespace tlp::data
