#include "support/serialize.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>

#include "support/io_env.h"

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace tlp {

namespace {

/** Lazily built table for the reflected IEEE CRC32 polynomial. */
const std::array<uint32_t, 256> &
crcTable()
{
    static const std::array<uint32_t, 256> table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

} // namespace

uint32_t
crc32(const void *data, size_t size, uint32_t crc)
{
    const auto &table = crcTable();
    const auto *bytes = static_cast<const unsigned char *>(data);
    uint32_t c = crc ^ 0xffffffffu;
    for (size_t i = 0; i < size; ++i)
        c = table[(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

void
BinaryWriter::writeString(const std::string &value)
{
    writePod<uint64_t>(value.size());
    os_.write(value.data(), static_cast<std::streamsize>(value.size()));
}

void
BinaryWriter::writeBytes(const std::string &bytes)
{
    os_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

BinaryReader::BinaryReader(std::istream &is)
    : is_(is), remaining_(UINT64_MAX)
{
    // Measure the bytes left in seekable streams so length prefixes can
    // be rejected before allocation; non-seekable streams stay unbounded
    // and rely on stream failure alone.
    const auto pos = is_.tellg();
    if (pos < 0)
        return;
    is_.seekg(0, std::ios::end);
    const auto end = is_.tellg();
    is_.seekg(pos);
    if (end >= pos)
        remaining_ = static_cast<uint64_t>(end - pos);
}

void
BinaryReader::requireBytes(uint64_t size, const char *what) const
{
    if (size > remaining_) {
        throw SerializeError(ErrorCode::Truncated,
                             std::string("truncated binary stream: ") +
                                 what + " needs " + std::to_string(size) +
                                 " bytes, " + std::to_string(remaining_) +
                                 " remain");
    }
}

void
BinaryReader::consume(uint64_t size)
{
    if (remaining_ != UINT64_MAX)
        remaining_ -= size;
}

std::string
BinaryReader::readString()
{
    const auto size = readPod<uint64_t>();
    return readBytes(size);
}

std::string
BinaryReader::readBytes(uint64_t size)
{
    requireBytes(size, "byte buffer");
    std::string value(size, '\0');
    if (size > 0) {
        is_.read(value.data(), static_cast<std::streamsize>(size));
        if (!is_.good()) {
            throw SerializeError(ErrorCode::Truncated,
                                 "truncated binary stream: wanted " +
                                     std::to_string(size) + " more bytes");
        }
        consume(size);
    }
    return value;
}

void
writeHeader(BinaryWriter &writer, uint32_t magic, uint32_t version)
{
    writer.writePod(magic);
    writer.writePod(version);
}

uint32_t
readHeader(BinaryReader &reader, uint32_t magic, uint32_t min_version,
           uint32_t max_version)
{
    const auto got_magic = reader.readPod<uint32_t>();
    if (got_magic != magic) {
        throw SerializeError(ErrorCode::Corrupt,
                             "bad file magic: got " +
                                 std::to_string(got_magic) + ", want " +
                                 std::to_string(magic));
    }
    const auto version = reader.readPod<uint32_t>();
    if (version < min_version || version > max_version) {
        throw SerializeError(ErrorCode::VersionSkew,
                             "file format version " +
                                 std::to_string(version) +
                                 " is outside the supported range [" +
                                 std::to_string(min_version) + ", " +
                                 std::to_string(max_version) + "]");
    }
    return version;
}

std::string
sectionTagName(uint32_t tag)
{
    std::string name(4, '?');
    for (int i = 0; i < 4; ++i) {
        const char c = static_cast<char>((tag >> (8 * i)) & 0xffu);
        if (c >= 0x20 && c < 0x7f)
            name[static_cast<size_t>(i)] = c;
    }
    return name;
}

void
writeSectionRaw(BinaryWriter &writer, uint32_t tag,
                const std::string &payload)
{
    writer.writePod(tag);
    writer.writePod<uint64_t>(payload.size());
    writer.writePod<uint32_t>(crc32(payload.data(), payload.size()));
    writer.writeBytes(payload);
}

Section
readSection(BinaryReader &reader)
{
    Section section;
    section.tag = reader.readPod<uint32_t>();
    const auto length = reader.readPod<uint64_t>();
    const auto stored_crc = reader.readPod<uint32_t>();
    // readBytes validates length against the remaining stream before
    // allocating, so an inflated length field fails cleanly here.
    section.payload = reader.readBytes(length);
    section.crc_ok =
        crc32(section.payload.data(), section.payload.size()) == stored_crc;
    return section;
}

void
readSectionsToEnd(
    BinaryReader &reader, const char *what,
    const std::function<void(uint32_t, BinaryReader &)> &on_section)
{
    while (reader.remaining() > 0) {
        const Section section = readSection(reader);
        if (!section.crc_ok) {
            throw SerializeError(ErrorCode::Corrupt,
                                 std::string("checksum mismatch in ") +
                                     what + " section " +
                                     sectionTagName(section.tag));
        }
        if (section.tag == kEndSectionTag)
            return;
        std::istringstream payload(section.payload);
        BinaryReader body(payload);
        on_section(section.tag, body);
    }
    throw SerializeError(ErrorCode::Truncated,
                         std::string(what) +
                             " ends before the end-of-file marker");
}

Status
atomicWriteFile(const std::string &path,
                const std::function<void(std::ostream &)> &body)
{
    // Every artifact write consults the I/O chaos environment first
    // (DESIGN.md §14): a drawn/armed fault fails the write at a precise
    // point — before open, after byte k, at flush, or at rename — and
    // in crash-debris mode leaves the temp file stranded exactly as a
    // dying process would. The destination is never touched by a
    // faulted write, injected or real.
    IoEnv &env = IoEnv::global();
    const IoFaultDecision fault = env.drawWrite(path);

    // The temp name is unique per process (pid) AND per call (atomic
    // counter), so two concurrent writers of the same destination —
    // e.g. two bench processes racing on one memo — can never stream
    // into each other's half-written temp file; the rename then makes
    // the destination atomically equal to exactly one full payload.
    static std::atomic<uint64_t> sequence{0};
#ifdef _WIN32
    const long pid = static_cast<long>(_getpid());
#else
    const long pid = static_cast<long>(getpid());
#endif
    const std::string tmp_path =
        path + ".tmp." + std::to_string(pid) + "." +
        std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));

    if (fault.kind == IoFaultKind::OpenFail) {
        return Status::error(ErrorCode::IoError,
                             "injected fault: cannot open for write: " +
                                 tmp_path);
    }
    {
        std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
        if (!os) {
            return Status::error(ErrorCode::IoError,
                                 "cannot open for write: " + tmp_path);
        }
        if (fault.kind == IoFaultKind::None) {
            try {
                body(os);
            } catch (const std::exception &error) {
                os.close();
                std::remove(tmp_path.c_str());
                return Status::error(ErrorCode::IoError,
                                     "write failed: " + tmp_path + ": " +
                                         error.what());
            }
            os.flush();
            if (!os.good()) {
                os.close();
                std::remove(tmp_path.c_str());
                return Status::error(ErrorCode::IoError,
                                     "write failed (disk full?): " +
                                         tmp_path);
            }
        } else {
            // Faulted write: buffer the payload so a torn write can
            // stop at an exact byte k (a streaming fault could only
            // tear at flush granularity).
            std::ostringstream buffer(std::ios::binary);
            try {
                body(buffer);
            } catch (const std::exception &error) {
                os.close();
                std::remove(tmp_path.c_str());
                return Status::error(ErrorCode::IoError,
                                     "write failed: " + tmp_path + ": " +
                                         error.what());
            }
            const std::string payload = buffer.str();
            size_t keep = payload.size();
            if (fault.kind == IoFaultKind::TornWrite) {
                keep = fault.torn_at >= 0
                           ? std::min<size_t>(
                                 static_cast<size_t>(fault.torn_at),
                                 payload.size())
                           : static_cast<size_t>(
                                 fault.aux % (payload.size() + 1));
            }
            os.write(payload.data(),
                     static_cast<std::streamsize>(keep));
            os.flush();
            os.close();
            if (fault.kind == IoFaultKind::TornWrite ||
                fault.kind == IoFaultKind::FlushFail) {
                if (!fault.crash_debris)
                    std::remove(tmp_path.c_str());
                return Status::error(
                    ErrorCode::IoError,
                    std::string("injected fault: ") +
                        ioFaultKindName(fault.kind) + ": " + tmp_path);
            }
        }
    }
    if (fault.kind == IoFaultKind::RenameFail) {
        if (!fault.crash_debris)
            std::remove(tmp_path.c_str());
        return Status::error(ErrorCode::IoError,
                             "injected fault: cannot move temp file "
                             "into place: " +
                                 path);
    }
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
        std::remove(tmp_path.c_str());
        return Status::error(ErrorCode::IoError,
                             "cannot move temp file into place: " + path);
    }
    env.noteWriteCommitted();
    return Status();
}

Status
openArtifactFile(const std::string &path, std::ifstream &is)
{
    const Status injected = IoEnv::global().checkRead(path);
    if (!injected.ok())
        return injected;
    is.open(path, std::ios::binary);
    if (!is) {
        return Status::error(ErrorCode::IoError,
                             "cannot open for read: " + path);
    }
    return Status();
}

} // namespace tlp
