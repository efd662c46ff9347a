/**
 * @file
 * Binary serialization for dataset, model, and checkpoint artifacts.
 *
 * The format is a flat little-endian byte stream with explicit sizes; it
 * is not self-describing, so readers and writers must agree on the
 * schema. Every top-level file produced by the library starts with a
 * 4-byte magic and a version number checked by the reader, and current
 * formats wrap their payloads in CRC32-checksummed, length-framed
 * sections (writeSection / readSection) so corruption is detected
 * instead of parsed.
 *
 * Robustness contract (see DESIGN.md "Artifact formats & integrity"):
 *  - BinaryReader is bounded: length prefixes are validated against the
 *    remaining stream size *before* allocating, so a corrupt 8-byte
 *    prefix can never trigger a multi-GB allocation.
 *  - Parse failures throw SerializeError rather than killing the
 *    process; library-boundary loaders catch it and return Status /
 *    Result<T> (support/result.h).
 *  - Artifact files are written atomically (atomicWriteFile): stream
 *    into "<path>.tmp.<pid>.<seq>", verify good(), rename — a crash or
 *    full disk mid-write never leaves a half-written artifact at the
 *    final path, and concurrent writers cannot clobber each other's
 *    temp files.
 */
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/logging.h"
#include "support/result.h"

namespace tlp {

/**
 * Thrown by BinaryReader / readSection on malformed input. Boundary
 * loaders convert it to a Status; it must not escape the library.
 */
class SerializeError : public std::runtime_error
{
  public:
    SerializeError(ErrorCode code, const std::string &message)
        : std::runtime_error(message), code_(code)
    {}

    ErrorCode code() const { return code_; }

  private:
    ErrorCode code_;
};

/** CRC32 (IEEE 802.3, reflected) of @p size bytes; chainable via @p crc. */
uint32_t crc32(const void *data, size_t size, uint32_t crc = 0);

/** Sequential binary writer over an ostream. */
class BinaryWriter
{
  public:
    /** Wrap an externally owned stream. */
    explicit BinaryWriter(std::ostream &os) : os_(os) {}

    /** Write a trivially copyable value verbatim. */
    template <typename T>
    void
    writePod(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        os_.write(reinterpret_cast<const char *>(&value), sizeof(T));
    }

    /** Write a length-prefixed string. */
    void writeString(const std::string &value);

    /** Write a length-prefixed vector of trivially copyable elements. */
    template <typename T>
    void
    writeVector(const std::vector<T> &values)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        writePod<uint64_t>(values.size());
        if (!values.empty()) {
            os_.write(reinterpret_cast<const char *>(values.data()),
                      static_cast<std::streamsize>(values.size() * sizeof(T)));
        }
    }

    /** Write raw bytes with no length prefix. */
    void writeBytes(const std::string &bytes);

    /** True if the underlying stream is still healthy. */
    bool good() const { return os_.good(); }

  private:
    std::ostream &os_;
};

/**
 * Bounded sequential binary reader over an istream.
 *
 * The constructor measures the bytes remaining in the stream (for
 * seekable streams; others are treated as unbounded) and every read —
 * including the length prefixes of readString/readVector — is validated
 * against that bound before any allocation. Malformed input throws
 * SerializeError instead of terminating the process.
 */
class BinaryReader
{
  public:
    /** Wrap an externally owned stream, measuring its remaining size. */
    explicit BinaryReader(std::istream &is);

    /** Bytes left before the end of the stream (UINT64_MAX: unknown). */
    uint64_t remaining() const { return remaining_; }

    /** Read a trivially copyable value. */
    template <typename T>
    T
    readPod()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        requireBytes(sizeof(T), "POD value");
        T value{};
        is_.read(reinterpret_cast<char *>(&value), sizeof(T));
        if (!is_.good()) {
            throw SerializeError(ErrorCode::Truncated,
                                 "truncated binary stream: wanted " +
                                     std::to_string(sizeof(T)) +
                                     " more bytes");
        }
        consume(sizeof(T));
        return value;
    }

    /** Read a length-prefixed string; bounds-checked before allocating. */
    std::string readString();

    /** Read @p size raw bytes (no length prefix); bounds-checked. */
    std::string readBytes(uint64_t size);

    /** Read a length-prefixed vector; bounds-checked before allocating. */
    template <typename T>
    std::vector<T>
    readVector()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto count = readPod<uint64_t>();
        // Reject the length prefix against the remaining stream size
        // before allocating (division form also guards count * sizeof(T)
        // overflow).
        if (count > 0 && count > remaining_ / sizeof(T)) {
            throw SerializeError(
                ErrorCode::Truncated,
                "length prefix " + std::to_string(count) + " x " +
                    std::to_string(sizeof(T)) + " bytes exceeds the " +
                    std::to_string(remaining_) + " bytes remaining");
        }
        std::vector<T> values(count);
        if (count > 0) {
            is_.read(reinterpret_cast<char *>(values.data()),
                     static_cast<std::streamsize>(count * sizeof(T)));
            if (!is_.good()) {
                throw SerializeError(ErrorCode::Truncated,
                                     "truncated binary stream: wanted " +
                                         std::to_string(count * sizeof(T)) +
                                         " more bytes");
            }
            consume(count * sizeof(T));
        }
        return values;
    }

  private:
    /** Throw Truncated when fewer than @p size bytes remain. */
    void requireBytes(uint64_t size, const char *what) const;

    /** Account for @p size consumed bytes. */
    void consume(uint64_t size);

    std::istream &is_;
    uint64_t remaining_;
};

/** Write the standard file header (magic + version). */
void writeHeader(BinaryWriter &writer, uint32_t magic, uint32_t version);

/**
 * Read and validate the standard file header. Throws SerializeError
 * with ErrorCode::Corrupt on a magic mismatch and ErrorCode::VersionSkew
 * on a version outside [@p min_version, @p max_version].
 *
 * @return the version found in the stream, so readers can keep loading
 *         older supported formats.
 */
uint32_t readHeader(BinaryReader &reader, uint32_t magic,
                    uint32_t min_version, uint32_t max_version);

// --- Checksummed section framing ---------------------------------------

/** Pack a 4-character section tag, e.g. sectionTag("META"). */
constexpr uint32_t
sectionTag(const char (&name)[5])
{
    return static_cast<uint32_t>(static_cast<unsigned char>(name[0])) |
           static_cast<uint32_t>(static_cast<unsigned char>(name[1])) << 8 |
           static_cast<uint32_t>(static_cast<unsigned char>(name[2])) << 16 |
           static_cast<uint32_t>(static_cast<unsigned char>(name[3])) << 24;
}

/** Unpack a section tag back to 4 characters ('?' for non-printables). */
std::string sectionTagName(uint32_t tag);

/** One framed section: tag (u32), length (u64), CRC32 (u32), payload. */
struct Section
{
    uint32_t tag = 0;
    std::string payload;
    /** False when the stored CRC32 does not match the payload. */
    bool crc_ok = false;
};

/** Emit @p payload as one framed section. */
void writeSectionRaw(BinaryWriter &writer, uint32_t tag,
                     const std::string &payload);

/** Serialize @p body into a buffer and emit it as one framed section. */
template <typename Fn>
void
writeSection(BinaryWriter &writer, uint32_t tag, Fn &&body)
{
    std::ostringstream buffer(std::ios::binary);
    BinaryWriter payload_writer(buffer);
    body(payload_writer);
    writeSectionRaw(writer, tag, buffer.str());
}

/**
 * Read the next framed section. The length field is validated against
 * the remaining stream size before the payload is allocated; a frame
 * that extends past the end of the stream throws
 * SerializeError(Truncated). A checksum mismatch does NOT throw: the
 * payload is still consumed and returned with crc_ok = false, so
 * salvage-mode readers can skip the section and keep going.
 */
Section readSection(BinaryReader &reader);

/** The section that closes every framed artifact ("TEND", empty). */
inline constexpr uint32_t kEndSectionTag = sectionTag("TEND");

/**
 * The strict section loop of the framed formats: read sections until
 * the end marker, handing each other section's payload to
 * @p on_section(tag, body) in file order. The handler skips tags it
 * does not know (forward compatibility). A checksum mismatch throws
 * SerializeError(Corrupt) and a stream that ends before the marker
 * throws SerializeError(Truncated); @p what names the format in both
 * messages. Required-section checks stay with the caller.
 */
void readSectionsToEnd(
    BinaryReader &reader, const char *what,
    const std::function<void(uint32_t, BinaryReader &)> &on_section);

// --- Boundary helpers ---------------------------------------------------

/**
 * Run a parse body, mapping SerializeError (and any other exception
 * escaping a parser, e.g. std::bad_alloc from hostile input) to Status.
 */
template <typename Fn>
Status
guardedParse(Fn &&body)
{
    try {
        body();
        return Status();
    } catch (const SerializeError &error) {
        return Status::error(error.code(), error.what());
    } catch (const std::exception &error) {
        return Status::error(ErrorCode::Corrupt,
                             std::string("parse failed: ") + error.what());
    }
}

/**
 * Write @p path atomically: stream into "<path>.tmp.<pid>.<seq>" via
 * @p body, check good(), then rename over the final path. On any
 * failure the temp file is removed and the previous contents of @p path
 * are left untouched. The pid + per-call sequence in the temp name make
 * concurrent writes of the same destination (across processes or
 * threads) safe: the final file is always exactly one writer's full
 * payload, never an interleaving.
 *
 * All artifact writes flow through here, which makes it the injection
 * seam for the I/O chaos environment (support/io_env, DESIGN.md §14):
 * an armed or drawn IoFaultDecision can fail the write before open,
 * after an exact payload byte (torn write), at flush, or at rename —
 * optionally leaving crash debris — and the previous contents of
 * @p path survive every one of those faults.
 */
Status atomicWriteFile(const std::string &path,
                       const std::function<void(std::ostream &)> &body);

/**
 * Open @p path for a path-level artifact load: one IoEnv::checkRead
 * (the read half of the I/O chaos seam, DESIGN.md §14), then a binary
 * open. A drawn read fault returns IoError before the file is opened;
 * a failed open returns IoError too.
 */
Status openArtifactFile(const std::string &path, std::ifstream &is);

/**
 * Load the artifact at @p path with the stream loader @p parse
 * (std::istream & -> Status or Result<T>). Every path-level loader is
 * this call, so each load makes exactly one checkRead.
 */
template <typename Parse>
auto
readArtifactFile(const std::string &path, Parse &&parse)
    -> decltype(parse(std::declval<std::istream &>()))
{
    std::ifstream is;
    const Status opened = openArtifactFile(path, is);
    if (!opened.ok())
        return opened;
    return parse(is);
}

} // namespace tlp
