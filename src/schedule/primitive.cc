#include "schedule/primitive.h"

#include <sstream>

#include "support/logging.h"
#include "support/rng.h"

namespace tlp::sched {

std::string
primKindName(PrimKind kind)
{
    switch (kind) {
      case PrimKind::SP:   return "SP";
      case PrimKind::RE:   return "RE";
      case PrimKind::FU:   return "FU";
      case PrimKind::FSP:  return "FSP";
      case PrimKind::FFSP: return "FFSP";
      case PrimKind::CA:   return "CA";
      case PrimKind::CI:   return "CI";
      case PrimKind::CR:   return "CR";
      case PrimKind::CHW:  return "CHW";
      case PrimKind::CHR:  return "CHR";
      case PrimKind::RF:   return "RF";
      case PrimKind::AN:   return "AN";
      case PrimKind::PR:   return "PR";
      case PrimKind::SA:   return "SA";
      case PrimKind::NumKinds: break;
    }
    TLP_PANIC("unknown primitive kind");
}

std::string
primKindLongName(PrimKind kind)
{
    switch (kind) {
      case PrimKind::SP:   return "split";
      case PrimKind::RE:   return "reorder";
      case PrimKind::FU:   return "fuse";
      case PrimKind::FSP:  return "follow_split";
      case PrimKind::FFSP: return "follow_fused_split";
      case PrimKind::CA:   return "compute_at";
      case PrimKind::CI:   return "compute_inline";
      case PrimKind::CR:   return "compute_root";
      case PrimKind::CHW:  return "cache_write";
      case PrimKind::CHR:  return "cache_read";
      case PrimKind::RF:   return "rfactor";
      case PrimKind::AN:   return "annotation";
      case PrimKind::PR:   return "pragma";
      case PrimKind::SA:   return "storage_align";
      case PrimKind::NumKinds: break;
    }
    TLP_PANIC("unknown primitive kind");
}

std::string
Primitive::toString() const
{
    std::ostringstream os;
    os << primKindName(kind) << '(';
    for (size_t i = 0; i < params.size(); ++i) {
        if (i > 0)
            os << ", ";
        if (std::holds_alternative<int64_t>(params[i])) {
            os << std::get<int64_t>(params[i]);
        } else {
            os << '"' << std::get<std::string>(params[i]) << '"';
        }
    }
    os << ')';
    return os.str();
}

void
Primitive::serialize(BinaryWriter &writer) const
{
    writer.writePod<uint8_t>(static_cast<uint8_t>(kind));
    writer.writePod<uint32_t>(static_cast<uint32_t>(params.size()));
    for (const Param &param : params) {
        if (std::holds_alternative<int64_t>(param)) {
            writer.writePod<uint8_t>(0);
            writer.writePod(std::get<int64_t>(param));
        } else {
            writer.writePod<uint8_t>(1);
            writer.writeString(std::get<std::string>(param));
        }
    }
}

Primitive
Primitive::deserialize(BinaryReader &reader)
{
    Primitive prim;
    const auto raw_kind = reader.readPod<uint8_t>();
    if (raw_kind >= static_cast<uint8_t>(PrimKind::NumKinds)) {
        throw SerializeError(ErrorCode::Corrupt,
                             "invalid primitive kind " +
                                 std::to_string(raw_kind));
    }
    prim.kind = static_cast<PrimKind>(raw_kind);
    const auto count = reader.readPod<uint32_t>();
    // Every param costs >= 2 stream bytes; an inflated count cannot
    // reserve past the remaining input.
    if (count > reader.remaining() / 2) {
        throw SerializeError(ErrorCode::Truncated,
                             "primitive param count " +
                                 std::to_string(count) +
                                 " exceeds the remaining stream");
    }
    prim.params.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        const auto tag = reader.readPod<uint8_t>();
        if (tag == 0) {
            prim.params.emplace_back(reader.readPod<int64_t>());
        } else if (tag == 1) {
            prim.params.emplace_back(reader.readString());
        } else {
            throw SerializeError(ErrorCode::Corrupt,
                                 "invalid primitive param tag " +
                                     std::to_string(tag));
        }
    }
    return prim;
}

std::string
PrimitiveSeq::toString() const
{
    std::ostringstream os;
    for (const Primitive &prim : prims)
        os << prim.toString() << '\n';
    return os.str();
}

uint64_t
PrimitiveSeq::hash() const
{
    uint64_t h = 1469598103934665603ull;
    for (const Primitive &prim : prims) {
        h = hashCombine(h, static_cast<uint64_t>(prim.kind));
        for (const Param &param : prim.params) {
            if (std::holds_alternative<int64_t>(param)) {
                h = hashCombine(
                    h, static_cast<uint64_t>(std::get<int64_t>(param)));
            } else {
                const auto &name = std::get<std::string>(param);
                h = hashCombine(h, fnv1a(name.data(), name.size()));
            }
        }
    }
    return h;
}

void
PrimitiveSeq::serialize(BinaryWriter &writer) const
{
    writer.writePod<uint32_t>(static_cast<uint32_t>(prims.size()));
    for (const Primitive &prim : prims)
        prim.serialize(writer);
}

PrimitiveSeq
PrimitiveSeq::deserialize(BinaryReader &reader)
{
    PrimitiveSeq seq;
    const auto count = reader.readPod<uint32_t>();
    // Every primitive costs >= 5 stream bytes (kind + param count).
    if (count > reader.remaining() / 5) {
        throw SerializeError(ErrorCode::Truncated,
                             "primitive count " + std::to_string(count) +
                                 " exceeds the remaining stream");
    }
    seq.prims.reserve(count);
    for (uint32_t i = 0; i < count; ++i)
        seq.prims.push_back(Primitive::deserialize(reader));
    return seq;
}

std::string
annotationName(Annotation ann)
{
    switch (ann) {
      case Annotation::None:      return "none";
      case Annotation::Parallel:  return "parallel";
      case Annotation::Vectorize: return "vectorize";
      case Annotation::Unroll:    return "unroll";
      case Annotation::BlockX:    return "blockIdx.x";
      case Annotation::ThreadX:   return "threadIdx.x";
      case Annotation::VThread:   return "vthread";
    }
    TLP_PANIC("unknown annotation");
}

} // namespace tlp::sched
