#include "models/snapshot.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "models/supervisor.h"
#include "support/io_env.h"

namespace tlp::model {

namespace {

constexpr uint32_t kConfigTag = sectionTag("CONF");
constexpr uint32_t kParamsTag = sectionTag("PARM");
constexpr uint32_t kEndTag = sectionTag("TEND");

// Architecture discriminator stored in the config section.
constexpr uint8_t kArchTlp = 0;
constexpr uint8_t kArchMlp = 1;

/**
 * Reject nonsensical dimensions before any tensor is allocated: a
 * corrupt config must not be able to request multi-GB parameter
 * buffers. (CRC catches random corruption first; this is the backstop.)
 */
int
checkedDim(int64_t value, const char *what, int64_t lo, int64_t hi)
{
    if (value < lo || value > hi) {
        throw SerializeError(ErrorCode::Corrupt,
                             std::string("snapshot config field ") + what +
                                 " = " + std::to_string(value) +
                                 " outside [" + std::to_string(lo) + ", " +
                                 std::to_string(hi) + "]");
    }
    return static_cast<int>(value);
}

uint8_t
readArch(BinaryReader &reader, uint8_t want, const char *want_name)
{
    const auto arch = reader.readPod<uint8_t>();
    if (arch != want) {
        throw SerializeError(ErrorCode::Invalid,
                             std::string("snapshot holds a different "
                                         "architecture than the "
                                         "requested ") +
                                 want_name + " model");
    }
    return arch;
}

/** Shared tail: header + CONF (via @p config) + PARM + TEND. */
template <typename WriteConfig>
void
writeSnapshot(std::ostream &os, nn::Module &net, WriteConfig &&config)
{
    BinaryWriter writer(os);
    writeHeader(writer, kSnapshotMagic, kSnapshotVersion);
    writeSection(writer, kConfigTag, config);
    writeSection(writer, kParamsTag,
                 [&](BinaryWriter &w) { net.saveParameters(w); });
    writeSectionRaw(writer, kEndTag, "");
}

/**
 * Shared load loop: validates framing and hands the CONF / PARM
 * payloads to @p parse_config / @p parse_params in file order.
 */
template <typename ParseConfig, typename ParseParams>
void
readSnapshot(std::istream &is, ParseConfig &&parse_config,
             ParseParams &&parse_params)
{
    BinaryReader reader(is);
    readHeader(reader, kSnapshotMagic, kSnapshotVersion, kSnapshotVersion);
    bool seen_config = false;
    bool seen_params = false;
    bool seen_end = false;
    while (!seen_end && reader.remaining() > 0) {
        Section section = readSection(reader);
        if (!section.crc_ok) {
            throw SerializeError(ErrorCode::Corrupt,
                                 "checksum mismatch in snapshot section " +
                                     sectionTagName(section.tag));
        }
        std::istringstream payload(section.payload);
        BinaryReader body(payload);
        if (section.tag == kConfigTag) {
            parse_config(body);
            seen_config = true;
        } else if (section.tag == kParamsTag) {
            if (!seen_config) {
                throw SerializeError(ErrorCode::Corrupt,
                                     "snapshot parameters before config");
            }
            parse_params(body);
            seen_params = true;
        } else if (section.tag == kEndTag) {
            seen_end = true;
        }
        // Unknown tags: skipped for forward compatibility.
    }
    if (!seen_config || !seen_params || !seen_end) {
        throw SerializeError(ErrorCode::Truncated,
                             "snapshot is missing required sections");
    }
}

} // namespace

void
saveTlpSnapshot(std::ostream &os, TlpNet &net)
{
    const TlpNetConfig &config = net.config();
    writeSnapshot(os, net, [&](BinaryWriter &w) {
        w.writePod<uint8_t>(kArchTlp);
        w.writePod<int32_t>(config.seq_len);
        w.writePod<int32_t>(config.emb_size);
        w.writePod<int32_t>(config.hidden);
        w.writePod<int32_t>(config.heads);
        w.writePod<uint8_t>(config.lstm_backbone ? 1 : 0);
        w.writePod<int32_t>(config.residual_blocks);
        w.writePod<int32_t>(config.head_hidden);
        w.writePod<int32_t>(config.num_tasks);
    });
}

Status
saveTlpSnapshot(const std::string &path, TlpNet &net)
{
    return atomicWriteFile(
        path, [&](std::ostream &os) { saveTlpSnapshot(os, net); });
}

Result<std::shared_ptr<TlpNet>>
loadTlpSnapshot(std::istream &is)
{
    std::shared_ptr<TlpNet> net;
    const Status status = guardedParse([&] {
        readSnapshot(
            is,
            [&](BinaryReader &body) {
                readArch(body, kArchTlp, "TLP");
                TlpNetConfig config;
                config.seq_len = checkedDim(body.readPod<int32_t>(),
                                            "seq_len", 1, 4096);
                config.emb_size = checkedDim(body.readPod<int32_t>(),
                                             "emb_size", 1, 4096);
                config.hidden = checkedDim(body.readPod<int32_t>(),
                                           "hidden", 1, 1 << 14);
                config.heads = checkedDim(body.readPod<int32_t>(),
                                          "heads", 1, 256);
                config.lstm_backbone = body.readPod<uint8_t>() != 0;
                config.residual_blocks = checkedDim(
                    body.readPod<int32_t>(), "residual_blocks", 0, 64);
                config.head_hidden = checkedDim(body.readPod<int32_t>(),
                                                "head_hidden", 1, 1 << 14);
                config.num_tasks = checkedDim(body.readPod<int32_t>(),
                                              "num_tasks", 1, 4096);
                Rng rng(0);
                net = std::make_shared<TlpNet>(config, rng);
            },
            [&](BinaryReader &body) { net->loadParameters(body); });
    });
    if (!status.ok())
        return status;
    return net;
}

Result<std::shared_ptr<TlpNet>>
loadTlpSnapshot(const std::string &path)
{
    const Status injected = IoEnv::global().checkRead(path);
    if (!injected.ok())
        return injected;
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        return Status::error(ErrorCode::IoError,
                             "cannot open for read: " + path);
    }
    return loadTlpSnapshot(is);
}

Status
probeSnapshotHealth(TlpNet &net)
{
    // Fixed synthetic batch (no Rng: the probe must be a pure function
    // of the parameters so two probes of the same snapshot agree).
    const TlpNetConfig &config = net.config();
    const int batch = 4;
    const int width = config.seq_len * config.emb_size;
    std::vector<float> data(static_cast<size_t>(batch) *
                            static_cast<size_t>(width));
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = 0.1f * static_cast<float>(static_cast<int>(i % 13) - 6);
    nn::Tensor x = nn::Tensor::fromData({batch, width}, std::move(data));

    const nn::Tensor scores = net.forwardTask(x, 0);
    if (scores.numel() != batch) {
        return Status::error(ErrorCode::Invalid,
                             "snapshot probe: head 0 produced " +
                                 std::to_string(scores.numel()) +
                                 " scores for a batch of " +
                                 std::to_string(batch));
    }
    const HealthEvent health = scoreHealth(scores.value(), 1e-12f);
    if (health == HealthEvent::NanScore) {
        return Status::error(ErrorCode::Invalid,
                             "snapshot probe: non-finite score "
                             "(poisoned parameters)");
    }
    if (health == HealthEvent::ConstantScore) {
        const float hi = *std::max_element(scores.value().begin(),
                                           scores.value().end());
        return Status::error(ErrorCode::Invalid,
                             "snapshot probe: degenerate scores (all " +
                                 std::to_string(hi) +
                                 "); parameters look zeroed");
    }
    return Status();
}

void
saveMlpSnapshot(std::ostream &os, TensetMlpNet &net)
{
    const MlpConfig &config = net.config();
    writeSnapshot(os, net, [&](BinaryWriter &w) {
        w.writePod<uint8_t>(kArchMlp);
        w.writePod<int32_t>(config.input);
        w.writePod<int32_t>(config.hidden);
        w.writePod<int32_t>(config.layers);
    });
}

Status
saveMlpSnapshot(const std::string &path, TensetMlpNet &net)
{
    return atomicWriteFile(
        path, [&](std::ostream &os) { saveMlpSnapshot(os, net); });
}

Result<std::shared_ptr<TensetMlpNet>>
loadMlpSnapshot(std::istream &is)
{
    std::shared_ptr<TensetMlpNet> net;
    const Status status = guardedParse([&] {
        readSnapshot(
            is,
            [&](BinaryReader &body) {
                readArch(body, kArchMlp, "TenSet-MLP");
                MlpConfig config;
                config.input = checkedDim(body.readPod<int32_t>(),
                                          "input", 1, 1 << 16);
                config.hidden = checkedDim(body.readPod<int32_t>(),
                                           "hidden", 1, 1 << 14);
                config.layers = checkedDim(body.readPod<int32_t>(),
                                           "layers", 1, 64);
                Rng rng(0);
                net = std::make_shared<TensetMlpNet>(config, rng);
            },
            [&](BinaryReader &body) { net->loadParameters(body); });
    });
    if (!status.ok())
        return status;
    return net;
}

Result<std::shared_ptr<TensetMlpNet>>
loadMlpSnapshot(const std::string &path)
{
    const Status injected = IoEnv::global().checkRead(path);
    if (!injected.ok())
        return injected;
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        return Status::error(ErrorCode::IoError,
                             "cannot open for read: " + path);
    }
    return loadMlpSnapshot(is);
}

} // namespace tlp::model
