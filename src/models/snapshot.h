/**
 * @file
 * Pretrained-model snapshots (TLP / MTL-TLP).
 *
 * A snapshot holds the architecture config plus every parameter tensor,
 * wrapped in the standard CRC32-checksummed section framing, so a
 * pretraining run (the expensive artifact of Sec. 6.1/6.2) survives
 * process restarts and corrupt files are reported as a clean Status
 * instead of a crash. Loads return Result<T>; saves are atomic
 * (write-tmp-then-rename).
 */
#pragma once

#include <iosfwd>
#include <memory>

#include "models/tlp_model.h"
#include "support/result.h"

namespace tlp::model {

/** Snapshot file magic ("TLPW": TLP weights). */
inline constexpr uint32_t kSnapshotMagic = 0x544c5057;

/** Current snapshot format version (min supported == current). */
inline constexpr uint32_t kSnapshotVersion = 1;

/** Save @p net (config + parameters) atomically to @p path. */
Status saveTlpSnapshot(const std::string &path, TlpNet &net);

/** Stream variant, for embedding in larger files and tests. */
void saveTlpSnapshot(std::ostream &os, TlpNet &net);

/**
 * Load a TLP / MTL-TLP snapshot. Corruption, truncation, version skew,
 * and architecture mismatches come back as a Status.
 */
Result<std::shared_ptr<TlpNet>> loadTlpSnapshot(const std::string &path);
Result<std::shared_ptr<TlpNet>> loadTlpSnapshot(std::istream &is);

/**
 * Staleness/health probe for a freshly loaded TLP snapshot (DESIGN.md
 * §12): runs a fixed synthetic batch through head 0 and demands finite
 * scores with a non-degenerate spread. A snapshot whose parameters were
 * zeroed, NaN-poisoned, or truncated-but-CRC-lucky fails the probe, so a
 * service can reject a hot-swap before any session scores with it.
 */
Status probeSnapshotHealth(TlpNet &net);

} // namespace tlp::model
