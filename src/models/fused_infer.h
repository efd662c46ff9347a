/**
 * @file
 * Inference-only fused forward pass for the TLP net (DESIGN.md §13).
 *
 * The training forward walks the autograd tape: every op allocates a
 * Node, copies for reshapes, and records a backward closure — all waste
 * when the search loop only wants scores. FusedTlpInference packs the
 * net's parameters into one contiguous slab and replays the exact
 * forward arithmetic (attention backbone, residual blocks, task head)
 * over arena-allocated scratch in fixed candidate blocks, with fused
 * linear+bias(+relu) epilogues and no graph bookkeeping.
 *
 * The slab is the one copy of the weights a TlpCostModel scores with;
 * refresh() re-copies exactly the parameters whose bytes moved.
 *
 * Equivalence contract: predictions are bit-identical to
 * TlpNet::forwardTask. Every contractible loop (gemm, layer norm) runs
 * through the same noinline kernels the interpreted ops call
 * (kern::gemmRows, iops::softmaxRows/layerNormRows); the remaining maps
 * are contraction-free restatements; and rows are independent through
 * the whole network, so any block size — and any thread partitioning of
 * blocks — yields the interpreted full-batch bits. tests/test_infer.cc
 * pins the equality, CI's Release job re-asserts it.
 *
 * Parallelism: blocks fan out over the global ThreadPool (this is a
 * top-level call site — the serial micro-kernels never nest a pool),
 * each chunk drawing a private Arena from a pool sized to the worker
 * count. Which arena serves which chunk is scheduling-dependent, but
 * arenas hold only scratch, so values never depend on the assignment.
 *
 * The LSTM backbone stays on the interpreted path (usable() == false):
 * its sequential recurrence gains little from fusion and is not on the
 * tuning hot path; refresh() still covers its weights.
 */
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "models/tlp_model.h"
#include "support/arena.h"

namespace tlp::model {

/** Packed-weight, arena-backed, allocation-free TlpNet forward. */
class FusedTlpInference
{
  public:
    /** Packs @p net's current parameters; keeps only their handles. */
    explicit FusedTlpInference(std::shared_ptr<TlpNet> net);

    /** False for LSTM backbones: callers must use the interpreted path. */
    bool usable() const { return !config_.lstm_backbone; }

    /**
     * Compare every live parameter against its slice of the slab
     * (memcmp) and re-copy the ones that moved. Allocation-free; call
     * before every scoring pass.
     * @return true when any parameter moved.
     */
    bool refresh();

    /**
     * Score @p rows feature rows (each config.seq_len * config.emb_size
     * wide, contiguous) with head @p task into @p out, bit-identical to
     * predictTlpNet over the same rows.
     */
    void predict(const float *features, int64_t rows, int task,
                 double *out);

    /** Candidates per forward block (fixes scratch high-water size). */
    static constexpr int64_t kRowsPerBlock = 16;

  private:
    /** One packed affine layer: weight [in, out] then bias [out]. */
    struct Affine
    {
        const float *w = nullptr;
        const float *b = nullptr;
    };

    /** Pointers into packed_ for gamma/beta of one layer norm. */
    struct Norm
    {
        const float *gamma = nullptr;
        const float *beta = nullptr;
    };

    void forwardBlock(Arena &arena, const float *x, int64_t n, int task,
                      double *out);

    TlpNetConfig config_;
    /** Parameter handles in snapshot order, gathered once: Tensors
     *  share their node, so refresh() reads the live weights without
     *  rebuilding the module walk (which allocates). */
    std::vector<nn::Tensor> params_;
    std::vector<float> packed_;  ///< every parameter, contiguous
    Affine up1_, up2_;
    Affine q_, k_, v_, attn_out_;
    Norm attn_norm_;
    struct Residual
    {
        Affine fc1, fc2;
        Norm norm;
    };
    std::vector<Residual> residuals_;
    struct Head
    {
        Affine fc1, fc2;
    };
    std::vector<Head> heads_;
    /** One scratch arena per pool worker; grown on demand at warm-up. */
    std::vector<std::unique_ptr<Arena>> arenas_;
};

} // namespace tlp::model
