#include "models/fused_infer.h"

#include <cmath>
#include <cstring>

#include "nn/infer_ops.h"
#include "nn/kernels.h"
#include "support/thread_pool.h"

namespace tlp::model {

namespace nk = nn::kern;
namespace io = nn::iops;

FusedTlpInference::FusedTlpInference(std::shared_ptr<TlpNet> net)
{
    TLP_CHECK(net != nullptr, "null TLP net");
    config_ = net->config();

    // Every backbone gets the slab (a cost model's staleness check);
    // sizes are fixed by the architecture, so refresh() copies values.
    params_ = net->parameters();
    int64_t total = 0;
    for (nn::Tensor &param : params_)
        total += param.numel();
    // predict() never allocates from the heap.
    // tlp-lint: allow(hot-alloc) -- one-time weight-slab sizing.
    packed_.resize(static_cast<size_t>(total));
    refresh();
    if (!usable())
        return;

    // Wire the per-layer pointers into the slab once.
    size_t cursor = 0;
    auto take = [&](int64_t numel) {
        const float *ptr = packed_.data() + cursor;
        TLP_CHECK(cursor + static_cast<size_t>(numel) <= packed_.size(),
                  "packed-parameter overrun");
        cursor += static_cast<size_t>(numel);
        return ptr;
    };
    const int64_t h = config_.hidden;
    auto affine = [&](int64_t in, int64_t out) {
        Affine a;
        a.w = take(in * out);
        a.b = take(out);
        return a;
    };
    auto norm = [&] {
        Norm nrm;
        nrm.gamma = take(h);
        nrm.beta = take(h);
        return nrm;
    };
    // The packing order is TlpNet::parameters() order (the snapshot
    // order): up1, up2, attention (q, k, v, out, norm), residual
    // blocks, then one (fc1, fc2) pair per task head.
    up1_ = affine(config_.emb_size, h);
    up2_ = affine(h, h);
    q_ = affine(h, h);
    k_ = affine(h, h);
    v_ = affine(h, h);
    attn_out_ = affine(h, h);
    attn_norm_ = norm();
    for (int i = 0; i < config_.residual_blocks; ++i) {
        Residual res;
        res.fc1 = affine(h, h);
        res.fc2 = affine(h, h);
        res.norm = norm();
        // tlp-lint: allow(hot-alloc) -- construction-time layout.
        residuals_.push_back(res);
    }
    for (int t = 0; t < config_.num_tasks; ++t) {
        Head head;
        head.fc1 = affine(h, config_.head_hidden);
        head.fc2 = affine(config_.head_hidden, 1);
        // tlp-lint: allow(hot-alloc) -- construction-time layout.
        heads_.push_back(head);
    }
    TLP_CHECK(cursor == packed_.size(), "packed-parameter underrun");
}

bool
FusedTlpInference::refresh()
{
    bool moved = false;
    size_t cursor = 0;
    for (const nn::Tensor &param : params_) {
        const auto &value = param.value();
        TLP_CHECK(cursor + value.size() <= packed_.size(),
                  "net architecture changed under the packed weights");
        float *slice = packed_.data() + cursor;
        const size_t bytes = value.size() * sizeof(float);
        if (std::memcmp(slice, value.data(), bytes) != 0) {
            std::memcpy(slice, value.data(), bytes);
            moved = true;
        }
        cursor += value.size();
    }
    TLP_CHECK(cursor == packed_.size(),
              "net architecture changed under the packed weights");
    return moved;
}

void
FusedTlpInference::predict(const float *features, int64_t rows, int task,
                           double *out)
{
    TLP_CHECK(usable(), "fused inference has no LSTM path");
    TLP_CHECK(task >= 0 && task < config_.num_tasks, "bad task ", task);
    if (rows == 0)
        return;
    const int64_t blocks =
        (rows + kRowsPerBlock - 1) / kRowsPerBlock;
    // One private arena per concurrently-running chunk. parallelFor
    // creates at most numThreads() chunks; which arena a chunk draws is
    // scheduling-dependent, but arenas are scratch-only so the values
    // written to `out` never depend on the assignment.
    const auto workers =
        static_cast<size_t>(ThreadPool::global().numThreads());
    while (arenas_.size() < workers) {
        // Warm-up growth after a thread-count change only.
        // tlp-lint: allow(hot-alloc) -- arena-pool warm-up growth.
        arenas_.push_back(std::make_unique<Arena>(size_t{2} << 20));
    }
    std::atomic<size_t> next_arena{0};
    const int64_t dim =
        static_cast<int64_t>(config_.seq_len) * config_.emb_size;
    ThreadPool::global().parallelFor(
        0, blocks, 1, [&](int64_t b0, int64_t b1) {
            Arena &arena =
                *arenas_[next_arena.fetch_add(1) % arenas_.size()];
            for (int64_t block = b0; block < b1; ++block) {
                const int64_t row0 = block * kRowsPerBlock;
                const int64_t n =
                    std::min(kRowsPerBlock, rows - row0);
                const Arena::Mark mark = arena.checkpoint();
                forwardBlock(arena, features + row0 * dim, n, task,
                             out + row0);
                arena.rewind(mark);
            }
        });
}

void
FusedTlpInference::forwardBlock(Arena &arena, const float *x, int64_t n,
                                int task, double *out)
{
    const int64_t S = config_.seq_len;
    const int64_t E = config_.emb_size;
    const int64_t H = config_.hidden;
    const int64_t heads = config_.heads;
    const int64_t hd = H / heads;
    const int64_t rows = n * S;   // the flattened [n*S, .] row count

    // Up-sampling: relu(up2(relu(up1(x)))). The interpreted matmul
    // multiplies [n, S, E] as its n*S rows of E; x is already that
    // contiguous layout.
    float *h1 = arena.allocFloats(static_cast<size_t>(rows * H));
    nk::gemmRows(x, up1_.w, h1, 0, rows, E, H);
    io::addBiasReluRows(h1, up1_.b, h1, 0, rows, H);
    float *h2 = arena.allocFloats(static_cast<size_t>(rows * H));
    nk::gemmRows(h1, up2_.w, h2, 0, rows, H, H);
    io::addBiasReluRows(h2, up2_.b, h2, 0, rows, H);

    // Self-attention block. Projections first...
    float *qf = arena.allocFloats(static_cast<size_t>(rows * H));
    float *kf = arena.allocFloats(static_cast<size_t>(rows * H));
    float *vf = arena.allocFloats(static_cast<size_t>(rows * H));
    nk::gemmRows(h2, q_.w, qf, 0, rows, H, H);
    io::addBiasRows(qf, q_.b, qf, 0, rows, H);
    nk::gemmRows(h2, k_.w, kf, 0, rows, H, H);
    io::addBiasRows(kf, k_.b, kf, 0, rows, H);
    nk::gemmRows(h2, v_.w, vf, 0, rows, H, H);
    io::addBiasRows(vf, v_.b, vf, 0, rows, H);

    // ...then the head split [n, S, H] -> [n*heads, S, hd] (the
    // interpreted reshape/permute0213/reshape chain, as one copy)...
    const int64_t batches = n * heads;
    float *q_s = arena.allocFloats(static_cast<size_t>(rows * H));
    float *k_s = arena.allocFloats(static_cast<size_t>(rows * H));
    float *v_s = arena.allocFloats(static_cast<size_t>(rows * H));
    auto split = [&](const float *src, float *dst) {
        for (int64_t in = 0; in < n; ++in)
            for (int64_t ih = 0; ih < heads; ++ih)
                for (int64_t l = 0; l < S; ++l) {
                    const float *from = src + (in * S + l) * H + ih * hd;
                    float *to =
                        dst + ((in * heads + ih) * S + l) * hd;
                    std::memcpy(to, from,
                                static_cast<size_t>(hd) *
                                    sizeof(float));
                }
    };
    split(qf, q_s);
    split(kf, k_s);
    split(vf, v_s);

    // ...K^T per batch (interpreted transposeLast2 materializes it too,
    // so the gemm reads the identical operand layout)...
    float *k_t = arena.allocFloats(static_cast<size_t>(rows * H));
    for (int64_t s = 0; s < batches; ++s) {
        const float *src = k_s + s * S * hd;
        float *dst = k_t + s * S * hd;
        for (int64_t l = 0; l < S; ++l)
            for (int64_t d = 0; d < hd; ++d)
                dst[d * S + l] = src[l * hd + d];
    }

    // ...scores = softmax(q k^T / sqrt(hd)), context = probs v.
    float *scores =
        arena.allocFloats(static_cast<size_t>(batches * S * S));
    for (int64_t s = 0; s < batches; ++s)
        nk::gemmRows(q_s + s * S * hd, k_t + s * S * hd,
                     scores + s * S * S, 0, S, hd, S);
    io::scaleInPlace(scores, batches * S * S,
                     1.0f / std::sqrt(static_cast<float>(hd)));
    io::softmaxRows(scores, scores, 0, batches * S, S);
    float *ctx = arena.allocFloats(static_cast<size_t>(rows * H));
    for (int64_t s = 0; s < batches; ++s)
        nk::gemmRows(scores + s * S * S, v_s + s * S * hd,
                     ctx + s * S * hd, 0, S, S, hd);

    // Merge heads back to [n*S, H] (inverse of split), project, then
    // residual + layer norm against the attention input h2.
    float *merged = arena.allocFloats(static_cast<size_t>(rows * H));
    for (int64_t in = 0; in < n; ++in)
        for (int64_t ih = 0; ih < heads; ++ih)
            for (int64_t l = 0; l < S; ++l) {
                const float *from =
                    ctx + ((in * heads + ih) * S + l) * hd;
                float *to = merged + (in * S + l) * H + ih * hd;
                std::memcpy(to, from,
                            static_cast<size_t>(hd) * sizeof(float));
            }
    float *attn = arena.allocFloats(static_cast<size_t>(rows * H));
    nk::gemmRows(merged, attn_out_.w, attn, 0, rows, H, H);
    io::addBiasRows(attn, attn_out_.b, attn, 0, rows, H);
    io::addInto(attn, h2, attn, rows * H);
    float *bb = arena.allocFloats(static_cast<size_t>(rows * H));
    io::layerNormRows(attn, attn_norm_.gamma, attn_norm_.beta, bb,
                      nullptr, 0, rows, H, 1e-5f);

    // Residual blocks: norm(x + fc2(relu(fc1(x)))).
    float *r1 = arena.allocFloats(static_cast<size_t>(rows * H));
    float *r2 = arena.allocFloats(static_cast<size_t>(rows * H));
    for (const Residual &res : residuals_) {
        nk::gemmRows(bb, res.fc1.w, r1, 0, rows, H, H);
        io::addBiasReluRows(r1, res.fc1.b, r1, 0, rows, H);
        nk::gemmRows(r1, res.fc2.w, r2, 0, rows, H, H);
        io::addBiasRows(r2, res.fc2.b, r2, 0, rows, H);
        io::addInto(r2, bb, r2, rows * H);
        io::layerNormRows(r2, res.norm.gamma, res.norm.beta, bb, nullptr,
                          0, rows, H, 1e-5f);
    }

    // Task head: sum over sequence positions of fc2(relu(fc1(h))).
    const Head &head = heads_[static_cast<size_t>(task)];
    const int64_t hh = config_.head_hidden;
    float *hh1 = arena.allocFloats(static_cast<size_t>(rows * hh));
    nk::gemmRows(bb, head.fc1.w, hh1, 0, rows, H, hh);
    io::addBiasReluRows(hh1, head.fc1.b, hh1, 0, rows, hh);
    float *hs = arena.allocFloats(static_cast<size_t>(rows));
    nk::gemmRows(hh1, head.fc2.w, hs, 0, rows, hh, 1);
    io::addBiasRows(hs, head.fc2.b, hs, 0, rows, 1);
    float *sums = arena.allocFloats(static_cast<size_t>(n));
    io::sumRows(hs, sums, 0, n, S);
    // predictTlpNet widens the float predictions to double on readout.
    for (int64_t r = 0; r < n; ++r)
        out[r] = static_cast<double>(sums[r]);
}

} // namespace tlp::model
