/**
 * @file
 * A small tape-based autograd tensor.
 *
 * Tensors are dense float32 arrays with dynamic shapes. Operations (see
 * ops.h) eagerly compute values and record a backward closure; calling
 * backward() on a scalar tensor topologically sorts the recorded graph
 * and runs the closures in reverse order.
 *
 * A node requires grad when any of its parents does, so backward()
 * prunes: it skips the closure of every node with requires_grad unset,
 * whose grads could reach no parameter, and matmul/bmm compute only the
 * operand grads whose parent requires grad. Grads that no closure
 * writes are never allocated. matmul takes an A of any rank >= 2 (its
 * leading dims are the GEMM rows), so Linear on [N, L, D] records no
 * reshape copies; together these keep the TLP pretraining tape at
 * 177 MB per 256-row step, down from 247 MB (DESIGN.md §7).
 *
 * The library is deliberately minimal — just enough to train the TLP /
 * MTL-TLP architectures (linear layers, multi-head self-attention, LSTM,
 * residual MLP blocks) on CPU — and fully deterministic given an Rng.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "support/logging.h"
#include "support/rng.h"

namespace tlp::nn {

/** Autograd graph node backing a Tensor. */
struct Node
{
    std::vector<int> shape;
    std::vector<float> value;
    std::vector<float> grad;     ///< allocated lazily at backward time
    bool requires_grad = false;
    std::vector<std::shared_ptr<Node>> parents;
    /** Accumulates this node's grad into its parents' grads. */
    std::function<void(Node &)> backward_fn;

    /** Id of the TapePool that supplied value/grad (0 = none). */
    uint64_t pool_id = 0;
    int value_slot = -1;         ///< pool slot of value, or -1
    int grad_slot = -1;          ///< pool slot of grad, or -1

    Node() = default;
    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;
    /** Hands pooled storage back to its pool (see TapePool). */
    ~Node();

    int64_t numel() const { return static_cast<int64_t>(value.size()); }

    /**
     * Size value to @p n zero-filled floats, taking the storage from the
     * calling thread's current TapePool when a scope is open.
     */
    void allocValue(size_t n);

    /** Ensure the grad buffer exists (zero-filled). */
    void ensureGrad();
};

/**
 * Step-scoped storage for tape buffers (Node::value and Node::grad).
 *
 * A training loop owns one pool and opens a Scope around each step
 * attempt; inside it, the k-th tape buffer the step allocates reuses the
 * k-th buffer of the previous step when its capacity suffices. When it
 * does not, the step has outgrown the pool: that slot and every later
 * one are released and allocated afresh. A dying node hands its buffers
 * back to their slots only while its pool is still the thread's current
 * pool and the slot is empty; every other node (outside any scope,
 * escaped from its step, from another pool or thread) frees normally.
 * Buffers are zero-filled on hand-out exactly as a fresh vector would
 * be, so pooling moves storage and never changes a value. When the
 * scope closes, slots the step did not use are released, so between
 * steps the pool holds at most one step's tape.
 */
class TapePool
{
  public:
    /** Makes a pool the calling thread's current pool while alive. */
    class Scope
    {
      public:
        explicit Scope(TapePool &pool);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        TapePool &pool_;
        TapePool *previous_;
    };

    TapePool();
    ~TapePool();
    TapePool(const TapePool &) = delete;
    TapePool &operator=(const TapePool &) = delete;

    int64_t hits() const { return hits_; }
    int64_t misses() const { return misses_; }
    /** Bytes of storage parked in the pool's slots. */
    int64_t heldBytes() const { return held_bytes_; }
    /** Bytes the current (or last) scope handed out. */
    int64_t stepBytes() const { return step_bytes_; }

    /** The calling thread's current pool, or null outside any scope. */
    static TapePool *current();

  private:
    friend struct Node;

    /** Move the next slot's storage into @p buf as @p n zeros. */
    void acquire(std::vector<float> &buf, size_t n, int &slot);
    /** Park @p buf in @p slot when that slot is empty. */
    void park(std::vector<float> &buf, int slot);
    /** Drop slot storage from index @p keep on. */
    void release(size_t keep);

    uint64_t id_;
    std::vector<std::vector<float>> slots_;
    size_t next_slot_ = 0;
    bool active_ = false;
    int64_t hits_ = 0;
    int64_t misses_ = 0;
    int64_t held_bytes_ = 0;
    int64_t step_bytes_ = 0;
};

/** Handle to an autograd node. */
class Tensor
{
  public:
    Tensor() = default;

    /** True when this handle points at a node. */
    bool defined() const { return node_ != nullptr; }

    const std::vector<int> &shape() const;
    int64_t numel() const;
    int dim(int axis) const;

    std::vector<float> &value();
    const std::vector<float> &value() const;
    std::vector<float> &grad();

    bool requiresGrad() const;

    /**
     * Run reverse-mode autodiff from this (scalar) tensor, skipping the
     * nodes that do not require grad.
     */
    void backward();

    std::shared_ptr<Node> node() const { return node_; }

    // --- constructors ---

    /** All-zeros tensor. */
    static Tensor zeros(const std::vector<int> &shape,
                        bool requires_grad = false);

    /** Tensor wrapping explicit data. */
    static Tensor fromData(const std::vector<int> &shape,
                           std::vector<float> data,
                           bool requires_grad = false);

    /** Gaussian-initialized tensor (mean 0, given stddev). */
    static Tensor randn(const std::vector<int> &shape, Rng &rng,
                        double stddev, bool requires_grad = true);

    /** Wrap an existing node. */
    static Tensor fromNode(std::shared_ptr<Node> node);

  private:
    std::shared_ptr<Node> node_;
};

/** Number of elements implied by @p shape. */
int64_t shapeNumel(const std::vector<int> &shape);

} // namespace tlp::nn
