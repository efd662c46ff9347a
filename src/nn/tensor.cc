#include "nn/tensor.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace tlp::nn {

namespace {

thread_local TapePool *t_current_pool = nullptr;

std::atomic<uint64_t> g_next_pool_id{1};

int64_t
capacityBytes(const std::vector<float> &buf)
{
    return static_cast<int64_t>(buf.capacity() * sizeof(float));
}

} // namespace

int64_t
shapeNumel(const std::vector<int> &shape)
{
    int64_t count = 1;
    for (int extent : shape) {
        TLP_CHECK(extent > 0, "non-positive tensor extent");
        count *= extent;
    }
    return count;
}

Node::~Node()
{
    TapePool *pool = TapePool::current();
    if (pool == nullptr || pool->id_ != pool_id)
        return;
    pool->park(value, value_slot);
    pool->park(grad, grad_slot);
}

void
Node::allocValue(size_t n)
{
    TapePool *pool = TapePool::current();
    if (pool == nullptr) {
        value.resize(n);
        return;
    }
    pool_id = pool->id_;
    pool->acquire(value, n, value_slot);
}

void
Node::ensureGrad()
{
    if (grad.size() == value.size())
        return;
    // Only nodes the current pool supplied take grads from it; a
    // parameter's grad outlives every step and stays heap-owned.
    TapePool *pool = TapePool::current();
    if (pool != nullptr && pool->id_ == pool_id && grad_slot < 0)
        pool->acquire(grad, value.size(), grad_slot);
    else
        grad.assign(value.size(), 0.0f);
}

TapePool::TapePool() : id_(g_next_pool_id.fetch_add(1))
{
#ifdef __GLIBC__
    // One-shot return of free heap pages (not an allocator policy): the
    // pool's buffers then land in fresh memory instead of stacking on
    // top of whatever the caller's previous work left free.
    malloc_trim(0);
#endif
}

TapePool::~TapePool()
{
    TLP_CHECK(!active_, "TapePool destroyed inside its scope");
    release(0);
}

TapePool *
TapePool::current()
{
    return t_current_pool;
}

void
TapePool::acquire(std::vector<float> &buf, size_t n, int &slot)
{
    // A parked buffer too small for its slot means the step outgrew the
    // pool: drop it and every later slot, so the larger buffers are laid
    // out afresh rather than around the old ones (that fragmentation
    // kept ~8 MB of extra heap resident in pretraining).
    if (next_slot_ < slots_.size()) {
        const size_t parked = slots_[next_slot_].capacity();
        if (parked != 0 && parked < n)
            release(next_slot_);
    }
    if (next_slot_ == slots_.size())
        slots_.emplace_back();
    std::vector<float> &parked = slots_[next_slot_];
    const bool hit = parked.capacity() >= n;
    ++(hit ? hits_ : misses_);
    held_bytes_ -= capacityBytes(parked);
    buf = std::exchange(parked, {});
    buf.assign(n, 0.0f);
    step_bytes_ += capacityBytes(buf);
    slot = static_cast<int>(next_slot_++);
}

void
TapePool::park(std::vector<float> &buf, int slot)
{
    if (slot < 0 || static_cast<size_t>(slot) >= slots_.size())
        return;
    std::vector<float> &parked = slots_[static_cast<size_t>(slot)];
    if (parked.capacity() != 0 || buf.capacity() == 0)
        return;
    parked = std::exchange(buf, {});
    held_bytes_ += capacityBytes(parked);
}

void
TapePool::release(size_t keep)
{
    for (size_t k = keep; k < slots_.size(); ++k)
        held_bytes_ -= capacityBytes(slots_[k]);
    if (keep < slots_.size())
        slots_.resize(keep);
}

TapePool::Scope::Scope(TapePool &pool)
    : pool_(pool), previous_(t_current_pool)
{
    TLP_CHECK(!pool.active_, "TapePool scope is already open");
    pool.active_ = true;
    pool.next_slot_ = 0;
    pool.step_bytes_ = 0;
    t_current_pool = &pool;
}

TapePool::Scope::~Scope()
{
    // Slots this step never reached hold storage no step shape needs.
    pool_.release(pool_.next_slot_);
    pool_.active_ = false;
    t_current_pool = previous_;
}

const std::vector<int> &
Tensor::shape() const
{
    TLP_CHECK(node_, "undefined tensor");
    return node_->shape;
}

int64_t
Tensor::numel() const
{
    TLP_CHECK(node_, "undefined tensor");
    return node_->numel();
}

int
Tensor::dim(int axis) const
{
    const auto &s = shape();
    TLP_CHECK(axis >= 0 && axis < static_cast<int>(s.size()),
              "bad axis ", axis);
    return s[static_cast<size_t>(axis)];
}

std::vector<float> &
Tensor::value()
{
    TLP_CHECK(node_, "undefined tensor");
    return node_->value;
}

const std::vector<float> &
Tensor::value() const
{
    TLP_CHECK(node_, "undefined tensor");
    return node_->value;
}

std::vector<float> &
Tensor::grad()
{
    TLP_CHECK(node_, "undefined tensor");
    node_->ensureGrad();
    return node_->grad;
}

bool
Tensor::requiresGrad() const
{
    TLP_CHECK(node_, "undefined tensor");
    return node_->requires_grad;
}

void
Tensor::backward()
{
    TLP_CHECK(node_, "undefined tensor");
    TLP_CHECK(node_->numel() == 1, "backward() needs a scalar loss");

    // Topological order via iterative DFS.
    std::vector<Node *> order;
    std::unordered_set<Node *> visited;
    std::vector<std::pair<Node *, size_t>> stack;
    stack.push_back({node_.get(), 0});
    visited.insert(node_.get());
    while (!stack.empty()) {
        auto &[node, child] = stack.back();
        if (child < node->parents.size()) {
            Node *parent = node->parents[child++].get();
            if (visited.insert(parent).second)
                stack.push_back({parent, 0});
        } else {
            order.push_back(node);
            stack.pop_back();
        }
    }

    node_->ensureGrad();
    node_->grad[0] = 1.0f;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        Node *node = *it;
        // No parameter lies behind a node without requires_grad (a node
        // requires grad when any parent does), so its closure would only
        // write grads that nobody reads.
        if (node->requires_grad && node->backward_fn) {
            for (auto &parent : node->parents)
                parent->ensureGrad();
            node->backward_fn(*node);
        }
    }
}

Tensor
Tensor::zeros(const std::vector<int> &shape, bool requires_grad)
{
    auto node = std::make_shared<Node>();
    node->shape = shape;
    node->value.assign(static_cast<size_t>(shapeNumel(shape)), 0.0f);
    node->requires_grad = requires_grad;
    return fromNode(std::move(node));
}

Tensor
Tensor::fromData(const std::vector<int> &shape, std::vector<float> data,
                 bool requires_grad)
{
    TLP_CHECK(static_cast<int64_t>(data.size()) == shapeNumel(shape),
              "data size does not match shape");
    auto node = std::make_shared<Node>();
    node->shape = shape;
    node->value = std::move(data);
    node->requires_grad = requires_grad;
    return fromNode(std::move(node));
}

Tensor
Tensor::randn(const std::vector<int> &shape, Rng &rng, double stddev,
              bool requires_grad)
{
    auto node = std::make_shared<Node>();
    node->shape = shape;
    node->value.resize(static_cast<size_t>(shapeNumel(shape)));
    for (auto &v : node->value)
        v = static_cast<float>(rng.normal(0.0, stddev));
    node->requires_grad = requires_grad;
    return fromNode(std::move(node));
}

Tensor
Tensor::fromNode(std::shared_ptr<Node> node)
{
    Tensor tensor;
    tensor.node_ = std::move(node);
    return tensor;
}

} // namespace tlp::nn
