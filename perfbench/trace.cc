// GCC's new/delete pairing analysis cannot see that the replaced
// operator new below is malloc-backed when it inlines the free()-based
// delete into container code; the pair is matched by construction.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include "trace.h"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <set>

#include "features/ansor_features.h"
#include "schedule/lower.h"
#include "support/thread_pool.h"

namespace {

/** Every heap allocation in the process, from any thread. */
std::atomic<uint64_t> g_heap_allocs{0};

double
timevalSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace

// Counting replacements of the global allocation functions. Each is a
// matched malloc/free pair, so the counter is the only behavioural
// difference from the default allocator.
void *
operator new(std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *ptr = std::malloc(size ? size : 1))
        return ptr;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto alignment = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
    if (void *ptr = std::aligned_alloc(alignment, rounded ? rounded
                                                          : alignment))
        return ptr;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

// malloc and aligned_alloc storage are both released with free.
void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

namespace perfbench {

using namespace tlp;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint64_t
heapAllocs()
{
    return g_heap_allocs.load(std::memory_order_relaxed);
}

double
sysSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return timevalSeconds(usage.ru_stime);
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return timevalSeconds(usage.ru_utime) + timevalSeconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;   // KB on Linux
}

Span::Span(const LayerTrace *trace)
    : trace_(trace), t0_(now()), allocs0_(heapAllocs()),
      replay0_(trace ? trace->replay_s : 0.0),
      replay_allocs0_(trace ? trace->replay_allocs : 0)
{
}

double
Span::seconds() const
{
    const double replay = trace_ ? trace_->replay_s - replay0_ : 0.0;
    return now() - t0_ - replay;
}

uint64_t
Span::allocs() const
{
    const uint64_t replay =
        trace_ ? trace_->replay_allocs - replay_allocs0_ : 0;
    return heapAllocs() - allocs0_ - replay;
}

/** Books the wall time and allocations of one replay into the trace. */
class Replayer::Guard
{
  public:
    explicit Guard(LayerTrace &trace)
        : trace_(trace), t0_(now()), allocs0_(heapAllocs())
    {
    }
    ~Guard()
    {
        trace_.replay_s += now() - t0_;
        trace_.replay_allocs += heapAllocs() - allocs0_;
    }
    Guard(const Guard &) = delete;
    Guard &operator=(const Guard &) = delete;

  private:
    LayerTrace &trace_;
    double t0_;
    uint64_t allocs0_;
};

Replayer::Replayer(LayerTrace &trace,
                   std::shared_ptr<model::TlpNet> tlp_net,
                   const hw::HardwarePlatform &platform)
    : trace_(trace), measurer_(platform), rng_(0x7ace)
{
    if (tlp_net) {
        tlp_options_.seq_len = tlp_net->config().seq_len;
        tlp_options_.emb_size = tlp_net->config().emb_size;
        fused_ = std::make_unique<model::FusedTlpInference>(
            std::move(tlp_net));
    }
}

void
Replayer::tlpScoring(const std::vector<sched::State> &states, int64_t fresh,
                     int64_t forward_rows)
{
    if (!fused_ || forward_rows <= 0)
        return;
    Guard guard(trace_);
    const int64_t rows =
        std::min<int64_t>(forward_rows, static_cast<int64_t>(states.size()));
    const size_t dim = static_cast<size_t>(tlp_options_.seq_len) *
                       static_cast<size_t>(tlp_options_.emb_size);
    rows_.resize(static_cast<size_t>(rows) * dim);
    scores_.resize(static_cast<size_t>(rows));
    auto extract = [&](int64_t begin, int64_t end) {
        ThreadPool::global().parallelFor(
            begin, end, 1, [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                    feat::extractTlpFeaturesInto(
                        states[static_cast<size_t>(i)].steps(),
                        tlp_options_,
                        rows_.data() + static_cast<size_t>(i) * dim);
                }
            });
    };
    const int64_t extracted = std::min(fresh, rows);
    const double t0 = now();
    extract(0, extracted);
    const double t1 = now();
    extract(extracted, rows);   // feature hits: rows the cache supplied
    const double t2 = now();
    fused_->predict(rows_.data(), rows, 0, scores_.data());
    const double t3 = now();
    const int64_t block = model::FusedTlpInference::kRowsPerBlock;
    trace_.add("features.tlp_extract_s", t1 - t0);
    trace_.add("features.tlp_rows", static_cast<double>(extracted));
    trace_.add("models.forward_s", t3 - t2);
    trace_.add("models.forward_rows", static_cast<double>(rows));
    trace_.add("models.forward_blocks",
               static_cast<double>((rows + block - 1) / block));
}

void
Replayer::ansorFeatures(const std::vector<const sched::State *> &states)
{
    if (states.empty())
        return;
    Guard guard(trace_);
    const auto n = static_cast<int64_t>(states.size());
    std::vector<sched::LoweredNest> nests(states.size());
    const double t0 = now();
    ThreadPool::global().parallelFor(0, n, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            nests[static_cast<size_t>(i)] =
                sched::lower(*states[static_cast<size_t>(i)]);
        }
    });
    const double t1 = now();
    // One value per row is kept so the extraction cannot be elided.
    std::vector<float> sink(static_cast<size_t>(n));
    ThreadPool::global().parallelFor(0, n, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            sink[static_cast<size_t>(i)] =
                feat::extractAnsorFeatures(nests[static_cast<size_t>(i)])
                    .front();
        }
    });
    const double t2 = now();
    trace_.add("schedule.lower_s", t1 - t0);
    trace_.add("schedule.nests", static_cast<double>(n));
    trace_.add("features.ansor_extract_s", t2 - t1);
    trace_.add("features.ansor_rows", static_cast<double>(n));
}

void
Replayer::measurement(const std::vector<const sched::State *> &states)
{
    if (states.empty())
        return;
    Guard guard(trace_);
    double lower_s = 0.0;
    double measure_s = 0.0;
    for (const sched::State *state : states) {
        const double t0 = now();
        const auto nest = sched::lower(*state);
        const double t1 = now();
        measurer_.measure(nest);
        const double t2 = now();
        lower_s += t1 - t0;
        measure_s += t2 - t1;
    }
    const auto n = static_cast<double>(states.size());
    trace_.add("schedule.lower_s", lower_s);
    trace_.add("schedule.nests", n);
    trace_.add("schedule.lower_for_measure_s", lower_s);
    trace_.add("hwmodel.measure_s", measure_s);
    trace_.add("hwmodel.measurements", n);
}

const sketch::SchedulePolicy &
Replayer::policyFor(ir::SubgraphPtr subgraph)
{
    auto &policy = policies_[subgraph.get()];
    if (!policy) {
        policy = std::make_unique<sketch::SchedulePolicy>(
            subgraph, measurer_.platform().is_gpu);
    }
    return *policy;
}

void
Replayer::evolutionSketch(ir::SubgraphPtr subgraph)
{
    Guard guard(trace_);
    const sketch::SchedulePolicy &policy = policyFor(std::move(subgraph));
    const double t0 = now();
    std::vector<sched::State> population =
        policy.sampleInitPopulation(evolution_.population, rng_);
    trace_.add("sketch.sample_s", now() - t0);
    trace_.add("sketch.states", static_cast<double>(population.size()));
    if (population.empty())
        return;

    std::set<uint64_t> seen;
    for (const auto &state : population)
        seen.insert(state.steps().hash());
    double mutate_s = 0.0;
    int64_t attempts = 0;
    int64_t useful = 0;
    for (int iter = 0; iter < evolution_.iterations; ++iter) {
        int children = 0;
        int iter_attempts = 0;
        while (children < evolution_.children_per_iter &&
               iter_attempts < 4 * evolution_.children_per_iter) {
            ++iter_attempts;
            const auto &parent = population[static_cast<size_t>(
                rng_.randint(static_cast<int64_t>(population.size())))];
            const double t1 = now();
            auto child = policy.mutate(parent, rng_);
            mutate_s += now() - t1;
            if (!child)
                break;
            if (seen.insert(child->steps().hash()).second)
                ++children;
        }
        attempts += iter_attempts;
        useful += children;
    }
    trace_.add("sketch.mutate_s", mutate_s);
    trace_.add("sketch.mutate_attempts", static_cast<double>(attempts));
    trace_.add("sketch.mutate_useful", static_cast<double>(useful));
    trace_.add("sketch.states", static_cast<double>(useful));
}

TracingCostModel::TracingCostModel(std::shared_ptr<model::CostModel> inner,
                                   LayerTrace *trace, Replayer *replayer,
                                   bool session_level, ReplayKind replay,
                                   const model::TlpCostModel *tlp)
    : inner_(std::move(inner)), trace_(trace), replayer_(replayer),
      session_level_(session_level), replay_(replay), tlp_(tlp)
{
}

std::vector<double>
TracingCostModel::scoreStates(int task_id,
                              const std::vector<sched::State> &states)
{
    return score(task_id, states, false);
}

std::vector<double>
TracingCostModel::predictBatch(int task_id,
                               const std::vector<sched::State> &states)
{
    return score(task_id, states, true);
}

std::vector<double>
TracingCostModel::score(int task_id, const std::vector<sched::State> &states,
                        bool batched)
{
    const auto cache0 = tlp_ ? tlp_->cacheStats() : model::FeatureCache::Stats{};
    const Span span(trace_);
    std::vector<double> scores = batched
                                     ? inner_->predictBatch(task_id, states)
                                     : inner_->scoreStates(task_id, states);
    const double seconds = span.seconds();
    const uint64_t allocs = span.allocs();

    if (calls_++ == capture_at_) {
        captured_states_ = states;
        captured_scores_ = scores;
        captured_task_ = task_id;
    }
    if (!trace_)
        return scores;
    if (session_level_) {
        trace_->add("models.score_s", seconds);
        trace_->add("models.score_calls", 1.0);
        trace_->add("models.score_rows", static_cast<double>(states.size()));
        trace_->add("models.score_allocs", static_cast<double>(allocs));
    }
    if (replay_ == ReplayKind::Tlp && tlp_) {
        const auto cache1 = tlp_->cacheStats();
        const auto fresh = static_cast<int64_t>(
            (cache1.misses - cache0.misses) +
            (cache1.bypasses - cache0.bypasses));
        const auto feature_hits =
            static_cast<int64_t>(cache1.feature_hits - cache0.feature_hits);
        const auto score_hits =
            static_cast<int64_t>(cache1.score_hits - cache0.score_hits);
        trace_->add("models.cache_lookups",
                    static_cast<double>(states.size()));
        trace_->add("models.cache_score_hits", static_cast<double>(score_hits));
        trace_->add("models.cache_feature_hits",
                    static_cast<double>(feature_hits));
        trace_->add("models.cache_evictions",
                    static_cast<double>(cache1.evictions - cache0.evictions));
        replayer_->tlpScoring(states, fresh, fresh + feature_hits);
    } else if (replay_ == ReplayKind::Ansor && fitted_) {
        std::vector<const sched::State *> ptrs;
        ptrs.reserve(states.size());
        for (const auto &state : states)
            ptrs.push_back(&state);
        replayer_->ansorFeatures(ptrs);
    }
    return scores;
}

void
TracingCostModel::update(int task_id,
                         const std::vector<const sched::State *> &states,
                         const std::vector<double> &latency_ms)
{
    const Span span(trace_);
    inner_->update(task_id, states, latency_ms);
    const double seconds = span.seconds();
    fitted_ = fitted_ || !states.empty();
    if (!trace_)
        return;
    if (session_level_) {
        trace_->add("models.update_s", seconds);
        trace_->add("models.update_calls", 1.0);
        // One update per round with measurements: replay the round's
        // measurement and its evolution's sketch work.
        replayer_->measurement(states);
        if (!states.empty())
            replayer_->evolutionSketch(states.front()->subgraph());
    }
    if (replay_ == ReplayKind::Ansor)
        replayer_->ansorFeatures(states);
}

} // namespace perfbench
