/**
 * @file
 * Tests for the training-run supervisor and the degraded-mode search:
 * numeric-anomaly detection, rollback-retry, and the guarded cost-model
 * fallback ladder.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <sstream>
#include <thread>

#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/cost_model.h"
#include "models/guarded_model.h"
#include "models/pretrain.h"
#include "models/supervisor.h"
#include "sketch/policy.h"
#include "tuner/session.h"
#include "scratch.h"

namespace tlp::model {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// --- HealthCounters ------------------------------------------------------

TEST(SupervisorHealth, ToStringAndTotal)
{
    HealthCounters health;
    EXPECT_EQ(health.total(), 0);
    EXPECT_EQ(health.toString(), "none");

    health[HealthEvent::NanGrad] = 2;
    health[HealthEvent::Rollback] = 3;
    EXPECT_EQ(health.total(), 5);
    const std::string str = health.toString();
    EXPECT_NE(str.find("nan_grad=2"), std::string::npos);
    EXPECT_NE(str.find("rollback=3"), std::string::npos);
}

TEST(SupervisorHealth, SerializeRoundTrip)
{
    HealthCounters health;
    for (int e = 0; e < kNumHealthEvents; ++e)
        health.counts[static_cast<size_t>(e)] = 100 + e;

    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    BinaryWriter writer(ss);
    health.serialize(writer);
    BinaryReader reader(ss);
    const HealthCounters loaded = HealthCounters::deserialize(reader);
    EXPECT_EQ(loaded, health);
}

TEST(SupervisorHealth, DeserializeToleratesFewerCountersRejectsMore)
{
    // Fewer counters (an older artifact): prefix-filled, rest zero.
    {
        std::stringstream ss(std::ios::in | std::ios::out |
                             std::ios::binary);
        BinaryWriter writer(ss);
        writer.writePod<uint32_t>(3);
        for (int64_t v : {7, 8, 9})
            writer.writePod<int64_t>(v);
        BinaryReader reader(ss);
        const HealthCounters loaded = HealthCounters::deserialize(reader);
        EXPECT_EQ(loaded[HealthEvent::NanLoss], 7);
        EXPECT_EQ(loaded[HealthEvent::GradExplosion], 9);
        EXPECT_EQ(loaded.total(), 24);
    }
    // More counters than this build knows: version skew.
    {
        std::stringstream ss(std::ios::in | std::ios::out |
                             std::ios::binary);
        BinaryWriter writer(ss);
        writer.writePod<uint32_t>(
            static_cast<uint32_t>(kNumHealthEvents + 1));
        for (int e = 0; e < kNumHealthEvents + 1; ++e)
            writer.writePod<int64_t>(0);
        BinaryReader reader(ss);
        const Status status = guardedParse(
            [&] { HealthCounters::deserialize(reader); });
        EXPECT_EQ(status.code(), ErrorCode::VersionSkew);
    }
    // An absurd count is corruption, not skew.
    {
        std::stringstream ss(std::ios::in | std::ios::out |
                             std::ios::binary);
        BinaryWriter writer(ss);
        writer.writePod<uint32_t>(100000);
        BinaryReader reader(ss);
        const Status status = guardedParse(
            [&] { HealthCounters::deserialize(reader); });
        EXPECT_EQ(status.code(), ErrorCode::Corrupt);
    }
}

// --- TrainFaultProfile ---------------------------------------------------

TEST(SupervisorFaults, DrawsAreDeterministicAndKeyed)
{
    const TrainFaultProfile profile = TrainFaultProfile::uniform(0.4);
    EXPECT_DOUBLE_EQ(profile.nan_grad_prob, 0.2);
    EXPECT_DOUBLE_EQ(profile.loss_spike_prob, 0.2);

    // Same key => same draw, every time.
    for (int64_t step = 0; step < 50; ++step) {
        EXPECT_EQ(profile.draw(step, 0, 1, 0.2),
                  profile.draw(step, 0, 1, 0.2));
    }
    // The empirical rate over many keys is close to the probability.
    int fires = 0;
    for (int64_t step = 0; step < 2000; ++step)
        fires += profile.draw(step, 0, 1, 0.2) ? 1 : 0;
    EXPECT_NEAR(fires / 2000.0, 0.2, 0.05);
    // The attempt index changes the draw: retries can escape a fault.
    int differs = 0;
    for (int64_t step = 0; step < 200; ++step) {
        if (profile.draw(step, 0, 1, 0.5) != profile.draw(step, 1, 1, 0.5))
            ++differs;
    }
    EXPECT_GT(differs, 0);
    // Zero probability never fires.
    EXPECT_FALSE(profile.draw(0, 0, 1, 0.0));
}

// --- TrainSupervisor: a hand-driven optimizer rig ------------------------

/** One weight tensor + Adam + supervisor, with scripted attempts. */
struct Rig
{
    explicit Rig(SupervisorOptions options = {}, double lr = 0.05)
        : rng(11), w(nn::Tensor::randn({6}, rng, 1.0)),
          adam({w}, {.lr = lr}),
          supervisor({w}, adam, std::move(options))
    {}

    /** An attempt with well-behaved gradients and the given loss. */
    std::function<double()>
    healthy(double loss = 1.0, float scale = 0.1f)
    {
        return [this, loss, scale] {
            adam.zeroGrad();
            auto &grad = w.grad();
            for (size_t i = 0; i < grad.size(); ++i)
                grad[i] = scale * static_cast<float>(i + 1);
            return loss;
        };
    }

    Rng rng;
    nn::Tensor w;
    nn::Adam adam;
    TrainSupervisor supervisor;
};

/** Run @p rig's healthy attempt and one plain Adam step, unsupervised. */
void
plainStep(Rig &rig, float scale = 0.1f)
{
    rig.healthy(1.0, scale)();
    rig.adam.step(rig.adam.gradNorm());
}

TEST(Supervisor, HealthyStepAppliesOneAdamStep)
{
    Rig rig;
    const std::vector<float> before = rig.w.value();
    EXPECT_EQ(rig.supervisor.step(rig.healthy()), StepOutcome::Ok);
    EXPECT_NE(rig.w.value(), before);
    EXPECT_EQ(rig.adam.stepCount(), 1);
    EXPECT_EQ(rig.supervisor.stepsDone(), 1);
    EXPECT_EQ(rig.supervisor.health().total(), 0);
}

TEST(Supervisor, HealthyStepsEqualPlainAdam)
{
    // A healthy supervised step is Adam::step(Adam::gradNorm()) and
    // nothing else, across an lr schedule that changes between steps.
    Rig rig;
    Rig twin;
    for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(rig.supervisor.step(rig.healthy(1.0, 0.5f * (i + 1))),
                  StepOutcome::Ok);
        plainStep(twin, 0.5f * (i + 1));
        rig.adam.setLr(rig.adam.lr() * 0.85);
        twin.adam.setLr(twin.adam.lr() * 0.85);
        EXPECT_EQ(rig.w.value(), twin.w.value());
    }
    EXPECT_EQ(rig.adam.stepCount(), twin.adam.stepCount());
    EXPECT_EQ(rig.supervisor.health().total(), 0);
}

TEST(Supervisor, RollbackRestoresLastGoodBitIdentically)
{
    Rig rig;
    Rig twin;   // same start, never sees the bad step

    ASSERT_EQ(rig.supervisor.step(rig.healthy()), StepOutcome::Ok);
    ASSERT_EQ(twin.supervisor.step(twin.healthy()), StepOutcome::Ok);
    const std::vector<float> good = rig.w.value();
    const int64_t good_steps = rig.adam.stepCount();

    // Every attempt of this step comes back with a NaN loss.
    auto poisoned = [&] {
        rig.adam.zeroGrad();
        return kNan;
    };
    EXPECT_EQ(rig.supervisor.step(poisoned), StepOutcome::Skipped);

    // The weights and the optimizer trajectory are the last-good ones,
    // bit for bit, and the schedule learning rate is restored.
    EXPECT_EQ(rig.w.value(), good);
    EXPECT_EQ(rig.adam.stepCount(), good_steps);
    EXPECT_DOUBLE_EQ(rig.adam.lr(), 0.05);

    const HealthCounters &health = rig.supervisor.health();
    EXPECT_EQ(health[HealthEvent::NanLoss], 1 + kSupervisorMaxRetries);
    EXPECT_EQ(health[HealthEvent::Rollback], 1 + kSupervisorMaxRetries);
    EXPECT_EQ(health[HealthEvent::RetryExhausted], 1);

    // The run is not stopped: a later healthy step still applies, and
    // it lands exactly where the twin's does, so the moments and the lr
    // were untouched too.
    EXPECT_EQ(rig.supervisor.step(rig.healthy()), StepOutcome::Ok);
    EXPECT_EQ(rig.supervisor.stepsDone(), 2);
    ASSERT_EQ(twin.supervisor.step(twin.healthy()), StepOutcome::Ok);
    EXPECT_EQ(rig.w.value(), twin.w.value());
    EXPECT_EQ(rig.adam.stepCount(), twin.adam.stepCount());
    EXPECT_EQ(rig.adam.lr(), twin.adam.lr());
}

TEST(Supervisor, DetectsNanGradAndGradExplosion)
{
    Rig rig;

    auto nan_grad = [&] {
        rig.adam.zeroGrad();
        rig.w.grad()[0] = std::numeric_limits<float>::quiet_NaN();
        return 1.0;
    };
    EXPECT_EQ(rig.supervisor.step(nan_grad), StepOutcome::Skipped);
    EXPECT_EQ(rig.supervisor.health()[HealthEvent::NanGrad],
              1 + kSupervisorMaxRetries);

    // Finite but absurd gradients trip the global-norm limit (checked on
    // the raw gradients, before Adam's own clipping).
    auto exploding = rig.healthy(1.0, 1e7f);
    EXPECT_EQ(rig.supervisor.step(exploding), StepOutcome::Skipped);
    EXPECT_EQ(rig.supervisor.health()[HealthEvent::GradExplosion],
              1 + kSupervisorMaxRetries);
    EXPECT_EQ(rig.supervisor.stepsDone(), 0);
}

TEST(Supervisor, DetectsLossDivergenceAgainstEwma)
{
    Rig rig;

    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(rig.supervisor.step(rig.healthy(1.0)), StepOutcome::Ok);
    EXPECT_EQ(rig.supervisor.step(rig.healthy(1e5)), StepOutcome::Skipped);
    EXPECT_EQ(rig.supervisor.health()[HealthEvent::LossDivergence],
              1 + kSupervisorMaxRetries);
    // A loss just above the trend is NOT divergence.
    EXPECT_EQ(rig.supervisor.step(rig.healthy(2.0)), StepOutcome::Ok);
}

TEST(Supervisor, LrBackoffAppliesDuringRetryOnly)
{
    Rig rig;

    int calls = 0;
    double retry_lr = 0.0;
    auto flaky = [&] {
        rig.adam.zeroGrad();
        ++calls;
        if (calls == 1)
            return kNan;
        retry_lr = rig.adam.lr();
        auto &grad = rig.w.grad();
        for (size_t i = 0; i < grad.size(); ++i)
            grad[i] = 0.1f;
        return 1.0;
    };
    EXPECT_EQ(rig.supervisor.step(flaky), StepOutcome::Ok);
    EXPECT_EQ(calls, 2);
    // The retry ran at kSupervisorLrBackoff x schedule lr (with jitter
    // in [0.9, 1]).
    EXPECT_GE(retry_lr, 0.05 * kSupervisorLrBackoff * 0.9 - 1e-12);
    EXPECT_LE(retry_lr, 0.05 * kSupervisorLrBackoff + 1e-12);
    // After the step resolves, the schedule lr is back — not sticky.
    EXPECT_DOUBLE_EQ(rig.adam.lr(), 0.05);
}

TEST(Supervisor, AbortOnFaultPolicyStopsAtFirstFault)
{
    SupervisorOptions options;
    options.policy = RecoveryPolicy::AbortOnFault;
    Rig rig(options);
    Rig twin(options);   // same start, never sees the bad step

    ASSERT_EQ(rig.supervisor.step(rig.healthy()), StepOutcome::Ok);
    ASSERT_EQ(twin.supervisor.step(twin.healthy()), StepOutcome::Ok);
    const std::vector<float> good = rig.w.value();

    auto poisoned = [&] {
        rig.adam.zeroGrad();
        return kNan;
    };
    EXPECT_EQ(rig.supervisor.step(poisoned), StepOutcome::Stop);
    EXPECT_TRUE(rig.supervisor.stopped());
    EXPECT_EQ(rig.w.value(), good);   // stopped WITH last-good weights
    EXPECT_EQ(rig.supervisor.health()[HealthEvent::AbortPolicy], 1);

    // Once stopped, everything is Stop.
    EXPECT_EQ(rig.supervisor.step(rig.healthy()), StepOutcome::Stop);

    // The stopped run's optimizer is the twin's: one more plain step on
    // each lands on the same weights, step count and lr.
    plainStep(rig);
    plainStep(twin);
    EXPECT_EQ(rig.w.value(), twin.w.value());
    EXPECT_EQ(rig.adam.stepCount(), twin.adam.stepCount());
    EXPECT_EQ(rig.adam.lr(), twin.adam.lr());
}

TEST(Supervisor, InjectedFaultsRecoverDeterministically)
{
    // With a fault profile, the same seeds produce the same recovery
    // trajectory and the same final weights, twice.
    auto run = [] {
        SupervisorOptions options;
        options.faults = TrainFaultProfile::uniform(0.5, 0x77);
        Rig rig(options);
        for (int i = 0; i < 20; ++i)
            rig.supervisor.step(rig.healthy(1.0 + 0.01 * i));
        return std::make_pair(rig.w.value(), rig.supervisor.health());
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.first, b.first);
    EXPECT_TRUE(a.second == b.second);
    // The 50% profile must actually have fired and been recovered from.
    EXPECT_GT(a.second[HealthEvent::Rollback], 0);
    for (float v : a.first)
        EXPECT_TRUE(std::isfinite(v));
}

// --- end-to-end training loops -------------------------------------------

/** A small synthetic single-task regression set. */
data::LabeledSet
syntheticSet(int rows, int dim, uint64_t seed)
{
    data::LabeledSet set;
    set.rows = rows;
    set.feature_dim = dim;
    set.num_tasks = 1;
    Rng rng(seed);
    set.features.resize(static_cast<size_t>(rows) *
                        static_cast<size_t>(dim));
    for (float &f : set.features)
        f = static_cast<float>(rng.uniform(-1.0, 1.0));
    set.labels.resize(static_cast<size_t>(rows));
    set.groups.resize(static_cast<size_t>(rows));
    for (int r = 0; r < rows; ++r) {
        double y = 0.0;
        for (int d = 0; d < dim; ++d) {
            y += (d % 2 == 0 ? 1.0 : -1.0) *
                 set.features[static_cast<size_t>(r) *
                                  static_cast<size_t>(dim) +
                              static_cast<size_t>(d)];
        }
        set.labels[static_cast<size_t>(r)] = static_cast<float>(y);
        set.groups[static_cast<size_t>(r)] = r / 16;
    }
    return set;
}

std::vector<std::vector<float>>
parameterValues(nn::Module &net)
{
    std::vector<std::vector<float>> values;
    for (nn::Tensor &param : net.parameters())
        values.push_back(param.value());
    return values;
}

TEST(SupervisorChaos, FaultyMlpTrainingCompletesViaRollbackRetry)
{
    const auto set = syntheticSet(64, 8, 31);
    MlpConfig config;
    config.input = 8;
    config.hidden = 16;
    config.layers = 1;

    auto run = [&] {
        Rng rng(6);
        TensetMlpNet net(config, rng);
        TrainOptions options;
        options.epochs = 4;
        options.batch_size = 16;
        options.use_rank_loss = false;
        options.supervisor.faults = TrainFaultProfile::uniform(0.4, 0x91);
        HealthCounters health;
        options.supervisor.health_out = &health;
        const double loss = trainMlp(net, set, options);
        return std::make_tuple(loss, parameterValues(net), health);
    };

    const auto [loss, params, health] = run();
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GT(health[HealthEvent::Rollback], 0);
    for (const auto &param : params)
        for (float v : param)
            EXPECT_TRUE(std::isfinite(v));

    // Seeded faults => the whole chaotic run replays bit-identically.
    const auto [loss2, params2, health2] = run();
    EXPECT_DOUBLE_EQ(loss, loss2);
    EXPECT_EQ(params, params2);
    EXPECT_TRUE(health == health2);
}

TEST(SupervisorChaos, FaultyPretrainingCompletesViaRollbackRetry)
{
    TlpNetConfig config;
    config.hidden = 16;
    config.heads = 4;
    const auto set =
        syntheticSet(32, config.seq_len * config.emb_size, 33);

    Rng rng(7);
    TlpNet net(config, rng);
    PretrainOptions options;
    options.epochs = 2;
    options.batch_size = 16;
    options.supervisor.faults = TrainFaultProfile::uniform(0.5, 0x92);
    HealthCounters health;
    options.supervisor.health_out = &health;

    const double loss = bertPretrain(net, set, options);
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GT(health[HealthEvent::Rollback], 0);
    for (const auto &param : parameterValues(net))
        for (float v : param)
            EXPECT_TRUE(std::isfinite(v));
}

TEST(Supervisor, CleanTrainingRaisesNoHealthEvent)
{
    // Supervision checks every step, so a clean trainMlp or trainTlpNet
    // run must never trip a check (TrainingDigest.* pins their bits).
    MlpConfig mlp_config;
    mlp_config.input = 8;
    mlp_config.hidden = 16;
    mlp_config.layers = 1;
    TlpNetConfig tlp_config;
    tlp_config.hidden = 16;
    tlp_config.heads = 4;
    const auto mlp_set = syntheticSet(64, 8, 35);
    const auto tlp_set =
        syntheticSet(32, tlp_config.seq_len * tlp_config.emb_size, 37);

    TrainOptions options;
    options.epochs = 3;
    options.batch_size = 16;
    HealthCounters health;
    options.supervisor.health_out = &health;
    Rng rng(9);
    TensetMlpNet mlp(mlp_config, rng);
    EXPECT_TRUE(std::isfinite(trainMlp(mlp, mlp_set, options)));
    TlpNet tlp(tlp_config, rng);
    EXPECT_TRUE(std::isfinite(trainTlpNet(tlp, tlp_set, options)));
    EXPECT_EQ(health.total(), 0) << health.toString();
}

// --- the guarded cost-model ladder ---------------------------------------

ir::Workload
tinyWorkload()
{
    ir::Workload full = ir::partitionGraph(ir::buildNetwork("resnet-18"));
    ir::Workload slim;
    slim.name = "resnet-18-slice";
    for (size_t i = 0; i < 3 && i < full.subgraphs.size(); ++i) {
        slim.subgraphs.push_back(full.subgraphs[i]);
        slim.weights.push_back(full.weights[i]);
    }
    return slim;
}

tune::TuneOptions
quickOptions()
{
    tune::TuneOptions options;
    options.rounds = 6;
    options.measures_per_round = 4;
    options.evolution.population = 24;
    options.evolution.iterations = 2;
    options.evolution.children_per_iter = 12;
    return options;
}

/** @p n sampled schedule states of the first tiny-workload subgraph. */
std::vector<sched::State>
someStates(size_t n)
{
    static const std::vector<sched::State> pool = [] {
        const ir::Workload workload = tinyWorkload();
        sketch::SchedulePolicy policy(workload.subgraphs[0], false);
        RandomCostModel sampler(3);
        Rng rng(4);
        tune::EvolutionOptions options;
        options.population = 16;
        options.iterations = 1;
        const auto round =
            tune::evolveOneRound(policy, sampler, 0, 6, {}, options, rng);
        return round.candidates;
    }();
    std::vector<sched::State> states;
    states.reserve(n);
    for (size_t i = 0; i < n; ++i)
        states.push_back(pool[i % pool.size()]);
    return states;
}

TEST(GuardedModel, FailsOverOnCollapsedScores)
{
    auto sick = std::make_shared<FaultInjectedCostModel>(
        std::make_shared<RandomCostModel>(21), 1);
    auto fallback = std::make_shared<RandomCostModel>(22);
    GuardedCostModel guarded({sick, fallback});
    EXPECT_EQ(guarded.name(), "guarded:faulty:random>random");
    EXPECT_EQ(guarded.activeIndex(), 0);

    auto states = someStates(kGuardMinProbeCandidates);
    std::vector<const sched::State *> ptrs{&states[0], &states[1]};
    guarded.update(0, ptrs, {1.0, 2.0});   // trips the injected collapse

    const auto scores = guarded.scoreStates(0, states);
    EXPECT_EQ(guarded.activeIndex(), 1);
    EXPECT_EQ(guarded.activeName(), "random");
    EXPECT_EQ(guarded.health()[HealthEvent::ConstantScore], 1);
    EXPECT_EQ(guarded.health()[HealthEvent::Failover], 1);
    ASSERT_EQ(scores.size(), states.size());
    for (double s : scores)
        EXPECT_TRUE(std::isfinite(s));
}

TEST(GuardedModel, FailsOverOnNanScores)
{
    auto sick = std::make_shared<FaultInjectedCostModel>(
        std::make_shared<RandomCostModel>(23), 2);
    auto fallback = std::make_shared<RandomCostModel>(24);
    GuardedCostModel guarded({sick, fallback});

    auto states = someStates(4);
    std::vector<const sched::State *> ptrs{&states[0], &states[1]};
    guarded.update(0, ptrs, {1.0, 2.0});
    guarded.update(0, ptrs, {1.5, 2.5});   // updates_seen_ = 2: NaN mode

    const auto scores = guarded.scoreStates(0, states);
    EXPECT_EQ(guarded.activeIndex(), 1);
    EXPECT_EQ(guarded.health()[HealthEvent::NanScore], 1);
    for (double s : scores)
        EXPECT_TRUE(std::isfinite(s));
}

TEST(GuardedModel, LastRungIsTrustedUnconditionally)
{
    auto sick = std::make_shared<FaultInjectedCostModel>(
        std::make_shared<RandomCostModel>(25), 1);
    GuardedCostModel guarded({sick});

    auto states = someStates(3);
    std::vector<const sched::State *> ptrs{&states[0]};
    guarded.update(0, ptrs, {1.0});

    // A single-rung ladder has nothing to fail over to: scores pass
    // through unjudged and the position never moves.
    guarded.scoreStates(0, states);
    EXPECT_EQ(guarded.activeIndex(), 0);
    EXPECT_EQ(guarded.health()[HealthEvent::Failover], 0);
}

/**
 * Scores candidate i as pattern[min(i, last)]: a fixed shape whose
 * spread and finiteness each test dictates exactly.
 */
class ScriptedCostModel : public CostModel
{
  public:
    explicit ScriptedCostModel(std::vector<double> pattern)
        : pattern_(std::move(pattern))
    {
    }

    std::string name() const override { return "scripted"; }
    std::vector<double>
    scoreStates(int task_id, const std::vector<sched::State> &states)
        override
    {
        std::vector<double> scores(states.size());
        for (size_t i = 0; i < scores.size(); ++i)
            scores[i] = pattern_[std::min(i, pattern_.size() - 1)];
        return scores;
    }
    bool needsLowering() const override { return false; }

  private:
    std::vector<double> pattern_;
};

/** Rung index a {scripted, random} ladder settles on after scoring
 *  @p candidates states, with @p updates updates fed first; the
 *  ladder's health counters are added to @p health. */
int
ladderPositionAfter(const std::vector<double> &pattern, int candidates,
                    int updates, HealthCounters *health)
{
    // One update at most: the every-kGuardProbeEvery rank probe never
    // runs, so only the scoring-side check moves the ladder.
    GuardedCostModel guarded(
        {std::make_shared<ScriptedCostModel>(pattern),
         std::make_shared<RandomCostModel>(31)});
    auto states = someStates(candidates);
    std::vector<const sched::State *> ptrs{&states[0]};
    for (int u = 0; u < updates; ++u)
        guarded.update(0, ptrs, {1.0});
    guarded.scoreStates(0, states);
    for (size_t e = 0; e < health->counts.size(); ++e)
        health->counts[e] += guarded.health().counts[e];
    return guarded.activeIndex();
}

TEST(GuardedModel, ScoreHealthJudgesNonFiniteAndSpread)
{
    const double eps = 1e-9;
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(scoreHealth<double>({0.5, kNan, 0.7}, eps),
              HealthEvent::NanScore);
    EXPECT_EQ(scoreHealth<double>({0.5, inf, 0.7}, eps),
              HealthEvent::NanScore);
    EXPECT_EQ(scoreHealth<double>({-inf, 0.5}, eps), HealthEvent::NanScore);
    EXPECT_EQ(scoreHealth<double>({0.0, 0.9e-9}, eps),
              HealthEvent::ConstantScore);
    // A spread of exactly eps is not above it: still collapse.
    EXPECT_EQ(scoreHealth<double>({0.0, 1e-9}, eps),
              HealthEvent::ConstantScore);
    EXPECT_EQ(scoreHealth<double>({0.0, 1.1e-9}, eps),
              HealthEvent::NumEvents);
    EXPECT_EQ(scoreHealth<double>({}, eps), HealthEvent::NumEvents);
    // eps = -inf checks finiteness only.
    EXPECT_EQ(scoreHealth<double>({0.5, 0.5}, -inf), HealthEvent::NumEvents);
    EXPECT_EQ(scoreHealth<double>({0.5, kNan}, -inf), HealthEvent::NanScore);
}

TEST(GuardedModel, LadderAppliesScoreHealthRules)
{
    const double inf = std::numeric_limits<double>::infinity();
    HealthCounters health;
    // Non-finite scores fail over at once, even before any update and
    // on a population below kGuardMinProbeCandidates.
    EXPECT_EQ(ladderPositionAfter({0.5, kNan}, 4, 0, &health), 1);
    EXPECT_EQ(ladderPositionAfter({0.5, inf}, 4, 0, &health), 1);
    EXPECT_EQ(health[HealthEvent::NanScore], 2);

    // Spread just under / just over the 1e-9 threshold, after feedback
    // and on a population of kGuardMinProbeCandidates.
    EXPECT_EQ(ladderPositionAfter({0.0, 0.9e-9}, 8, 1, &health), 1);
    EXPECT_EQ(health[HealthEvent::ConstantScore], 1);
    EXPECT_EQ(ladderPositionAfter({0.0, 1.1e-9}, 8, 1, &health), 0);

    // Constant scores are healthy below kGuardMinProbeCandidates and before
    // the first update (online models score uniformly until fitted).
    EXPECT_EQ(ladderPositionAfter({0.5}, 7, 1, &health), 0);
    EXPECT_EQ(ladderPositionAfter({0.5}, 8, 0, &health), 0);
    EXPECT_EQ(ladderPositionAfter({0.5}, 8, 1, &health), 1);
    EXPECT_EQ(health[HealthEvent::ConstantScore], 2);
    EXPECT_EQ(health[HealthEvent::Failover], 4);
}

TEST(GuardedModel, StateRoundTripRestoresPositionHealthAndRngs)
{
    auto makeLadder = [] {
        std::vector<std::shared_ptr<CostModel>> ladder;
        ladder.push_back(std::make_shared<FaultInjectedCostModel>(
            std::make_shared<RandomCostModel>(27), 1));
        ladder.push_back(std::make_shared<RandomCostModel>(28));
        return ladder;
    };
    GuardedCostModel guarded(makeLadder());

    auto states = someStates(kGuardMinProbeCandidates);
    std::vector<const sched::State *> ptrs{&states[0], &states[1]};
    guarded.update(0, ptrs, {1.0, 2.0});
    guarded.scoreStates(0, states);   // forces the failover
    ASSERT_EQ(guarded.activeIndex(), 1);

    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    BinaryWriter writer(ss);
    guarded.serializeState(writer);

    GuardedCostModel restored(makeLadder());
    BinaryReader reader(ss);
    restored.deserializeState(reader);
    EXPECT_EQ(restored.activeIndex(), guarded.activeIndex());
    EXPECT_TRUE(restored.health() == guarded.health());
    // The active rung's rng cursor came back too: scoring continues
    // bit-identically.
    EXPECT_EQ(restored.scoreStates(0, states),
              guarded.scoreStates(0, states));
}

TEST(GuardedModel, RejectsForeignLadderState)
{
    GuardedCostModel guarded({std::make_shared<RandomCostModel>(29)});

    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    BinaryWriter writer(ss);
    writer.writePod<int32_t>(5);   // fallback position out of range
    writer.writePod<int64_t>(0);
    HealthCounters{}.serialize(writer);
    writer.writePod<uint32_t>(1);
    writer.writeString("");

    BinaryReader reader(ss);
    const Status status =
        guardedParse([&] { guarded.deserializeState(reader); });
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::Invalid);
    EXPECT_EQ(guarded.activeIndex(), 0);   // nothing was committed
}

TEST(GuardedModel, SearchSurvivesMidCampaignCollapse)
{
    // The preferred model dies after 2 online updates; the campaign must
    // finish its full budget in degraded mode instead of aborting.
    const auto workload = tinyWorkload();
    auto sick = std::make_shared<FaultInjectedCostModel>(
        std::make_shared<RandomCostModel>(31), 2);
    auto guarded = makeGuardedLadder(sick);

    tune::TuneOptions options = quickOptions();
    options.rounds = 8;
    const auto result =
        tune::tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                           *guarded, options);

    EXPECT_TRUE(std::isfinite(result.best_workload_latency_ms));
    EXPECT_GT(result.total_measurements, 0);
    EXPECT_GE(guarded->activeIndex(), 1);
    EXPECT_GE(guarded->health()[HealthEvent::Failover], 1);
    EXPECT_EQ(result.cost_model_name, guarded->name());
    double last = std::numeric_limits<double>::infinity();
    for (const auto &point : result.curve) {
        if (std::isfinite(point.workload_latency_ms)) {
            EXPECT_LE(point.workload_latency_ms, last + 1e-9);
            last = point.workload_latency_ms;
        }
    }
}

TEST(GuardedModel, CheckpointResumePreservesDegradedState)
{
    const auto workload = tinyWorkload();
    const std::string ckpt = test::scratchDir() + "/guarded_resume.ckpt";

    auto makeGuarded = [] {
        auto sick = std::make_shared<FaultInjectedCostModel>(
            std::make_shared<RandomCostModel>(33), 2);
        return makeGuardedLadder(sick);
    };

    tune::TuneOptions options = quickOptions();
    options.rounds = 8;
    options.checkpoint_path = ckpt;
    options.checkpoint_every = 2;

    // Reference: one uninterrupted degraded campaign.
    auto reference_model = makeGuarded();
    const auto reference =
        tune::tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                           *reference_model, options);
    ASSERT_GE(reference_model->activeIndex(), 1);

    // "Killed" run: half the rounds, leaving a checkpoint behind.
    std::remove(ckpt.c_str());
    tune::TuneOptions half = options;
    half.rounds = 4;
    auto killed_model = makeGuarded();
    tune::tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                       *killed_model, half);

    // Resume with a FRESH ladder: the checkpoint must restore the
    // fallback position, the health counters, and the rng cursors.
    tune::TuneOptions resumed_options = options;
    resumed_options.resume = true;
    auto resumed_model = makeGuarded();
    const auto resumed =
        tune::tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                           *resumed_model, resumed_options);

    EXPECT_EQ(resumed_model->activeIndex(),
              reference_model->activeIndex());
    EXPECT_TRUE(resumed_model->health() == reference_model->health())
        << "resumed: " << resumed_model->health().toString()
        << " reference: " << reference_model->health().toString();
    EXPECT_EQ(resumed.total_measurements, reference.total_measurements);
    EXPECT_DOUBLE_EQ(resumed.measure_seconds, reference.measure_seconds);
    EXPECT_DOUBLE_EQ(resumed.best_workload_latency_ms,
                     reference.best_workload_latency_ms);
    ASSERT_EQ(resumed.curve.size(), reference.curve.size());
    for (size_t i = 0; i < reference.curve.size(); ++i) {
        EXPECT_EQ(resumed.curve[i].measurements,
                  reference.curve[i].measurements);
        EXPECT_DOUBLE_EQ(resumed.curve[i].workload_latency_ms,
                         reference.curve[i].workload_latency_ms);
    }
    std::remove(ckpt.c_str());
}

/**
 * Counts its update() calls, a count its state blob carries across a
 * resume. A state it was fed scores as -latency, so the rank probe,
 * whose window holds only fed states, never trips; any other state
 * scores by its step hash, so candidate scores never collapse.
 */
class CountingCostModel : public CostModel
{
  public:
    std::string name() const override { return "counting"; }
    std::vector<double>
    scoreStates(int, const std::vector<sched::State> &states) override
    {
        std::vector<double> scores;
        for (const auto &state : states) {
            const auto it = latency_.find(state.steps().hash());
            scores.push_back(it != latency_.end()
                                 ? -it->second
                                 : static_cast<double>(
                                       state.steps().hash() % 997));
        }
        return scores;
    }
    void update(int, const std::vector<const sched::State *> &states,
                const std::vector<double> &latency_ms) override
    {
        for (size_t i = 0; i < states.size(); ++i)
            latency_[states[i]->steps().hash()] = latency_ms[i];
        ++updates_;
    }
    bool needsLowering() const override { return false; }
    void serializeState(BinaryWriter &writer) const override
    {
        writer.writePod<int64_t>(updates_);
    }
    void deserializeState(BinaryReader &reader) override
    {
        updates_ = reader.readPod<int64_t>();
    }

    int64_t updates() const { return updates_; }

  private:
    int64_t updates_ = 0;
    std::map<uint64_t, double> latency_;
};

TEST(GuardedModel, QuarantinedRungStopsLearning)
{
    // Ladder: a rung that collapses after 2 updates, the counting rung
    // that takes over, a counting standby, and random.
    struct Ladder
    {
        std::shared_ptr<CountingCostModel> dead, active, standby;
        std::shared_ptr<GuardedCostModel> guarded;
    };
    auto makeLadder = [] {
        Ladder ladder{std::make_shared<CountingCostModel>(),
                      std::make_shared<CountingCostModel>(),
                      std::make_shared<CountingCostModel>(), nullptr};
        ladder.guarded = std::make_shared<GuardedCostModel>(
            std::vector<std::shared_ptr<CostModel>>{
                std::make_shared<FaultInjectedCostModel>(ladder.dead, 2),
                ladder.active, ladder.standby,
                std::make_shared<RandomCostModel>(37)});
        return ladder;
    };
    const auto workload = tinyWorkload();
    const auto platform = hw::HardwarePlatform::preset("e5-2673");
    const std::string ckpt = test::scratchDir() + "/guarded_counts.ckpt";
    tune::TuneOptions options = quickOptions();
    options.rounds = 8;
    options.checkpoint_path = ckpt;
    options.checkpoint_every = 2;

    // Uninterrupted: the failover freezes the dead rung at 2 updates;
    // the active rung and the standby see every round's update.
    const Ladder reference = makeLadder();
    tune::tuneWorkload(workload, platform, *reference.guarded, options);
    ASSERT_EQ(reference.guarded->activeIndex(), 1);
    EXPECT_EQ(reference.dead->updates(), 2);
    EXPECT_EQ(reference.active->updates(), options.rounds);
    EXPECT_EQ(reference.standby->updates(), options.rounds);

    // Stopped after the failover, then resumed on a fresh ladder: the
    // replay and the restored blobs give the same counts.
    std::remove(ckpt.c_str());
    tune::TuneOptions half = options;
    half.rounds = 4;
    const Ladder killed = makeLadder();
    tune::tuneWorkload(workload, platform, *killed.guarded, half);
    ASSERT_EQ(killed.guarded->activeIndex(), 1);
    tune::TuneOptions resume = options;
    resume.resume = true;
    const Ladder resumed = makeLadder();
    tune::tuneWorkload(workload, platform, *resumed.guarded, resume);
    EXPECT_EQ(resumed.guarded->activeIndex(), 1);
    EXPECT_EQ(resumed.dead->updates(), reference.dead->updates());
    EXPECT_EQ(resumed.active->updates(), reference.active->updates());
    EXPECT_EQ(resumed.standby->updates(), reference.standby->updates());
    std::remove(ckpt.c_str());
}

TEST(GuardedModel, ResumeRejectsDifferentCostModelName)
{
    const auto workload = tinyWorkload();
    const std::string ckpt = test::scratchDir() + "/guarded_name.ckpt";

    tune::TuneOptions options = quickOptions();
    options.rounds = 2;
    options.checkpoint_path = ckpt;
    options.checkpoint_every = 1;
    RandomCostModel original(35);
    tune::tuneWorkload(workload, hw::HardwarePlatform::preset("e5-2673"),
                       original, options);

    tune::TuneOptions resumed = options;
    resumed.resume = true;
    AnsorOnlineCostModel different;
    EXPECT_EXIT(tune::tuneWorkload(workload,
                                   hw::HardwarePlatform::preset("e5-2673"),
                                   different, resumed),
                ::testing::ExitedWithCode(kExitUserError), "cost model");
    std::remove(ckpt.c_str());
}

// --- concurrent atomic writes --------------------------------------------

TEST(AtomicWrite, ConcurrentWritersNeverInterleave)
{
    // The pid+sequence temp suffix must keep racing writers of one
    // destination from streaming into each other's temp file: the final
    // file is exactly one writer's full payload, and no temp litter
    // survives.
    const std::string dir = test::scratchDir();
    const std::string path = dir + "/tlp_atomic_race.bin";

    constexpr int kThreads = 8;
    constexpr int kWritesPerThread = 16;
    constexpr size_t kPayload = 4096;
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            for (int i = 0; i < kWritesPerThread; ++i) {
                const std::string payload(
                    kPayload, static_cast<char>('a' + t));
                const Status status =
                    atomicWriteFile(path, [&](std::ostream &os) {
                        os.write(payload.data(),
                                 static_cast<std::streamsize>(
                                     payload.size()));
                    });
                EXPECT_TRUE(status.ok()) << status.toString();
            }
        });
    }
    for (auto &writer : writers)
        writer.join();

    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.good());
    std::string final_bytes((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
    ASSERT_EQ(final_bytes.size(), kPayload);
    for (char c : final_bytes)
        EXPECT_EQ(c, final_bytes[0]);   // one writer's payload, unmixed

    int leftovers = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().filename().string().find(
                "tlp_atomic_race.bin.tmp") == 0)
            ++leftovers;
    }
    EXPECT_EQ(leftovers, 0);
    std::remove(path.c_str());
}

// --- CLI exit-code contract ----------------------------------------------

using ExitCodes = ::testing::Test;

TEST(ExitCodes, FatalExitsWithUserErrorCode)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(TLP_FATAL("simulated user error"),
                ::testing::ExitedWithCode(kExitUserError),
                "simulated user error");
}

TEST(ExitCodes, ArtifactFatalExitsWithCorruptArtifactCode)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Status status =
        Status::error(ErrorCode::Corrupt, "bad checksum");
    EXPECT_EXIT(artifactFatal(status, "cannot load artifact"),
                ::testing::ExitedWithCode(kExitCorruptArtifact),
                "bad checksum");
}

TEST(GuardedModel, AnsorOnlineRefitIgnoresNonFiniteLatencies)
{
    AnsorOnlineCostModel model;
    auto states = someStates(4);
    std::vector<const sched::State *> ptrs;
    for (const auto &state : states)
        ptrs.push_back(&state);

    // A batch of entirely unusable measurements must not poison the fit.
    model.update(0, ptrs,
                 {kNan, -1.0, std::numeric_limits<double>::infinity(),
                  0.0});
    for (double s : model.scoreStates(0, states))
        EXPECT_TRUE(std::isfinite(s));

    // Good measurements afterwards fit normally.
    model.update(0, ptrs, {1.0, 2.0, 3.0, 4.0});
    for (double s : model.scoreStates(0, states))
        EXPECT_TRUE(std::isfinite(s));
    EXPECT_EQ(model.refitRejections(), 0);
}

TEST(GuardedModel, AnsorOnlineRefitDropsLatenciesOutsideFloatRange)
{
    // Finite doubles that overflow or flush to zero as stored floats
    // would make an infinite or NaN label; the GBDT fit refuses
    // non-finite targets, so the refit guard must drop them first.
    AnsorOnlineCostModel model;
    auto states = someStates(4);
    std::vector<const sched::State *> ptrs;
    for (const auto &state : states)
        ptrs.push_back(&state);

    model.update(0, ptrs, {1e300, 1e-300, 1.0, 2.0});
    for (double s : model.scoreStates(0, states))
        EXPECT_TRUE(std::isfinite(s));
    EXPECT_EQ(model.refitRejections(), 0);
}

} // namespace
} // namespace tlp::model
