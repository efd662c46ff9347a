/**
 * @file
 * Evolutionary search over schedules, guided by a cost model.
 *
 * One round (paper Sec. 6.3): sample an initial population from the
 * sketch policy, run a few genetic iterations — score with the cost
 * model, select parents proportionally to score, mutate — and return the
 * top candidates for on-hardware measurement (with epsilon-greedy random
 * picks mixed in, as Ansor does).
 */
#pragma once

#include <set>
#include <vector>

#include "models/cost_model.h"
#include "sketch/policy.h"

namespace tlp::tune {

/** Chance that each measured pick after the first is swapped for a
 *  random unmeasured candidate (Ansor's epsilon-greedy). */
inline constexpr double kEpsGreedy = 0.05;

/** Evolution parameters. */
struct EvolutionOptions
{
    int population = 128;
    int iterations = 4;
    int children_per_iter = 64;
};

/** Result of one evolution round. */
struct EvolutionResult
{
    /** Candidates ranked best-first by model score. */
    std::vector<sched::State> candidates;
    /** Model scores aligned with candidates. */
    std::vector<double> scores;
    /** Wall-clock seconds spent in the cost model (incl. features). */
    double model_seconds = 0.0;
};

/**
 * Run one evolution round for @p task_id and return up to @p want
 * candidates to measure, excluding primitive-sequence hashes in
 * @p already_measured.
 */
EvolutionResult evolveOneRound(const sketch::SchedulePolicy &policy,
                               model::CostModel &cost_model, int task_id,
                               int want,
                               const std::set<uint64_t> &already_measured,
                               const EvolutionOptions &options, Rng &rng);

} // namespace tlp::tune
