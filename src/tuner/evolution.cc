#include "tuner/evolution.h"

#include <algorithm>
#include <cmath>

#include "support/clock.h"

namespace tlp::tune {

EvolutionResult
evolveOneRound(const sketch::SchedulePolicy &policy,
               model::CostModel &cost_model, int task_id, int want,
               const std::set<uint64_t> &already_measured,
               const EvolutionOptions &options, Rng &rng)
{
    EvolutionResult result;

    std::vector<sched::State> population =
        policy.sampleInitPopulation(options.population, rng);
    if (population.empty())
        return result;

    std::set<uint64_t> seen;
    for (const auto &state : population)
        seen.insert(state.steps().hash());

    std::vector<double> scores;
    for (int iter = 0; iter < options.iterations; ++iter) {
        const double t0 = wallSeconds();
        scores = cost_model.scoreStates(task_id, population);
        result.model_seconds += wallSeconds() - t0;

        // Selection weights: softmax over scores.
        double max_score = *std::max_element(scores.begin(), scores.end());
        std::vector<double> weights(scores.size());
        for (size_t i = 0; i < scores.size(); ++i)
            weights[i] = std::exp(scores[i] - max_score);

        // Mutate selected parents into children.
        std::vector<sched::State> children;
        int attempts = 0;
        while (static_cast<int>(children.size()) <
                   options.children_per_iter &&
               attempts < 4 * options.children_per_iter) {
            ++attempts;
            const size_t parent = rng.weightedIndex(weights);
            auto child = policy.mutate(population[parent], rng);
            if (!child)
                break;
            const uint64_t h = child->steps().hash();
            if (seen.insert(h).second)
                children.push_back(std::move(*child));
        }
        if (children.empty())
            break;

        // Survivor selection: keep the best of the current population,
        // append the children.
        std::vector<size_t> order(population.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return scores[a] > scores[b];
        });
        const size_t keep = std::max<size_t>(
            1, static_cast<size_t>(options.population) -
                   children.size());
        std::vector<sched::State> next;
        for (size_t i = 0; i < keep && i < order.size(); ++i)
            next.push_back(std::move(population[order[i]]));
        for (auto &child : children)
            next.push_back(std::move(child));
        population = std::move(next);
    }

    // Final scoring and ranking.
    const double t0 = wallSeconds();
    scores = cost_model.scoreStates(task_id, population);
    result.model_seconds += wallSeconds() - t0;

    std::vector<size_t> order(population.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return scores[a] > scores[b];
    });

    // Pick top candidates not yet measured; epsilon-greedy random picks.
    std::vector<size_t> chosen;
    for (size_t i = 0; i < order.size() &&
                       static_cast<int>(chosen.size()) < want; ++i) {
        const size_t idx = order[i];
        const uint64_t h = population[idx].steps().hash();
        if (already_measured.count(h))
            continue;
        if (!chosen.empty() && rng.bernoulli(kEpsGreedy)) {
            // Replace this pick with a random unmeasured candidate.
            const size_t random_idx = order[static_cast<size_t>(
                rng.randint(static_cast<int64_t>(order.size())))];
            const uint64_t rh =
                population[random_idx].steps().hash();
            if (!already_measured.count(rh) &&
                std::find(chosen.begin(), chosen.end(), random_idx) ==
                    chosen.end()) {
                chosen.push_back(random_idx);
                continue;
            }
        }
        if (std::find(chosen.begin(), chosen.end(), idx) == chosen.end())
            chosen.push_back(idx);
    }

    for (size_t idx : chosen) {
        result.candidates.push_back(std::move(population[idx]));
        result.scores.push_back(scores[idx]);
    }
    return result;
}

} // namespace tlp::tune
