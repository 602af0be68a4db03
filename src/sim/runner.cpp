#include "quamax/sim/runner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "quamax/common/error.hpp"
#include "quamax/common/stats.hpp"

namespace quamax::sim {

namespace {

/// One outcome: stats anchored at the instance's ground-state energy, with
/// `sampler`'s per-anneal duration and P_f.
RunOutcome make_outcome(const Instance& instance,
                        const std::vector<qubo::SpinVec>& samples,
                        const core::IsingSampler& sampler,
                        double broken_chain_fraction) {
  std::vector<double> energies;
  energies.reserve(samples.size());
  for (const auto& s : samples) energies.push_back(instance.problem.ising.energy(s));
  return RunOutcome{
      .stats = metrics::SolutionStats::build(samples, energies, instance.use.tx_bits,
                                             instance.use.h.cols(), instance.use.mod,
                                             instance.ground_energy),
      .duration_us = sampler.anneal_duration_us(),
      .parallel_factor = sampler.parallelization_factor(instance.num_vars()),
      .broken_chain_fraction = broken_chain_fraction,
  };
}

}  // namespace

RunOutcome run_instance(const Instance& instance, core::IsingSampler& sampler,
                        std::size_t num_anneals, Rng& rng) {
  const std::vector<qubo::SpinVec> samples =
      sampler.sample(instance.problem.ising, num_anneals, rng);
  const auto* chimera = dynamic_cast<const anneal::ChimeraAnnealer*>(&sampler);
  return make_outcome(instance, samples, sampler,
                      chimera != nullptr ? chimera->last_broken_chain_fraction()
                                         : 0.0);
}

std::vector<ProblemSamples> sample_problems(
    const std::vector<const qubo::IsingModel*>& problems,
    const anneal::AnnealerConfig& config, core::ThreadPool& pool,
    std::size_t num_anneals, Rng& rng) {
  for (const auto* p : problems)
    require(p != nullptr, "sample_problems: null problem pointer");
  if (problems.empty()) return {};

  // The probe pins the chip and donates the embedding cache every lane
  // annealer shares.  A lane value is held by exactly one thread at a time
  // (ThreadPool contract), so the lane annealers need no locks.
  const anneal::ChimeraAnnealer probe(config);
  anneal::AnnealerConfig lane_config = config;
  lane_config.num_threads = 1;
  std::vector<std::optional<anneal::ChimeraAnnealer>> lanes(pool.size());
  std::vector<ProblemSamples> results(problems.size());
  const std::uint64_t key = rng();
  pool.parallel_for_lanes(problems.size(), [&](std::size_t lane, std::size_t p) {
    std::optional<anneal::ChimeraAnnealer>& annealer = lanes[lane];
    if (!annealer) {
      annealer.emplace(lane_config);
      annealer->set_embedding_cache(probe.embedding_cache());
    }
    Rng stream = Rng::for_stream(key, p);
    results[p].samples = annealer->sample(*problems[p], num_anneals, stream);
    results[p].broken_chain_fraction = annealer->last_broken_chain_fraction();
  });
  return results;
}

std::vector<RunOutcome> run_instances(const std::vector<Instance>& instances,
                                      const anneal::AnnealerConfig& config,
                                      core::ThreadPool& pool,
                                      std::size_t num_anneals, Rng& rng) {
  std::vector<const qubo::IsingModel*> problems;
  problems.reserve(instances.size());
  for (const Instance& instance : instances)
    problems.push_back(&instance.problem.ising);
  const std::vector<ProblemSamples> drawn =
      sample_problems(problems, config, pool, num_anneals, rng);

  // duration and P_f are configuration properties — one probe serves every
  // outcome.
  const anneal::ChimeraAnnealer probe(config);
  std::vector<RunOutcome> outcomes;
  outcomes.reserve(instances.size());
  for (std::size_t p = 0; p < instances.size(); ++p)
    outcomes.push_back(make_outcome(instances[p], drawn[p].samples, probe,
                                    drawn[p].broken_chain_fraction));
  return outcomes;
}

double outcome_tts_us(const RunOutcome& outcome, double confidence) {
  return metrics::time_to_solution_us(outcome.stats.p0(), outcome.duration_us,
                                      confidence);
}

std::optional<double> outcome_ttb_us(const RunOutcome& outcome, double target_ber,
                                     std::size_t na_cap) {
  return metrics::time_to_ber_us(outcome.stats, target_ber, outcome.duration_us,
                                 outcome.parallel_factor, na_cap);
}

std::optional<double> outcome_ttf_us(const RunOutcome& outcome, double target_fer,
                                     std::size_t frame_bytes, std::size_t na_cap) {
  return metrics::time_to_fer_us(outcome.stats, target_fer, frame_bytes,
                                 outcome.duration_us, outcome.parallel_factor,
                                 na_cap);
}

double ber_at_time_us(const RunOutcome& outcome, double time_us) {
  const double anneals =
      std::floor(time_us * outcome.parallel_factor / outcome.duration_us);
  const auto na = static_cast<std::size_t>(std::max(1.0, anneals));
  return outcome.stats.expected_ber(na);
}

double fer_at_time_us(const RunOutcome& outcome, double time_us,
                      std::size_t frame_bytes) {
  return wireless::fer_from_ber(ber_at_time_us(outcome, time_us), frame_bytes);
}

std::size_t best_fixed_setting(const SweepMatrix& matrix) {
  require(!matrix.empty(), "best_fixed_setting: empty sweep");
  std::size_t best = 0;
  double best_median = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < matrix.size(); ++s) {
    const double med = quamax::median(matrix[s]);
    if (med < best_median) {
      best_median = med;
      best = s;
    }
  }
  return best;
}

std::vector<double> opt_per_instance(const SweepMatrix& matrix) {
  require(!matrix.empty(), "opt_per_instance: empty sweep");
  const std::size_t instances = matrix.front().size();
  std::vector<double> out(instances, std::numeric_limits<double>::infinity());
  for (const auto& row : matrix) {
    require(row.size() == instances, "opt_per_instance: ragged sweep matrix");
    for (std::size_t i = 0; i < instances; ++i) out[i] = std::min(out[i], row[i]);
  }
  return out;
}

std::vector<double> fix_values(const SweepMatrix& matrix) {
  return matrix[best_fixed_setting(matrix)];
}

}  // namespace quamax::sim
