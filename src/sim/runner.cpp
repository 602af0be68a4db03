#include "quamax/sim/runner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "quamax/common/error.hpp"
#include "quamax/common/stats.hpp"

namespace quamax::sim {

RunOutcome run_instance(const Instance& instance, core::IsingSampler& sampler,
                        std::size_t num_anneals, Rng& rng) {
  const std::vector<qubo::SpinVec> samples =
      sampler.sample(instance.problem.ising, num_anneals, rng);
  std::vector<double> energies;
  energies.reserve(samples.size());
  for (const auto& s : samples) energies.push_back(instance.problem.ising.energy(s));

  RunOutcome outcome{
      .stats = metrics::SolutionStats::build(samples, energies, instance.use.tx_bits,
                                             instance.use.h.cols(), instance.use.mod,
                                             instance.ground_energy),
      .duration_us = sampler.anneal_duration_us(),
      .parallel_factor = sampler.parallelization_factor(instance.num_vars()),
      .broken_chain_fraction = 0.0,
  };
  if (const auto* chimera = dynamic_cast<const anneal::ChimeraAnnealer*>(&sampler))
    outcome.broken_chain_fraction = chimera->last_broken_chain_fraction();
  return outcome;
}

std::vector<RunOutcome> run_instances(
    const std::vector<Instance>& instances, core::ParallelBatchSampler& batch,
    const core::ParallelBatchSampler::SamplerFactory& factory,
    std::size_t num_anneals, Rng& rng) {
  std::vector<const qubo::IsingModel*> problems;
  problems.reserve(instances.size());
  for (const Instance& instance : instances)
    problems.push_back(&instance.problem.ising);

  // Per-problem diagnostic tap: the lane-local sampler cache reuses one
  // annealer for many problems, so the broken-chain fraction must be read
  // right after each problem's draw, before the next overwrites it.
  std::vector<double> broken(instances.size(), 0.0);
  const auto harvest = [&broken](std::size_t p, core::IsingSampler& sampler) {
    if (const auto* chimera = dynamic_cast<const anneal::ChimeraAnnealer*>(&sampler))
      broken[p] = chimera->last_broken_chain_fraction();
  };

  const std::vector<std::vector<qubo::SpinVec>> samples =
      batch.sample_problems(factory, problems, num_anneals, rng, harvest);

  // duration and P_f are configuration properties, identical across the
  // factory's products — one probe serves every outcome.
  const std::unique_ptr<core::IsingSampler> probe = factory();
  std::vector<RunOutcome> outcomes;
  outcomes.reserve(instances.size());
  for (std::size_t p = 0; p < instances.size(); ++p) {
    const Instance& instance = instances[p];
    std::vector<double> energies;
    energies.reserve(samples[p].size());
    for (const auto& s : samples[p])
      energies.push_back(instance.problem.ising.energy(s));
    outcomes.push_back(RunOutcome{
        .stats = metrics::SolutionStats::build(
            samples[p], energies, instance.use.tx_bits, instance.use.h.cols(),
            instance.use.mod, instance.ground_energy),
        .duration_us = probe->anneal_duration_us(),
        .parallel_factor = probe->parallelization_factor(instance.num_vars()),
        .broken_chain_fraction = broken[p],
    });
  }
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
