// Run orchestration shared by the benchmark binaries: execute a QA parameter
// setting over instances, collect SolutionStats, and aggregate TTS/TTB the
// way the paper's figures do (median/mean across instances, Fix vs Opt
// parameter strategies — §5.3.2).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/core/parallel_sampler.hpp"
#include "quamax/metrics/solution_stats.hpp"
#include "quamax/sim/instance.hpp"

namespace quamax::sim {

/// Everything the metrics need from one (instance, setting) execution.
struct RunOutcome {
  metrics::SolutionStats stats;
  double duration_us = 0.0;      ///< per-anneal wall-clock (T_a + T_p)
  double parallel_factor = 1.0;  ///< P_f for this problem on this chip
  double broken_chain_fraction = 0.0;
};

/// Runs `num_anneals` anneals of `sampler` on `instance` and builds stats
/// anchored at the instance's ground-state energy.
RunOutcome run_instance(const Instance& instance, core::IsingSampler& sampler,
                        std::size_t num_anneals, Rng& rng);

/// The §4 multi-problem path: decodes all `instances` through
/// ParallelBatchSampler::sample_problems — instance p is drawn `num_anneals`
/// times with counter-derived stream p by a lane-local sampler built by
/// `factory` — and assembles one RunOutcome per instance exactly as
/// per-instance run_instance calls would, including the per-instance
/// broken-chain fraction (harvested through the sampler's per-problem
/// diagnostic hook when the factory produces ChimeraAnnealers).  Per-anneal
/// duration and P_f come from a probe sampler built once by `factory`.
/// Results are bit-identical at any batch thread count.
std::vector<RunOutcome> run_instances(
    const std::vector<Instance>& instances, core::ParallelBatchSampler& batch,
    const core::ParallelBatchSampler::SamplerFactory& factory,
    std::size_t num_anneals, Rng& rng);

/// TTS(0.99) of one outcome, +inf when the ground state was never sampled.
double outcome_tts_us(const RunOutcome& outcome, double confidence = 0.99);

/// TTB of one outcome; nullopt when the target is unreachable within na_cap.
std::optional<double> outcome_ttb_us(const RunOutcome& outcome, double target_ber,
                                     std::size_t na_cap);

/// TTF of one outcome for a frame size; nullopt when unreachable.
std::optional<double> outcome_ttf_us(const RunOutcome& outcome, double target_fer,
                                     std::size_t frame_bytes, std::size_t na_cap);

/// Expected BER after running for `time_us` of wall-clock: converts time to
/// an anneal count through the per-anneal duration and P_f, then evaluates
/// Eq. 9.  This is how the Fig. 8/9/15 "BER as a function of time" curves
/// are produced.
double ber_at_time_us(const RunOutcome& outcome, double time_us);

/// Expected FER at a wall-clock time for a frame size (Fig. 11/15).
double fer_at_time_us(const RunOutcome& outcome, double time_us,
                      std::size_t frame_bytes);

/// A sweep matrix: value[setting][instance].  Infinite/absent entries are
/// encoded as +inf so medians stay meaningful.
using SweepMatrix = std::vector<std::vector<double>>;

/// Index of the "Fix" setting: the one minimizing the median across
/// instances (paper §5.3.2's fixed-parameter strategy).
std::size_t best_fixed_setting(const SweepMatrix& matrix);

/// "Opt" values: per-instance minimum over settings (the oracle bound that
/// optimizes QA parameters instance-by-instance).
std::vector<double> opt_per_instance(const SweepMatrix& matrix);

/// Values of the Fix row (convenience).
std::vector<double> fix_values(const SweepMatrix& matrix);

}  // namespace quamax::sim
