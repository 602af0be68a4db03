// Quantum-annealer stand-ins implementing core::IsingSampler.
//
//  * ChimeraAnnealer — the faithful pipeline: compile the logical problem
//    onto the Chimera chip (clique embedding, |J_F| chains, dynamic-range
//    normalization), perturb the programmed coefficients with ICE noise per
//    anneal, run the SA kernel on the *physical* graph, and majority-vote
//    unembed each anneal's configuration back to logical variables.
//
//  * LogicalAnnealer — ablation: same SA kernel applied directly to the
//    logical fully-connected problem (no chains, optional ICE).  Isolates
//    the cost of embedding; also the "highly optimized simulated annealing
//    on the latest Intel processors" comparator mentioned in §6.
//
//  * BruteForceSampler — exhaustive oracle, returns the true ground state
//    on every "anneal"; for tests and small-problem verification.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "quamax/anneal/ice.hpp"
#include "quamax/anneal/sa_engine.hpp"
#include "quamax/anneal/schedule.hpp"
#include "quamax/chimera/embedding.hpp"
#include "quamax/chimera/embedding_cache.hpp"
#include "quamax/chimera/graph.hpp"
#include "quamax/core/sampler.hpp"
#include "quamax/core/thread_pool.hpp"

namespace quamax::anneal {

struct AnnealerConfig {
  Schedule schedule;
  IceConfig ice;
  chimera::EmbedParams embed;  ///< |J_F| and dynamic-range option
  std::size_t chip_size = 16;  ///< Chimera C_M grid (2000Q: 16)
  std::size_t chip_shore = 4;  ///< cell half-size (2000Q: 4; §8 next-gen: 12)
  std::size_t chip_defects = 0;
  std::uint64_t chip_seed = 7;
  /// Explicit fault map: these qubits are disabled on top of the
  /// `chip_defects` random ones.  Lets a multi-device scheduler model each
  /// device's measured defect pattern (sched::DeviceSpec) rather than a
  /// random draw; ids outside the chip throw at construction.
  std::vector<chimera::Qubit> chip_disabled;
  /// Standard range enables gauge averaging which cancels the ICE bias;
  /// improved range precludes it (paper §4).  When true, the bias term is
  /// suppressed automatically for standard-range runs.
  bool gauge_averaging = true;
  /// Ablation: disable the chain-collective Metropolis pass (leaving pure
  /// single-spin dynamics, which cannot cross frozen chains — see
  /// sa_engine.hpp).  bench_ablations quantifies the difference.
  bool chain_collective_moves = true;
  /// Ablation: instead of majority-voting broken chains (paper §3.3), drop
  /// any anneal containing a broken chain entirely.  sample() then may
  /// return fewer configurations than requested.
  bool discard_broken_chain_samples = false;
  /// Lanes for the batch-anneal runtime: 1 = serial baseline, 0 = one lane
  /// per hardware thread, N = exactly N.  Anneals use counter-derived RNG
  /// streams, so samples for a fixed seed are bit-identical at any setting.
  std::size_t num_threads = 1;
  /// Replicas per SaEngine::anneal_batch_with call: each lane's anneal quota
  /// is served in blocks of up to this many replicas swept together by the
  /// batched kernel (1 = the scalar per-sample path).  Sample `a` always
  /// draws from Rng::for_stream stream `a`, so samples for a fixed seed are
  /// bit-identical at ANY replica count — this knob only trades sweep
  /// throughput (see bench_micro_kernels' BM_SaSweep* pair).
  std::size_t batch_replicas = 8;
  /// Acceptance rule of the sweep kernel (see anneal::AcceptMode).  kExact
  /// preserves the v1 bit-exact contract; kThreshold/kThreshold32 trade it
  /// for the branch-free threshold kernel — statistically equivalent
  /// samples, still bit-identical at any num_threads/batch_replicas, but a
  /// DIFFERENT stream of results than kExact for the same seed.  Knob:
  /// --accept-mode / QUAMAX_ACCEPT_MODE.
  AcceptMode accept_mode = AcceptMode::kExact;
};

class ChimeraAnnealer final : public core::IsingSampler {
 public:
  explicit ChimeraAnnealer(AnnealerConfig config);

  std::vector<qubo::SpinVec> sample(const qubo::IsingModel& problem,
                                    std::size_t num_anneals, Rng& rng) override;

  /// Paper §4 parallelization, realized: decodes MANY same-size problems
  /// (e.g. different subcarriers) per anneal batch by placing disjoint
  /// clique embeddings across the chip and annealing them together.  Every
  /// wave of up to ~P_f problems costs ONE anneal's wall clock.  Returns
  /// one sample set per input problem, in order.
  std::vector<std::vector<qubo::SpinVec>> sample_batch(
      const std::vector<const qubo::IsingModel*>& problems,
      std::size_t num_anneals, Rng& rng);

  /// Warm-started wave decode: sample_batch with a per-problem initial
  /// LOGICAL configuration and a caller-supplied REVERSE schedule.  Each
  /// slot's seed is broadcast along its chains into the merged physical
  /// wave (the multi-problem analogue of set_initial_state + sample with
  /// schedule.reverse), so every replica of the wave starts from the
  /// seeds and anneals back out from `schedule.reverse_depth`.  The
  /// schedule must have reverse = true and is used for this call only —
  /// config().schedule (which must stay forward, see the constructor) is
  /// untouched, as are the cold sample()/sample_batch() RNG streams: the
  /// caller keys warm and cold calls off disjoint Rng::for_stream
  /// families (sched::Scheduler's warm_key_ vs decode_key_).
  /// `initial_states` must parallel `problems` with non-null entries of
  /// matching variable count.  Used by the coherent serving path
  /// (anneal::WarmStartPlanner supplies the seeds).
  std::vector<std::vector<qubo::SpinVec>> sample_batch_seeded(
      const std::vector<const qubo::IsingModel*>& problems,
      const std::vector<const qubo::SpinVec*>& initial_states,
      const Schedule& schedule, std::size_t num_anneals, Rng& rng);

  double anneal_duration_us() const override { return config_.schedule.duration_us(); }

  double parallelization_factor(std::size_t num_logical) const override {
    return chimera::parallelization_factor(num_logical, graph_);
  }

  /// The simulated chip graph (fixed for the annealer's lifetime).
  const chimera::ChimeraGraph& graph() const noexcept { return graph_; }
  /// The active configuration (see set_config for what may change).
  const AnnealerConfig& config() const noexcept { return config_; }

  /// Replaces annealing parameters (used by the Fig. 5-7 parameter sweeps)
  /// without discarding the cached embeddings.
  void set_config(const AnnealerConfig& config);

  /// Shares a shape-keyed embedding cache with this annealer (placements
  /// only — coefficients are compiled per problem).  The cache's graph must
  /// have the same topology as this annealer's chip.  serve::DecodeService
  /// wires one cache into every worker so a fleet of annealers compiles each
  /// problem shape once; by default each annealer owns a private cache.
  void set_embedding_cache(std::shared_ptr<chimera::EmbeddingCache> cache);

  /// The active embedding cache (never null).
  const std::shared_ptr<chimera::EmbeddingCache>& embedding_cache() const noexcept {
    return embeddings_;
  }

  /// Fraction of chains broken (non-unanimous) across the last sample()
  /// call — the embedding-health diagnostic used when tuning |J_F|.
  double last_broken_chain_fraction() const noexcept {
    return last_broken_chain_fraction_;
  }

  /// Seeds reverse annealing (schedule.reverse = true): each anneal starts
  /// from this LOGICAL configuration (broadcast along chains) instead of a
  /// random state.  Typically a linear detector's solution (§8: warm-started
  /// reverse annealing "may close the gap to Opt").  Pass std::nullopt to
  /// clear.  The state must match the next problem's variable count.
  void set_initial_state(std::optional<qubo::SpinVec> logical_state) {
    initial_state_ = std::move(logical_state);
  }

 private:
  /// The anneal-loop lanes, rebuilt when set_config changes num_threads.
  core::ThreadPool& pool();

  /// Shared wave loop behind sample_batch / sample_batch_seeded:
  /// `initial_states` null => cold forward anneal (bit-identical to the
  /// historical sample_batch, including RNG draw order).
  std::vector<std::vector<qubo::SpinVec>> sample_batch_impl(
      const std::vector<const qubo::IsingModel*>& problems,
      const std::vector<const qubo::SpinVec*>* initial_states,
      const Schedule& schedule, std::size_t num_anneals, Rng& rng);

  AnnealerConfig config_;
  chimera::ChimeraGraph graph_;
  std::shared_ptr<chimera::EmbeddingCache> embeddings_;
  std::optional<qubo::SpinVec> initial_state_;
  double last_broken_chain_fraction_ = 0.0;
  std::unique_ptr<core::ThreadPool> pool_;
  std::size_t pool_threads_ = 0;  ///< requested lanes pool_ was built with
};

struct LogicalAnnealerConfig {
  Schedule schedule;
  IceConfig ice{.enabled = false};  ///< ICE is a hardware artifact; off by default
  bool normalize = true;            ///< rescale to unit max |coefficient|
  std::size_t num_threads = 1;      ///< batch-runtime lanes (see AnnealerConfig)
  std::size_t batch_replicas = 8;   ///< replicas per batched kernel call (ditto)
  /// Sweep-kernel acceptance rule (see AnnealerConfig::accept_mode).
  AcceptMode accept_mode = AcceptMode::kExact;
};

class LogicalAnnealer final : public core::IsingSampler {
 public:
  explicit LogicalAnnealer(LogicalAnnealerConfig config) : config_(config) {
    config_.schedule.validate();
  }

  std::vector<qubo::SpinVec> sample(const qubo::IsingModel& problem,
                                    std::size_t num_anneals, Rng& rng) override;

  double anneal_duration_us() const override { return config_.schedule.duration_us(); }

 private:
  LogicalAnnealerConfig config_;
  std::unique_ptr<core::ThreadPool> pool_;
};

class BruteForceSampler final : public core::IsingSampler {
 public:
  std::vector<qubo::SpinVec> sample(const qubo::IsingModel& problem,
                                    std::size_t num_anneals, Rng& rng) override;
  double anneal_duration_us() const override { return 1.0; }
};

}  // namespace quamax::anneal
