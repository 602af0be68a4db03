#include "quamax/anneal/annealer.hpp"

#include <algorithm>

#include "quamax/core/parallel_sampler.hpp"

namespace quamax::anneal {
namespace {

/// Anneals one replica block, replica j on streams[j].  ICE on: each
/// replica draws its fields then its couplings from its stream, exactly the
/// scalar path's order, into replica-major coefficient blocks for
/// SaEngine::anneal_batch_with, so the batched samples stay bit-identical
/// to per-sample anneals.  ICE off: disabled perturbation copies the base
/// arrays and draws no RNG, so the shared-coefficient anneal_batch is
/// bit-identical while skipping the O(R*(N+M)) block copies.
std::vector<qubo::SpinVec> anneal_replica_block(const SaEngine& engine,
                                                const IceConfig& ice,
                                                const std::vector<double>& betas,
                                                std::vector<Rng>& streams,
                                                const qubo::SpinVec* initial,
                                                AcceptMode accept_mode) {
  if (!ice.enabled)
    return engine.anneal_batch(betas, streams, initial, accept_mode);
  // Lane-local scratch: every element is overwritten per block, so reuse
  // across blocks is safe and keeps the hot loop allocation-free.
  thread_local std::vector<double> fields, couplings, f1, c1;
  const std::size_t nf = engine.base_fields().size();
  const std::size_t nc = engine.base_couplings().size();
  const std::size_t R = streams.size();
  fields.resize(R * nf);
  couplings.resize(R * nc);
  for (std::size_t j = 0; j < R; ++j) {
    ice.perturb_fields(engine.base_fields(), f1, streams[j]);
    ice.perturb_couplings(engine.base_couplings(), c1, streams[j]);
    std::copy(f1.begin(), f1.end(),
              fields.begin() + static_cast<std::ptrdiff_t>(j * nf));
    std::copy(c1.begin(), c1.end(),
              couplings.begin() + static_cast<std::ptrdiff_t>(j * nc));
  }
  return engine.anneal_batch_with(betas, fields, couplings, streams, initial,
                                  accept_mode);
}

}  // namespace

ChimeraAnnealer::ChimeraAnnealer(AnnealerConfig config)
    : config_(config),
      graph_(config.chip_defects == 0
                 ? chimera::ChimeraGraph(config.chip_size, config.chip_shore)
                 : chimera::ChimeraGraph::with_defects(
                       config.chip_size, config.chip_defects, config.chip_seed)) {
  require(config.chip_defects == 0 || config.chip_shore == 4,
          "ChimeraAnnealer: defect masks are modeled for the shore-4 chip");
  for (const chimera::Qubit q : config_.chip_disabled) {
    require(q < graph_.num_qubits(),
            "ChimeraAnnealer: chip_disabled qubit id outside the chip");
    graph_.disable_qubit(q);
  }
  config_.schedule.validate();
  embeddings_ = std::make_shared<chimera::EmbeddingCache>(graph_);
}

void ChimeraAnnealer::set_embedding_cache(
    std::shared_ptr<chimera::EmbeddingCache> cache) {
  require(cache != nullptr, "set_embedding_cache: null cache");
  require(cache->graph().same_topology(graph_),
          "set_embedding_cache: cache was compiled for a different chip");
  embeddings_ = std::move(cache);
}

core::ThreadPool& ChimeraAnnealer::pool() {
  if (pool_ == nullptr || pool_threads_ != config_.num_threads) {
    pool_ = std::make_unique<core::ThreadPool>(config_.num_threads);
    pool_threads_ = config_.num_threads;
  }
  return *pool_;
}

void ChimeraAnnealer::set_config(const AnnealerConfig& config) {
  require(config.chip_size == config_.chip_size &&
              config.chip_shore == config_.chip_shore &&
              config.chip_defects == config_.chip_defects &&
              config.chip_seed == config_.chip_seed &&
              config.chip_disabled == config_.chip_disabled,
          "ChimeraAnnealer::set_config: cannot change the chip; build a new "
          "annealer");
  config.schedule.validate();
  config_ = config;
}

std::vector<qubo::SpinVec> ChimeraAnnealer::sample(const qubo::IsingModel& problem,
                                                   std::size_t num_anneals,
                                                   Rng& rng) {
  require(num_anneals >= 1, "ChimeraAnnealer::sample: need at least one anneal");

  // The clique placement, not parallel slot 0: on a defective chip the
  // clique search may place the problem off the tiling grid.
  const std::shared_ptr<const chimera::EmbeddingTemplate> compiled =
      embeddings_->clique_template(problem.num_spins());

  // Reverse annealing: the logical warm-start state seeds every anneal.
  const qubo::SpinVec* seed = nullptr;
  if (config_.schedule.reverse) {
    require(initial_state_.has_value(),
            "ChimeraAnnealer: reverse annealing needs set_initial_state()");
    require(initial_state_->size() == problem.num_spins(),
            "ChimeraAnnealer: initial state size does not match the problem");
    seed = &*initial_state_;
  }

  const qubo::IsingModel* const wave = &problem;
  std::vector<std::size_t> broken;
  std::vector<qubo::SpinVec> raw = std::move(
      decode_waves({&wave, 1}, {compiled.get(), 1},
                   {&seed, seed != nullptr ? 1u : 0u}, config_.schedule,
                   num_anneals, rng, &broken)
          .front());

  std::size_t broken_total = 0;
  for (const std::size_t b : broken) broken_total += b;
  last_broken_chain_fraction_ =
      static_cast<double>(broken_total) /
      static_cast<double>(num_anneals * problem.num_spins());

  if (!config_.discard_broken_chain_samples) return raw;
  std::vector<qubo::SpinVec> kept;
  kept.reserve(num_anneals);
  for (std::size_t a = 0; a < num_anneals; ++a)
    if (broken[a] == 0) kept.push_back(std::move(raw[a]));
  return kept;
}

std::vector<std::vector<qubo::SpinVec>> ChimeraAnnealer::sample_batch(
    const std::vector<const qubo::IsingModel*>& problems,
    std::size_t num_anneals, Rng& rng) {
  require(!config_.schedule.reverse,
          "sample_batch: reverse annealing needs per-problem seeds; use "
          "sample_batch_seeded");
  return sample_batch_impl(problems, {}, config_.schedule, num_anneals, rng);
}

std::vector<std::vector<qubo::SpinVec>> ChimeraAnnealer::sample_batch_seeded(
    const std::vector<const qubo::IsingModel*>& problems,
    const std::vector<const qubo::SpinVec*>& initial_states,
    const Schedule& schedule, std::size_t num_anneals, Rng& rng) {
  schedule.validate();
  require(schedule.reverse,
          "sample_batch_seeded: the seeded batch is the reverse-annealing "
          "path; use sample_batch for forward waves");
  require(initial_states.size() == problems.size(),
          "sample_batch_seeded: one initial state per problem");
  for (std::size_t s = 0; s < problems.size(); ++s)
    require(problems[s] != nullptr && initial_states[s] != nullptr &&
                initial_states[s]->size() == problems[s]->num_spins(),
            "sample_batch_seeded: each initial state must match its problem's "
            "variable count");
  return sample_batch_impl(problems, initial_states, schedule, num_anneals,
                           rng);
}

std::vector<std::vector<qubo::SpinVec>> ChimeraAnnealer::sample_batch_impl(
    std::span<const qubo::IsingModel* const> problems,
    std::span<const qubo::SpinVec* const> seeds, const Schedule& schedule,
    std::size_t num_anneals, Rng& rng) {
  require(!problems.empty(), "sample_batch: no problems");
  require(num_anneals >= 1, "sample_batch: need at least one anneal");
  const std::size_t n = problems.front()->num_spins();
  for (const auto* p : problems)
    require(p != nullptr && p->num_spins() == n,
            "sample_batch: all problems must have the same variable count");
  // Compiled placements come from the shape-keyed cache at full chip
  // capacity; a prefix of the maximal tiling equals what a smaller
  // compilation would return, so a wave of k problems uses slots [0, k).
  return decode_waves(problems, *embeddings_->parallel_templates(n), seeds,
                      schedule, num_anneals, rng, nullptr);
}

std::vector<std::vector<qubo::SpinVec>> ChimeraAnnealer::decode_waves(
    std::span<const qubo::IsingModel* const> problems,
    std::span<const chimera::EmbeddingTemplate> slots,
    std::span<const qubo::SpinVec* const> seeds, const Schedule& schedule,
    std::size_t num_anneals, Rng& rng, std::vector<std::size_t>* broken) {
  const std::size_t n = problems.front()->num_spins();
  const std::vector<double> betas = schedule.betas();

  // Standard dynamic range + gauge averaging cancel the ICE mean shift.
  IceConfig ice = config_.ice;
  ice.suppress_bias =
      ice.suppress_bias || (config_.gauge_averaging && !config_.embed.improved_range);

  std::vector<std::vector<qubo::SpinVec>> results(
      problems.size(), std::vector<qubo::SpinVec>(num_anneals));
  if (broken != nullptr) broken->assign(num_anneals, 0);

  // Process the problems in waves of up to slots.size() instances per chip
  // anneal.
  for (std::size_t wave_start = 0; wave_start < problems.size();
       wave_start += slots.size()) {
    const std::size_t wave_size =
        std::min(slots.size(), problems.size() - wave_start);
    const chimera::EmbeddedProblem wave = chimera::embed(
        problems.subspan(wave_start, wave_size), slots, config_.embed);

    SaEngine engine(wave.physical);
    // Chain-collective moves: the classical counterpart of the annealer's
    // coherent multi-qubit dynamics (see sa_engine.hpp).
    if (config_.chain_collective_moves) engine.set_groups(wave.chains);

    // Warm start: broadcast every slot's logical seed along its chains.
    // Every replica starts from this configuration.
    qubo::SpinVec physical_initial;
    const qubo::SpinVec* initial = nullptr;
    if (!seeds.empty()) {
      physical_initial.resize(wave.physical.num_spins());
      for (std::size_t c = 0; c < wave.chains.size(); ++c) {
        const qubo::SpinVec& seed = *seeds[wave_start + c / n];
        for (const std::uint32_t q : wave.chains[c]) physical_initial[q] = seed[c % n];
      }
      initial = &physical_initial;
    }

    // One chip anneal decodes the whole wave.  The anneals fan across the
    // batch runtime in replica blocks: anneal `a` draws its ICE
    // realization, SA trajectory and tie-breaks from stream `a` whatever
    // block it lands in, so samples are bit-identical at any
    // batch_replicas/num_threads setting — the engine is shared read-only.
    core::run_blocks(
        pool(), num_anneals, config_.batch_replicas, rng,
        [&](std::size_t begin, std::vector<Rng>& streams) {
          const std::vector<qubo::SpinVec> physical = anneal_replica_block(
              engine, ice, betas, streams, initial, config_.accept_mode);
          for (std::size_t j = 0; j < streams.size(); ++j) {
            std::size_t broken_chains = 0;
            const qubo::SpinVec logical =
                chimera::unembed(physical[j], wave, streams[j], &broken_chains);
            if (broken != nullptr) (*broken)[begin + j] += broken_chains;
            for (std::size_t s = 0; s < wave_size; ++s)
              results[wave_start + s][begin + j].assign(
                  logical.begin() + static_cast<std::ptrdiff_t>(s * n),
                  logical.begin() + static_cast<std::ptrdiff_t>((s + 1) * n));
          }
        });
  }
  return results;
}

std::vector<qubo::SpinVec> LogicalAnnealer::sample(const qubo::IsingModel& problem,
                                                   std::size_t num_anneals,
                                                   Rng& rng) {
  require(num_anneals >= 1, "LogicalAnnealer::sample: need at least one anneal");

  qubo::IsingModel scaled = problem;
  if (config_.normalize) {
    const double max_coeff = problem.max_abs_coefficient();
    if (max_coeff > 0.0) {
      qubo::IsingModel normalized(problem.num_spins());
      for (std::size_t i = 0; i < problem.num_spins(); ++i)
        normalized.field(i) = problem.field(i) / max_coeff;
      for (const qubo::Coupling& c : problem.couplings())
        normalized.add_coupling(c.i, c.j, c.g / max_coeff);
      scaled = std::move(normalized);
    }
  }

  const SaEngine engine(scaled);
  const std::vector<double> betas = config_.schedule.betas();

  if (pool_ == nullptr)
    pool_ = std::make_unique<core::ThreadPool>(config_.num_threads);

  std::vector<qubo::SpinVec> samples(num_anneals);
  core::run_blocks(
      *pool_, num_anneals, config_.batch_replicas, rng,
      [&](std::size_t begin, std::vector<Rng>& streams) {
        std::vector<qubo::SpinVec> block = anneal_replica_block(
            engine, config_.ice, betas, streams, nullptr, config_.accept_mode);
        for (std::size_t j = 0; j < streams.size(); ++j)
          samples[begin + j] = std::move(block[j]);
      });
  return samples;
}

std::vector<qubo::SpinVec> BruteForceSampler::sample(const qubo::IsingModel& problem,
                                                     std::size_t num_anneals,
                                                     Rng& rng) {
  (void)rng;
  const qubo::GroundState ground = qubo::brute_force_ground_state(problem);
  return std::vector<qubo::SpinVec>(num_anneals, ground.spins);
}

}  // namespace quamax::anneal
