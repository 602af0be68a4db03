// Micro-benchmarks (google-benchmark) for the library's compute kernels.
// Not a paper figure — these quantify the claims the paper makes in passing:
//   * §3.2.2: the closed-form Ising coefficients make the ML->QA conversion
//     cheap ("computational time ... can be neglected") — compare generic
//     norm expansion against the closed forms;
//   * embedding compilation and unembedding costs;
//   * the SA substitute's per-anneal cost (the classical analog of Ta), in
//     both the scalar and the multi-replica batched kernel (BM_SaSweep*:
//     the items/s column is spin-updates per second, so the batched-kernel
//     speedup is the ratio of the two at equal replica count);
//   * baseline detector costs (Sphere Decoder, zero-forcing);
//   * the serving scheduler's per-job cost under a growing backlog
//     (BM_SchedBacklog: items/s is jobs/s).

#include <benchmark/benchmark.h>

#include "quamax/anneal/annealer.hpp"
#include "quamax/core/detector.hpp"
#include "quamax/detect/linear.hpp"
#include "quamax/detect/sphere.hpp"
#include "quamax/sched/policy.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/service.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/runner.hpp"

namespace {

using namespace quamax;
using wireless::Modulation;

wireless::ChannelUse make_use(std::size_t users, Modulation mod, double snr_db) {
  Rng rng{0xBE7C};
  return wireless::make_channel_use(users, users, mod,
                                    wireless::ChannelKind::kRayleigh, snr_db, rng);
}

void BM_ReductionGeneric(benchmark::State& state) {
  const auto use = make_use(static_cast<std::size_t>(state.range(0)),
                            Modulation::kQpsk, 20.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::reduce_ml_to_ising(use.h, use.y, use.mod));
}
BENCHMARK(BM_ReductionGeneric)->Arg(8)->Arg(16)->Arg(32);

void BM_ReductionClosedForm(benchmark::State& state) {
  const auto use = make_use(static_cast<std::size_t>(state.range(0)),
                            Modulation::kQpsk, 20.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::reduce_ml_to_ising_closed_form(use.h, use.y, use.mod));
}
BENCHMARK(BM_ReductionClosedForm)->Arg(8)->Arg(16)->Arg(32);

void BM_CliqueEmbedding(benchmark::State& state) {
  const chimera::ChimeraGraph chip(16);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(chimera::find_clique_embedding(n, chip));
}
BENCHMARK(BM_CliqueEmbedding)->Arg(16)->Arg(36)->Arg(60);

void BM_EmbedCompile(benchmark::State& state) {
  const chimera::ChimeraGraph chip(16);
  const auto use = make_use(static_cast<std::size_t>(state.range(0)),
                            Modulation::kBpsk, 20.0);
  const auto problem = core::reduce_ml_to_ising(use.h, use.y, use.mod);
  const auto embedding = chimera::find_clique_embedding(problem.num_vars(), chip);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        chimera::embed(problem.ising, embedding, chip, chimera::EmbedParams{}));
}
BENCHMARK(BM_EmbedCompile)->Arg(16)->Arg(36)->Arg(60);

void BM_SaAnnealEmbedded(benchmark::State& state) {
  // One anneal at Ta = 1 us on the embedded problem (per-anneal CPU cost of
  // the QA substitute).
  const chimera::ChimeraGraph chip(16);
  const auto use = make_use(static_cast<std::size_t>(state.range(0)),
                            Modulation::kBpsk, 20.0);
  const auto problem = core::reduce_ml_to_ising(use.h, use.y, use.mod);
  const auto embedding = chimera::find_clique_embedding(problem.num_vars(), chip);
  const auto embedded =
      chimera::embed(problem.ising, embedding, chip, chimera::EmbedParams{});
  const anneal::SaEngine engine(embedded.physical);
  const anneal::Schedule schedule;
  const std::vector<double> betas = schedule.betas();
  Rng rng{1};
  for (auto _ : state) benchmark::DoNotOptimize(engine.anneal(betas, rng));
}
BENCHMARK(BM_SaAnnealEmbedded)->Arg(16)->Arg(36)->Arg(60);

// The merged-wave problem ChimeraAnnealer::sample_batch anneals: as many
// disjoint 16-variable clique embeddings as fit on the chip, compiled and
// merged into ONE chip-wide Ising model (chimera::merge_embedded — the
// exact code path sample_batch uses) with all chains registered as
// collective-move groups.  This is the hottest input shape in the system
// (every §4-parallelized decode sweeps it), so it is the throughput yard-
// stick for the scalar-vs-batched kernel comparison.
const chimera::MergedWave& merged_wave_problem() {
  static const chimera::MergedWave wave = [] {
    const chimera::ChimeraGraph chip(16);
    const std::size_t n = 16;  // logical variables per slot (16-user BPSK)
    const auto slots = chimera::find_parallel_embeddings(n, 64, chip);
    Rng rng{0x3A7E};
    std::vector<chimera::EmbeddedProblem> embedded;
    for (const auto& slot : slots) {
      // One random clique instance per slot ("identical or not" — §4).
      qubo::IsingModel logical(n);
      for (std::size_t i = 0; i < n; ++i) logical.field(i) = rng.normal();
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
          logical.add_coupling(i, j, rng.normal());
      embedded.push_back(chimera::embed(logical, slot, chip, chimera::EmbedParams{}));
    }
    return chimera::merge_embedded(embedded);
  }();
  return wave;
}

const anneal::SaEngine& merged_wave_engine() {
  static const anneal::SaEngine engine = [] {
    anneal::SaEngine e(merged_wave_problem().physical);
    e.set_groups(merged_wave_problem().chains);
    return e;
  }();
  return engine;
}

// R scalar anneal() calls on the merged wave — the per-sample baseline the
// annealers used before the batched kernel.  items/s = spin-updates/s.
void BM_SaSweepScalar(benchmark::State& state) {
  const auto R = static_cast<std::size_t>(state.range(0));
  const anneal::SaEngine& engine = merged_wave_engine();
  const std::vector<double> betas = anneal::Schedule{}.betas();
  std::uint64_t round = 0;
  for (auto _ : state) {
    for (std::size_t r = 0; r < R; ++r) {
      Rng stream = Rng::for_stream(round, r);
      benchmark::DoNotOptimize(engine.anneal(betas, stream));
    }
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * R * betas.size() * engine.num_spins()));
}
BENCHMARK(BM_SaSweepScalar)->Arg(1)->Arg(8)->Arg(16);

// The same R replicas through one anneal_batch() call (bit-identical output;
// batch_replica_test proves it).  Compare items/s against BM_SaSweepScalar
// at the same R for the batched-kernel sweep-throughput speedup, and against
// BM_SaSweepBatchedThreshold[32] at the same R for the accept-mode speedup.
// items/s is spin-updates per second; the quamax_spin_updates_per_s counter
// repeats it under a stable name (the quamax_ prefix is what
// tools/bench_to_json.py carries into the artifact).
void sweep_batched_mode(benchmark::State& state, anneal::AcceptMode mode) {
  const auto R = static_cast<std::size_t>(state.range(0));
  const anneal::SaEngine& engine = merged_wave_engine();
  const std::vector<double> betas = anneal::Schedule{}.betas();
  std::uint64_t round = 0;
  for (auto _ : state) {
    std::vector<Rng> streams;
    streams.reserve(R);
    for (std::size_t r = 0; r < R; ++r)
      streams.push_back(Rng::for_stream(round, r));
    benchmark::DoNotOptimize(engine.anneal_batch(betas, streams, nullptr, mode));
    ++round;
  }
  const auto updates = static_cast<std::int64_t>(state.iterations() * R *
                                                 betas.size() *
                                                 engine.num_spins());
  state.SetItemsProcessed(updates);
  state.counters["quamax_spin_updates_per_s"] = benchmark::Counter(
      static_cast<double>(updates), benchmark::Counter::kIsRate);
  state.counters["quamax_replicas"] = static_cast<double>(R);
}

void BM_SaSweepBatched(benchmark::State& state) {
  sweep_batched_mode(state, anneal::AcceptMode::kExact);
}
BENCHMARK(BM_SaSweepBatched)->Arg(1)->Arg(8)->Arg(16)->Arg(32);

// Branch-free threshold acceptance (AcceptMode::kThreshold): no exp(), no
// data-dependent RNG consumption — the accept pass vectorizes.  The ratio
// to BM_SaSweepBatched at equal R is the accept-mode speedup (acceptance
// bar: >= 1.4x at R = 8; CI gates on it via tools/bench_to_json.py).
void BM_SaSweepBatchedThreshold(benchmark::State& state) {
  sweep_batched_mode(state, anneal::AcceptMode::kThreshold);
}
BENCHMARK(BM_SaSweepBatchedThreshold)->Arg(1)->Arg(8)->Arg(16)->Arg(32);

// Threshold acceptance over float32 state/coefficients (kThreshold32): the
// serve-workload variant of the ICE-off shared-coefficient path, doubling
// SIMD width.
void BM_SaSweepBatchedThreshold32(benchmark::State& state) {
  sweep_batched_mode(state, anneal::AcceptMode::kThreshold32);
}
BENCHMARK(BM_SaSweepBatchedThreshold32)->Arg(1)->Arg(8)->Arg(16)->Arg(32);

// The full batched decode path at bench scale: ChimeraAnnealer::sample with
// the configured replica block size (QUAMAX_REPLICAS; Google Benchmark owns
// argv, so only the environment knob applies here).
void BM_ChimeraSampleBatchedPath(benchmark::State& state) {
  Rng rng{0xBA7C};
  anneal::AnnealerConfig config;
  config.num_threads = sim::knob_count("--threads");
  config.batch_replicas = sim::knob_count("--replicas");
  config.accept_mode =
      sim::knob_accept_mode().value_or(anneal::AcceptMode::kExact);
  anneal::ChimeraAnnealer annealer(config);
  const auto use = make_use(16, Modulation::kBpsk, 20.0);
  const auto problem = core::reduce_ml_to_ising(use.h, use.y, use.mod);
  for (auto _ : state)
    benchmark::DoNotOptimize(annealer.sample(problem.ising, 64, rng));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 64));
}
BENCHMARK(BM_ChimeraSampleBatchedPath);

void BM_Unembed(benchmark::State& state) {
  const chimera::ChimeraGraph chip(16);
  const auto use = make_use(36, Modulation::kBpsk, 20.0);
  const auto problem = core::reduce_ml_to_ising(use.h, use.y, use.mod);
  const auto embedding = chimera::find_clique_embedding(problem.num_vars(), chip);
  const auto embedded =
      chimera::embed(problem.ising, embedding, chip, chimera::EmbedParams{});
  qubo::SpinVec physical(embedded.physical.num_spins(), 1);
  Rng rng{2};
  for (auto _ : state)
    benchmark::DoNotOptimize(chimera::unembed(physical, embedded, rng));
}
BENCHMARK(BM_Unembed);

void BM_SphereDecode(benchmark::State& state) {
  const auto use = make_use(static_cast<std::size_t>(state.range(0)),
                            Modulation::kBpsk, 13.0);
  const detect::SphereDecoder decoder;
  for (auto _ : state) benchmark::DoNotOptimize(decoder.detect(use));
}
BENCHMARK(BM_SphereDecode)->Arg(12)->Arg(21)->Arg(30);

void BM_ZeroForcing(benchmark::State& state) {
  const auto use = make_use(static_cast<std::size_t>(state.range(0)),
                            Modulation::kBpsk, 13.0);
  for (auto _ : state) benchmark::DoNotOptimize(detect::zero_forcing_detect(use));
}
BENCHMARK(BM_ZeroForcing)->Arg(12)->Arg(30)->Arg(60);

void BM_Eq9ExpectedBer(benchmark::State& state) {
  Rng rng{3};
  anneal::AnnealerConfig config;
  config.num_threads = sim::knob_count("--threads");  // the library owns argv
  anneal::ChimeraAnnealer annealer(config);
  const sim::Instance inst = sim::make_instance(
      {.users = 16, .mod = Modulation::kBpsk, .kind = {}, .snr_db = {}}, rng);
  const sim::RunOutcome outcome = sim::run_instance(inst, annealer, 500, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(outcome.stats.expected_ber(1000));
}
BENCHMARK(BM_Eq9ExpectedBer);

// The perfbench `backlog` shape served end to end by DecodeService on one
// lane: 8x8 noise-free BPSK offered at 1000 jobs/ms against ~364 jobs/ms of
// capacity (N_a = 1, waves of at most 4 jobs, FIFO), so the queue grows for
// the whole run.  items/s is jobs/s, load generation excluded.  Per-job
// cost stays flat across the job counts only if every dispatch decision is
// O(log backlog); CI requires /100000 to keep >= 0.5x the jobs/s of /1000.
void BM_SchedBacklog(benchmark::State& state) {
  const auto num_jobs = static_cast<std::size_t>(state.range(0));
  serve::LoadConfig load;
  load.arrivals = serve::ArrivalKind::kPoisson;
  load.offered_load_jobs_per_ms = 1000.0;
  load.deadline_us = 1000.0;
  load.users = 8;
  load.problem.users = 8;
  load.problem.mod = Modulation::kBpsk;
  load.problem.kind = wireless::ChannelKind::kRandomPhase;
  load.problem.snr_db = std::nullopt;
  serve::ServiceConfig config;
  config.num_anneals = 1;
  config.max_wave_jobs = 4;
  config.queue_policy = sched::QueuePolicy::kFifo;
  config.num_threads = 1;
  serve::DecodeService service(config);
  for (auto _ : state) {
    state.PauseTiming();
    serve::LoadGenerator generator(load, 1);
    std::vector<serve::CellJob> jobs = generator.open_loop(num_jobs);
    state.ResumeTiming();
    benchmark::DoNotOptimize(service.run(std::move(jobs)));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * num_jobs));
}
BENCHMARK(BM_SchedBacklog)->Arg(1000)->Arg(100000);

}  // namespace

#ifndef QUAMAX_BENCH_COMPILER
#define QUAMAX_BENCH_COMPILER "unknown"
#endif
#ifndef QUAMAX_BENCH_BUILD_TYPE
#define QUAMAX_BENCH_BUILD_TYPE "unknown"
#endif

// BENCHMARK_MAIN plus the build context the committed BENCH_*.json records
// carry: the library's own context has the CPU count, not how quamax was
// compiled.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("quamax_compiler", QUAMAX_BENCH_COMPILER);
  benchmark::AddCustomContext("quamax_build_type", QUAMAX_BENCH_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
