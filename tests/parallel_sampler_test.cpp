// Tests for the deterministic multi-threaded batch-anneal runtime: output
// must be a pure function of the seed — bit-identical at any thread count —
// and the fan-out must actually buy wall clock on multi-core hosts.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/core/parallel_sampler.hpp"
#include "quamax/core/thread_pool.hpp"
#include "quamax/sim/runner.hpp"

namespace quamax {
namespace {

/// Dense random Ising problem of `n` spins (deterministic in `seed`).
qubo::IsingModel random_problem(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  qubo::IsingModel m(n);
  for (std::size_t i = 0; i < n; ++i) m.field(i) = rng.uniform(-1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      m.add_coupling(i, j, rng.uniform(-1.0, 1.0));
  return m;
}

std::vector<qubo::SpinVec> logical_samples(const qubo::IsingModel& problem,
                                           std::size_t num_anneals,
                                           std::size_t num_threads,
                                           std::uint64_t seed) {
  anneal::LogicalAnnealerConfig config;
  config.num_threads = num_threads;
  anneal::LogicalAnnealer annealer(config);
  Rng rng{seed};
  return annealer.sample(problem, num_anneals, rng);
}

TEST(BatchRuntimeTest, LogicalSamplesBitIdenticalAcrossThreadCounts) {
  const qubo::IsingModel problem = random_problem(64, 0xA11CE);
  const auto serial = logical_samples(problem, 200, 1, 99);
  for (const std::size_t threads : {2ul, 8ul}) {
    const auto parallel = logical_samples(problem, 200, threads, 99);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t a = 0; a < serial.size(); ++a)
      EXPECT_EQ(parallel[a], serial[a]) << "anneal " << a << " diverged at "
                                        << threads << " threads";
  }
}

TEST(BatchRuntimeTest, ChimeraSamplesBitIdenticalAcrossThreadCounts) {
  // The full pipeline: per-anneal ICE realizations, SA on the embedded
  // problem, and majority-vote tie-breaks all draw from per-anneal streams.
  const qubo::IsingModel problem = random_problem(12, 0xC41);
  std::vector<std::vector<qubo::SpinVec>> runs;
  std::vector<double> broken;
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    anneal::AnnealerConfig config;
    config.num_threads = threads;
    anneal::ChimeraAnnealer annealer(config);
    Rng rng{7};
    runs.push_back(annealer.sample(problem, 60, rng));
    broken.push_back(annealer.last_broken_chain_fraction());
  }
  EXPECT_EQ(runs[1], runs[0]);
  EXPECT_EQ(runs[2], runs[0]);
  EXPECT_EQ(broken[1], broken[0]);
  EXPECT_EQ(broken[2], broken[0]);
}

TEST(BatchRuntimeTest, MultiProblemBatchBitIdenticalAcrossThreadCounts) {
  const qubo::IsingModel p0 = random_problem(8, 1);
  const qubo::IsingModel p1 = random_problem(8, 2);
  const qubo::IsingModel p2 = random_problem(8, 3);
  const std::vector<const qubo::IsingModel*> problems{&p0, &p1, &p2};

  std::vector<std::vector<std::vector<qubo::SpinVec>>> runs;
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    anneal::AnnealerConfig config;
    config.num_threads = threads;
    anneal::ChimeraAnnealer annealer(config);
    Rng rng{31337};
    runs.push_back(annealer.sample_batch(problems, 25, rng));
  }
  EXPECT_EQ(runs[1], runs[0]);
  EXPECT_EQ(runs[2], runs[0]);
}

class RunBlocksTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RunBlocksTest, AdvancesCallerRngIdenticallyForAnyThreadCount) {
  // run_blocks must consume exactly one draw from the caller's generator, so
  // the caller's downstream stream does not depend on the thread count
  // either.
  std::vector<std::uint64_t> next_draw;
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    core::ThreadPool pool(threads);
    Rng rng{555};
    core::run_blocks(pool, 100, GetParam(), rng,
                     [](std::size_t, std::vector<Rng>&) {});
    next_draw.push_back(rng());
  }
  EXPECT_EQ(next_draw[1], next_draw[0]);
  EXPECT_EQ(next_draw[2], next_draw[0]);
}

TEST_P(RunBlocksTest, CoversEveryIndexExactlyOnce) {
  core::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  Rng rng{1};
  core::run_blocks(pool, hits.size(), GetParam(), rng,
                   [&](std::size_t begin, std::vector<Rng>& streams) {
                     EXPECT_LE(streams.size(), GetParam());
                     for (std::size_t j = 0; j < streams.size(); ++j)
                       ++hits[begin + j];
                   });
  for (std::size_t a = 0; a < hits.size(); ++a) EXPECT_EQ(hits[a], 1);
}

TEST_P(RunBlocksTest, PropagatesJobExceptions) {
  core::ThreadPool pool(4);
  Rng rng{3};
  EXPECT_THROW(core::run_blocks(pool, 64, GetParam(), rng,
                                [](std::size_t begin, std::vector<Rng>& streams) {
                                  if (begin <= 13 && 13 < begin + streams.size())
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, RunBlocksTest, ::testing::Values(1ul, 5ul));

TEST(SampleProblemsTest, MatchesPerProblemStreams) {
  // sample_problems(p) must equal sampling problem p alone with stream p on a
  // fresh annealer — the per-problem decomposition is part of the
  // determinism contract.
  const qubo::IsingModel p0 = random_problem(10, 11);
  const qubo::IsingModel p1 = random_problem(10, 12);
  const std::vector<const qubo::IsingModel*> problems{&p0, &p1};
  anneal::AnnealerConfig config;
  config.schedule.anneal_time_us = 2.0;

  core::ThreadPool pool(4);
  Rng rng{77};
  const auto batched = sim::sample_problems(problems, config, pool, 30, rng);
  ASSERT_EQ(batched.size(), 2u);

  Rng probe{77};
  const std::uint64_t key = probe();
  EXPECT_EQ(rng(), probe()) << "sample_problems must draw exactly one key";
  for (std::size_t p = 0; p < problems.size(); ++p) {
    anneal::ChimeraAnnealer solo(config);
    Rng stream = Rng::for_stream(key, p);
    EXPECT_EQ(batched[p].samples, solo.sample(*problems[p], 30, stream))
        << "problem " << p;
    EXPECT_EQ(batched[p].broken_chain_fraction,
              solo.last_broken_chain_fraction())
        << "problem " << p;
  }
}

TEST(BatchRuntimeTest, EightThreadsBeatOneOnBigBatch) {
  if (std::thread::hardware_concurrency() < 2)
    GTEST_SKIP() << "single-core host: no parallel speedup to measure";

  const qubo::IsingModel problem = random_problem(64, 0xBEEF);
  const auto timed = [&](std::size_t threads) {
    anneal::LogicalAnnealerConfig config;
    config.num_threads = threads;
    anneal::LogicalAnnealer annealer(config);
    Rng rng{4242};
    // Warm the pool so thread spawn cost is not billed to the measurement.
    annealer.sample(problem, 8, rng);
    const auto start = std::chrono::steady_clock::now();
    annealer.sample(problem, 1000, rng);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };

  // Best of two measurements per setting: shared CI runners see
  // noisy-neighbor stalls, and one bad window must not fail the suite.
  const double t1 = std::min(timed(1), timed(1));
  const double t8 = std::min(timed(8), timed(8));
  // Full acceptance bar is >= 4x on an 8-core host; scale the expectation to
  // the cores actually present (capped by the 8 lanes), with slack for
  // scheduling overhead and co-tenant contention.
  const double cores = std::min<double>(8.0, std::thread::hardware_concurrency());
  const double required = std::max(1.2, 0.4 * cores);
  EXPECT_GT(t1 / t8, required)
      << "t1 = " << t1 << " s, t8 = " << t8 << " s on "
      << std::thread::hardware_concurrency() << " hardware threads";
}

}  // namespace
}  // namespace quamax
