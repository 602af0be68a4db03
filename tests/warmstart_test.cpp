// Warm-start incremental annealing (ISSUE 7): the determinism / parity
// test layer for anneal::WarmStartPlanner and the coherent serving path.
//
// Contracts under test:
//
//   * compile() with channel_changed=false produces coefficients that are
//     BIT-IDENTICAL to a from-scratch reduction — fields, couplings, and
//     offset, across all four modulations (the delta contract);
//   * cold-start bit-compatibility: with coherence=0 a warm_start=true
//     service is a no-op — reports equal the warm_start=false run field by
//     field (no job ever has a predecessor, so no stream is perturbed);
//   * warm-start bit-identity: on a coherent workload the full report is
//     unchanged across --threads x --replicas combinations at a fixed
//     device count (warm waves decode from counter-derived streams keyed
//     by wave id, seeds travel in per-sequence slots).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "quamax/anneal/warm_start.hpp"
#include "quamax/common/rng.hpp"
#include "quamax/core/reduction.hpp"
#include "quamax/linalg/matrix.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/service.hpp"
#include "quamax/wireless/channel.hpp"

namespace quamax {
namespace {

void expect_problems_identical(const core::MlProblem& a,
                               const core::MlProblem& b) {
  ASSERT_EQ(a.num_vars(), b.num_vars());
  EXPECT_EQ(a.mod, b.mod);
  EXPECT_EQ(a.nt, b.nt);
  for (std::size_t i = 0; i < a.num_vars(); ++i)
    EXPECT_EQ(a.ising.field(i), b.ising.field(i)) << "field " << i;
  ASSERT_EQ(a.ising.couplings().size(), b.ising.couplings().size());
  for (std::size_t k = 0; k < a.ising.couplings().size(); ++k) {
    EXPECT_EQ(a.ising.couplings()[k].i, b.ising.couplings()[k].i) << "edge " << k;
    EXPECT_EQ(a.ising.couplings()[k].j, b.ising.couplings()[k].j) << "edge " << k;
    EXPECT_EQ(a.ising.couplings()[k].g, b.ising.couplings()[k].g) << "edge " << k;
  }
  EXPECT_EQ(a.ising.offset(), b.ising.offset());
}

TEST(WarmStartPlannerTest, DeltaCompileEqualsFullRebuildBitForBit) {
  const wireless::Modulation mods[] = {
      wireless::Modulation::kBpsk, wireless::Modulation::kQpsk,
      wireless::Modulation::kQam16, wireless::Modulation::kQam64};
  for (const wireless::Modulation mod : mods) {
    Rng rng = Rng::for_stream(0xDE17A, static_cast<std::uint64_t>(mod));
    const std::size_t n = 4;
    const linalg::CMat h = wireless::rayleigh_channel(n, n, rng);
    const auto draw_y = [&] {
      linalg::CVec y(n);
      for (auto& v : y) v = linalg::cplx{rng.normal(), rng.normal()};
      return y;
    };
    const linalg::CVec y1 = draw_y();
    const linalg::CVec y2 = draw_y();

    // The reference reducer compile() mirrors: paper closed forms except
    // 64-QAM (which has none published).
    const auto reduce = [&](const linalg::CVec& y) {
      return mod == wireless::Modulation::kQam64
                 ? core::reduce_ml_to_ising(h, y, mod)
                 : core::reduce_ml_to_ising_closed_form(h, y, mod);
    };

    anneal::WarmStartPlanner planner;
    const core::MlProblem full1 = planner.compile(0, h, y1, mod, true);
    expect_problems_identical(full1, reduce(y1));
    EXPECT_EQ(planner.stats().full_compiles, 1u);

    // Same channel, new received vector: the delta path must be bit-equal
    // to reducing from scratch.
    const core::MlProblem delta2 = planner.compile(0, h, y2, mod, false);
    expect_problems_identical(delta2, reduce(y2));
    EXPECT_EQ(planner.stats().delta_compiles, 1u);

    // And back: the delta is not a one-way street within the block.
    const core::MlProblem delta1 = planner.compile(0, h, y1, mod, false);
    expect_problems_identical(delta1, reduce(y1));

    // channel_changed forces a full rebuild even with a warm cache.
    planner.compile(0, h, y2, mod, true);
    EXPECT_EQ(planner.stats().full_compiles, 2u);
    EXPECT_EQ(planner.stats().delta_compiles, 2u);
  }
}

TEST(WarmStartPlannerTest, UpdateMlFieldsMatchesFullReduceDirectly) {
  // The core-layer primitive on its own.  update_ml_fields reruns the exact
  // arithmetic of the MATCHING reducer (closed form for BPSK/QPSK/16-QAM,
  // the generic norm-expansion path for 64-QAM) — bit-equality only holds
  // against that reducer, which is the contract the planner relies on.
  const wireless::Modulation mods[] = {
      wireless::Modulation::kBpsk, wireless::Modulation::kQpsk,
      wireless::Modulation::kQam16, wireless::Modulation::kQam64};
  for (const wireless::Modulation mod : mods) {
    Rng rng = Rng::for_stream(0xF1E1D, static_cast<std::uint64_t>(mod));
    const std::size_t n = 3;
    const linalg::CMat h = wireless::rayleigh_channel(n, n, rng);
    linalg::CVec y1(n), y2(n);
    for (auto& v : y1) v = linalg::cplx{rng.normal(), rng.normal()};
    for (auto& v : y2) v = linalg::cplx{rng.normal(), rng.normal()};

    const auto reduce = [&](const linalg::CVec& y) {
      return mod == wireless::Modulation::kQam64
                 ? core::reduce_ml_to_ising(h, y, mod)
                 : core::reduce_ml_to_ising_closed_form(h, y, mod);
    };
    core::MlProblem updated = reduce(y1);
    core::update_ml_fields(updated, h, y2);
    expect_problems_identical(updated, reduce(y2));
    // Repeated application keeps converging on the same coefficients.
    core::update_ml_fields(updated, h, y1);
    expect_problems_identical(updated, reduce(y1));
  }
}

// ---------------------------------------------------------------------------
// Serving-path determinism.

serve::LoadConfig coherent_load(double coherence) {
  serve::LoadConfig cfg;
  cfg.arrivals = serve::ArrivalKind::kSubframe;
  cfg.subframe_period_us = 200.0;
  cfg.users = 3;
  cfg.deadline_us = 1200.0;
  cfg.problem.users = 8;
  cfg.problem.mod = wireless::Modulation::kBpsk;
  cfg.problem.kind = wireless::ChannelKind::kRayleigh;
  cfg.problem.snr_db = 12.0;
  cfg.coherence = coherence;
  return cfg;
}

serve::ServiceConfig warm_service(bool warm, std::size_t threads,
                                  std::size_t replicas,
                                  std::size_t devices = 1) {
  serve::ServiceConfig cfg;
  cfg.annealer.schedule.anneal_time_us = 1.0;
  cfg.annealer.schedule.pause_time_us = 0.0;
  cfg.annealer.batch_replicas = replicas;
  cfg.num_anneals = 16;
  cfg.num_devices = devices;
  cfg.num_threads = threads;
  cfg.program_overhead_us = 10.0;
  cfg.warm_start = warm;
  cfg.warm_num_anneals = warm ? 4 : 0;
  return cfg;
}

bool records_equal(const serve::JobRecord& a, const serve::JobRecord& b) {
  return a.job_id == b.job_id && a.user == b.user &&
         a.direction == b.direction && a.wave_id == b.wave_id &&
         a.arrival_us == b.arrival_us && a.dispatch_us == b.dispatch_us &&
         a.completion_us == b.completion_us && a.deadline_us == b.deadline_us &&
         a.dropped == b.dropped && a.bit_errors == b.bit_errors &&
         a.num_bits == b.num_bits && a.ground_state == b.ground_state;
}

void expect_reports_identical(const serve::ServiceReport& a,
                              const serve::ServiceReport& b,
                              const char* what) {
  EXPECT_EQ(a.stats.digest(), b.stats.digest()) << what;
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << what;
  for (std::size_t j = 0; j < a.jobs.size(); ++j)
    EXPECT_TRUE(records_equal(a.jobs[j], b.jobs[j]))
        << what << ": job " << j << " diverged";
  ASSERT_EQ(a.waves.size(), b.waves.size()) << what;
  for (std::size_t w = 0; w < a.waves.size(); ++w) {
    EXPECT_EQ(a.waves[w].warm, b.waves[w].warm) << what << ": wave " << w;
    EXPECT_EQ(a.waves[w].seeds, b.waves[w].seeds) << what << ": wave " << w;
    EXPECT_EQ(a.waves[w].dispatch_us, b.waves[w].dispatch_us)
        << what << ": wave " << w;
    EXPECT_EQ(a.waves[w].completion_us, b.waves[w].completion_us)
        << what << ": wave " << w;
  }
}

serve::ServiceReport run_warm(const serve::LoadConfig& load,
                              const serve::ServiceConfig& service,
                              std::size_t num_jobs) {
  serve::LoadGenerator gen(load, /*seed=*/0x7E57);
  return serve::DecodeService(service).run(gen.open_loop(num_jobs));
}

TEST(WarmStartServeTest, ColdStartBitCompatibleWithHistory) {
  // coherence = 0: no job has a predecessor, so warm_start=true must be a
  // pure no-op — same records, same waves, same digest as warm_start=false.
  serve::LoadConfig load = coherent_load(0.0);
  const serve::ServiceReport off = run_warm(load, warm_service(false, 2, 4), 24);
  const serve::ServiceReport on = run_warm(load, warm_service(true, 2, 4), 24);
  expect_reports_identical(off, on, "warm flag on incoherent load");
  EXPECT_EQ(on.stats.warm_waves(), 0u);
  for (const serve::Wave& wave : on.waves) EXPECT_FALSE(wave.warm);
}

TEST(WarmStartServeTest, WarmReportBitIdenticalAcrossThreadsAndReplicas) {
  const serve::LoadConfig load = coherent_load(0.9);
  const std::size_t num_jobs = 36;
  for (const std::size_t devices : {std::size_t{1}, std::size_t{2}}) {
    const serve::ServiceReport baseline =
        run_warm(load, warm_service(true, 1, 1, devices), num_jobs);
    // The warm path must actually engage: a coherent subframe workload at
    // this period leaves every non-boundary subframe a completed
    // predecessor.
    EXPECT_GT(baseline.stats.warm_waves(), 0u) << "devices=" << devices;
    EXPECT_GT(baseline.stats.warm_jobs(), 0u) << "devices=" << devices;

    const std::size_t combos[][2] = {{4, 3}, {2, 8}};
    for (const auto& combo : combos) {
      const serve::ServiceReport report = run_warm(
          load, warm_service(true, combo[0], combo[1], devices), num_jobs);
      expect_reports_identical(baseline, report, "threads x replicas");
    }
  }
}

TEST(WarmStartServeTest, WarmQuotaCutShowsInAnnealAccounting) {
  const serve::LoadConfig load = coherent_load(0.9);
  const serve::ServiceReport cold = run_warm(load, warm_service(false, 2, 4), 36);
  const serve::ServiceReport warm = run_warm(load, warm_service(true, 2, 4), 36);
  // Every warm wave is charged warm_num_anneals (4) instead of 16: the
  // aggregate anneal quota must drop, and the stats must say by how much.
  EXPECT_EQ(cold.stats.warm_waves(), 0u);
  EXPECT_GT(warm.stats.warm_waves(), 0u);
  EXPECT_LT(warm.stats.total_anneals(), cold.stats.total_anneals());
  const std::size_t expected = cold.stats.total_anneals() -
                               warm.stats.warm_waves() * (16u - 4u);
  EXPECT_EQ(warm.stats.total_anneals(), expected);
}

TEST(WarmStartServeTest, CoherentGenerationUsesDeltaCompiles) {
  serve::LoadGenerator gen(coherent_load(0.9), 0x7E57);
  const std::vector<serve::CellJob> jobs = gen.open_loop(30);
  EXPECT_EQ(jobs.size(), 30u);
  // rho = 0.9 => block length 10: chains recompile on block boundaries only.
  EXPECT_EQ(gen.coherence_block(), 10u);
  EXPECT_GT(gen.compile_stats().delta_compiles, 0u);
  EXPECT_GT(gen.compile_stats().full_compiles, 0u);
  EXPECT_EQ(gen.compile_stats().full_compiles +
                gen.compile_stats().delta_compiles,
            30u);

  // Predecessor structure: none in the first subframe, id - users after.
  EXPECT_FALSE(gen.predecessor(0).has_value());
  EXPECT_FALSE(gen.predecessor(2).has_value());
  ASSERT_TRUE(gen.predecessor(3).has_value());
  EXPECT_EQ(*gen.predecessor(3), 0u);
  ASSERT_TRUE(gen.predecessor(17).has_value());
  EXPECT_EQ(*gen.predecessor(17), 14u);
}

}  // namespace
}  // namespace quamax
