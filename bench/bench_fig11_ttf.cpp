// Regenerates Figure 11: Time-to-FER for different user counts, modulations
// and frame sizes (50-byte TCP-ACK up to 1,500-byte MTU), under the
// idealized median-Opt strategy (left panel) and QuAMax's mean-Fix (right).
//
// Shapes to reproduce: tens of microseconds reach FER below 1e-3 for
// 60-user BPSK / 18-user QPSK / 4-user 16-QAM, and sensitivity to frame
// size is LOW (the curves for 50 B and 1,500 B stay close).
//
// Each (class, jf) sweep decodes through the §4 multi-problem runtime
// (sim::run_instances, lane-local ChimeraAnnealers sharing one shape-keyed
// embedding cache) — output is bit-identical at any --threads setting.

#include <cstdio>
#include <string>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/common/stats.hpp"
#include "quamax/core/thread_pool.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/report.hpp"
#include "quamax/sim/runner.hpp"

int main(int argc, char** argv) {
  const std::size_t threads = quamax::sim::knob_count("--threads", argc, argv);
  const std::size_t replicas = quamax::sim::knob_count("--replicas", argc, argv);
  const auto accept_mode = quamax::sim::knob_accept_mode(argc, argv).value_or(
      quamax::anneal::AcceptMode::kExact);
  using namespace quamax;
  using wireless::Modulation;

  const std::size_t instances = sim::scaled(8);
  const std::size_t num_anneals = sim::scaled(1200);
  sim::print_banner("Time-to-FER vs frame size",
                    "Figure 11 (left: median Opt idealized, right: mean Fix)",
                    "instances = " + std::to_string(instances) +
                        ", anneals = " + std::to_string(num_anneals));

  const std::vector<std::pair<std::size_t, Modulation>> classes{
      {60, Modulation::kBpsk}, {18, Modulation::kQpsk}, {4, Modulation::kQam16}};
  const std::vector<std::size_t> frame_bytes{50, 200, 600, 1500};
  const std::vector<double> jf_grid{0.35, 0.5, 0.75};  // Opt searches these

  anneal::AnnealerConfig base;
  base.batch_replicas = replicas;
  base.accept_mode = accept_mode;
  base.schedule.anneal_time_us = 1.0;
  base.schedule.pause_time_us = 1.0;
  base.embed.improved_range = true;

  core::ThreadPool pool(threads);

  for (const auto& [users, mod] : classes) {
    Rng rng{0xF171 + users * 11 + static_cast<std::size_t>(mod)};
    std::vector<sim::Instance> insts;
    for (std::size_t i = 0; i < instances; ++i)
      insts.push_back(sim::make_instance(
          {.users = users, .mod = mod, .kind = {}, .snr_db = {}}, rng));

    // One run per (jf, instance); Fix = best median TTF at 1500 B.
    std::vector<std::vector<sim::RunOutcome>> runs;
    for (const double jf : jf_grid) {
      anneal::AnnealerConfig config = base;
      config.embed.jf = jf;
      runs.push_back(sim::run_instances(insts, config, pool, num_anneals, rng));
    }
    sim::SweepMatrix ttf_1500;
    for (const auto& row : runs) {
      std::vector<double> vals;
      for (const auto& outcome : row)
        vals.push_back(sim::outcome_ttf_us(outcome, 1e-4, 1500, 1 << 24)
                           .value_or(std::numeric_limits<double>::infinity()));
      ttf_1500.push_back(std::move(vals));
    }
    const std::size_t fix = sim::best_fixed_setting(ttf_1500);

    std::printf("\n%zu-user %s (Fix |J_F| = %.1f):\n", users,
                wireless::to_string(mod).c_str(), jf_grid[fix]);
    sim::print_columns({"frame bytes", "TTF(1e-4) Opt med", "TTF(1e-4) Fix mean",
                        "FER@20us Fix med", "FER@100us Fix med"});
    for (const std::size_t bytes : frame_bytes) {
      std::vector<double> opt_vals, fix_vals, fer20, fer100;
      for (std::size_t i = 0; i < instances; ++i) {
        double best = std::numeric_limits<double>::infinity();
        for (const auto& row : runs) {
          const auto ttf = sim::outcome_ttf_us(row[i], 1e-4, bytes, 1 << 24);
          if (ttf) best = std::min(best, *ttf);
        }
        opt_vals.push_back(best);
        fix_vals.push_back(
            sim::outcome_ttf_us(runs[fix][i], 1e-4, bytes, 1 << 24)
                .value_or(std::numeric_limits<double>::infinity()));
        fer20.push_back(sim::fer_at_time_us(runs[fix][i], 20.0, bytes));
        fer100.push_back(sim::fer_at_time_us(runs[fix][i], 100.0, bytes));
      }
      sim::print_row({std::to_string(bytes), sim::fmt_us(median(opt_vals)),
                      sim::fmt_us(mean(fix_vals)), sim::fmt_ber(median(fer20)),
                      sim::fmt_ber(median(fer100))});
    }
  }

  std::printf(
      "\nShape check vs the paper: tens of microseconds achieve FER below\n"
      "1e-3 for these classes, and TTF moves only mildly from 50-byte ACK\n"
      "frames to 1,500-byte MTU frames.\n");
  return 0;
}
