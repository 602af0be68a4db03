// Regenerates Figure 10: box-plot statistics of TTB at target BER 1e-6
// across instances, for different user counts and modulations (noise-free,
// pause enabled, Fix parameters).  Instances that cannot reach the target
// within the paper's 10 ms deadline are reported as "unreached" (the paper
// restricts the plot to instances that reach 1e-6 within 10 ms).
//
// Each class's instances decode through the §4 multi-problem runtime
// (sim::run_instances, lane-local ChimeraAnnealers sharing one shape-keyed
// embedding cache), as bench_fig9/fig15 do — output is bit-identical at any
// --threads setting.

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

  const std::size_t instances = sim::scaled(12);
  const std::size_t num_anneals = sim::scaled(1200);
  const double deadline_us = 10000.0;  // the paper's 10 ms cutoff
  sim::print_banner("TTB(1e-6) distributions",
                    "Figure 10 (box plots per user count and modulation)",
                    "instances = " + std::to_string(instances) +
                        ", anneals = " + std::to_string(num_anneals) +
                        ", 10 ms deadline");

  const std::vector<std::pair<std::size_t, Modulation>> classes{
      {36, Modulation::kBpsk}, {48, Modulation::kBpsk}, {60, Modulation::kBpsk},
      {12, Modulation::kQpsk}, {14, Modulation::kQpsk}, {16, Modulation::kQpsk},
      {18, Modulation::kQpsk}, {4, Modulation::kQam16}, {5, Modulation::kQam16}};

  anneal::AnnealerConfig config;
  config.batch_replicas = replicas;
  config.accept_mode = accept_mode;
  config.schedule.anneal_time_us = 1.0;
  config.schedule.pause_time_us = 1.0;
  config.embed.improved_range = true;
  config.embed.jf = 0.5;

  core::ThreadPool pool(threads);

  sim::print_columns({"class", "p5", "q1", "median", "q3", "p95", "reached"});
  for (const auto& [users, mod] : classes) {
    Rng rng{0xF170 + users * 7 + static_cast<std::size_t>(mod)};
    std::vector<sim::Instance> insts;
    for (std::size_t i = 0; i < instances; ++i)
      insts.push_back(sim::make_instance(
          {.users = users, .mod = mod, .kind = {}, .snr_db = {}}, rng));
    const std::vector<sim::RunOutcome> outcomes =
        sim::run_instances(insts, config, pool, num_anneals, rng);
    std::vector<double> ttb_reached;
    std::size_t reached = 0;
    for (const sim::RunOutcome& outcome : outcomes) {
      const auto ttb = sim::outcome_ttb_us(outcome, 1e-6, 1 << 24);
      if (ttb && *ttb <= deadline_us) {
        ttb_reached.push_back(*ttb);
        ++reached;
      }
    }
    if (ttb_reached.empty()) {
      sim::print_row({std::to_string(users) + "u " + wireless::to_string(mod),
                      "-", "-", "-", "-", "-", "0/" + std::to_string(instances)});
      continue;
    }
    const Summary s = summarize(ttb_reached);
    sim::print_row({std::to_string(users) + "u " + wireless::to_string(mod),
                    sim::fmt_us(s.p05), sim::fmt_us(s.p25), sim::fmt_us(s.median),
                    sim::fmt_us(s.p75), sim::fmt_us(s.p95),
                    std::to_string(reached) + "/" + std::to_string(instances)});
  }

  std::printf(
      "\nShape check vs the paper: medians sit in the microsecond decades and\n"
      "rise with users/modulation; instances whose TTB falls below the\n"
      "amortized minimum (Ta + Tp = 2 us) are enabled by parallelization;\n"
      "these ML sizes are beyond the Sphere Decoder practicality of Table 1.\n");
  return 0;
}
