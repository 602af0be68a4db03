// Experiment-harness tests: instance construction (ground-state anchoring),
// run orchestration, and the Fix/Opt sweep aggregation logic of §5.3.2.

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/runner.hpp"

namespace quamax::sim {
namespace {

using wireless::Modulation;

TEST(InstanceTest, NoiseFreeGroundIsTransmittedConfiguration) {
  Rng rng{1};
  const ProblemClass cls{.users = 6, .mod = Modulation::kQpsk, .kind = {}, .snr_db = {}};
  const Instance inst = make_instance(cls, rng);
  EXPECT_TRUE(inst.ground_is_ml);
  EXPECT_DOUBLE_EQ(inst.ground_energy, inst.tx_energy);
  EXPECT_EQ(inst.num_vars(), 12u);
  // Absolute energy of the ground state is the zero residual.
  EXPECT_NEAR(inst.tx_energy + inst.problem.ising.offset(), 0.0, 1e-7);
}

TEST(InstanceTest, NoisyGroundComesFromSphereDecoderAndIsNoHigherThanTx) {
  Rng rng{2};
  const ProblemClass cls{.users = 6,
                         .mod = Modulation::kQpsk,
                         .kind = wireless::ChannelKind::kRayleigh,
                         .snr_db = 8.0};
  const Instance inst = make_instance(cls, rng, /*ml_oracle=*/true);
  EXPECT_TRUE(inst.ground_is_ml);
  // ML minimizes the metric, so its energy cannot exceed the transmitted
  // configuration's energy.
  EXPECT_LE(inst.ground_energy, inst.tx_energy + 1e-9);
}

TEST(InstanceTest, OracleCanBeDisabled) {
  Rng rng{3};
  const ProblemClass cls{.users = 4,
                         .mod = Modulation::kBpsk,
                         .kind = wireless::ChannelKind::kRayleigh,
                         .snr_db = 10.0};
  const Instance inst = make_instance(cls, rng, /*ml_oracle=*/false);
  EXPECT_FALSE(inst.ground_is_ml);
  EXPECT_DOUBLE_EQ(inst.ground_energy, inst.tx_energy);
}

TEST(RunnerTest, RunInstanceProducesAnchoredStats) {
  Rng rng{4};
  const ProblemClass cls{.users = 4, .mod = Modulation::kBpsk, .kind = {}, .snr_db = {}};
  const Instance inst = make_instance(cls, rng);

  anneal::AnnealerConfig config;
  config.schedule.anneal_time_us = 2.0;
  anneal::ChimeraAnnealer annealer(config);

  const RunOutcome outcome = run_instance(inst, annealer, 100, rng);
  EXPECT_EQ(outcome.stats.total_anneals(), 100u);
  EXPECT_DOUBLE_EQ(outcome.duration_us, 2.0);
  EXPECT_GT(outcome.parallel_factor, 1.0);
  // Noise-free 4-user BPSK is easy: the ground state shows up.
  EXPECT_GT(outcome.stats.p0(), 0.0);
  EXPECT_LT(outcome_tts_us(outcome), std::numeric_limits<double>::infinity());
}

TEST(RunnerTest, BruteForceOracleYieldsPerfectOutcome) {
  Rng rng{5};
  const ProblemClass cls{.users = 5, .mod = Modulation::kBpsk, .kind = {}, .snr_db = {}};
  const Instance inst = make_instance(cls, rng);
  anneal::BruteForceSampler oracle;
  const RunOutcome outcome = run_instance(inst, oracle, 4, rng);
  EXPECT_DOUBLE_EQ(outcome.stats.p0(), 1.0);
  EXPECT_DOUBLE_EQ(outcome.stats.expected_ber(1), 0.0);
  const auto ttb = outcome_ttb_us(outcome, 1e-6, 1 << 10);
  ASSERT_TRUE(ttb.has_value());
}

TEST(SweepTest, FixAndOptAggregation) {
  // 3 settings x 4 instances.
  const SweepMatrix matrix{
      {10.0, 20.0, 30.0, 40.0},   // median 25
      {15.0, 5.0, 50.0, 100.0},   // median 32.5
      {12.0, 18.0, 28.0, 200.0},  // median 23 -> Fix
  };
  EXPECT_EQ(best_fixed_setting(matrix), 2u);
  EXPECT_EQ(fix_values(matrix), matrix[2]);
  EXPECT_EQ(opt_per_instance(matrix), (std::vector<double>{10.0, 5.0, 28.0, 40.0}));
}

TEST(SweepTest, InfinitiesAreHandled) {
  const double inf = std::numeric_limits<double>::infinity();
  const SweepMatrix matrix{{inf, inf, inf}, {inf, 3.0, 5.0}};
  EXPECT_EQ(best_fixed_setting(matrix), 1u);  // median 5 beats median inf
  EXPECT_EQ(opt_per_instance(matrix), (std::vector<double>{inf, 3.0, 5.0}));
}

TEST(SweepTest, RaggedMatrixThrows) {
  EXPECT_THROW(opt_per_instance(SweepMatrix{{1.0, 2.0}, {1.0}}), InvalidArgument);
  EXPECT_THROW(best_fixed_setting(SweepMatrix{}), InvalidArgument);
}

TEST(EnvScaleTest, DefaultsAndOverrides) {
  ::unsetenv("QUAMAX_SCALE");
  EXPECT_DOUBLE_EQ(knob_number("QUAMAX_SCALE"), 1.0);
  EXPECT_EQ(scaled(10), 10u);

  ::setenv("QUAMAX_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(knob_number("QUAMAX_SCALE"), 0.25);
  EXPECT_EQ(scaled(10), 3u);   // rounded
  EXPECT_EQ(scaled(1), 1u);    // floored at 1

  ::setenv("QUAMAX_SCALE", "garbage", 1);
  EXPECT_THROW(scaled(10), InvalidArgument);
  ::unsetenv("QUAMAX_SCALE");
}

/// argv for the knob lookups (the strings outlive every call).
struct Argv {
  std::vector<std::string> args;
  std::vector<char*> ptrs;
  explicit Argv(std::vector<std::string> a) : args(std::move(a)) {
    args.insert(args.begin(), "bench");
    for (std::string& arg : args) ptrs.push_back(arg.data());
  }
  int argc() { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
};

/// A row's value read back as text, whatever its kind.
std::string read(const Knob& k, std::vector<std::string> args = {}) {
  Argv a(std::move(args));
  const std::string name(k.flag.empty() ? k.env : k.flag);
  switch (k.kind) {
    case KnobKind::kCount:
      return std::to_string(knob_count(name, a.argc(), a.argv()));
    case KnobKind::kNumber: {
      std::ostringstream out;
      out << knob_number(name, a.argc(), a.argv());
      return out.str();
    }
    case KnobKind::kSwitch:
      return knob_switch(name, a.argc(), a.argv()) ? "on" : "off";
    default:
      return knob_text(name, a.argc(), a.argv());
  }
}

TEST(KnobTableTest, EveryRowParsesFallsBackAndRejects) {
  for (const Knob& k : knob_table()) {
    SCOPED_TRACE(std::string(k.env));
    const std::string env(k.env), flag(k.flag);
    ::unsetenv(env.c_str());
    // A valid value, how it reads back, and the malformed ones per kind.
    std::string value = "alpha";
    std::vector<std::string> malformed;
    switch (k.kind) {
      case KnobKind::kCount:
        value = "2";
        malformed = {"-2", "lots", "2.5", "4097", ""};
        break;
      case KnobKind::kNumber:
        value = "0.5";
        malformed = {"inf", "nan", "-1", "half", ""};
        break;
      case KnobKind::kChoice:
        value = std::string(k.range.substr(k.range.rfind('|') + 1));
        malformed = {"bogus", ""};
        break;
      case KnobKind::kPath:
        value = "out.json";
        break;
      default:
        break;
    }
    const bool is_switch = k.kind == KnobKind::kSwitch;
    const std::string expected = is_switch ? "on" : value;
    EXPECT_EQ(read(k), is_switch ? "off" : std::string(k.fallback));

    // Environment fallback, and malformed environment values.
    ::setenv(env.c_str(), is_switch ? "1" : value.c_str(), 1);
    EXPECT_EQ(read(k), expected);
    for (const std::string& bad : malformed) {
      ::setenv(env.c_str(), bad.c_str(), 1);
      EXPECT_THROW(read(k), InvalidArgument) << "env '" << bad << "'";
    }
    if (flag.empty()) {
      ::unsetenv(env.c_str());
      continue;  // environment-only row
    }

    // Both flag spellings win over a malformed (or switched-off) variable.
    ::setenv(env.c_str(), malformed.empty() ? "0" : malformed[0].c_str(), 1);
    if (is_switch) {
      EXPECT_EQ(read(k), "off");
      EXPECT_EQ(read(k, {flag}), "on");
    } else {
      EXPECT_EQ(read(k, {flag, value}), expected);
      EXPECT_EQ(read(k, {flag + "=" + value}), expected);
      EXPECT_THROW(read(k, {flag}), InvalidArgument) << "missing value";
    }
    ::unsetenv(env.c_str());

    // Malformed flag values; an explicit empty path is malformed too.
    if (k.kind == KnobKind::kPath) malformed = {""};
    for (const std::string& bad : malformed) {
      EXPECT_THROW(read(k, {flag, bad}), InvalidArgument) << "'" << bad << "'";
      EXPECT_THROW(read(k, {flag + "=" + bad}), InvalidArgument);
    }

    // positional_args skips the flag in both spellings.
    const std::vector<std::string> spelled =
        is_switch ? std::vector<std::string>{"alpha", flag, "beta", "gamma"}
            : std::vector<std::string>{"alpha", flag, value, "beta",
                                       flag + "=" + value, "gamma"};
    Argv a(spelled);
    EXPECT_EQ(positional_args(a.argc(), a.argv()),
              (std::vector<std::string>{"alpha", "beta", "gamma"}));
  }
}

TEST(KnobTableTest, TypedGettersMapBoundsAndGuard) {
  ::unsetenv("QUAMAX_ACCEPT_MODE");
  EXPECT_EQ(knob_accept_mode(), std::nullopt);
  for (const auto mode :
       {anneal::AcceptMode::kExact, anneal::AcceptMode::kThreshold,
        anneal::AcceptMode::kThreshold32}) {
    Argv a({"--accept-mode", anneal::to_string(mode)});
    EXPECT_EQ(knob_accept_mode(a.argc(), a.argv()), mode);
  }
  // Interval edges: [1, 4096] excludes 0, [0, 1] closes, [0, 1) opens.
  Argv edges({"--replicas=0", "--devices=0", "--downlink=1", "--coherence=1"});
  EXPECT_THROW(knob_count("--replicas", edges.argc(), edges.argv()),
               InvalidArgument);
  EXPECT_THROW(knob_count("--devices", edges.argc(), edges.argv()),
               InvalidArgument);
  EXPECT_DOUBLE_EQ(knob_number("--downlink", edges.argc(), edges.argv()), 1.0);
  EXPECT_THROW(knob_number("--coherence", edges.argc(), edges.argv()),
               InvalidArgument);
  ::setenv("QUAMAX_SCALE", "0", 1);  // (0, inf) excludes 0
  EXPECT_THROW(knob_number("QUAMAX_SCALE"), InvalidArgument);
  ::unsetenv("QUAMAX_SCALE");

  EXPECT_THROW(knob_count("--no-such-knob"), InvalidArgument);
  EXPECT_THROW(knob_text("--threads"), InvalidArgument) << "wrong typed getter";
}

}  // namespace
}  // namespace quamax::sim
