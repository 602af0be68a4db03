// Ising/QUBO model tests: energy evaluation, the Eq. 4 equivalence with
// exact offset tracking, and the brute-force oracle.

#include <gtest/gtest.h>

#include "quamax/common/rng.hpp"
#include "quamax/qubo/ising.hpp"

namespace quamax::qubo {
namespace {

IsingModel random_ising(std::size_t n, double density, Rng& rng) {
  IsingModel m(n);
  for (std::size_t i = 0; i < n; ++i) m.field(i) = rng.normal();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.uniform() < density) m.add_coupling(i, j, rng.normal());
  m.set_offset(rng.normal());
  return m;
}

template <typename Visitor>
void for_all_configs(std::size_t n, Visitor visit) {
  SpinVec spins(n);
  for (std::uint64_t code = 0; code < (1ull << n); ++code) {
    for (std::size_t i = 0; i < n; ++i) spins[i] = ((code >> i) & 1) ? 1 : -1;
    visit(spins);
  }
}

TEST(IsingModelTest, EnergyOfKnownTwoSpinSystem) {
  // E = s1 s2 - s1 + 2 s2.
  IsingModel m(2);
  m.field(0) = -1.0;
  m.field(1) = 2.0;
  m.add_coupling(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(m.energy(SpinVec{+1, +1}), 1.0 - 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(m.energy(SpinVec{+1, -1}), -1.0 - 1.0 - 2.0);
  EXPECT_DOUBLE_EQ(m.energy(SpinVec{-1, +1}), -1.0 + 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(m.energy(SpinVec{-1, -1}), 1.0 + 1.0 - 2.0);
}

TEST(IsingModelTest, CouplingOrderIsNormalized) {
  IsingModel m(3);
  m.add_coupling(2, 0, 1.5);
  ASSERT_EQ(m.couplings().size(), 1u);
  EXPECT_EQ(m.couplings()[0].i, 0u);
  EXPECT_EQ(m.couplings()[0].j, 2u);
}

TEST(IsingModelTest, SelfCouplingThrows) {
  IsingModel m(3);
  EXPECT_THROW(m.add_coupling(1, 1, 1.0), InvalidArgument);
  EXPECT_THROW(m.add_coupling(0, 3, 1.0), InvalidArgument);
}

TEST(IsingModelTest, AdoptedCouplingsMustBeNormalized) {
  const IsingModel m({0.5, -1.0, 0.0}, {{0, 2, 1.5}});
  EXPECT_EQ(m.num_spins(), 3u);
  EXPECT_EQ(m.field(1), -1.0);
  ASSERT_EQ(m.couplings().size(), 1u);
  EXPECT_EQ(m.couplings()[0].g, 1.5);
  EXPECT_THROW(IsingModel({0.0, 0.0, 0.0}, {{2, 0, 1.0}}), InvalidArgument);
  EXPECT_THROW(IsingModel({0.0, 0.0, 0.0}, {{1, 1, 1.0}}), InvalidArgument);
  EXPECT_THROW(IsingModel({0.0, 0.0, 0.0}, {{0, 3, 1.0}}), InvalidArgument);
}

TEST(IsingModelTest, CoalesceMergesDuplicates) {
  IsingModel m(2);
  m.add_coupling(0, 1, 1.0);
  m.add_coupling(1, 0, 2.0);
  m.add_coupling(0, 1, -3.0);
  m.coalesce();
  EXPECT_TRUE(m.couplings().empty());  // 1 + 2 - 3 == 0 is dropped
}

TEST(IsingModelTest, MaxAbsCoefficient) {
  IsingModel m(3);
  m.field(0) = -0.5;
  m.field(2) = 2.5;
  m.add_coupling(0, 1, -3.0);
  EXPECT_DOUBLE_EQ(m.max_abs_coefficient(), 3.0);
}

TEST(QuboModelTest, EnergyOfKnownSystem) {
  // E = 2 q1 - q2 + 3 q1 q2.
  QuboModel m(2);
  m.diagonal(0) = 2.0;
  m.diagonal(1) = -1.0;
  m.add_offdiagonal(0, 1, 3.0);
  EXPECT_DOUBLE_EQ(m.energy(BinVec{0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(m.energy(BinVec{1, 0}), 2.0);
  EXPECT_DOUBLE_EQ(m.energy(BinVec{0, 1}), -1.0);
  EXPECT_DOUBLE_EQ(m.energy(BinVec{1, 1}), 4.0);
}

TEST(ConversionTest, SpinBitMappingIsEq4) {
  // q_i = (s_i + 1)/2: spin +1 <-> bit 1.
  EXPECT_EQ(spins_from_bits(BinVec{0, 1, 1, 0}), (SpinVec{-1, 1, 1, -1}));
  EXPECT_EQ(bits_from_spins(SpinVec{1, -1, 1}), (BinVec{1, 0, 1}));
}

class RoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RoundTripTest, QuboToIsingPreservesAbsoluteEnergy) {
  Rng rng{100 + GetParam()};
  const std::size_t n = GetParam();
  QuboModel q(n);
  for (std::size_t i = 0; i < n; ++i) q.diagonal(i) = rng.normal();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.coin()) q.add_offdiagonal(i, j, rng.normal());
  q.set_offset(rng.normal());

  const IsingModel ising = to_ising(q);
  for_all_configs(n, [&](const SpinVec& spins) {
    EXPECT_NEAR(q.absolute_energy(bits_from_spins(spins)),
                ising.absolute_energy(spins), 1e-10);
  });
}

TEST_P(RoundTripTest, IsingToQuboPreservesAbsoluteEnergy) {
  Rng rng{200 + GetParam()};
  const std::size_t n = GetParam();
  const IsingModel ising = random_ising(n, 0.7, rng);
  const QuboModel q = to_qubo(ising);
  for_all_configs(n, [&](const SpinVec& spins) {
    EXPECT_NEAR(ising.absolute_energy(spins),
                q.absolute_energy(bits_from_spins(spins)), 1e-10);
  });
}

TEST_P(RoundTripTest, DoubleRoundTripIsExact) {
  Rng rng{300 + GetParam()};
  const std::size_t n = GetParam();
  const IsingModel original = random_ising(n, 0.5, rng);
  const IsingModel round_tripped = to_ising(to_qubo(original));
  for_all_configs(n, [&](const SpinVec& spins) {
    EXPECT_NEAR(original.absolute_energy(spins),
                round_tripped.absolute_energy(spins), 1e-10);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, RoundTripTest, ::testing::Values(1u, 2u, 3u, 5u, 8u, 12u));

TEST(BruteForceTest, FindsKnownGroundState) {
  // Ferromagnetic chain with a field pinning spin 0 to -1: ground state all -1.
  IsingModel m(4);
  m.field(0) = 1.0;  // positive field prefers -1
  for (std::size_t i = 0; i + 1 < 4; ++i) m.add_coupling(i, i + 1, -1.0);
  const GroundState gs = brute_force_ground_state(m);
  EXPECT_EQ(gs.spins, (SpinVec{-1, -1, -1, -1}));
  EXPECT_DOUBLE_EQ(gs.energy, -1.0 - 3.0);
  EXPECT_EQ(gs.degeneracy, 1u);
}

TEST(BruteForceTest, CountsDegeneracy) {
  // No fields, one ferromagnetic bond: both aligned states are ground.
  IsingModel m(2);
  m.add_coupling(0, 1, -1.0);
  const GroundState gs = brute_force_ground_state(m);
  EXPECT_DOUBLE_EQ(gs.energy, -1.0);
  EXPECT_EQ(gs.degeneracy, 2u);
}

TEST(BruteForceTest, MatchesExhaustiveScan) {
  Rng rng{400};
  const IsingModel m = random_ising(10, 0.6, rng);
  const GroundState gs = brute_force_ground_state(m);
  double best = 1e300;
  for_all_configs(10, [&](const SpinVec& spins) {
    best = std::min(best, m.energy(spins));
  });
  EXPECT_NEAR(gs.energy, best, 1e-12);
  EXPECT_NEAR(m.energy(gs.spins), best, 1e-12);
}

TEST(BruteForceTest, GuardsAgainstHugeProblems) {
  EXPECT_THROW(brute_force_ground_state(IsingModel(27)), InvalidArgument);
}

}  // namespace
}  // namespace quamax::qubo
