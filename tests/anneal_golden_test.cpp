// Golden pins for ChimeraAnnealer's decode output.
//
// Each scenario decodes fixed random Ising problems through the embedded
// pipeline (embed, ICE, SA kernel, majority-vote unembed) and hashes every
// returned spin with FNV-1a, plus last_broken_chain_fraction() where the
// call sets it.  The hash must equal a recorded constant, so a rewrite of
// the anneal loop that changes any sample, any tie coin or the broken-chain
// count fails here even when it changes sample() and sample_batch() alike.
//
// The scenarios cover sample() on a pristine chip and on a defective chip
// whose clique placement is not the first slot of the parallel tiling, the
// exact and threshold32 accept modes with ICE on and off, reverse annealing
// from set_initial_state(), discard_broken_chain_samples, a sample_batch()
// call of more problems than one wave holds, and sample_batch_seeded().
//
// A constant may only change together with a deliberate, documented change
// of decode behaviour.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/common/rng.hpp"

namespace quamax::anneal {
namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void samples(const std::vector<qubo::SpinVec>& set) {
    u64(set.size());
    for (const qubo::SpinVec& s : set) {
      u64(s.size());
      bytes(s.data(), s.size());
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

/// A fully-connected problem with Gaussian fields and couplings.
qubo::IsingModel random_problem(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  qubo::IsingModel m(n);
  for (std::size_t i = 0; i < n; ++i) m.field(i) = rng.normal();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) m.add_coupling(i, j, rng.normal());
  return m;
}

/// A logical seed state for reverse annealing.
qubo::SpinVec random_state(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  qubo::SpinVec s(n);
  for (auto& v : s) v = rng.coin() ? 1 : -1;
  return s;
}

constexpr std::size_t kVars = 12;
constexpr std::size_t kAnneals = 24;

/// Short anneals (32 sweeps) and three replicas per block, so chains break
/// and replica blocks split unevenly.
AnnealerConfig base_config() {
  AnnealerConfig cfg;
  cfg.schedule.anneal_time_us = 1.0;
  cfg.batch_replicas = 3;
  cfg.num_threads = 2;
  return cfg;
}

/// The defective chip: its clique placement for kVars variables lies off
/// the parallel tiling's grid.
AnnealerConfig defective_config() {
  AnnealerConfig cfg = base_config();
  cfg.chip_defects = 17;
  cfg.chip_seed = 123;
  return cfg;
}

/// sample() once on problem `seed`, hashing the samples and the
/// broken-chain fraction.
std::uint64_t sample_hash(const AnnealerConfig& cfg, std::uint64_t seed) {
  ChimeraAnnealer annealer(cfg);
  Rng rng{seed ^ 0xA11EA1ull};
  Fnv1a h;
  h.samples(annealer.sample(random_problem(kVars, seed), kAnneals, rng));
  h.f64(annealer.last_broken_chain_fraction());
  return h.value();
}

struct Scenario {
  std::string name;
  std::function<std::uint64_t()> run;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  for (const AcceptMode mode : {AcceptMode::kExact, AcceptMode::kThreshold32})
    for (const bool ice : {true, false}) {
      AnnealerConfig cfg = base_config();
      cfg.accept_mode = mode;
      cfg.ice.enabled = ice;
      out.push_back({std::string("sample/") + to_string(mode) +
                         (ice ? "/ice" : "/noice"),
                     [cfg] { return sample_hash(cfg, 11); }});
    }
  out.push_back({"sample/defective",
                 [] { return sample_hash(defective_config(), 12); }});
  out.push_back({"sample/defective/improved", [] {
                   AnnealerConfig cfg = defective_config();
                   cfg.embed.improved_range = true;
                   return sample_hash(cfg, 13);
                 }});
  out.push_back({"sample/reverse", [] {
                   AnnealerConfig cfg = base_config();
                   cfg.schedule.reverse = true;
                   cfg.schedule.reverse_depth = 0.6;
                   ChimeraAnnealer annealer(cfg);
                   annealer.set_initial_state(random_state(kVars, 14));
                   Rng rng{14};
                   Fnv1a h;
                   h.samples(annealer.sample(random_problem(kVars, 14), kAnneals, rng));
                   h.f64(annealer.last_broken_chain_fraction());
                   return h.value();
                 }});
  out.push_back({"sample/discard_broken", [] {
                   AnnealerConfig cfg = base_config();
                   cfg.embed.jf = 1.0;  // a few percent of chains break
                   cfg.discard_broken_chain_samples = true;
                   ChimeraAnnealer annealer(cfg);
                   Rng rng{15};
                   const auto kept =
                       annealer.sample(random_problem(kVars, 15), kAnneals, rng);
                   EXPECT_GT(kept.size(), 0u);
                   EXPECT_LT(kept.size(), kAnneals);
                   Fnv1a h;
                   h.samples(kept);
                   h.f64(annealer.last_broken_chain_fraction());
                   return h.value();
                 }});
  // C8 holds 4 slots of 12 variables: 6 problems are a full wave and a
  // partial one.
  const auto batch_problems = [] {
    std::vector<qubo::IsingModel> problems;
    for (std::uint64_t p = 0; p < 6; ++p)
      problems.push_back(random_problem(kVars, 100 + p));
    return problems;
  };
  out.push_back({"sample_batch/two_waves", [batch_problems] {
                   AnnealerConfig cfg = base_config();
                   cfg.chip_size = 8;
                   ChimeraAnnealer annealer(cfg);
                   EXPECT_EQ(annealer.embedding_cache()->capacity(kVars), 4u);
                   const std::vector<qubo::IsingModel> problems = batch_problems();
                   std::vector<const qubo::IsingModel*> ptrs;
                   for (const auto& p : problems) ptrs.push_back(&p);
                   Rng rng{16};
                   Fnv1a h;
                   for (const auto& set : annealer.sample_batch(ptrs, kAnneals, rng))
                     h.samples(set);
                   return h.value();
                 }});
  out.push_back({"sample_batch_seeded", [batch_problems] {
                   AnnealerConfig cfg = base_config();
                   cfg.chip_size = 8;
                   cfg.accept_mode = AcceptMode::kThreshold32;
                   ChimeraAnnealer annealer(cfg);
                   const std::vector<qubo::IsingModel> problems = batch_problems();
                   std::vector<qubo::SpinVec> seeds;
                   for (std::uint64_t p = 0; p < problems.size(); ++p)
                     seeds.push_back(random_state(kVars, 200 + p));
                   std::vector<const qubo::IsingModel*> ptrs;
                   std::vector<const qubo::SpinVec*> seed_ptrs;
                   for (std::size_t p = 0; p < problems.size(); ++p) {
                     ptrs.push_back(&problems[p]);
                     seed_ptrs.push_back(&seeds[p]);
                   }
                   Schedule reverse = cfg.schedule;
                   reverse.reverse = true;
                   reverse.reverse_depth = 0.6;
                   Rng rng{17};
                   Fnv1a h;
                   for (const auto& set : annealer.sample_batch_seeded(
                            ptrs, seed_ptrs, reverse, kAnneals, rng))
                     h.samples(set);
                   return h.value();
                 }});
  return out;
}

/// Recorded constants, in scenarios() order.
constexpr std::uint64_t kGolden[] = {
    0x1565E4A97EE05D6Full,  // sample/exact/ice
    0xA22AC373F79F6D49ull,  // sample/exact/noice
    0x1B3355F57FC5C683ull,  // sample/threshold32/ice
    0xAFE9877C89FDD866ull,  // sample/threshold32/noice
    0x3FC5B5765FB9D736ull,  // sample/defective
    0xFE85C9847B3C93A3ull,  // sample/defective/improved
    0x95F460EB9F67E3BFull,  // sample/reverse
    0xB5CA29FA92E164AFull,  // sample/discard_broken
    0x43DE6A80F46B215Bull,  // sample_batch/two_waves
    0x6F3A058E1A1458A3ull,  // sample_batch_seeded
};

TEST(AnnealGoldenTest, DefectiveCliqueIsNotTheFirstTilingSlot) {
  ChimeraAnnealer annealer(defective_config());
  const auto& cache = annealer.embedding_cache();
  EXPECT_NE(cache->clique_template(kVars)->compact_to_qubit,
            cache->parallel_templates(kVars)->front().compact_to_qubit);
}

TEST(AnnealGoldenTest, SamplesMatchRecordedHashes) {
  const std::vector<Scenario> all = scenarios();
  ASSERT_EQ(all.size(), sizeof kGolden / sizeof kGolden[0]);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::uint64_t got = all[i].run();
    char hex[24];
    std::snprintf(hex, sizeof hex, "0x%016llX",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, kGolden[i]) << all[i].name << " hashed " << hex;
  }
}

}  // namespace
}  // namespace quamax::anneal
