// chimera::EmbeddingTemplate — the compile-once embedding.  embed() through
// a compiled template must reproduce, bit for bit, the per-problem compile
// it replaced (compact map, chain x chain coupler search, coalesce()); the
// reference below is that compile, kept verbatim as the oracle.  The wave
// embed must likewise reproduce per-slot embeds merged into one chip-wide
// model by the merge it replaced (reference_merge), and the wave unembed
// must reproduce per-slot unembeds of each slot's slice, tie coins
// included.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "quamax/chimera/embedding.hpp"
#include "quamax/chimera/embedding_cache.hpp"
#include "quamax/common/rng.hpp"
#include "quamax/core/reduction.hpp"
#include "quamax/vpp/precode.hpp"
#include "quamax/wireless/channel.hpp"

namespace quamax::chimera {
namespace {

/// The per-problem compile: Eqs. 10-12 onto a fresh compact map, then
/// IsingModel::coalesce().
EmbeddedProblem reference_embed(const qubo::IsingModel& logical,
                                const Embedding& embedding,
                                const ChimeraGraph& graph,
                                const EmbedParams& params) {
  EmbeddedProblem out;
  std::unordered_map<Qubit, std::uint32_t> compact;
  out.chains.resize(embedding.chains.size());
  for (std::size_t i = 0; i < embedding.chains.size(); ++i) {
    for (Qubit q : embedding.chains[i]) {
      auto [it, inserted] = compact.emplace(
          q, static_cast<std::uint32_t>(out.compact_to_qubit.size()));
      EXPECT_TRUE(inserted);
      out.compact_to_qubit.push_back(q);
      out.chains[i].push_back(it->second);
    }
  }
  out.physical = qubo::IsingModel(out.compact_to_qubit.size());
  const double max_coeff = logical.max_abs_coefficient();
  const double logical_scale = (max_coeff > 0.0) ? max_coeff : 1.0;
  out.logical_scales = {logical_scale};
  const double chain_coupling = params.improved_range ? -2.0 : -1.0;
  for (const auto& chain : out.chains)
    for (std::size_t c = 0; c + 1 < chain.size(); ++c)
      out.physical.add_coupling(chain[c], chain[c + 1], chain_coupling);
  for (std::size_t i = 0; i < logical.num_spins(); ++i) {
    const double share = logical.field(i) / logical_scale / params.jf /
                         static_cast<double>(out.chains[i].size());
    for (std::uint32_t q : out.chains[i]) out.physical.field(q) += share;
  }
  for (const qubo::Coupling& c : logical.couplings()) {
    if (c.g == 0.0) continue;
    bool placed = false;
    for (std::uint32_t a : out.chains[c.i]) {
      for (std::uint32_t b : out.chains[c.j]) {
        if (graph.has_coupler(out.compact_to_qubit[a], out.compact_to_qubit[b])) {
          out.physical.add_coupling(a, b, c.g / logical_scale / params.jf);
          placed = true;
          break;
        }
      }
      if (placed) break;
    }
    EXPECT_TRUE(placed);
  }
  out.physical.coalesce();
  return out;
}

/// Byte equality of everything embed() produces.
void expect_identical(const EmbeddedProblem& got, const EmbeddedProblem& want,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.compact_to_qubit, want.compact_to_qubit);
  EXPECT_EQ(got.chains, want.chains);
  ASSERT_EQ(got.logical_scales.size(), want.logical_scales.size());
  EXPECT_EQ(std::memcmp(got.logical_scales.data(), want.logical_scales.data(),
                        got.logical_scales.size() * sizeof(double)),
            0);
  EXPECT_EQ(got.physical.offset(), want.physical.offset());
  const auto& gf = got.physical.fields();
  const auto& wf = want.physical.fields();
  ASSERT_EQ(gf.size(), wf.size());
  EXPECT_EQ(std::memcmp(gf.data(), wf.data(), gf.size() * sizeof(double)), 0);
  const auto& gc = got.physical.couplings();
  const auto& wc = want.physical.couplings();
  ASSERT_EQ(gc.size(), wc.size());
  EXPECT_EQ(std::memcmp(gc.data(), wc.data(), gc.size() * sizeof(qubo::Coupling)),
            0);
}

/// The merge the wave scatter replaced: every slot's fields copied and its
/// coupling list re-added through add_coupling at the slot's offset, chains
/// shifted into the merged index space; qubit maps and scales concatenated.
EmbeddedProblem reference_merge(const std::vector<EmbeddedProblem>& embedded) {
  EmbeddedProblem wave;
  std::vector<std::size_t> offsets;
  std::size_t total_spins = 0;
  for (const EmbeddedProblem& ep : embedded) {
    offsets.push_back(total_spins);
    total_spins += ep.physical.num_spins();
  }
  wave.physical = qubo::IsingModel(total_spins);
  for (std::size_t s = 0; s < embedded.size(); ++s) {
    const EmbeddedProblem& ep = embedded[s];
    const std::size_t off = offsets[s];
    for (std::size_t i = 0; i < ep.physical.num_spins(); ++i)
      wave.physical.field(off + i) = ep.physical.field(i);
    for (const qubo::Coupling& c : ep.physical.couplings())
      wave.physical.add_coupling(off + c.i, off + c.j, c.g);
    for (const auto& chain : ep.chains) {
      std::vector<std::uint32_t> shifted;
      shifted.reserve(chain.size());
      for (const std::uint32_t q : chain)
        shifted.push_back(static_cast<std::uint32_t>(off + q));
      wave.chains.push_back(std::move(shifted));
    }
    wave.compact_to_qubit.insert(wave.compact_to_qubit.end(),
                                 ep.compact_to_qubit.begin(),
                                 ep.compact_to_qubit.end());
    wave.logical_scales.push_back(ep.logical_scales.at(0));
  }
  return wave;
}

/// Every slot of the chip's parallel tiling, each through its own compiled
/// template, with standard and improved range.
void expect_every_slot_identical(const qubo::IsingModel& logical,
                                 const ChimeraGraph& graph,
                                 const std::string& what) {
  const std::vector<Embedding> slots =
      find_parallel_embeddings(logical.num_spins(), graph.num_qubits(), graph);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const EmbeddingTemplate compiled = compile_embedding(slots[s], graph);
    for (const bool improved : {false, true}) {
      const EmbedParams params{.jf = 0.7, .improved_range = improved};
      expect_identical(embed(logical, compiled, params),
                       reference_embed(logical, slots[s], graph, params),
                       what + " slot " + std::to_string(s) +
                           (improved ? " improved" : " standard"));
    }
  }
}

TEST(EmbedTemplateTest, MlReductionsMatchThePerProblemCompile) {
  const ChimeraGraph pristine(16);
  const ChimeraGraph defective = ChimeraGraph::with_defects(16, 17, 123);
  const std::vector<std::pair<wireless::Modulation, std::size_t>> cases{
      {wireless::Modulation::kBpsk, 8},
      {wireless::Modulation::kQpsk, 8},
      {wireless::Modulation::kQam16, 4},
      {wireless::Modulation::kQam64, 3}};
  Rng rng{0x7E3A};
  for (const auto& [mod, users] : cases) {
    const auto use = wireless::make_channel_use(
        users, users, mod, wireless::ChannelKind::kRandomPhase, 20.0, rng);
    const core::MlProblem problem = core::reduce_ml_to_ising(use.h, use.y, mod);
    const std::string what = "mod " + std::to_string(static_cast<int>(mod));
    expect_every_slot_identical(problem.ising, pristine, what + " pristine");
    expect_every_slot_identical(problem.ising, defective, what + " defective");
  }
}

TEST(EmbedTemplateTest, QpskClosedFormOmitsSameUserPairsAndStillMatches) {
  // The closed form leaves the same-user I/Q pairs out: a sparse model
  // whose unused pattern slots must be dropped, not emitted as zeros.
  Rng rng{0x51DE};
  const auto use = wireless::make_channel_use(
      8, 8, wireless::Modulation::kQpsk, wireless::ChannelKind::kRandomPhase,
      20.0, rng);
  const core::MlProblem problem = core::reduce_ml_to_ising_closed_form(
      use.h, use.y, wireless::Modulation::kQpsk);
  EXPECT_LT(problem.ising.couplings().size(), 16u * 15u / 2u);
  expect_every_slot_identical(problem.ising, ChimeraGraph(16), "closed form");
}

TEST(EmbedTemplateTest, VppDownlinkProblemMatches) {
  Rng rng{0xD0E1};
  const vpp::PrecodeInstance instance =
      vpp::make_precode_instance(vpp::VppConfig{}, rng);  // 4 users, QPSK
  expect_every_slot_identical(instance.problem.ising, ChimeraGraph(16), "vpp");
  expect_every_slot_identical(instance.problem.ising,
                              ChimeraGraph::with_defects(16, 17, 7), "vpp defective");
}

TEST(EmbedTemplateTest, DuplicateAndZeroCouplingsSumAsCoalesceSums) {
  // Duplicates accumulate in input order; exact zeros are skipped; a pair
  // whose duplicates cancel exactly is dropped; a zero field stays zero.
  qubo::IsingModel logical(6);
  logical.field(0) = 0.75;
  logical.field(2) = -0.0;
  logical.field(5) = -1.25;
  logical.add_coupling(0, 1, 0.5);
  logical.add_coupling(1, 0, 0.25);  // duplicate, reversed order
  logical.add_coupling(2, 3, 0.0);
  logical.add_coupling(2, 4, -0.0);
  logical.add_coupling(3, 4, 0.3);
  logical.add_coupling(4, 3, -0.3);  // cancels to exactly zero
  logical.add_coupling(0, 5, 0.1);
  logical.add_coupling(0, 5, 0.2);
  logical.add_coupling(0, 5, 1e-300);  // below the sum's resolution
  expect_every_slot_identical(logical, ChimeraGraph(16), "duplicates");

  qubo::IsingModel empty(6);  // no couplings, all-zero fields
  expect_every_slot_identical(empty, ChimeraGraph(16), "empty");
}

TEST(EmbedTemplateTest, CacheTemplatesMatchFreshCompiles) {
  EmbeddingCache cache{ChimeraGraph::with_defects(16, 17, 123)};
  const auto slots = cache.parallel(16);
  const auto compiled = cache.parallel_templates(16);
  ASSERT_EQ(compiled->size(), slots->size());
  EXPECT_EQ(cache.parallel_templates(16), compiled);  // compiled once
  Rng rng{0xCAC4};
  qubo::IsingModel logical(16);
  for (std::size_t i = 0; i < 16; ++i) logical.field(i) = rng.normal();
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = i + 1; j < 16; ++j) logical.add_coupling(i, j, rng.normal());
  for (std::size_t s = 0; s < slots->size(); ++s)
    expect_identical(embed(logical, (*compiled)[s], EmbedParams{}),
                     reference_embed(logical, (*slots)[s], cache.graph(),
                                     EmbedParams{}),
                     "cached slot " + std::to_string(s));
  expect_identical(embed(logical, *cache.clique_template(16), EmbedParams{}),
                   reference_embed(logical, find_clique_embedding(16, cache.graph()),
                                   cache.graph(), EmbedParams{}),
                   "cached clique");
}

/// A dense logical problem whose couplings include exact zeros, a -0.0 and
/// a pair that cancels to exactly zero when `tricky`.
qubo::IsingModel wave_problem(std::size_t n, Rng& rng, bool tricky) {
  qubo::IsingModel m(n);
  for (std::size_t i = 0; i < n; ++i) m.field(i) = rng.normal();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) m.add_coupling(i, j, rng.normal());
  if (tricky) {
    m.field(1) = 0.0;
    m.add_coupling(0, 2, 0.0);
    m.add_coupling(3, 1, -0.0);
    for (const qubo::Coupling& c : std::vector<qubo::Coupling>(m.couplings()))
      if (c.i == 2 && c.j == 3) m.add_coupling(3, 2, -c.g);  // cancels exactly
  }
  return m;
}

/// The wave embed of `count` problems on the first `count` tiling slots
/// against per-slot reference embeds merged by reference_merge.
void expect_wave_identical(std::size_t n, std::size_t count,
                           const ChimeraGraph& graph, const std::string& what) {
  const std::vector<Embedding> tiling =
      find_parallel_embeddings(n, graph.num_qubits(), graph);
  ASSERT_LE(count, tiling.size()) << what;
  std::vector<EmbeddingTemplate> slots;
  for (const Embedding& e : tiling) slots.push_back(compile_embedding(e, graph));
  Rng rng{0x3A7E + count};
  std::vector<qubo::IsingModel> logical;
  for (std::size_t s = 0; s < count; ++s)
    logical.push_back(wave_problem(n, rng, s % 2 == 1));
  std::vector<const qubo::IsingModel*> problems;
  for (const auto& m : logical) problems.push_back(&m);
  for (const bool improved : {false, true}) {
    const EmbedParams params{.jf = 0.7, .improved_range = improved};
    std::vector<EmbeddedProblem> per_slot;
    for (std::size_t s = 0; s < count; ++s)
      per_slot.push_back(reference_embed(logical[s], tiling[s], graph, params));
    expect_identical(embed(problems, slots, params), reference_merge(per_slot),
                     what + " " + std::to_string(count) + " slots" +
                         (improved ? " improved" : " standard"));
  }
}

TEST(EmbedTemplateTest, WaveScatterMatchesPerSlotEmbedsMerged) {
  const ChimeraGraph pristine(16);
  const ChimeraGraph defective = ChimeraGraph::with_defects(16, 17, 123);
  for (const std::size_t n : {std::size_t{8}, std::size_t{12}, std::size_t{16}}) {
    const std::string what = std::to_string(n) + " variables";
    for (const ChimeraGraph* graph : {&pristine, &defective}) {
      const std::size_t full =
          find_parallel_embeddings(n, graph->num_qubits(), *graph).size();
      ASSERT_GT(full, 2u);
      const std::string chip = graph == &pristine ? " pristine" : " defective";
      expect_wave_identical(n, 1, *graph, what + chip);
      expect_wave_identical(n, full / 2 + 1, *graph, what + chip);
      expect_wave_identical(n, full, *graph, what + chip);
    }
  }
}

TEST(EmbedTemplateTest, WaveWithEmptyAndZeroProblemsMatches) {
  // All-zero slots between dense ones: no couplings but chain bonds, zero
  // fields, unit scale.
  const ChimeraGraph graph(8);
  const std::size_t n = 8;
  const std::vector<Embedding> tiling = find_parallel_embeddings(n, 64, graph);
  ASSERT_GE(tiling.size(), 3u);
  std::vector<EmbeddingTemplate> slots;
  for (const Embedding& e : tiling) slots.push_back(compile_embedding(e, graph));
  Rng rng{0x2E50};
  const qubo::IsingModel dense = wave_problem(n, rng, true);
  qubo::IsingModel zero(n);
  zero.add_coupling(0, 1, 0.0);
  const std::vector<const qubo::IsingModel*> problems{&zero, &dense, &zero};
  std::vector<EmbeddedProblem> per_slot;
  for (std::size_t s = 0; s < problems.size(); ++s)
    per_slot.push_back(reference_embed(*problems[s], tiling[s], graph, EmbedParams{}));
  expect_identical(embed(problems, slots, EmbedParams{}), reference_merge(per_slot),
                   "zero slots");
}

TEST(EmbedTemplateTest, WaveUnembedMatchesPerSlotUnembedTiesIncluded) {
  // 12 variables: chains of 4 qubits, so random configurations tie.
  for (const ChimeraGraph& graph :
       {ChimeraGraph(16), ChimeraGraph::with_defects(16, 17, 123)}) {
    const std::size_t n = 12;
    const std::vector<Embedding> tiling =
        find_parallel_embeddings(n, graph.num_qubits(), graph);
    std::vector<EmbeddingTemplate> slots;
    for (const Embedding& e : tiling) slots.push_back(compile_embedding(e, graph));
    Rng problem_rng{0x0E1B};
    std::vector<qubo::IsingModel> logical;
    for (std::size_t s = 0; s < slots.size(); ++s)
      logical.push_back(wave_problem(n, problem_rng, false));
    std::vector<const qubo::IsingModel*> problems;
    for (const auto& m : logical) problems.push_back(&m);
    const EmbeddedProblem wave = embed(problems, slots, EmbedParams{});
    std::vector<EmbeddedProblem> per_slot;
    for (std::size_t s = 0; s < slots.size(); ++s)
      per_slot.push_back(embed(logical[s], slots[s], EmbedParams{}));

    Rng spins{0x5917};
    std::size_t ties_seen = 0;
    for (int round = 0; round < 16; ++round) {
      qubo::SpinVec physical(wave.physical.num_spins());
      for (auto& v : physical) v = spins.coin() ? 1 : -1;
      Rng wave_rng{0x7135u + static_cast<unsigned>(round)};
      Rng slot_rng = wave_rng;
      std::size_t wave_broken = 0;
      const qubo::SpinVec got = unembed(physical, wave, wave_rng, &wave_broken);

      qubo::SpinVec want;
      std::size_t want_broken = 0;
      std::size_t offset = 0;
      for (const EmbeddedProblem& ep : per_slot) {
        const qubo::SpinVec slice(
            physical.begin() + static_cast<std::ptrdiff_t>(offset),
            physical.begin() +
                static_cast<std::ptrdiff_t>(offset + ep.physical.num_spins()));
        std::size_t broken = 0;
        const qubo::SpinVec l = unembed(slice, ep, slot_rng, &broken);
        want.insert(want.end(), l.begin(), l.end());
        want_broken += broken;
        offset += ep.physical.num_spins();
        for (const auto& chain : ep.chains) {
          int vote = 0;
          for (const std::uint32_t q : chain) vote += slice[q];
          ties_seen += vote == 0 ? 1 : 0;
        }
      }
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0) << round;
      EXPECT_EQ(wave_broken, want_broken) << round;
      EXPECT_EQ(wave_rng(), slot_rng()) << "tie coins drawn differently";
    }
    EXPECT_GT(ties_seen, 0u);
  }
}

/// Runs `call`, expecting InvalidArgument whose message contains `needle`.
template <typename Call>
void expect_located_error(Call call, const std::string& needle) {
  try {
    call();
    ADD_FAILURE() << "expected InvalidArgument containing '" << needle << "'";
  } catch (const InvalidArgument& err) {
    EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
        << err.what();
  }
}

TEST(EmbedTemplateTest, OverlappingChainsAreALocatedError) {
  const ChimeraGraph graph(2);
  Embedding embedding = find_clique_embedding(4, graph);
  embedding.chains[3].push_back(embedding.chains[0].front());
  expect_located_error([&] { compile_embedding(embedding, graph); },
                       "chains overlap");
  expect_located_error(
      [&] { embed(qubo::IsingModel(4), embedding, graph, EmbedParams{}); },
      "chains overlap");
}

TEST(EmbedTemplateTest, UncoupledPairIsALocatedErrorOnlyWhenNonzero) {
  // Two single-qubit chains on the same side of one cell share no coupler.
  const ChimeraGraph graph(2);
  Embedding embedding;
  embedding.num_logical = 2;
  embedding.chains = {{graph.qubit_id(0, 0, 0, 0)}, {graph.qubit_id(0, 0, 0, 1)}};
  const EmbeddingTemplate compiled = compile_embedding(embedding, graph);
  EXPECT_EQ(compiled.pair_slot[0 * 2 + 1], EmbeddingTemplate::kNoCoupler);

  qubo::IsingModel zero(2);
  zero.add_coupling(0, 1, 0.0);  // nothing to place: embeds fine
  EXPECT_TRUE(embed(zero, compiled, EmbedParams{}).physical.couplings().empty());

  qubo::IsingModel coupled(2);
  coupled.add_coupling(0, 1, 1.0);
  expect_located_error([&] { embed(coupled, compiled, EmbedParams{}); },
                       "no physical coupler");
}

TEST(EmbedTemplateTest, WaveNeedsACompiledSlotOfEachProblemsSize) {
  const ChimeraGraph graph(8);
  std::vector<EmbeddingTemplate> slots;
  for (const Embedding& e : find_parallel_embeddings(8, 2, graph))
    slots.push_back(compile_embedding(e, graph));
  const qubo::IsingModel eight(8);
  const qubo::IsingModel four(4);
  const std::vector<const qubo::IsingModel*> three{&eight, &eight, &eight};
  expect_located_error([&] { embed(three, slots, EmbedParams{}); },
                       "one compiled slot per problem");
  const std::vector<const qubo::IsingModel*> mixed{&eight, &four};
  expect_located_error([&] { embed(mixed, slots, EmbedParams{}); },
                       "does not match problem");
}

}  // namespace
}  // namespace quamax::chimera
