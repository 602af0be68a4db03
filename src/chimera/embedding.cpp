#include "quamax/chimera/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "quamax/obs/profile.hpp"

namespace quamax::chimera {
namespace {

/// Builds the triangle embedding at a given placement offset, or returns an
/// empty optional-like (empty chains) if a required qubit is defective.
/// Groups hold `shore` logical variables per diagonal cell, so chains have
/// ceil(N/shore)+1 qubits (= ceil(N/4)+1 on the 2000Q, ceil(N/12)+1 on the
/// §8 next-generation chip).
bool try_build(std::size_t num_logical, const ChimeraGraph& graph,
               std::size_t row0, std::size_t col0, Embedding& out) {
  const std::size_t shore = graph.shore_size();
  const std::size_t groups = (num_logical + shore - 1) / shore;
  if (row0 + groups > graph.grid_size() || col0 + groups > graph.grid_size())
    return false;

  out.num_logical = num_logical;
  out.chains.assign(num_logical, {});

  for (std::size_t logical = 0; logical < num_logical; ++logical) {
    const std::size_t d = logical / shore;
    const int k = static_cast<int>(logical % shore);
    std::vector<Qubit>& chain = out.chains[logical];

    // Horizontal run along row d: cells [d, 0..d].
    for (std::size_t e = 0; e <= d; ++e)
      chain.push_back(graph.qubit_id(row0 + d, col0 + e, 1, k));
    // Vertical run down column d: cells [d..groups-1, d].
    for (std::size_t r = d; r < groups; ++r)
      chain.push_back(graph.qubit_id(row0 + r, col0 + d, 0, k));

    for (Qubit q : chain)
      if (!graph.is_working(q)) return false;
  }
  return true;
}

}  // namespace

Embedding find_clique_embedding(std::size_t num_logical, const ChimeraGraph& graph) {
  require(num_logical >= 1, "find_clique_embedding: need at least one variable");
  const std::size_t shore = graph.shore_size();
  const std::size_t groups = (num_logical + shore - 1) / shore;
  if (groups > graph.grid_size())
    throw CapacityError(
        "find_clique_embedding: problem needs " + std::to_string(groups) +
        " cell rows but the chip is C" + std::to_string(graph.grid_size()));

  const std::size_t slack = graph.grid_size() - groups;
  Embedding embedding;
  for (std::size_t row0 = 0; row0 <= slack; ++row0)
    for (std::size_t col0 = 0; col0 <= slack; ++col0)
      if (try_build(num_logical, graph, row0, col0, embedding)) return embedding;

  throw CapacityError(
      "find_clique_embedding: no defect-free placement exists for " +
      std::to_string(num_logical) + " logical qubits");
}

std::vector<Embedding> find_parallel_embeddings(std::size_t num_logical,
                                                std::size_t count,
                                                const ChimeraGraph& graph) {
  require(count >= 1, "find_parallel_embeddings: need at least one copy");
  const std::size_t shore = graph.shore_size();
  const std::size_t groups = (num_logical + shore - 1) / shore;
  if (groups > graph.grid_size())
    throw CapacityError(
        "find_parallel_embeddings: a single instance does not fit the chip");

  // Tile the grid with groups x groups cell blocks, row-major.
  std::vector<Embedding> out;
  const std::size_t blocks_per_side = graph.grid_size() / groups;
  for (std::size_t bi = 0; bi < blocks_per_side && out.size() < count; ++bi) {
    for (std::size_t bj = 0; bj < blocks_per_side && out.size() < count; ++bj) {
      Embedding embedding;
      if (try_build(num_logical, graph, bi * groups, bj * groups, embedding))
        out.push_back(std::move(embedding));
    }
  }
  if (out.empty())
    throw CapacityError(
        "find_parallel_embeddings: no defect-free placement exists");
  return out;
}

EmbeddingTemplate compile_embedding(const Embedding& embedding,
                                    const ChimeraGraph& graph) {
  const std::size_t n = embedding.num_logical;
  require(embedding.chains.size() == n,
          "embed: the embedding needs one chain per logical variable");

  // Compact physical index space, in chain order.
  EmbeddingTemplate out;
  out.num_logical = n;
  std::unordered_map<Qubit, std::uint32_t> compact;
  out.chains.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (Qubit q : embedding.chains[i]) {
      auto [it, inserted] =
          compact.emplace(q, static_cast<std::uint32_t>(out.compact_to_qubit.size()));
      require(inserted, "embed: chains overlap on a physical qubit");
      out.compact_to_qubit.push_back(q);
      out.chains[i].push_back(it->second);
    }
  }

  // Eq. 10's chain bonds, then Eq. 12's coupler for each logical pair: the
  // first chain-i x chain-j pair the chip couples.
  const auto edge = [](std::uint32_t a, std::uint32_t b) {
    return qubo::Coupling{std::min(a, b), std::max(a, b), 0.0};
  };
  std::vector<qubo::Coupling> bonds;
  for (const auto& chain : out.chains)
    for (std::size_t c = 0; c + 1 < chain.size(); ++c)
      bonds.push_back(edge(chain[c], chain[c + 1]));
  // pair_slot holds each pair's index into `pairs` until the pattern exists.
  std::vector<qubo::Coupling> pairs;
  out.pair_slot.assign(n * n, EmbeddingTemplate::kNoCoupler);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      bool placed = false;
      for (std::uint32_t a : out.chains[i]) {
        for (std::uint32_t b : out.chains[j]) {
          if (graph.has_coupler(out.compact_to_qubit[a], out.compact_to_qubit[b])) {
            out.pair_slot[i * n + j] = static_cast<std::uint32_t>(pairs.size());
            pairs.push_back(edge(a, b));
            placed = true;
            break;
          }
        }
        if (placed) break;
      }
    }
  }

  // The coalesced order: sorted by (i, j).  Chains are disjoint paths, so
  // every bond and every pair's coupler is a distinct edge.
  const auto before = [](const qubo::Coupling& x, const qubo::Coupling& y) {
    return x.i != y.i ? x.i < y.i : x.j < y.j;
  };
  out.pattern = bonds;
  out.pattern.insert(out.pattern.end(), pairs.begin(), pairs.end());
  std::sort(out.pattern.begin(), out.pattern.end(), before);
  const auto slot_of = [&](const qubo::Coupling& e) {
    return static_cast<std::uint32_t>(
        std::lower_bound(out.pattern.begin(), out.pattern.end(), e, before) -
        out.pattern.begin());
  };
  for (const qubo::Coupling& e : bonds) out.bond_slots.push_back(slot_of(e));
  for (std::uint32_t& s : out.pair_slot)
    if (s != EmbeddingTemplate::kNoCoupler) s = slot_of(pairs[s]);
  return out;
}

EmbeddedProblem embed(std::span<const qubo::IsingModel* const> problems,
                      std::span<const EmbeddingTemplate> slots,
                      const EmbedParams& params) {
  QUAMAX_PROF_SCOPE("chimera.embed");
  require(!problems.empty() && problems.size() <= slots.size(),
          "embed: need one compiled slot per problem");
  require(params.jf > 0.0, "embed: |J_F| must be positive");
  const double chain_coupling = params.improved_range ? -2.0 : -1.0;

  EmbeddedProblem out;
  std::size_t num_qubits = 0;
  std::size_t num_couplers = 0;
  for (std::size_t s = 0; s < problems.size(); ++s) {
    num_qubits += slots[s].compact_to_qubit.size();
    num_couplers += slots[s].pattern.size();
  }
  out.compact_to_qubit.reserve(num_qubits);
  out.chains.reserve(problems.size() * slots[0].chains.size());
  out.logical_scales.reserve(problems.size());
  std::vector<double> fields(num_qubits, 0.0);
  std::vector<qubo::Coupling> couplings;
  couplings.reserve(num_couplers);
  std::vector<double> values;  // per pattern entry

  for (std::size_t s = 0; s < problems.size(); ++s) {
    const qubo::IsingModel& logical = *problems[s];
    const EmbeddingTemplate& compiled = slots[s];
    const std::size_t n = compiled.num_logical;
    require(n == logical.num_spins(),
            "embed: embedding size does not match problem");
    const auto first = static_cast<std::uint32_t>(out.compact_to_qubit.size());
    out.compact_to_qubit.insert(out.compact_to_qubit.end(),
                                compiled.compact_to_qubit.begin(),
                                compiled.compact_to_qubit.end());
    for (const auto& chain : compiled.chains) {
      std::vector<std::uint32_t>& shifted = out.chains.emplace_back(chain);
      for (std::uint32_t& q : shifted) q += first;
    }

    // Dynamic-range normalization: the chip programs couplings in [-1, +1]
    // (negative end doubled to -2 with improved range), so each logical
    // problem is rescaled to unit max |coefficient| before Eqs. 10-12
    // divide by |J_F|.
    const double max_coeff = logical.max_abs_coefficient();
    const double scale = (max_coeff > 0.0) ? max_coeff : 1.0;
    out.logical_scales.push_back(scale);

    // Eq. 11: fields split evenly across the chain, divided by |J_F|.
    for (std::size_t i = 0; i < n; ++i) {
      const double share = logical.field(i) / scale / params.jf /
                           static_cast<double>(compiled.chains[i].size());
      for (std::uint32_t q : compiled.chains[i]) fields[first + q] += share;
    }

    // Eq. 10 chain bonds, then Eq. 12 logical couplings in input order,
    // each accumulated into its pattern entry from 0.0.
    values.assign(compiled.pattern.size(), 0.0);
    for (const std::uint32_t k : compiled.bond_slots) values[k] += chain_coupling;
    for (const qubo::Coupling& c : logical.couplings()) {
      if (c.g == 0.0) continue;
      const std::uint32_t k = compiled.pair_slot[c.i * n + c.j];
      if (k == EmbeddingTemplate::kNoCoupler)
        throw InvalidArgument(
            "embed: logical coupling has no physical coupler (not a clique "
            "embedding?)");
      values[k] += c.g / scale / params.jf;
    }
    for (std::size_t k = 0; k < values.size(); ++k)
      if (values[k] != 0.0)
        couplings.push_back({first + compiled.pattern[k].i,
                             first + compiled.pattern[k].j, values[k]});
  }
  out.physical = qubo::IsingModel(std::move(fields), std::move(couplings));
  return out;
}

EmbeddedProblem embed(const qubo::IsingModel& logical,
                      const EmbeddingTemplate& compiled,
                      const EmbedParams& params) {
  const qubo::IsingModel* const problem = &logical;
  return embed({&problem, 1}, {&compiled, 1}, params);
}

EmbeddedProblem embed(const qubo::IsingModel& logical, const Embedding& embedding,
                      const ChimeraGraph& graph, const EmbedParams& params) {
  return embed(logical, compile_embedding(embedding, graph), params);
}

qubo::SpinVec unembed(const qubo::SpinVec& physical_spins,
                      const EmbeddedProblem& problem, Rng& rng,
                      std::size_t* broken_chains) {
  QUAMAX_PROF_SCOPE("chimera.unembed");
  require(physical_spins.size() == problem.compact_to_qubit.size(),
          "unembed: configuration size mismatch");
  qubo::SpinVec logical(problem.chains.size());
  std::size_t broken = 0;
  for (std::size_t i = 0; i < problem.chains.size(); ++i) {
    int vote = 0;
    for (std::uint32_t q : problem.chains[i]) vote += physical_spins[q];
    const bool unanimous =
        static_cast<std::size_t>(std::abs(vote)) == problem.chains[i].size();
    if (!unanimous) ++broken;
    if (vote > 0)
      logical[i] = 1;
    else if (vote < 0)
      logical[i] = -1;
    else
      logical[i] = rng.coin() ? 1 : -1;  // tie: randomized (paper §3.3)
  }
  if (broken_chains != nullptr) *broken_chains = broken;
  return logical;
}

QubitFootprint qubit_footprint(std::size_t nt, int bits_per_symbol,
                               const ChimeraGraph& graph) {
  const std::size_t shore = graph.shore_size();
  QubitFootprint fp;
  fp.logical = nt * static_cast<std::size_t>(bits_per_symbol);
  const std::size_t chain = (fp.logical + shore - 1) / shore + 1;
  fp.physical = fp.logical * chain;
  // Feasible when the triangle fits the grid and the chip has the qubits.
  const std::size_t groups = (fp.logical + shore - 1) / shore;
  fp.feasible = groups <= graph.grid_size() &&
                fp.physical <= graph.num_working_qubits();
  return fp;
}

double parallelization_factor(std::size_t num_logical, const ChimeraGraph& graph) {
  require(num_logical >= 1, "parallelization_factor: empty problem");
  const std::size_t shore = graph.shore_size();
  const std::size_t chain = (num_logical + shore - 1) / shore + 1;
  const double used = static_cast<double>(num_logical * chain);
  return std::max(1.0, static_cast<double>(graph.num_qubits()) / used);
}

}  // namespace quamax::chimera
