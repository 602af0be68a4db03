// Triangle clique embedding of fully-connected Ising problems into Chimera
// (paper §3.3, Fig. 3(b); Venturelli et al. [69]).
//
// A problem with N logical spins is split into D = ceil(N/4) groups of four.
// Group d's four chains live along row d (horizontal qubits, cells
// [d, 0..d]) and down column d (vertical qubits, cells [d..D-1, d]); the two
// runs meet in diagonal cell [d, d] through an intra-cell coupler.  Every
// chain therefore has exactly ceil(N/4) + 1 physical qubits, and every
// logical pair (i, j) has exactly one physical coupler available:
//   * same group     -> inside diagonal cell [d, d];
//   * groups e < d   -> inside cell [d, e] (group d horizontal x group e
//                       vertical) — Fig. 3(b)'s inter-connection cells.
//
// The embedded objective (Appendix B, Eqs. 10-12): chain edges get the
// maximal negative coupling (-1 standard range, -2 improved range), problem
// couplings are divided by |J_F|, and fields are divided by |J_F| and split
// evenly over each chain's qubits — after normalizing the logical problem so
// its largest |coefficient| is 1 (the machine's programmable range).
//
// Which qubits and couplers a problem uses depends only on its placement
// and the chip graph, never on its coefficients.  compile_embedding does
// that structural work once — the compact qubit map, the coupler chosen for
// every logical pair, the coupling pattern in coalesced order — into an
// EmbeddingTemplate, and embed() is then an O(nnz) value scatter.
// EmbeddingCache keeps one template per cached placement.
//
// Paper §4 parallelization: a wave of problems on disjoint placements is
// one chip-wide EmbeddedProblem.  embed(problems, slots, params) scatters
// every slot's values straight into it, each slot's compact qubits after
// the previous slot's; a single problem is the one-slot wave.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "quamax/chimera/graph.hpp"
#include "quamax/qubo/ising.hpp"

namespace quamax::chimera {

/// Chains of physical qubits, one per logical variable.
struct Embedding {
  std::size_t num_logical = 0;
  std::vector<std::vector<Qubit>> chains;

  std::size_t chain_length() const {
    return chains.empty() ? 0 : chains.front().size();
  }
  std::size_t num_physical() const {
    std::size_t total = 0;
    for (const auto& chain : chains) total += chain.size();
    return total;
  }
};

/// Finds a triangle clique embedding for `num_logical` variables, searching
/// row/column placement offsets to avoid defective qubits.  Throws
/// CapacityError when the problem cannot fit (Table 2's bold entries).
Embedding find_clique_embedding(std::size_t num_logical, const ChimeraGraph& graph);

/// Paper §4 parallelization, realized: places up to `count` DISJOINT
/// triangle embeddings for `num_logical`-variable problems on the chip
/// (tiling cell blocks of ceil(N/shore) x ceil(N/shore)), so that many
/// instances — "identical or not", e.g. different subcarriers — anneal in
/// the same batch.  Returns as many embeddings as fit (at least one);
/// throws CapacityError if even one does not fit.
std::vector<Embedding> find_parallel_embeddings(std::size_t num_logical,
                                                std::size_t count,
                                                const ChimeraGraph& graph);

/// Embedding hyper-parameters (paper §4 "Annealer Parameter Setting").
/// The default |J_F| = 0.5 is the Fix-strategy optimum for the SA substrate
/// (bench_fig5_jf_sensitivity reproduces the U-shaped sensitivity; our
/// optimum sits at smaller |J_F| than the QPU's 3-8 because the classical
/// kernel trades chain integrity against ICE washout at a different point —
/// see EXPERIMENTS.md).
struct EmbedParams {
  double jf = 0.5;             ///< |J_F|, swept in Fig. 5
  bool improved_range = false; ///< extended coupler dynamic range (chain -2)
};

/// A wave of embedded Ising problems over compact physical indices 0..P-1:
/// slot s's qubits follow slot s-1's, and its chains are chains
/// [s * N, (s + 1) * N) for N logical variables per slot.
struct EmbeddedProblem {
  qubo::IsingModel physical;
  std::vector<Qubit> compact_to_qubit;             ///< compact -> chip id
  std::vector<std::vector<std::uint32_t>> chains;  ///< chains, compact indices
  /// Per slot: the divisor applied to normalize its logical problem.
  std::vector<double> logical_scales;
};

/// The value-independent compile of one placement on one chip graph: the
/// part of Eqs. 10-12 that every problem of the placement's shape shares.
struct EmbeddingTemplate {
  /// pair_slot entry of a logical pair whose chains share no coupler.
  static constexpr std::uint32_t kNoCoupler = 0xFFFFFFFFu;

  std::size_t num_logical = 0;
  std::vector<Qubit> compact_to_qubit;             ///< compact -> chip id
  std::vector<std::vector<std::uint32_t>> chains;  ///< chains, compact indices
  /// Every coupler a problem can program, sorted by (i, j) as
  /// IsingModel::coalesce() orders them; `g` is unused.
  std::vector<qubo::Coupling> pattern;
  /// Pattern slot of each Eq. 10 chain bond, chain by chain along the path.
  std::vector<std::uint32_t> bond_slots;
  /// pair_slot[i * num_logical + j] (i < j): pattern slot of the first
  /// chain-i x chain-j coupler, or kNoCoupler.
  std::vector<std::uint32_t> pair_slot;
};

/// Compiles `embedding` on `graph` into its template.  Throws
/// InvalidArgument when two chains share a physical qubit.
EmbeddingTemplate compile_embedding(const Embedding& embedding,
                                    const ChimeraGraph& graph);

/// Compiles a wave of (fully- or partially-connected) logical Ising models
/// onto the chip per Eqs. 10-12, problems[s] through compiled placement
/// slots[s] (problems.size() <= slots.size(), disjoint placements).  Per
/// problem: fields split over the chains, then chain bonds and logical
/// couplings added into their pattern entries in input order, each entry
/// from 0.0, dropping entries that sum to exactly 0.0 — the coupling list
/// IsingModel::coalesce() would build — shifted to the problem's first
/// compact index.  Throws InvalidArgument when a nonzero logical coupling has no
/// physical coupler (impossible for clique embeddings).
EmbeddedProblem embed(std::span<const qubo::IsingModel* const> problems,
                      std::span<const EmbeddingTemplate> slots,
                      const EmbedParams& params);

/// The one-slot wave.
EmbeddedProblem embed(const qubo::IsingModel& logical,
                      const EmbeddingTemplate& compiled,
                      const EmbedParams& params);

/// compile_embedding then embed: the one-off form for callers without a
/// cached template.
EmbeddedProblem embed(const qubo::IsingModel& logical, const Embedding& embedding,
                      const ChimeraGraph& graph, const EmbedParams& params);

/// Majority-vote unembedding (paper §3.3): each logical spin is the majority
/// of its chain; exact ties are randomized, chain by chain from `rng`.
/// Returns one spin per chain, so a wave's slots follow each other.
/// `broken_chains`, when non-null, receives the number of chains that were
/// not unanimous.
qubo::SpinVec unembed(const qubo::SpinVec& physical_spins,
                      const EmbeddedProblem& problem, Rng& rng,
                      std::size_t* broken_chains = nullptr);

/// Table 2 helper: logical and physical qubit counts for an Nt-user problem.
struct QubitFootprint {
  std::size_t logical = 0;
  std::size_t physical = 0;
  bool feasible = false;  ///< fits on the given chip
};
QubitFootprint qubit_footprint(std::size_t nt, int bits_per_symbol,
                               const ChimeraGraph& graph);

/// Paper §4: parallelization factor P_f ~= N_tot / (N (ceil(N/4)+1)),
/// floored at 1 (you cannot run a fraction of a problem).
double parallelization_factor(std::size_t num_logical, const ChimeraGraph& graph);

}  // namespace quamax::chimera
