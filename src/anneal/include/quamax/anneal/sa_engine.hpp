// Metropolis simulated-annealing engine over an arbitrary Ising model.
//
// This is the compute kernel standing in for the quantum chip.  One "anneal
// cycle" starts from a uniformly random spin configuration (the classical
// analog of the initial uniform superposition) and runs sequential
// Metropolis sweeps along the supplied inverse-temperature schedule.  The
// engine exposes that cycle at two granularities:
//
//  * anneal()/anneal_with() — ONE replica per call (the R = 1
//    specialization of the batched kernel below);
//  * anneal_batch()/anneal_batch_with() — R independent replicas per call,
//    swept together by one batched kernel.  The kernel keeps all replica
//    state in contiguous arrays with the replica index fastest-varying
//    (spins[i*R + r], hloc[i*R + r]), walks the CSR adjacency ONCE per spin
//    per temperature step, and updates every replica's local fields in the
//    inner loop — so the row's neighbor/coupling indices are loaded once for
//    all replicas, the per-neighbor local-field updates hit one cache line
//    per R <= 8 replicas, and the compiler can vectorize across replicas.
//    Replica r draws every random number (initial spins, Metropolis accepts,
//    tie-breaks) from its OWN generator rngs[r], in exactly the order a
//    scalar anneal with that generator would, and all floating-point
//    accumulation per replica happens in the scalar path's order; the
//    batched result is therefore BIT-IDENTICAL to R scalar anneal() calls
//    with matched generators (batch_replica_test.cpp enforces this).
//
// Collective (group) moves: single-spin dynamics cannot serve embedded
// problems — once the ferromagnetic chains freeze, flipping a logical
// variable means dragging a domain wall through the whole chain, an
// exponentially suppressed path.  The physical annealer flips chains
// coherently (collective tunneling); we model that with an optional
// per-sweep pass of Metropolis moves over caller-defined spin groups (the
// embedding's chains), each accepted on the exact collective energy change.
// Chain *breaking* — the small-|J_F| failure mode — still happens through
// the single-spin pass, so the embedding trade-offs the paper studies
// remain visible.  Group moves run in both the scalar and the batched path.
//
// The adjacency is prebuilt in CSR form with coupling *indices*, so ICE can
// re-draw the coefficient arrays each anneal without touching the graph
// structure; the batched entry points take per-replica coefficient blocks
// for exactly that purpose.  Local fields are maintained incrementally; a
// sweep costs O(R * sum of degrees) with no allocation inside the sweep
// loop.
//
// Acceptance rules: every entry point takes an AcceptMode.  kExact is the
// v1 Metropolis rule (bit-compatible with all historical results);
// kThreshold/kThreshold32 replace the data-dependent exp()/RNG decision
// with a pre-drawn, branch-free energy-threshold compare — statistically
// equivalent, substantially faster, and bit-identical across thread and
// replica counts under their own (v2) determinism contract.  See the
// AcceptMode documentation below.
//
// Thread safety: after construction (and any set_groups() call), the engine
// is immutable — anneal(), anneal_with(), anneal_batch(), and
// anneal_batch_with() are const, keep all mutable state in locals, and may
// be called concurrently from any number of threads with per-thread Rngs.
// The batch-anneal runtime (core::run_blocks) relies on this to share one
// engine across all lanes, each lane annealing its own replica block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "quamax/common/rng.hpp"
#include "quamax/qubo/ising.hpp"

namespace quamax::anneal {

/// Acceptance rule of the Metropolis sweep kernel.
///
///  * kExact — the v1 contract: accept an uphill move iff
///    uniform() < exp(-beta * dE), flip zero-cost moves on a coin.  RNG
///    consumption is data-dependent (a uniform only on uphill proposals, a
///    coin only on zero-cost ones), so the accept loop is inherently scalar
///    per replica: a `std::exp` call and two branches per spin per replica
///    per sweep.  Bit-compatible with every result the library has ever
///    produced.
///
///  * kThreshold — the v2 branch-free contract: each decision PRE-DRAWS one
///    uniform u_r per replica in a fixed, data-independent order (replica r
///    always consumes exactly one uniform per spin and per group per sweep),
///    transforms it once into an energy threshold t_r = -log(u_r) / beta,
///    and accepts iff dE <= t_r (zero-cost moves use the same u_r as the
///    coin: accept iff u_r < 1/2).  Identical acceptance probabilities, but
///    no exp() and no data-dependent RNG branches in the inner loop — the
///    per-replica accept pass is straight-line code the compiler can
///    vectorize (bench_micro_kernels' BM_SaSweepBatchedThreshold proves
///    it).  NOT bit-identical to kExact (different draws), but replica r's
///    stream consumption is data-independent, so results remain bit-
///    identical at any thread count or replica block size.
///
///  * kThreshold32 — kThreshold with float32 state and coefficients: local
///    fields, accumulators, and coefficient reads run in single precision,
///    doubling the SIMD width of every vector pass.  Same determinism
///    contract as kThreshold (bit-identical at any threads/replicas for a
///    fixed seed), statistically indistinguishable from the float64 modes
///    (accept_mode_test enforces parity); intended for throughput-bound
///    serve workloads on the ICE-off shared-coefficient path.
enum class AcceptMode : std::uint8_t { kExact = 0, kThreshold = 1, kThreshold32 = 2 };

/// Canonical CLI spelling of an accept mode ("exact" / "threshold" /
/// "threshold32").
const char* to_string(AcceptMode mode) noexcept;

class SaEngine {
 public:
  explicit SaEngine(const qubo::IsingModel& problem);

  /// Number of spins N of the underlying problem.
  std::size_t num_spins() const noexcept { return fields_.size(); }
  /// Number of couplings M of the underlying problem.
  std::size_t num_couplings() const noexcept { return coupling_values_.size(); }

  /// Registers spin groups for collective moves (typically the embedding's
  /// chains).  Groups must contain valid spin indices; they may overlap the
  /// whole spin set or only part of it.  Pass an empty vector to disable.
  void set_groups(std::vector<std::vector<std::uint32_t>> groups);

  /// Whether collective-move groups are registered.
  bool has_groups() const noexcept { return !groups_.empty(); }

  /// Base (unperturbed) field array, in the layout anneal_with expects.
  const std::vector<double>& base_fields() const noexcept { return fields_; }
  /// Base (unperturbed) coupling array, in the layout anneal_with expects.
  const std::vector<double>& base_couplings() const noexcept {
    return coupling_values_;
  }

  /// One anneal with the problem's own coefficients.  `initial`, when
  /// non-null, seeds the spin configuration (reverse annealing / warm
  /// start); otherwise spins start uniformly random.  `mode` selects the
  /// acceptance rule (see AcceptMode; kExact preserves the v1 contract).
  qubo::SpinVec anneal(const std::vector<double>& betas, Rng& rng,
                       const qubo::SpinVec* initial = nullptr,
                       AcceptMode mode = AcceptMode::kExact) const {
    return anneal_with(betas, fields_, coupling_values_, rng, initial, mode);
  }

  /// One anneal with caller-supplied (e.g. ICE-perturbed) coefficients;
  /// `fields` must have num_spins() entries and `couplings` num_couplings()
  /// entries in base-array order.  kThreshold32 rounds the supplied arrays
  /// to float32 once up front (same values anneal_batch's precomputed
  /// float32 base arrays hold when the caller passes the base arrays).
  qubo::SpinVec anneal_with(const std::vector<double>& betas,
                            const std::vector<double>& fields,
                            const std::vector<double>& couplings, Rng& rng,
                            const qubo::SpinVec* initial = nullptr,
                            AcceptMode mode = AcceptMode::kExact) const;

  /// Batched anneal: runs rngs.size() independent replicas of the problem's
  /// own coefficients in one kernel call, replica r drawing all randomness
  /// from rngs[r].  Returns one configuration per replica; replica r is
  /// bit-identical to `anneal(betas, rngs[r], initial, mode)` (and rngs[r]
  /// is left in the same state) — for EVERY accept mode, so blocking anneals
  /// into replicas never changes results.  `initial`, when non-null,
  /// warm-starts EVERY replica from the same configuration, as R scalar
  /// calls would.
  std::vector<qubo::SpinVec> anneal_batch(
      const std::vector<double>& betas, std::vector<Rng>& rngs,
      const qubo::SpinVec* initial = nullptr,
      AcceptMode mode = AcceptMode::kExact) const;

  /// Batched anneal with per-replica coefficient blocks (the ICE path: each
  /// replica carries its own perturbed realization).  `fields` holds R
  /// replica-major blocks of num_spins() entries (replica r's fields are
  /// fields[r*N .. (r+1)*N)), `couplings` R blocks of num_couplings()
  /// entries, with R == rngs.size().  Replica r is bit-identical to
  /// `anneal_with(betas, fields_r, couplings_r, rngs[r], initial, mode)`.
  std::vector<qubo::SpinVec> anneal_batch_with(
      const std::vector<double>& betas, const std::vector<double>& fields,
      const std::vector<double>& couplings, std::vector<Rng>& rngs,
      const qubo::SpinVec* initial = nullptr,
      AcceptMode mode = AcceptMode::kExact) const;

 private:
  struct Group {
    std::vector<std::uint32_t> members;
    std::vector<std::uint32_t> internal_edges;  ///< coupling ids inside the group
  };

  /// The batched sweep kernel behind every public entry point.  With
  /// SharedCoeffs == false, `fields_il` and `couplings_il` are replica-
  /// interleaved (entry index*R + r); with SharedCoeffs == true they are the
  /// plain flat arrays (num_spins() / num_couplings() entries) read by every
  /// replica — the ICE-off fast path that skips the O(R*(N+M)) broadcast
  /// copy per call.  Threshold selects the branch-free threshold-acceptance
  /// pass (AcceptMode::kThreshold / kThreshold32) over the v1 Metropolis
  /// pass; Real is the state/coefficient scalar type (float implements
  /// kThreshold32 — coefficients then arrive as float arrays).  `rngs`
  /// points at R generator pointers, and the result is written replica-
  /// interleaved into `spins_il` (R*num_spins() entries).  For R == 1 the
  /// interleaved layout degenerates to the plain scalar arrays.
  template <bool SharedCoeffs, bool Threshold, typename Real>
  void run_batch_kernel(std::size_t num_replicas,
                        const std::vector<double>& betas,
                        const Real* fields_il, const Real* couplings_il,
                        Rng* const* rngs, const qubo::SpinVec* initial,
                        std::int8_t* spins_il) const;

  /// Shared front end of the two anneal_batch* entry points: interleaves the
  /// coefficient blocks, runs the kernel for the requested accept mode, and
  /// splits the result per replica.
  std::vector<qubo::SpinVec> batch_dispatch(const std::vector<double>& betas,
                                            const double* fields_rm,
                                            const double* couplings_rm,
                                            bool replicated_coefficients,
                                            std::vector<Rng>& rngs,
                                            const qubo::SpinVec* initial,
                                            AcceptMode mode) const;

  // CSR adjacency: spin i's incident edges are entries
  // [row_offset_[i], row_offset_[i+1]) of neighbor_/coupling_index_.
  std::vector<std::uint32_t> row_offset_;
  std::vector<std::uint32_t> neighbor_;
  std::vector<std::uint32_t> coupling_index_;
  std::vector<std::uint32_t> edge_i_;  ///< coupling id -> endpoint i
  std::vector<std::uint32_t> edge_j_;  ///< coupling id -> endpoint j
  std::vector<double> fields_;
  std::vector<double> coupling_values_;
  // float32 images of the base arrays, precomputed at construction for the
  // kThreshold32 shared-coefficient path (identical to rounding the base
  // arrays per call, without the per-call conversion).
  std::vector<float> fields_f32_;
  std::vector<float> couplings_f32_;
  std::vector<Group> groups_;
};

}  // namespace quamax::anneal
