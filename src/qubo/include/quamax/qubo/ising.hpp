// Ising spin-glass and QUBO problem forms (paper §3.1, Eqs. 2-4).
//
// IsingModel is the library's lingua franca: the ML reduction emits one, the
// Chimera embedder rewrites one into another, and every solver consumes one.
// Couplings are stored as an explicit upper-triangular edge list, which is
// natural both for fully-connected logical problems and for the sparse
// Chimera-structured embedded problems.
//
// Energy bookkeeping: models carry an `offset` constant so that problem
// transformations (QUBO<->Ising, ML->Ising) preserve the *absolute* objective
// value.  For the ML reduction this makes energy(spins) + offset equal to the
// Euclidean metric ||y - Hv||^2 exactly, which the tests rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "quamax/common/error.hpp"

namespace quamax::qubo {

/// Spin values: +1 / -1, stored compactly.
using SpinVec = std::vector<std::int8_t>;
/// Binary values: 0 / 1.
using BinVec = std::vector<std::uint8_t>;

/// One quadratic term g_ij * s_i * s_j with i < j.
struct Coupling {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  double g = 0.0;
};

/// Ising spin glass: minimize sum_{i<j} g_ij s_i s_j + sum_i f_i s_i (Eq. 2).
class IsingModel {
 public:
  IsingModel() = default;
  explicit IsingModel(std::size_t num_spins) : field_(num_spins, 0.0) {}
  /// Adopts fields and an order-normalized coupling list (every i < j <
  /// fields.size()), as add_coupling would have stored it.
  IsingModel(std::vector<double> fields, std::vector<Coupling> couplings);

  std::size_t num_spins() const noexcept { return field_.size(); }

  double& field(std::size_t i) { return field_.at(i); }
  double field(std::size_t i) const { return field_.at(i); }
  const std::vector<double>& fields() const noexcept { return field_; }

  /// Adds (accumulates) a coupling between distinct spins; order-normalized.
  void add_coupling(std::size_t i, std::size_t j, double g);

  const std::vector<Coupling>& couplings() const noexcept { return couplings_; }

  double offset() const noexcept { return offset_; }
  void set_offset(double offset) noexcept { offset_ = offset; }

  /// Objective value of a configuration, excluding the offset (Eq. 2).
  double energy(const SpinVec& spins) const;

  /// energy(spins) + offset; equals ||y - Hv||^2 for ML-reduced problems.
  double absolute_energy(const SpinVec& spins) const { return energy(spins) + offset_; }

  /// Largest |coefficient| across fields and couplings (used by the
  /// embedder's dynamic-range normalization).
  double max_abs_coefficient() const;

  /// Merges duplicate (i,j) entries; useful after programmatic construction.
  void coalesce();

 private:
  std::vector<double> field_;
  std::vector<Coupling> couplings_;
  double offset_ = 0.0;
};

/// QUBO: minimize sum_{i<=j} Q_ij q_i q_j over binary q (Eq. 3).
/// Stored as diagonal (linear, since q^2 = q) plus strict upper triangle.
class QuboModel {
 public:
  QuboModel() = default;
  explicit QuboModel(std::size_t num_vars) : diag_(num_vars, 0.0) {}

  std::size_t num_vars() const noexcept { return diag_.size(); }

  double& diagonal(std::size_t i) { return diag_.at(i); }
  double diagonal(std::size_t i) const { return diag_.at(i); }

  void add_offdiagonal(std::size_t i, std::size_t j, double q);
  const std::vector<Coupling>& offdiagonals() const noexcept { return offdiag_; }

  double offset() const noexcept { return offset_; }
  void set_offset(double offset) noexcept { offset_ = offset; }

  /// Objective value (Eq. 3), excluding the offset.
  double energy(const BinVec& bits) const;
  double absolute_energy(const BinVec& bits) const { return energy(bits) + offset_; }

 private:
  std::vector<double> diag_;
  std::vector<Coupling> offdiag_;
  double offset_ = 0.0;
};

/// Eq. 4 equivalence: q_i = (s_i + 1) / 2.
SpinVec spins_from_bits(const BinVec& bits);
BinVec bits_from_spins(const SpinVec& spins);

/// QUBO -> Ising with offset tracking: for all q,
/// qubo.absolute_energy(q) == ising.absolute_energy(spins_from_bits(q)).
IsingModel to_ising(const QuboModel& qubo);

/// Ising -> QUBO with offset tracking (exact inverse property).
QuboModel to_qubo(const IsingModel& ising);

/// Result of exhaustive minimization.
struct GroundState {
  SpinVec spins;
  double energy = 0.0;  ///< excluding offset
  std::size_t degeneracy = 1;  ///< number of configurations attaining it
};

/// Brute-force ground state by enumerating all 2^N configurations.
/// Guarded to N <= 26 variables; intended as a test/metrics oracle.
GroundState brute_force_ground_state(const IsingModel& ising);

}  // namespace quamax::qubo
