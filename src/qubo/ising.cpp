#include "quamax/qubo/ising.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace quamax::qubo {

IsingModel::IsingModel(std::vector<double> fields, std::vector<Coupling> couplings)
    : field_(std::move(fields)), couplings_(std::move(couplings)) {
  bool normalized = true;
  for (const Coupling& c : couplings_)
    normalized = normalized && c.i < c.j && c.j < field_.size();
  require(normalized, "IsingModel: couplings need i < j < num_spins");
}

void IsingModel::add_coupling(std::size_t i, std::size_t j, double g) {
  require(i != j, "IsingModel::add_coupling: self-coupling is a field, not a coupling");
  require(i < num_spins() && j < num_spins(),
          "IsingModel::add_coupling: spin index out of range");
  if (i > j) std::swap(i, j);
  couplings_.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j), g});
}

double IsingModel::energy(const SpinVec& spins) const {
  require(spins.size() == num_spins(), "IsingModel::energy: wrong configuration size");
  double e = 0.0;
  for (std::size_t i = 0; i < field_.size(); ++i) e += field_[i] * spins[i];
  for (const Coupling& c : couplings_) e += c.g * spins[c.i] * spins[c.j];
  return e;
}

double IsingModel::max_abs_coefficient() const {
  double m = 0.0;
  for (double f : field_) m = std::max(m, std::abs(f));
  for (const Coupling& c : couplings_) m = std::max(m, std::abs(c.g));
  return m;
}

void IsingModel::coalesce() {
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> merged;
  for (const Coupling& c : couplings_) merged[{c.i, c.j}] += c.g;
  couplings_.clear();
  couplings_.reserve(merged.size());
  for (const auto& [key, g] : merged)
    if (g != 0.0) couplings_.push_back({key.first, key.second, g});
}

void QuboModel::add_offdiagonal(std::size_t i, std::size_t j, double q) {
  require(i != j, "QuboModel::add_offdiagonal: use diagonal() for linear terms");
  require(i < num_vars() && j < num_vars(),
          "QuboModel::add_offdiagonal: index out of range");
  if (i > j) std::swap(i, j);
  offdiag_.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j), q});
}

double QuboModel::energy(const BinVec& bits) const {
  require(bits.size() == num_vars(), "QuboModel::energy: wrong configuration size");
  double e = 0.0;
  for (std::size_t i = 0; i < diag_.size(); ++i)
    if (bits[i]) e += diag_[i];
  for (const Coupling& c : offdiag_)
    if (bits[c.i] && bits[c.j]) e += c.g;
  return e;
}

SpinVec spins_from_bits(const BinVec& bits) {
  SpinVec spins(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) spins[i] = bits[i] ? 1 : -1;
  return spins;
}

BinVec bits_from_spins(const SpinVec& spins) {
  BinVec bits(spins.size());
  for (std::size_t i = 0; i < spins.size(); ++i) bits[i] = spins[i] > 0 ? 1u : 0u;
  return bits;
}

IsingModel to_ising(const QuboModel& qubo) {
  // Substituting q_i = (s_i + 1)/2 into Eq. 3:
  //   Q_ij q_i q_j = Q_ij/4 (s_i s_j + s_i + s_j + 1)     (i < j)
  //   Q_ii q_i     = Q_ii/2 (s_i + 1)
  const std::size_t n = qubo.num_vars();
  IsingModel ising(n);
  double offset = qubo.offset();
  for (std::size_t i = 0; i < n; ++i) {
    ising.field(i) += qubo.diagonal(i) / 2.0;
    offset += qubo.diagonal(i) / 2.0;
  }
  for (const Coupling& c : qubo.offdiagonals()) {
    ising.add_coupling(c.i, c.j, c.g / 4.0);
    ising.field(c.i) += c.g / 4.0;
    ising.field(c.j) += c.g / 4.0;
    offset += c.g / 4.0;
  }
  ising.set_offset(offset);
  ising.coalesce();
  return ising;
}

QuboModel to_qubo(const IsingModel& ising) {
  // Substituting s_i = 2 q_i - 1 into Eq. 2:
  //   g_ij s_i s_j = 4 g_ij q_i q_j - 2 g_ij (q_i + q_j) + g_ij
  //   f_i s_i      = 2 f_i q_i - f_i
  const std::size_t n = ising.num_spins();
  QuboModel qubo(n);
  double offset = ising.offset();
  for (std::size_t i = 0; i < n; ++i) {
    qubo.diagonal(i) += 2.0 * ising.field(i);
    offset -= ising.field(i);
  }
  for (const Coupling& c : ising.couplings()) {
    qubo.add_offdiagonal(c.i, c.j, 4.0 * c.g);
    qubo.diagonal(c.i) -= 2.0 * c.g;
    qubo.diagonal(c.j) -= 2.0 * c.g;
    offset += c.g;
  }
  qubo.set_offset(offset);
  return qubo;
}

GroundState brute_force_ground_state(const IsingModel& ising) {
  const std::size_t n = ising.num_spins();
  require(n >= 1 && n <= 26,
          "brute_force_ground_state: guarded to 1..26 spins (oracle use only)");

  GroundState best;
  best.spins.assign(n, -1);
  SpinVec current(n, -1);
  best.energy = ising.energy(current);
  best.degeneracy = 1;

  const std::uint64_t total = 1ull << n;
  for (std::uint64_t code = 1; code < total; ++code) {
    for (std::size_t i = 0; i < n; ++i)
      current[i] = ((code >> i) & 1ull) ? 1 : -1;
    const double e = ising.energy(current);
    if (e < best.energy - 1e-12) {
      best.energy = e;
      best.spins = current;
      best.degeneracy = 1;
    } else if (std::abs(e - best.energy) <= 1e-12) {
      ++best.degeneracy;
    }
  }
  return best;
}

}  // namespace quamax::qubo
