#include "quamax/anneal/warm_start.hpp"

namespace quamax::anneal {

core::MlProblem WarmStartPlanner::compile(std::uint64_t chain,
                                          const linalg::CMat& h,
                                          const linalg::CVec& y,
                                          wireless::Modulation mod,
                                          bool channel_changed) {
  auto it = chains_.find(chain);
  const bool reusable = !channel_changed && it != chains_.end() &&
                        it->second.problem.mod == mod &&
                        it->second.h.rows() == h.rows() &&
                        it->second.h.cols() == h.cols();
  if (reusable) {
    ++stats_.delta_compiles;
    core::MlProblem problem = it->second.problem;
    core::update_ml_fields(problem, h, y);
    return problem;
  }

  ++stats_.full_compiles;
  core::MlProblem problem =
      (mod == wireless::Modulation::kQam64)
          ? core::reduce_ml_to_ising(h, y, mod)
          : core::reduce_ml_to_ising_closed_form(h, y, mod);
  if (it == chains_.end()) {
    it = chains_.emplace(chain, ChainCache{}).first;
  }
  it->second.h = h;
  it->second.problem = problem;
  return problem;
}

}  // namespace quamax::anneal
