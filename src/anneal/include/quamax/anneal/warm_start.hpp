// Warm-start planning for coherent subframe chains (ROADMAP open item #1;
// paper §8's reverse-annealing outlook + the SIGMOD26-MQO incremental-
// annealing idea).
//
// Real channels are coherent subframe-to-subframe, but the serving stack
// historically annealed every job from scratch.  Two amortization levers
// follow from the reduction's structure (core/reduction.hpp):
//
//   * COEFFICIENT DELTAS — the Ising couplings g_bc = 2 Re(A^H A)_bc depend
//     only on the channel H, while the linear fields f_b = -2 Re(y^H A)_b
//     and the offset ||y||^2 + tr(Re(A^H A)) depend on the received vector
//     y.  Within a coherence block (same H, fresh noise/payload
//     realization) a cached reduction therefore needs only its fields
//     rebuilt (core::update_ml_fields) — an O(Nt Nr) update instead of the
//     O(Nt^2 Nr) full reduce, with NO re-embed either: chimera placements
//     and their compiled templates are shape-keyed (EmbeddingCache), and
//     every wave scatters its coefficients through them regardless.
//
//   * SEED REUSE — the previous subframe's best spin configuration is a
//     near-ground warm start for the next subframe of the same chain
//     (HARQ-style retransmission of the block payload under fresh noise),
//     so a REVERSE anneal from it needs a fraction of the cold anneal
//     quota at matched BER (bench_warmstart measures the cut; §8 /
//     bench_reverse_annealing established the single-problem version).
//
// WarmStartPlanner is the coefficient-delta half: a per-chain reduction
// cache that serve::LoadGenerator compiles coherent jobs through.  The seed
// half lives in sched::Scheduler, which keeps each decoded uplink job's
// best configuration in a slot indexed by sequence number and threads the
// predecessor's slot into sample_batch_seeded as the warm-start seed.
//
// Determinism: the planner holds no RNG and makes no stochastic choice;
// compile() is a pure function of (cached chain state, h, y).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "quamax/core/reduction.hpp"
#include "quamax/linalg/matrix.hpp"
#include "quamax/wireless/modulation.hpp"

namespace quamax::anneal {

/// Compile-path counters: how often the delta shortcut applied.
struct WarmStartStats {
  std::size_t full_compiles = 0;   ///< fresh reduce_*_to_ising runs
  std::size_t delta_compiles = 0;  ///< field-only rebuilds over a cached reduction
};

class WarmStartPlanner {
 public:
  /// Reduces (h, y, mod) to an MlProblem for chain `chain` (one chain per
  /// coherent user stream).  When `channel_changed` is false and the chain
  /// has a cached reduction of matching shape/modulation, only the
  /// y-dependent terms are recomputed on a copy of the cache
  /// (core::update_ml_fields — exact same arithmetic as a full rebuild, so
  /// the returned coefficients are bit-identical to reducing from scratch);
  /// otherwise a full reduction runs and refreshes the cache.  Matches
  /// sim::make_instance_from_use's reducer choice (closed form except
  /// 64-QAM).  Not thread-safe — workload generation is serial by
  /// construction (LoadGenerator materializes ids in order).
  core::MlProblem compile(std::uint64_t chain, const linalg::CMat& h,
                          const linalg::CVec& y, wireless::Modulation mod,
                          bool channel_changed);

  const WarmStartStats& stats() const noexcept { return stats_; }

 private:
  struct ChainCache {
    linalg::CMat h;  ///< channel the cached reduction was built for
    core::MlProblem problem;
  };

  WarmStartStats stats_;
  std::map<std::uint64_t, ChainCache> chains_;
};

}  // namespace quamax::anneal
