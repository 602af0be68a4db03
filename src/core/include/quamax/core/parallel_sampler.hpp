// Deterministic stream fan-out for the batch-anneal runtime.
//
// The paper's machine gets throughput from running many independent anneals
// (and, via §4 parallel embeddings, many problems) per unit time; the
// classical stand-in gets the same from cores.  Each anneal is an i.i.d.
// draw, so the fan-out is embarrassingly parallel — the only coupling
// between anneals in the serial code is the shared Rng.  run_blocks() cuts
// that coupling with counter-derived streams: it draws ONE 64-bit key from
// the caller's generator, hands anneal `a` the generator Rng::for_stream(key,
// a), and jobs write results into per-index slots.  The output is therefore
// a pure function of (seed, problem, count) — bit-identical at any thread
// count, which parallel_sampler_test.cpp checks property-style.
//
// Samplers call run_blocks() to fan their anneal loops over a ThreadPool in
// replica-sized blocks for the SA kernel's batched entry points (the engine
// is const and shares read-only state across lanes).  The multi-problem
// front end used by the figure benches is sim::sample_problems.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "quamax/common/rng.hpp"
#include "quamax/core/thread_pool.hpp"

namespace quamax::core {

/// Blocked fan-out for replica-batched kernels.  Draws one key from `rng`
/// (exactly one draw, regardless of thread count), partitions [0, count)
/// into contiguous blocks of at most `max_block` indices and runs
/// job(begin, streams) once per block across `pool`, where streams[j] ==
/// Rng::for_stream(key, begin + j) for j in [0, streams.size()).  A job
/// that feeds its streams to SaEngine::anneal_batch* therefore produces
/// per-index results bit-identical for any block size and thread count.
/// Jobs must confine writes to the slots [begin, begin + streams.size()).
/// Blocks until done; the first exception thrown by a job is rethrown.
/// count == 0 draws nothing.
void run_blocks(ThreadPool& pool, std::size_t count, std::size_t max_block,
                Rng& rng,
                const std::function<void(std::size_t, std::vector<Rng>&)>& job);

}  // namespace quamax::core
