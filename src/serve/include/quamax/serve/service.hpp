// quamax::serve — deadline-aware C-RAN decode service (paper §2, §7).
//
// The paper's deployment story is a centralized RAN where ONE annealing
// processor absorbs the uplink detection load of many base stations,
// amortizing anneals by §4-packing several users' problems into each chip
// wave while HARQ-style deadlines bound per-job latency.  DecodeService
// models that serving loop end to end:
//
//   arrivals ──► sched::Scheduler (policy queue, shape-keyed waves) ──►
//   modeled QA devices (virtual clock) ──► ChimeraAnnealer workers on a
//   core::ThreadPool (real compute) ──► unembed + decode ──► ServiceStats
//
// Two clocks, strictly separated:
//
//   * The VIRTUAL clock drives every latency number.  Job arrivals,
//     dispatches, and completions advance a discrete-event timeline where a
//     wave occupies one of `num_devices` modeled QA processors for
//     program_overhead_us + num_anneals * (T_a + T_p) microseconds — the
//     figure the paper charges per anneal batch.  The timeline is computed
//     serially and is a pure function of (config, jobs), so queueing /
//     service / total latencies and the deadline-miss rate are EXACTLY
//     reproducible.
//
//   * The WALL clock only pays for the decode compute: after the timeline
//     fixes each wave's membership, the waves fan out across a ThreadPool of
//     lane-local ChimeraAnnealer workers (sharing one shape-keyed
//     EmbeddingCache) that actually anneal, unembed, and decode bits.  Wave
//     w draws all randomness from the counter-derived stream
//     Rng::for_stream(key, w), so decode results — and therefore the full
//     ServiceReport — are bit-identical at ANY num_threads setting
//     (tests/serve_test.cpp enforces this).
//
// Since PR 5 the dispatch engine itself lives in quamax::sched: the service
// builds a sched::Scheduler per run and feeds it arrivals, which is where
// multi-chip sharding (per-device defect maps + device-affine embedding
// caches, ServiceConfig::device_specs), pluggable queue policies
// (ServiceConfig::queue_policy), and the async submit/poll API
// (sched::SchedClient) come from.  DecodeService remains the batch
// (run-to-completion) front end over that engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/chimera/embedding_cache.hpp"
#include "quamax/fault/plan.hpp"
#include "quamax/sched/device_set.hpp"
#include "quamax/sched/policy.hpp"
#include "quamax/sched/scheduler.hpp"
#include "quamax/serve/job.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/stats.hpp"

namespace quamax::serve {

struct ServiceConfig {
  /// Chip, schedule, ICE, and replica configuration of every worker.  The
  /// worker's own num_threads is forced to 1 — the service parallelizes
  /// across waves, not inside them.
  ///
  /// The serve-layer DEFAULT accept mode is kThreshold32 (not the
  /// library-wide kExact): bench_serve_load's soak gate holds the
  /// miss-rate / goodput / BER curves of threshold32 and exact to parity
  /// at paper-scale load, and the float32 branch-free kernel is the
  /// throughput winner for the ICE-off shared-coefficient serving path.
  /// Override via --accept-mode / QUAMAX_ACCEPT_MODE or directly here.
  anneal::AnnealerConfig annealer = sched::serving_annealer_defaults();
  std::size_t num_anneals = 50;  ///< N_a per wave (every member shares it)
  /// Modeled QA processors serving waves on the VIRTUAL clock.  This is
  /// capacity the latency model charges for — independent of num_threads,
  /// which only accelerates the wall-clock compute.  Ignored when
  /// `device_specs` is non-empty.
  std::size_t num_devices = 1;
  /// Per-device defect maps (paper §3.3's fabrication faults, one map per
  /// chip): device d runs the base `annealer` chip with device_specs[d]'s
  /// faults applied, owns a device-affine embedding cache, and only
  /// receives waves whose shape embeds on it (shape-aware routing).  Empty
  /// = `num_devices` identical copies of the base chip (the PR-3 model).
  std::vector<sched::DeviceSpec> device_specs;
  /// Dispatch-order discipline of the scheduler queue (fifo preserves the
  /// PR-3 behavior; edf/slack are the deadline-aware policies
  /// bench_serve_load sweeps).  Knob: --queue-policy / QUAMAX_QUEUE_POLICY.
  sched::QueuePolicy queue_policy = sched::QueuePolicy::kFifo;
  /// Compute lanes for wave execution (0 = one per hardware thread).
  /// Results are bit-identical at any setting.
  std::size_t num_threads = 1;
  /// Wave packing on (first-fit up to chip capacity) or off (one job per
  /// wave — the unamortized baseline bench_serve_load compares against).
  bool packing = true;
  std::size_t max_wave_jobs = 0;  ///< extra cap below chip capacity; 0 = none
  /// Per-wave programming + readout overhead charged on the virtual clock
  /// (the QPU access-time component that is not annealing).
  double program_overhead_us = 10.0;
  /// Admission control: at each dispatch instant, drop queued head jobs
  /// whose deadline cannot be met even by immediate service (counted as
  /// both drops and misses; they never consume a device).
  bool drop_late = false;
  std::uint64_t seed = 0xC8A17;  ///< root of all decode RNG streams

  /// Warm-start incremental annealing across coherent subframes: forwarded
  /// to sched::SchedConfig::warm_start (see scheduler.hpp).  Pair with a
  /// coherent workload (LoadConfig::coherence > 0) — on i.i.d. traffic no
  /// job ever has a predecessor and the flag is a no-op.
  bool warm_start = false;
  /// Reverse-schedule depth for warm waves.
  double warm_reverse_depth = 0.85;
  /// Warm-wave anneal quota; 0 = num_anneals (no quota cut).
  std::size_t warm_num_anneals = 0;

  /// Deterministic fault schedule forwarded to sched::SchedConfig::fault
  /// (see scheduler.hpp): device outage windows, mid-run defect growth, and
  /// per-wave anneal/readout failure injection.  nullptr / empty plan =
  /// the historical fault-free service, bit for bit.  Knobs:
  /// --fault-plan / QUAMAX_FAULT_PLAN (a fault::load_fault_plan file).
  std::shared_ptr<const fault::FaultPlan> fault;
  /// Retry budget per job for members of failed waves (0 = no retries).
  /// Knob: --max-retries / QUAMAX_MAX_RETRIES.
  std::size_t max_retries = 0;
  /// Delay before a retried job may re-dispatch, added to the fail instant.
  double retry_backoff_us = 0.0;
  /// Classical fallback decoder for jobs the annealing path cannot serve
  /// (fault::classical_decode — ZF or MMSE uplink, ZF precoding downlink).
  /// Knob: --fallback / QUAMAX_FALLBACK (none|zf|mmse).
  fault::FallbackMode fallback = fault::FallbackMode::kNone;

  /// Optional trace sink forwarded to sched::SchedConfig::trace (non-owning;
  /// nullptr = off).  Sinks observe the virtual-clock timeline only — every
  /// report is bit-identical with tracing on or off (obs_test gates this).
  obs::TraceSink* trace = nullptr;
};

/// Everything a service run produced: aggregate stats, per-job records (in
/// admission order), and the dispatched waves with their membership.
struct ServiceReport {
  ServiceStats stats;
  std::vector<JobRecord> jobs;
  std::vector<Wave> waves;
};

class DecodeService {
 public:
  explicit DecodeService(ServiceConfig config);

  const ServiceConfig& config() const noexcept { return config_; }

  /// The device pool: per-device chip graphs and embedding caches, shared
  /// by every run of this service (and reusable by a sched::Scheduler or
  /// SchedClient built on the same chips).
  const std::shared_ptr<sched::DeviceSet>& device_set() const noexcept {
    return devices_;
  }

  /// Device 0's shape-keyed embedding cache (the PR-3 accessor; with
  /// uniform devices every device shares this object).
  const std::shared_ptr<chimera::EmbeddingCache>& embedding_cache() const noexcept {
    return devices_->cache(0);
  }

  /// Jobs one wave may carry for `shape` under the active packing config,
  /// on the best-capacity device of the pool.
  std::size_t wave_capacity(std::size_t shape);

  /// Virtual-clock cost of one wave, any occupancy: program_overhead_us +
  /// num_anneals * (T_a + T_p).  Occupancy-independence is the packing win.
  double wave_service_us() const;

  /// Open-loop run: serves `jobs` (any order; the service sorts by arrival)
  /// to completion and returns the full report.  Jobs may mix directions —
  /// LoadGenerator::open_loop with downlink_fraction > 0 produces the
  /// full-duplex workload.
  ServiceReport run(std::vector<CellJob> jobs);

  /// Closed-loop run: a fixed population of generator.config().users
  /// streams, each releasing its next job think_time_us after its previous
  /// job's wave completes, until `num_jobs` jobs have been issued.  Arrival
  /// times therefore FEED BACK from service latency — the closed-loop load
  /// the bench's saturation sweeps rely on.
  ServiceReport run_closed_loop(LoadGenerator& generator, std::size_t num_jobs);

 private:
  class ArrivalFeed;
  class OpenLoopFeed;
  class ClosedLoopFeed;

  sched::SchedConfig sched_config() const;
  ServiceReport serve(ArrivalFeed& feed);

  ServiceConfig config_;
  std::shared_ptr<sched::DeviceSet> devices_;
};

}  // namespace quamax::serve
