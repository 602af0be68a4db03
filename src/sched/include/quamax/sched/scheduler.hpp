// quamax::sched — async multi-device decode scheduler (paper §2/§7;
// ROADMAP: "multi-chip sharding", "EDF or slack-aware queue policies",
// "async streaming API").
//
// PR 3's DecodeService drained one FIFO synchronously onto interchangeable
// devices.  The Scheduler generalizes that event loop into the data-center
// shape the paper's C-RAN vision implies (and Kasi et al.'s NextG
// feasibility analysis models): RAN front-ends SUBMIT cell jobs — uplink
// detection or downlink VPP precoding (serve::CellJob) — as they arrive, a
// pool of topology-distinct QA devices (sched::DeviceSet) absorbs them, and
// completions stream back asynchronously.  Both directions compete for the
// same devices; shape-aware routing and wave packing only ever see the
// logical variable count, so mixed-direction waves of one shape are legal.
//
//   submit(job) ───► staged ──admit──► pending (policy-ordered view)
//                                         │ shape-aware routing: a wave only
//                                         ▼ lands on a device it embeds on
//                              per-device waves on the virtual clock
//                                         │
//   collect(t) ◄── decode compute (ThreadPool, per-wave RNG streams) ◄──┘
//
// The two-clock split of PR 3 is preserved exactly:
//
//   * The VIRTUAL clock advances through submit()/advance_to()/finish():
//     dispatch rounds pop the earliest-free device, admit every job released
//     by that instant, optionally shed doomed jobs (drop_late), pick the
//     policy-best job whose shape fits the device, and charge the wave
//     program_overhead_us + num_anneals * (T_a + T_p).  Rounds never run
//     past the submission horizon, so a job can never miss a wave it should
//     have joined — the async path's timeline is BIT-IDENTICAL to feeding
//     the same workload through a batch run.
//
//   * The WALL clock only pays for decode compute, executed lazily when
//     collect() needs completed waves: wave w draws all randomness from
//     Rng::for_stream(key, w) and runs on a lane-local worker built for its
//     device's chip, so records are bit-identical at any num_threads /
//     batch_replicas setting AND any submit/poll interleaving.
//
// Warm-start serving (SchedConfig::warm_start): on coherent workloads
// (serve::LoadConfig::coherence) an uplink job whose same-block predecessor
// already completed is annealed in REVERSE from the predecessor's decoded
// configuration at a reduced quota (warm_num_anneals), cutting the wave's
// virtual-clock cost.  Warm eligibility is a pure virtual-clock predicate
// and warm waves draw from their own RNG key family, so both clocks keep
// every determinism contract above (see ARCHITECTURE.md "Warm-start
// serving").
//
// serve::DecodeService delegates its dispatch to this engine; SchedClient
// (client.hpp) is the streaming front end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/anneal/warm_start.hpp"
#include "quamax/core/thread_pool.hpp"
#include "quamax/fault/plan.hpp"
#include "quamax/obs/trace.hpp"
#include "quamax/sched/device_set.hpp"
#include "quamax/sched/policy.hpp"
#include "quamax/serve/job.hpp"

namespace quamax::sched {

/// The serving stack's annealer defaults: the library baseline with the
/// sweep kernel switched to branch-free float32 threshold acceptance.
/// bench_serve_load's soak gate holds threshold32's miss-rate / goodput /
/// BER curves to parity with exact at paper-scale load, and the float32
/// kernel is the throughput winner on the ICE-off shared-coefficient
/// serving path.  Override via --accept-mode / QUAMAX_ACCEPT_MODE.
inline anneal::AnnealerConfig serving_annealer_defaults() {
  anneal::AnnealerConfig cfg;
  cfg.accept_mode = anneal::AcceptMode::kThreshold32;
  return cfg;
}

/// The one wave-sizing rule shared by the engine's dispatch
/// (Scheduler::effective_capacity) and the serve layer's public capacity
/// accessor (DecodeService::wave_capacity): packing off = one job per wave;
/// otherwise the chip capacity, clamped by max_wave_jobs (0 = no extra cap).
inline std::size_t clamp_wave_jobs(std::size_t chip_capacity, bool packing,
                                   std::size_t max_wave_jobs) {
  if (!packing) return 1;
  if (max_wave_jobs == 0) return chip_capacity;
  return chip_capacity < max_wave_jobs ? chip_capacity : max_wave_jobs;
}

struct SchedConfig {
  /// Chip, schedule, ICE, and replica configuration of every device worker
  /// (chip fields describe the BASE chip; DeviceSpecs refine it per device).
  /// Defaults to threshold32 acceptance (serving_annealer_defaults).
  anneal::AnnealerConfig annealer = serving_annealer_defaults();
  /// One spec per modeled device; empty means one device with the base chip.
  std::vector<DeviceSpec> devices;
  QueuePolicy policy = QueuePolicy::kFifo;
  std::size_t num_anneals = 50;     ///< N_a per wave
  double program_overhead_us = 10.0;
  bool packing = true;              ///< false = one job per wave
  std::size_t max_wave_jobs = 0;    ///< extra cap below chip capacity; 0 = none
  bool drop_late = false;           ///< shed jobs already doomed to miss
  std::size_t num_threads = 1;      ///< decode-compute lanes (0 = all cores)
  std::uint64_t seed = 0xC8A17;     ///< root of all decode RNG streams

  /// Warm-start incremental annealing across coherent subframes: an uplink
  /// job whose coherence-chain predecessor (CellJob::predecessor) was
  /// dispatched and completed — on the virtual clock — by this dispatch
  /// instant is served by a REVERSE anneal seeded from the predecessor's
  /// best decoded configuration, at the (typically much smaller)
  /// warm_num_anneals quota.  Waves are warmness-homogeneous; warm waves
  /// draw their decode randomness from a key family disjoint from the cold
  /// one, so cold-wave results never depend on the warm path's draws.
  /// Off by default: warm_start = false reproduces the historical engine
  /// bit-for-bit, coherent workload or not.
  bool warm_start = false;
  /// Reverse-schedule depth for warm waves: anneal back to
  /// beta(reverse_depth) from the seed and re-descend (see
  /// anneal::Schedule::reverse_depth).
  double warm_reverse_depth = 0.85;
  /// N_a for warm waves; 0 = use num_anneals (seed reuse without the
  /// anneal-quota cut).
  std::size_t warm_num_anneals = 0;

  /// Deterministic fault schedule (fault::FaultPlan): device outage
  /// windows, mid-run defect growth, and per-wave anneal/readout failure
  /// injection, all on the virtual clock.  nullptr — or a plan for which
  /// FaultPlan::empty() holds — reproduces the historical fault-free engine
  /// bit-for-bit: the fault path consumes no RNG (injection draws come from
  /// the plan's OWN seed via a dedicated stream family keyed by wave id,
  /// never from `seed`'s root stream) and adds no virtual-clock events.
  std::shared_ptr<const fault::FaultPlan> fault;
  /// Retry budget per job: a member of a failed wave is re-queued (policy
  /// re-sorted, earliest re-dispatch fail + retry_backoff_us) at most this
  /// many times before the fallback ladder ends it.  0 = no retries.
  std::size_t max_retries = 0;
  double retry_backoff_us = 0.0;
  /// Classical fallback (fault::classical_decode, zero RNG, driver thread):
  /// a job the annealing path cannot serve — retry budget exhausted, shape
  /// no longer embeddable after defect growth, or already doomed to miss
  /// its deadline — completes INSTANTLY at classical linear-decoder BER
  /// instead of failing or dropping.  With a fallback configured the doom
  /// sweep runs even when drop_late is off (degraded-mode guarantee: slack
  /// that cannot fit an anneal is served classically, and fallback wins
  /// over drop_late for doomed jobs).  kNone preserves historical behavior.
  fault::FallbackMode fallback = fault::FallbackMode::kNone;

  /// Optional trace sink (non-owning; nullptr = tracing off).  The engine
  /// emits job-submit / wave-dispatch / job-drop events from the
  /// virtual-clock code paths, which all run serially on the driver thread
  /// — so the sink needs no locks and the decode compute never touches it.
  /// Emission reads already-computed values only and consumes no RNG:
  /// records/waves are bit-identical with tracing on or off.
  obs::TraceSink* trace = nullptr;
};

class Scheduler {
 public:
  /// Called at each job's dispatch (or drop) with its wave completion (or
  /// drop) time — the closed-loop feedback edge DecodeService's feeds use.
  using DispatchHook =
      std::function<void(const serve::CellJob&, double completion_us)>;

  /// `devices` may share a prebuilt DeviceSet (compiled placements persist
  /// across scheduler instances); nullptr builds one from the config.
  explicit Scheduler(SchedConfig config,
                     std::shared_ptr<DeviceSet> devices = nullptr);

  const SchedConfig& config() const noexcept { return config_; }
  const std::shared_ptr<DeviceSet>& device_set() const noexcept { return devices_; }

  /// Virtual-clock cost of one COLD wave, any occupancy or device (also the
  /// conservative service estimate drop_late sweeps and the slack policy
  /// use: a job that would only survive if it drew a warm wave is treated
  /// as doomed, deterministically).
  double wave_service_us() const;

  /// Virtual-clock cost of one warm wave: program overhead plus the warm
  /// anneal quota at the (unchanged) per-anneal duration — the reverse
  /// schedule splits the same T_a between its two legs.
  double warm_wave_service_us() const;

  /// N_a actually charged/run for warm waves (warm_num_anneals, or
  /// num_anneals when 0).
  std::size_t warm_quota() const;

  void set_dispatch_hook(DispatchHook hook) { hook_ = std::move(hook); }

  /// Stages one job — either direction, implicitly converted from a
  /// DecodeJob or PrecodeJob — and advances the virtual clock to its
  /// arrival (rounds strictly before it are dispatched first).  Jobs must
  /// be submitted in non-decreasing arrival order — the scheduler cannot
  /// dispatch into a past an unseen job should have joined.  Returns the
  /// job's sequence number (the ticket index).  Throws CapacityError when
  /// no device in the pool can embed the job's shape.
  std::size_t submit(serve::CellJob job);

  /// Dispatches every round whose time lies strictly before `horizon_us`.
  /// submit() calls this implicitly; explicit calls let a driver flush the
  /// timeline up to a known-quiet instant (e.g. the feed's next release).
  void advance_to(double horizon_us);

  /// Unbounded-horizon variant for closed loops stalled on feedback: runs
  /// rounds until at least one job dispatches or drops (firing the hook),
  /// returning false when no work remains.
  bool advance_until_dispatch();

  /// Runs every remaining round and executes every wave's decode; after
  /// this, records() is complete and final.
  void finish();

  /// Latest submitted arrival — the streaming client's notion of "now".
  double now_us() const noexcept { return now_us_; }
  std::size_t num_submitted() const noexcept { return jobs_.size(); }

  /// Executes the decode of every wave completed by `t` and returns the
  /// sequence numbers of jobs finalized by `t` (wave completion or drop
  /// time <= t) that no earlier collect() returned, ordered by
  /// (completion time, sequence).  The per-seq records are final once
  /// returned.  Pass +infinity after finish() to collect everything.
  std::vector<std::size_t> collect(double t);

  /// Per-job records indexed by sequence number.  Timing fields are final
  /// once the job's wave is dispatched; decode fields once it executes.
  const std::vector<serve::JobRecord>& records() const noexcept { return records_; }
  /// Dispatched waves in dispatch order (wave w decodes from stream w).
  const std::vector<serve::Wave>& waves() const noexcept { return waves_; }

 private:
  /// kInFlight: member of a wave pre-decided to fail — in limbo between the
  /// wave's dispatch and the kWaveFail event at its abort instant, when the
  /// retry/fallback ladder resolves it.  kFailed/kFallback are terminal.
  enum class JobState : std::uint8_t {
    kQueued,
    kDispatched,
    kDropped,
    kInFlight,
    kFailed,
    kFallback
  };
  /// kDeferred: the popped device sits inside an outage window; it was
  /// re-queued at the window's end without advancing any other state.
  enum class Round {
    kNoWork,
    kHorizon,
    kParked,
    kSwept,
    kDispatched,
    kDeferred
  };
  /// Virtual-clock fault timeline entries, processed in (time, insertion)
  /// order by the first round whose effective time reaches them.  Outage
  /// start/end entries are trace-only (scheduling reads the window list
  /// directly); growth applies the defect map; wave-fail runs the
  /// retry/fallback ladder for the failed wave's members.
  enum class FaultKind : std::uint8_t {
    kOutageStart,
    kOutageEnd,
    kGrowth,
    kWaveFail
  };
  struct FaultEvent {
    double t_us = 0.0;
    std::size_t order = 0;  ///< insertion tie-break at equal times
    FaultKind kind = FaultKind::kOutageStart;
    std::size_t index = 0;  ///< outage/growth index in the plan, or wave id
    bool operator>(const FaultEvent& other) const {
      if (t_us != other.t_us) return t_us > other.t_us;
      return order > other.order;
    }
  };

  Round round(double horizon_us);
  void admit_up_to(double t_us);
  void sweep_doomed(double t_free_us);
  /// Pops and applies every fault event with time <= t_us.  Returns true
  /// when a job was FINALIZED (fallback or terminal failure) — progress a
  /// closed-loop driver must observe.
  bool process_faults(double t_us);
  /// End of the outage (union of overlapping windows) covering `t_us` on
  /// `device`; returns t_us when the device is up.
  double outage_until(std::size_t device, double t_us) const;
  /// The instant a wave on `device` spanning [dispatch, completion) would
  /// abort, or +infinity: the earliest unprocessed outage start / defect
  /// growth hitting the span (clamped to dispatch), or an injected
  /// anneal/readout failure drawn from the wave's dedicated fault stream.
  double wave_fail_us(std::size_t device, std::size_t wave_id,
                      double dispatch_us, double completion_us);
  /// Terminal outcomes.  `dispatch_us` is the failed wave's dispatch (==
  /// t_us for never-dispatched jobs); completion is t_us in both cases.
  /// `mid_flight` marks the failed-wave ladder (the job already left the
  /// queue at its wave's dispatch) for the trace events only.
  void finalize_fallback(std::size_t seq, double dispatch_us, double t_us,
                         bool mid_flight = false);
  void finalize_failed(std::size_t seq, double dispatch_us, double t_us,
                       bool mid_flight = false);
  /// Job `seq`'s earliest legal service start at dispatch instant `t_us`
  /// (arrival and retry-backoff readiness both bound it) — the doom
  /// predicate's start time.
  double start_at(std::size_t seq, double t_us) const {
    const double lo = t_us > jobs_[seq].arrival_us ? t_us
                                                   : jobs_[seq].arrival_us;
    return lo > job_ready_us_[seq] ? lo : job_ready_us_[seq];
  }
  /// Whether job `seq` would be warm-started at dispatch instant
  /// `t_free_us`: warm_start on, uplink with a known predecessor that was
  /// dispatched (not dropped), decoded uplink, and completed by
  /// `t_free_us` on the virtual clock.  A pure virtual-clock predicate, so
  /// wave membership is identical at any poll cadence or thread count.
  bool warm_eligible(std::size_t seq, double t_free_us) const;
  std::size_t effective_capacity(std::size_t device, std::size_t shape);
  /// Policy order at dispatch instant `t_us`: feasibility class (slack
  /// only), then deadline (edf/slack), then sequence.
  bool policy_before(std::size_t a, std::size_t b, double t_us) const;
  void dispatch_wave(std::size_t device, double t_free_us, std::size_t seed_seq);
  void execute_due(double t_us);
  void run_wave(std::size_t lane, std::size_t wave_id);

  SchedConfig config_;
  std::shared_ptr<DeviceSet> devices_;
  core::ThreadPool pool_;
  std::uint64_t decode_key_ = 0;
  std::uint64_t warm_key_ = 0;  ///< disjoint stream family for warm waves
  /// Normalized fault plan: nullptr when config_.fault is null or empty, so
  /// `plan_ == nullptr` IS the fault-free fast path everywhere.
  std::shared_ptr<const fault::FaultPlan> plan_;
  std::uint64_t fault_key_ = 0;  ///< keyed by the PLAN's seed, not config seed
  std::vector<std::vector<fault::OutageWindow>> outage_windows_;  ///< per device
  std::priority_queue<FaultEvent, std::vector<FaultEvent>, std::greater<>>
      fault_events_;
  std::size_t fault_event_order_ = 0;
  /// Growth i has been applied to devices_ — wave-fail pre-decision must
  /// only charge waves for growths still ahead of the virtual clock.
  std::vector<char> growth_applied_;
  std::vector<double> job_ready_us_;      ///< retry backoff gate, by seq
  std::vector<std::size_t> job_retries_;  ///< failed attempts, by seq
  anneal::Schedule warm_schedule_;  ///< reverse schedule warm waves run
  /// Seed registry: best decoded configuration per uplink sequence number
  /// (recorded from decode lanes, read when a dependent warm wave runs).
  anneal::WarmStartPlanner planner_;
  std::unordered_map<std::size_t, std::size_t> id_to_seq_;  ///< job id -> seq
  DispatchHook hook_;

  std::vector<serve::CellJob> jobs_;  ///< by sequence number
  std::vector<serve::JobRecord> records_;
  std::vector<JobState> states_;
  std::size_t admit_cursor_ = 0;        ///< first staged (unadmitted) seq
  std::vector<std::size_t> pending_;    ///< admitted, undispatched; seq order
  double now_us_ = 0.0;
  double last_arrival_us_ = 0.0;

  using Device = std::pair<double, std::size_t>;  ///< (free time, id)
  std::priority_queue<Device, std::vector<Device>, std::greater<>> free_devices_;
  std::vector<Device> parked_;  ///< devices with nothing routable; re-armed on admission

  std::vector<serve::Wave> waves_;
  std::vector<char> wave_executed_;  ///< decode ran (execute_due levels)
  /// Due-heaps so a long-lived streaming client's collect() only touches
  /// newly-due items, never rescanning the whole history.
  using Due = std::pair<double, std::size_t>;  ///< (completion time, id)
  std::priority_queue<Due, std::vector<Due>, std::greater<>> unexecuted_waves_;
  std::priority_queue<Due, std::vector<Due>, std::greater<>> undelivered_;  ///< (completion, seq)
  /// workers_[lane][device]: lane-local annealer built for that device's chip.
  std::vector<std::vector<std::unique_ptr<anneal::ChimeraAnnealer>>> workers_;
};

}  // namespace quamax::sched
