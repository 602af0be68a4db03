// Windowed telemetry: tumbling virtual-clock windows over the TraceSink
// event stream (obs v2).
//
// PR 8's tracing answers "what happened to job 17"; the end-of-run digest
// answers "how did the run do on average".  Neither shows miss rate or p99
// *evolving* under a fault storm or a load ramp — the outage dip and the
// recovery are invisible in a single aggregate.  WindowedCollector fills
// that gap: it tiles the virtual-clock timeline [0, H] with N equal-width
// tumbling windows and buckets every trace event into the window containing
// its timestamp, producing a per-window time series of throughput, miss
// rate, retries/fallbacks, queue depth, wave occupancy, and latency
// percentiles (per-window QuantileSketch), plus per-device duty-cycle and
// energy accounting.
//
// Determinism contract (the PR 8 hard rule, unchanged):
//   * The collector is a TraceSink — it only BUFFERS events when attached
//     live, or replays a finished TraceLog via ingest().  It consumes no
//     RNG, takes no lock, and alters no virtual-clock decision; serving
//     digests are byte-identical with windowing on or off (CI gates it).
//   * finalize() canonicalizes: every event vector is sorted by
//     (timestamp, id) before any accumulation, so the windowed series is a
//     pure function of the event SET — independent of emission order,
//     shard interleaving, threads, replicas, or poll cadence.
//   * merge() concatenates raw event buffers; finalize() then re-derives
//     from the canonical order.  merge is therefore associative and
//     commutative BIT-FOR-BIT: merging per-shard/per-device collectors in
//     any grouping yields the identical series (tests pin this).
//
// Duty-cycle / energy model (arXiv 2109.01465, "A Cost and Power
// Feasibility Analysis of Quantum Annealing for NextG Cellular Wireless
// Networks"): a QA data-center unit draws ~25 kW essentially constantly —
// the cryogenic plant dominates and does not modulate with load — so every
// DevicePower phase rate defaults to 25 kW and the interesting output is
// joules-per-decoded-bit, which improves only by decoding MORE BITS per
// wall-second, exactly the paper's throughput argument.  Phase rates are
// still separate knobs so experiments can model gated readout electronics
// or powered-down outages.  Each device's horizon is tiled exactly:
// program + anneal + readout spans from live waves, aborted spans from
// failed waves ([dispatch, fail], costed at the anneal rate), outage time
// (unioned DeviceDown windows), and idle = the remainder — metrics_check.py
// asserts the tiling sums to the horizon per device.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "quamax/obs/registry.hpp"
#include "quamax/obs/sketch.hpp"
#include "quamax/obs/trace.hpp"

namespace quamax::obs {

/// Per-phase electrical power of one modeled device, in watts.  Defaults
/// follow arXiv 2109.01465's ~25 kW constant-draw annealing unit (cryogenic
/// plant dominated, load-independent).
struct DevicePower {
  double idle_w = 25000.0;     ///< no wave in flight, device up
  double program_w = 25000.0;  ///< programming half of the wave overhead
  double anneal_w = 25000.0;   ///< annealing span (and aborted failed waves)
  double readout_w = 25000.0;  ///< readout half of the wave overhead
  double outage_w = 25000.0;   ///< inside a fault::OutageWindow
};

/// One tumbling window's accumulated series point.  Counters bucket events
/// by timestamp; rates are derived at finalize() from the window's own
/// counts (miss_rate over RESOLVED jobs, occupancy over device-time).
struct WindowStats {
  std::size_t index = 0;
  double start_us = 0.0;
  double end_us = 0.0;

  std::int64_t submitted = 0;  ///< jobs admitted (JobSubmit)
  std::int64_t completed = 0;  ///< live QA completions (at completion_us)
  std::int64_t fallbacks = 0;  ///< jobs degraded to the classical decoder
  std::int64_t dropped = 0;    ///< queue-side drops (deadline sweep, unservable)
  std::int64_t failed = 0;     ///< mid-flight terminal failures (retry budget)
  std::int64_t retries = 0;    ///< failed-wave members re-queued
  std::int64_t missed = 0;     ///< resolved jobs that missed their deadline
  std::int64_t resolved = 0;   ///< completed + fallbacks + dropped + failed
  std::int64_t waves = 0;      ///< waves dispatched (at dispatch_us)
  std::int64_t failed_waves = 0;
  std::int64_t bits = 0;       ///< payload bits decoded (live + fallback)

  double busy_us = 0.0;    ///< device-time occupied by waves, clipped in
  double outage_us = 0.0;  ///< device-time inside outages, clipped in
  double energy_j = 0.0;   ///< all devices, all phases (idle/outage incl.)

  double miss_rate = 0.0;  ///< missed / resolved (0 when none resolved)
  double occupancy = 0.0;  ///< busy_us / (num_devices * width)
  double watts = 0.0;      ///< energy_j / window seconds (fleet average)
  double cum_joules_per_bit = 0.0;  ///< cumulative energy / cumulative bits

  std::int64_t queue_depth = 0;  ///< jobs queued at window end (exact)

  QuantileSketch latency;  ///< terminal latency (resolve − submit) of jobs
                           ///< resolving in this window (served jobs only)
};

/// One device's duty-cycle tiling over the accounting horizon [0, H].
/// program + anneal + readout + aborted + outage + idle == H exactly
/// (idle is defined as the remainder; the validator asserts it stays >= 0,
/// which holds because waves never overlap outages on their own device).
struct DeviceUsage {
  std::size_t device = 0;
  double program_us = 0.0;
  double anneal_us = 0.0;
  double readout_us = 0.0;
  double aborted_us = 0.0;  ///< failed waves' [dispatch, fail] spans
  double outage_us = 0.0;   ///< unioned DeviceDown windows, clipped to [0,H]
  double idle_us = 0.0;     ///< H - all of the above
  double energy_j = 0.0;
  std::int64_t waves = 0;
  std::int64_t failed_waves = 0;

  /// Wave-occupied device time (everything but outage and idle).
  double busy_us() const noexcept {
    return program_us + anneal_us + readout_us + aborted_us;
  }
};

/// Run-level totals, accumulated from the same canonical event order as the
/// windows so digest cross-checks are exact.  wave_busy_us is computed
/// INDEPENDENTLY of the per-device phase attribution (straight sum of wave
/// extents) — the energy-conservation gate compares the two paths.
struct WindowedTotals {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t fallbacks = 0;
  std::int64_t dropped = 0;
  std::int64_t failed = 0;
  std::int64_t retries = 0;
  std::int64_t missed = 0;
  std::int64_t resolved = 0;
  std::int64_t waves = 0;
  std::int64_t failed_waves = 0;
  std::int64_t bits = 0;
  double wave_busy_us = 0.0;
  double energy_j = 0.0;
  double joules_per_bit = 0.0;  ///< energy_j / bits (0 when no bits decoded)
  QuantileSketch latency;
};

struct WindowedConfig {
  /// Tumbling window width in virtual-clock microseconds; 0 picks
  /// horizon / 20 automatically at finalize().
  double window_us = 0.0;
};

/// Buffers trace events (live as a TraceSink, or replayed via ingest) and
/// derives the windowed series + device accounting at finalize().  See the
/// header comment for the determinism contract.
class WindowedCollector final : public TraceSink {
 public:
  /// Most windows finalize() will derive; a width that would tile the
  /// horizon with more is rejected with InvalidArgument.
  static constexpr std::size_t kMaxWindows = 100'000;

  explicit WindowedCollector(WindowedConfig config = {}) : config_(config) {}

  // -- event intake (driver thread; buffer-only, nothing derived here) ----
  void on_job_submit(const JobSubmitEvent& e) override { log_.on_job_submit(e); }
  void on_job_dispatch(const JobDispatchEvent& e) override {
    log_.on_job_dispatch(e);
  }
  void on_job_drop(const JobDropEvent& e) override { log_.on_job_drop(e); }
  void on_wave(const WaveEvent& e) override { log_.on_wave(e); }
  void on_device_down(const DeviceDownEvent& e) override {
    log_.on_device_down(e);
  }
  void on_device_up(const DeviceUpEvent& e) override { log_.on_device_up(e); }
  void on_job_retry(const JobRetryEvent& e) override { log_.on_job_retry(e); }
  void on_job_fallback(const JobFallbackEvent& e) override {
    log_.on_job_fallback(e);
  }

  /// Replays a finished TraceLog into the buffer, so binaries can keep ONE
  /// sink attached to the scheduler (the TraceLog they already write
  /// Chrome traces from) and window it after the run.
  void ingest(const TraceLog& log);

  /// Declares the device-pool size and per-device power model.  Without
  /// this the pool size is inferred from the events — which under-counts
  /// idle devices that never saw a wave, so serving binaries always call
  /// it.  `power` entries map by device index; a short (or empty) vector is
  /// padded with the default 25 kW model.
  void set_devices(std::size_t count, std::vector<DevicePower> power = {});

  /// Derives windows, device usage, and totals from the buffered events.
  /// `horizon_us` fixes the accounting horizon; 0 infers the latest event
  /// timestamp.  The window count is ceil(horizon / width) with the last
  /// window padded so N * width tiles [0, H] exactly.  Throws
  /// InvalidArgument when the width is not finite or the count would
  /// exceed kMaxWindows.  Idempotent: calling
  /// again re-derives from scratch (e.g. after a merge).
  void finalize(double horizon_us = 0.0);

  /// Folds another collector's RAW event buffer (and device declarations)
  /// into this one.  Call finalize() afterwards; because finalize sorts
  /// canonically, merge order cannot change any derived byte.
  void merge(const WindowedCollector& other);

  bool finalized() const noexcept { return finalized_; }
  double width_us() const noexcept { return width_us_; }
  double horizon_us() const noexcept { return horizon_us_; }
  std::size_t num_devices() const noexcept { return devices_.size(); }
  const std::vector<WindowStats>& windows() const { return windows_; }
  const std::vector<DeviceUsage>& devices() const { return devices_; }
  const WindowedTotals& totals() const { return totals_; }
  const std::vector<DevicePower>& power() const { return power_; }

  /// Snapshots totals + per-device accounting into `reg` as
  /// `quamax_windowed_*` counters/gauges/sketches (the Prometheus-style
  /// exposition reads this).  Requires finalize().
  void export_registry(Registry& reg) const;

 private:
  WindowedConfig config_;
  TraceLog log_;  ///< raw event buffer (reused as storage; order irrelevant)
  std::size_t declared_devices_ = 0;
  std::vector<DevicePower> power_;

  bool finalized_ = false;
  double width_us_ = 0.0;
  double horizon_us_ = 0.0;
  std::vector<WindowStats> windows_;
  std::vector<DeviceUsage> devices_;
  WindowedTotals totals_;
};

}  // namespace quamax::obs
