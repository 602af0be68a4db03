#include "quamax/obs/window.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "quamax/common/error.hpp"

namespace quamax::obs {
namespace {

/// Number of auto-sized windows when WindowedConfig::window_us is 0: wide
/// enough to resolve a storm dip, coarse enough that smoke-scale runs keep
/// a few jobs per window.
constexpr double kAutoWindows = 20.0;

/// Overlap of [a0, a1] with [b0, b1], clamped at 0.
double overlap(double a0, double a1, double b0, double b1) {
  const double lo = std::max(a0, b0);
  const double hi = std::min(a1, b1);
  return hi > lo ? hi - lo : 0.0;
}

/// Unions possibly-overlapping intervals (in place, sorted by start).
/// Overlapping storm outages on one device must count their union as
/// downtime, not the sum.
std::vector<std::pair<double, double>> union_intervals(
    std::vector<std::pair<double, double>> spans) {
  std::sort(spans.begin(), spans.end());
  std::vector<std::pair<double, double>> merged;
  for (const auto& s : spans) {
    if (!merged.empty() && s.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, s.second);
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

}  // namespace

void WindowedCollector::ingest(const TraceLog& log) {
  for (const auto& e : log.submits()) log_.on_job_submit(e);
  for (const auto& e : log.dispatches()) log_.on_job_dispatch(e);
  for (const auto& e : log.drops()) log_.on_job_drop(e);
  for (const auto& e : log.waves()) log_.on_wave(e);
  for (const auto& e : log.downs()) log_.on_device_down(e);
  for (const auto& e : log.ups()) log_.on_device_up(e);
  for (const auto& e : log.retries()) log_.on_job_retry(e);
  for (const auto& e : log.fallbacks()) log_.on_job_fallback(e);
  finalized_ = false;
}

void WindowedCollector::set_devices(std::size_t count,
                                    std::vector<DevicePower> power) {
  declared_devices_ = std::max(declared_devices_, count);
  if (power.size() > power_.size()) power_ = std::move(power);
  finalized_ = false;
}

void WindowedCollector::merge(const WindowedCollector& other) {
  ingest(other.log_);
  set_devices(other.declared_devices_, other.power_);
}

void WindowedCollector::finalize(double horizon_us) {
  // ---- canonicalize: sort every event vector by (timestamp, id) so the
  // series is a pure function of the event set, not the emission order.
  auto submits = log_.submits();
  auto dispatches = log_.dispatches();
  auto drops = log_.drops();
  auto waves = log_.waves();
  auto downs = log_.downs();
  auto retries = log_.retries();
  auto fallbacks = log_.fallbacks();
  std::sort(submits.begin(), submits.end(), [](const auto& a, const auto& b) {
    return std::tie(a.submit_us, a.job_id) < std::tie(b.submit_us, b.job_id);
  });
  std::sort(dispatches.begin(), dispatches.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.dispatch_us, a.job_id) <
                     std::tie(b.dispatch_us, b.job_id);
            });
  std::sort(drops.begin(), drops.end(), [](const auto& a, const auto& b) {
    return std::tie(a.drop_us, a.job_id) < std::tie(b.drop_us, b.job_id);
  });
  std::sort(waves.begin(), waves.end(), [](const auto& a, const auto& b) {
    return std::tie(a.dispatch_us, a.wave_id) <
           std::tie(b.dispatch_us, b.wave_id);
  });
  std::sort(downs.begin(), downs.end(), [](const auto& a, const auto& b) {
    return std::tie(a.down_us, a.device) < std::tie(b.down_us, b.device);
  });
  std::sort(retries.begin(), retries.end(), [](const auto& a, const auto& b) {
    return std::tie(a.fail_us, a.job_id) < std::tie(b.fail_us, b.job_id);
  });
  std::sort(fallbacks.begin(), fallbacks.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.fallback_us, a.job_id) <
                     std::tie(b.fallback_us, b.job_id);
            });

  // ---- horizon and window grid.
  double latest = horizon_us;
  auto stretch = [&latest](double t) { latest = std::max(latest, t); };
  for (const auto& e : submits) stretch(e.submit_us);
  for (const auto& e : dispatches) stretch(e.completion_us);
  for (const auto& e : drops) stretch(e.drop_us);
  for (const auto& e : waves) stretch(e.failed ? e.fail_us : e.completion_us);
  for (const auto& e : downs) stretch(e.up_us);
  for (const auto& e : fallbacks) stretch(e.fallback_us);
  if (latest <= 0.0) latest = 1.0;  // empty run: one degenerate window

  width_us_ = config_.window_us > 0.0 ? config_.window_us
                                      : latest / kAutoWindows;
  const double windows = std::ceil(latest / width_us_);
  if (!std::isfinite(width_us_) || windows > kMaxWindows) {
    std::ostringstream msg;
    msg << "WindowedCollector: window width " << width_us_ << " us over a "
        << latest << " us horizon needs " << windows << " windows (at most "
        << kMaxWindows << ")";
    throw InvalidArgument(msg.str());
  }
  const std::size_t n =
      std::max<std::size_t>(1, static_cast<std::size_t>(windows));
  horizon_us_ = static_cast<double>(n) * width_us_;

  // Event -> window index; events at the exact horizon land in the last
  // window (the grid is [start, end) except the final window, closed).
  auto win = [&](double t) {
    auto i = static_cast<std::size_t>(t / width_us_);
    return std::min(i, n - 1);
  };

  windows_.assign(n, WindowStats{});
  for (std::size_t i = 0; i < n; ++i) {
    windows_[i].index = i;
    windows_[i].start_us = static_cast<double>(i) * width_us_;
    windows_[i].end_us = static_cast<double>(i + 1) * width_us_;
  }
  totals_ = WindowedTotals{};

  // ---- device pool size: declared count, stretched by observed indices.
  std::size_t num_devices = declared_devices_;
  for (const auto& e : dispatches)
    num_devices = std::max(num_devices, static_cast<std::size_t>(e.device) + 1);
  for (const auto& e : waves)
    num_devices = std::max(num_devices, static_cast<std::size_t>(e.device) + 1);
  for (const auto& e : downs)
    num_devices = std::max(num_devices, static_cast<std::size_t>(e.device) + 1);
  devices_.assign(num_devices, DeviceUsage{});
  for (std::size_t d = 0; d < num_devices; ++d) devices_[d].device = d;
  std::vector<DevicePower> power = power_;
  power.resize(num_devices);  // pad with default 25 kW model

  // ---- per-job terminal bookkeeping: submit time and deadline by id.
  std::map<std::uint64_t, std::pair<double, double>> job_info;  // id -> (submit, deadline)
  for (const auto& e : submits) {
    job_info[e.job_id] = {e.submit_us, e.deadline_us};
    auto& w = windows_[win(e.submit_us)];
    ++w.submitted;
    ++w.queue_depth;  // queue deltas accumulate per window, prefix-summed below
    ++totals_.submitted;
  }

  // Waves: counts at dispatch; queue shrinks by the member count (members
  // leave the queue at dispatch for live AND failed waves alike).
  for (const auto& e : waves) {
    auto& w = windows_[win(e.dispatch_us)];
    ++w.waves;
    ++totals_.waves;
    w.queue_depth -= static_cast<std::int64_t>(e.num_jobs);
    if (e.failed) {
      ++w.failed_waves;
      ++totals_.failed_waves;
    }
    const double end = e.failed ? e.fail_us : e.completion_us;
    totals_.wave_busy_us += end - e.dispatch_us;
    auto& dev = devices_[static_cast<std::size_t>(e.device)];
    ++dev.waves;
    if (e.failed) ++dev.failed_waves;
  }

  // Retries re-enter the queue at the wave's failure instant.
  for (const auto& e : retries) {
    auto& w = windows_[win(e.fail_us)];
    ++w.retries;
    ++w.queue_depth;
    ++totals_.retries;
  }

  // Terminals.  Latency samples are gathered first and added to the
  // per-window sketches in (time, job_id) order so the sketches' running
  // FP sums are canonical too.
  struct Terminal {
    double t_us;
    std::uint64_t job_id;
    double latency_us;
  };
  std::vector<Terminal> terminals;
  terminals.reserve(dispatches.size() + fallbacks.size());

  for (const auto& e : dispatches) {
    auto& w = windows_[win(e.completion_us)];
    ++w.completed;
    ++w.resolved;
    w.bits += static_cast<std::int64_t>(e.num_bits);
    ++totals_.completed;
    ++totals_.resolved;
    totals_.bits += static_cast<std::int64_t>(e.num_bits);
    const auto it = job_info.find(e.job_id);
    const double submit = it == job_info.end() ? e.dispatch_us : it->second.first;
    const double deadline = it == job_info.end() ? 0.0 : it->second.second;
    if (deadline > 0.0 && e.completion_us > deadline) {
      ++w.missed;
      ++totals_.missed;
    }
    terminals.push_back({e.completion_us, e.job_id, e.completion_us - submit});
  }
  for (const auto& e : fallbacks) {
    auto& w = windows_[win(e.fallback_us)];
    ++w.fallbacks;
    ++w.resolved;
    w.bits += static_cast<std::int64_t>(e.num_bits);
    if (!e.mid_flight) --w.queue_depth;
    ++totals_.fallbacks;
    ++totals_.resolved;
    totals_.bits += static_cast<std::int64_t>(e.num_bits);
    if (e.deadline_us > 0.0 && e.fallback_us > e.deadline_us) {
      ++w.missed;
      ++totals_.missed;
    }
    const auto it = job_info.find(e.job_id);
    const double submit = it == job_info.end() ? e.fallback_us : it->second.first;
    terminals.push_back({e.fallback_us, e.job_id, e.fallback_us - submit});
  }
  for (const auto& e : drops) {
    auto& w = windows_[win(e.drop_us)];
    ++w.resolved;
    ++w.missed;  // every drop (queue sweep or retry-budget failure) misses
    ++totals_.resolved;
    ++totals_.missed;
    if (e.mid_flight) {
      ++w.failed;
      ++totals_.failed;
    } else {
      ++w.dropped;
      --w.queue_depth;
      ++totals_.dropped;
    }
  }

  std::sort(terminals.begin(), terminals.end(),
            [](const Terminal& a, const Terminal& b) {
              return std::tie(a.t_us, a.job_id) < std::tie(b.t_us, b.job_id);
            });
  for (const auto& t : terminals) {
    windows_[win(t.t_us)].latency.add(t.latency_us);
    totals_.latency.add(t.latency_us);
  }

  // ---- duty-cycle tiling + energy.  Each phase span is clipped into every
  // window it overlaps; device iteration is index-ordered and wave
  // iteration is canonical, so the FP accumulation order is fixed.
  std::vector<std::vector<std::pair<double, double>>> outages(num_devices);
  for (const auto& e : downs)
    outages[static_cast<std::size_t>(e.device)].push_back(
        {std::max(0.0, e.down_us), std::min(horizon_us_, e.up_us)});

  // Per-device per-window busy/outage microseconds (for idle power and the
  // occupancy series); phases are costed straight into window energy.
  std::vector<double> win_busy(n, 0.0);
  std::vector<double> win_outage(n, 0.0);
  std::vector<std::vector<double>> dev_win_busy(
      num_devices, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> dev_win_outage(
      num_devices, std::vector<double>(n, 0.0));
  std::vector<double> win_energy(n, 0.0);

  auto cost_span = [&](std::size_t device, double s0, double s1, double watts,
                       double* usage_us) {
    if (s1 <= s0) return;
    *usage_us += s1 - s0;
    const auto first = win(s0);
    const auto last = win(std::nextafter(s1, s0));  // span end is exclusive
    for (std::size_t i = first; i <= last; ++i) {
      const double us = overlap(s0, s1, windows_[i].start_us,
                                windows_[i].end_us);
      dev_win_busy[device][i] += us;
      win_energy[i] += watts * us * 1e-6;
    }
  };

  for (const auto& e : waves) {
    const auto d = static_cast<std::size_t>(e.device);
    const auto& p = power[d];
    auto& dev = devices_[d];
    if (e.failed) {
      cost_span(d, e.dispatch_us, e.fail_us, p.anneal_w, &dev.aborted_us);
      continue;
    }
    cost_span(d, e.dispatch_us, e.program_end_us, p.program_w,
              &dev.program_us);
    cost_span(d, e.program_end_us, e.readout_start_us, p.anneal_w,
              &dev.anneal_us);
    cost_span(d, e.readout_start_us, e.completion_us, p.readout_w,
              &dev.readout_us);
  }

  for (std::size_t d = 0; d < num_devices; ++d) {
    for (const auto& span : union_intervals(std::move(outages[d]))) {
      if (span.second <= span.first) continue;
      devices_[d].outage_us += span.second - span.first;
      const auto first = win(span.first);
      const auto last = win(std::nextafter(span.second, span.first));
      for (std::size_t i = first; i <= last; ++i) {
        const double us = overlap(span.first, span.second,
                                  windows_[i].start_us, windows_[i].end_us);
        dev_win_outage[d][i] += us;
        win_energy[i] += power[d].outage_w * us * 1e-6;
      }
    }
  }

  // Idle = the per-window remainder of each device's time slice.
  for (std::size_t d = 0; d < num_devices; ++d) {
    double idle_total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double idle =
          std::max(0.0, width_us_ - dev_win_busy[d][i] - dev_win_outage[d][i]);
      idle_total += idle;
      win_energy[i] += power[d].idle_w * idle * 1e-6;
      win_busy[i] += dev_win_busy[d][i];
      win_outage[i] += dev_win_outage[d][i];
    }
    devices_[d].idle_us = idle_total;
  }

  // Per-device energy from the phase totals (same rates as the window path;
  // the two aggregations agree up to FP association).
  for (std::size_t d = 0; d < num_devices; ++d) {
    auto& dev = devices_[d];
    const auto& p = power[d];
    dev.energy_j = 1e-6 * (p.program_w * dev.program_us +
                           p.anneal_w * (dev.anneal_us + dev.aborted_us) +
                           p.readout_w * dev.readout_us +
                           p.outage_w * dev.outage_us + p.idle_w * dev.idle_us);
    totals_.energy_j += dev.energy_j;
  }
  totals_.joules_per_bit =
      totals_.bits > 0 ? totals_.energy_j / static_cast<double>(totals_.bits)
                       : 0.0;

  // ---- derived per-window rates + running accumulations.
  std::int64_t depth = 0;
  double cum_energy = 0.0;
  std::int64_t cum_bits = 0;
  const double denom_us =
      static_cast<double>(std::max<std::size_t>(1, num_devices)) * width_us_;
  for (std::size_t i = 0; i < n; ++i) {
    auto& w = windows_[i];
    w.busy_us = win_busy[i];
    w.outage_us = win_outage[i];
    w.energy_j = win_energy[i];
    w.miss_rate = w.resolved > 0
                      ? static_cast<double>(w.missed) /
                            static_cast<double>(w.resolved)
                      : 0.0;
    w.occupancy = w.busy_us / denom_us;
    w.watts = w.energy_j / (width_us_ * 1e-6);
    depth += w.queue_depth;  // stored deltas -> prefix sum = depth at end
    w.queue_depth = depth;
    cum_energy += w.energy_j;
    cum_bits += w.bits;
    w.cum_joules_per_bit =
        cum_bits > 0 ? cum_energy / static_cast<double>(cum_bits) : 0.0;
  }

  finalized_ = true;
}

void WindowedCollector::export_registry(Registry& reg) const {
  reg.counter("quamax_windowed_jobs_submitted_total") += totals_.submitted;
  reg.counter("quamax_windowed_jobs_completed_total") += totals_.completed;
  reg.counter("quamax_windowed_jobs_fallback_total") += totals_.fallbacks;
  reg.counter("quamax_windowed_jobs_dropped_total") += totals_.dropped;
  reg.counter("quamax_windowed_jobs_failed_total") += totals_.failed;
  reg.counter("quamax_windowed_jobs_missed_total") += totals_.missed;
  reg.counter("quamax_windowed_retries_total") += totals_.retries;
  reg.counter("quamax_windowed_waves_total") += totals_.waves;
  reg.counter("quamax_windowed_waves_failed_total") += totals_.failed_waves;
  reg.counter("quamax_windowed_bits_total") += totals_.bits;
  reg.gauge("quamax_windowed_window_us") = width_us_;
  reg.gauge("quamax_windowed_horizon_us") = horizon_us_;
  reg.gauge("quamax_windowed_windows") = static_cast<double>(windows_.size());
  reg.gauge("quamax_windowed_energy_joules") = totals_.energy_j;
  reg.gauge("quamax_windowed_joules_per_bit") = totals_.joules_per_bit;
  reg.gauge("quamax_windowed_wave_busy_us") = totals_.wave_busy_us;
  reg.sketch("quamax_windowed_latency_us").merge(totals_.latency);
  for (const auto& dev : devices_) {
    const std::string p =
        "quamax_device_" + std::to_string(dev.device) + "_";
    reg.gauge(p + "busy_us") = dev.busy_us();
    reg.gauge(p + "idle_us") = dev.idle_us;
    reg.gauge(p + "outage_us") = dev.outage_us;
    reg.gauge(p + "energy_joules") = dev.energy_j;
    reg.gauge(p + "duty_cycle") =
        horizon_us_ > 0.0 ? dev.busy_us() / horizon_us_ : 0.0;
  }
}

}  // namespace quamax::obs
