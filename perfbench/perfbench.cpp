// quamax wall-clock serving benchmark.
//
// One binary, three workloads (see perfbench/README.md for why each was
// chosen).  For a workload and seed it generates a fixed number of jobs with
// serve::LoadGenerator, serves them through serve::DecodeService, checks the
// outcome of every job, and prints the end-to-end metrics.  With --trace 1 it
// also runs the same workload by hand — the public calls DecodeService::serve
// makes, one by one — and records a wall-clock span around each, with the
// obs::Profiler switched on to split decode into its stages.
//
//   quamax_perfbench --workload backlog --seed 1 --seconds 10 --trace 0
//
// Every line but the last is context or a human-readable table; the last
// line is one JSON object {"correct", "attempted", "failed", "metrics"}.
// A failed correctness check prints the result with "correct": false and
// exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "quamax/obs/profile.hpp"
#include "quamax/obs/trace.hpp"
#include "quamax/sched/scheduler.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/metrics_export.hpp"
#include "quamax/serve/service.hpp"
#include "quamax/serve/stats.hpp"

#ifndef QUAMAX_PERFBENCH_BUILD_TYPE
#define QUAMAX_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef QUAMAX_PERFBENCH_COMPILER
#define QUAMAX_PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace quamax;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  serve::ServiceConfig service;
  serve::LoadConfig load;
  std::size_t jobs = 0;
  std::vector<std::size_t> shapes;  ///< logical variable counts it submits
};

/// 8-user x 8-antenna noise-free BPSK (bench_serve_load's BPSK family) at
/// 1000 jobs/ms against a ~364 jobs/ms service: the queue grows for the
/// whole run, so the scheduler's per-decision scans over the backlog
/// dominate wall time.
Workload backlog_workload() {
  Workload w;
  w.name = "backlog";
  w.load.arrivals = serve::ArrivalKind::kPoisson;
  w.load.offered_load_jobs_per_ms = 1000.0;
  w.load.deadline_us = 1000.0;
  w.load.users = 8;
  w.load.problem.users = 8;
  w.load.problem.mod = wireless::Modulation::kBpsk;
  w.load.problem.kind = wireless::ChannelKind::kRandomPhase;
  w.load.problem.snr_db = std::nullopt;
  w.service.num_anneals = 1;
  w.service.max_wave_jobs = 4;
  w.service.queue_policy = sched::QueuePolicy::kFifo;
  w.jobs = 10000;
  w.shapes = {8};
  return w;
}

/// The paper's headline case: 48 x 48 BPSK at 20 dB, no ML oracle, at
/// rho ~ 0.5.  Decode (SA kernel + embedding) is nearly all of wall time.
Workload large_mimo_workload() {
  Workload w;
  w.name = "large_mimo";
  w.load.arrivals = serve::ArrivalKind::kPoisson;
  w.load.offered_load_jobs_per_ms = 10.0;
  w.load.deadline_us = 1000.0;
  w.load.users = 8;
  w.load.problem.users = 48;
  w.load.problem.mod = wireless::Modulation::kBpsk;
  w.load.problem.kind = wireless::ChannelKind::kRandomPhase;
  w.load.problem.snr_db = 20.0;
  w.load.ml_oracle = false;
  w.service.num_anneals = 40;
  w.service.queue_policy = sched::QueuePolicy::kFifo;
  w.jobs = 1500;
  w.shapes = {48};
  return w;
}

/// Coherent 8-user QPSK uplink with warm starts, mixed with 25% downlink
/// VPP precoding: warm dependency levels, two deadline classes and the
/// field-only delta reduction all run.
Workload coherent_duplex_workload() {
  Workload w;
  w.name = "coherent_duplex";
  w.load.arrivals = serve::ArrivalKind::kSubframe;
  w.load.subframe_period_us = 1600.0;
  w.load.users = 8;
  w.load.deadline_us = 2000.0;
  w.load.problem.users = 8;
  w.load.problem.mod = wireless::Modulation::kQpsk;
  w.load.problem.kind = wireless::ChannelKind::kRandomPhase;
  w.load.problem.snr_db = 20.0;
  w.load.coherence = 0.9;
  w.load.downlink_fraction = 0.25;
  w.load.downlink.users = 4;
  w.load.downlink.antennas = 4;
  w.load.downlink.mod = wireless::Modulation::kQpsk;
  w.load.downlink.kind = wireless::ChannelKind::kRayleigh;
  w.load.downlink.snr_db = 18.0;
  w.load.downlink_deadline_us = 500.0;
  w.service.num_anneals = 16;
  w.service.warm_start = true;
  w.service.warm_num_anneals = 4;
  w.service.queue_policy = sched::QueuePolicy::kFifo;
  w.jobs = 10000;
  w.shapes = {16};
  return w;
}

Workload make_workload(const std::string& name) {
  if (name == "backlog") return backlog_workload();
  if (name == "large_mimo") return large_mimo_workload();
  if (name == "coherent_duplex") return coherent_duplex_workload();
  throw std::invalid_argument("unknown workload '" + name +
                              "' (backlog | large_mimo | coherent_duplex)");
}

/// The scheduler configuration DecodeService builds for `cfg` (its
/// conversion is private; the traced run's digest check proves the copy
/// matches).
sched::SchedConfig sched_config(const serve::ServiceConfig& cfg,
                                const sched::DeviceSet& devices) {
  sched::SchedConfig out;
  out.annealer = cfg.annealer;
  for (std::size_t d = 0; d < devices.size(); ++d)
    out.devices.push_back(devices.spec(d));
  out.policy = cfg.queue_policy;
  out.num_anneals = cfg.num_anneals;
  out.program_overhead_us = cfg.program_overhead_us;
  out.packing = cfg.packing;
  out.max_wave_jobs = cfg.max_wave_jobs;
  out.drop_late = cfg.drop_late;
  out.num_threads = cfg.num_threads;
  out.seed = cfg.seed;
  out.warm_start = cfg.warm_start;
  out.warm_reverse_depth = cfg.warm_reverse_depth;
  out.warm_num_anneals = cfg.warm_num_anneals;
  out.fault = cfg.fault;
  out.max_retries = cfg.max_retries;
  out.retry_backoff_us = cfg.retry_backoff_us;
  out.fallback = cfg.fallback;
  out.trace = cfg.trace;
  return out;
}

// ---------------------------------------------------------------------------
// Correctness: every submitted job ends with exactly one outcome.

/// Returns the number of failed jobs (dropped, terminally failed, or
/// without a record) and appends a message for every broken invariant.
std::size_t check_outcomes(const serve::ServiceReport& report,
                           std::size_t num_jobs,
                           std::vector<std::string>& errors) {
  std::vector<int> seen(num_jobs, 0);
  std::vector<int> in_waves(report.jobs.size(), 0);
  for (const serve::Wave& wave : report.waves) {
    if (wave.failed) continue;
    for (const std::size_t seq : wave.jobs) {
      if (seq >= in_waves.size()) {
        errors.push_back("wave " + std::to_string(wave.id) +
                         " names unknown job seq " + std::to_string(seq));
        continue;
      }
      ++in_waves[seq];
    }
  }
  std::size_t failed = 0;
  for (std::size_t seq = 0; seq < report.jobs.size(); ++seq) {
    const serve::JobRecord& r = report.jobs[seq];
    if (r.job_id >= num_jobs) {
      errors.push_back("record for unknown job " + std::to_string(r.job_id));
      continue;
    }
    ++seen[r.job_id];
    const bool served = !r.dropped && !r.failed && !r.fallback;
    const int outcomes = int(r.dropped) + int(r.failed) + int(r.fallback) +
                         int(served);
    if (outcomes != 1)
      errors.push_back("job " + std::to_string(r.job_id) + " has " +
                       std::to_string(outcomes) + " outcomes");
    if (served && (in_waves[seq] != 1 || r.num_bits == 0))
      errors.push_back("served job " + std::to_string(r.job_id) +
                       " decoded by " + std::to_string(in_waves[seq]) +
                       " waves with " + std::to_string(r.num_bits) + " bits");
    if (!served && in_waves[seq] != 0)
      errors.push_back("unserved job " + std::to_string(r.job_id) +
                       " is a wave member");
    if (r.dropped || r.failed) ++failed;
  }
  for (std::size_t id = 0; id < num_jobs; ++id) {
    if (seen[id] == 0) ++failed;
    if (seen[id] != 1)
      errors.push_back("job " + std::to_string(id) + " has " +
                       std::to_string(seen[id]) + " records");
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end path exactly as a user drives it.

struct RunResult {
  serve::ServiceStats stats;
  std::string digest;
  std::size_t failed = 0;
  double wall_s = 0.0;
};

RunResult untraced_run(serve::DecodeService& service, const Workload& w,
                       std::uint64_t seed, std::vector<std::string>& errors) {
  RunResult out;
  const auto t0 = Clock::now();
  serve::LoadGenerator generator(w.load, seed);
  serve::ServiceReport report = service.run(generator.open_loop(w.jobs));
  out.wall_s = seconds_since(t0);
  out.failed = check_outcomes(report, w.jobs, errors);
  out.digest = report.stats.digest();
  out.stats = std::move(report.stats);
  return out;
}

// ---------------------------------------------------------------------------
// Traced run: DecodeService::serve's public calls, one span each.

struct StageSample {
  std::uint64_t calls = 0;
  double seconds = 0.0;
};

std::map<std::string, StageSample> profiler_stages() {
  std::map<std::string, StageSample> out;
  for (const auto& s : obs::Profiler::instance().table())
    out[s.name] = {s.calls, 1e-9 * static_cast<double>(s.total_ns)};
  return out;
}

struct Span {
  std::string name;
  double start_s = 0.0;  ///< from the start of the traced run
  double end_s = 0.0;
  double seconds() const { return end_s - start_s; }
};

struct TraceResult {
  std::string digest;
  std::size_t failed = 0;
  std::vector<Span> spans;  ///< top-level layer calls, in call order
  double wall_s = 0.0;      ///< loadgen start -> stats end
  double collect_cpu_s = 0.0;
  double quarter_submit_s[4] = {0, 0, 0, 0};
  std::map<std::string, StageSample> loadgen_stages, collect_stages;
  anneal::WarmStartStats compile;
  std::size_t obs_events = 0;
  serve::ServiceReport report;
  std::size_t warm_quota = 0;
};

TraceResult traced_run(serve::DecodeService& service, const Workload& w,
                       std::uint64_t seed, std::vector<std::string>& errors) {
  TraceResult out;
  obs::TraceLog log;
  serve::ServiceConfig cfg = service.config();
  cfg.trace = &log;
  obs::Profiler& prof = obs::Profiler::instance();
  prof.reset();
  prof.set_enabled(true);

  const auto t0 = Clock::now();
  const auto span = [&](const std::string& name, auto&& body) {
    Span s{name, seconds_since(t0), 0.0};
    body();
    s.end_s = seconds_since(t0);
    out.spans.push_back(s);
  };

  serve::LoadGenerator generator(w.load, seed);
  std::vector<serve::CellJob> jobs;
  span("serve.loadgen", [&] {
    jobs = generator.open_loop(w.jobs);
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const serve::CellJob& a, const serve::CellJob& b) {
                       return a.arrival_us < b.arrival_us;
                     });
  });
  out.loadgen_stages = profiler_stages();
  out.compile = generator.compile_stats();
  prof.reset();

  std::unique_ptr<sched::Scheduler> scheduler;
  span("sched.build", [&] {
    scheduler = std::make_unique<sched::Scheduler>(
        sched_config(cfg, *service.device_set()), service.device_set());
  });
  span("sched.submit", [&] {
    const std::size_t n = jobs.size();
    for (std::size_t q = 0; q < 4; ++q) {
      const auto tq = Clock::now();
      for (std::size_t i = q * n / 4; i < (q + 1) * n / 4; ++i) {
        scheduler->advance_to(jobs[i].arrival_us);
        scheduler->submit(std::move(jobs[i]));
      }
      out.quarter_submit_s[q] = seconds_since(tq);
    }
  });
  constexpr double kInf = std::numeric_limits<double>::infinity();
  span("sched.drain", [&] { scheduler->advance_to(kInf); });
  const double cpu0 = process_cpu_s();
  std::vector<std::size_t> delivered;
  span("sched.collect", [&] { delivered = scheduler->collect(kInf); });
  out.collect_cpu_s = process_cpu_s() - cpu0;
  out.collect_stages = profiler_stages();
  prof.set_enabled(false);
  if (delivered.size() != w.jobs)
    errors.push_back("traced collect delivered " +
                     std::to_string(delivered.size()) + " of " +
                     std::to_string(w.jobs) + " jobs");

  out.warm_quota = scheduler->warm_quota();
  span("serve.stats", [&] {
    out.report.jobs = scheduler->records();
    out.report.waves = scheduler->waves();
    for (const serve::JobRecord& record : out.report.jobs)
      out.report.stats.add(record);
    for (const serve::Wave& wave : out.report.waves)
      out.report.stats.add_wave(
          wave.jobs.size(), wave.warm,
          wave.warm ? out.warm_quota : cfg.num_anneals, wave.failed);
  });
  out.wall_s = seconds_since(t0);

  span("obs.window", [&] {
    const serve::WindowedView view =
        serve::window_trace(log, cfg, serve::MetricsOptions{});
    (void)view;
  });
  out.obs_events = log.submits().size() + log.dispatches().size() +
                   log.drops().size() + log.waves().size() +
                   log.downs().size() + log.ups().size() +
                   log.retries().size() + log.fallbacks().size() +
                   log.alerts().size();

  out.failed = check_outcomes(out.report, w.jobs, errors);
  out.digest = out.report.stats.digest();
  return out;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double span_s(const TraceResult& t, const std::string& name) {
  for (const Span& s : t.spans)
    if (s.name == name) return s.seconds();
  return 0.0;
}

StageSample stage(const std::map<std::string, StageSample>& stages,
                  const std::string& name) {
  const auto it = stages.find(name);
  return it == stages.end() ? StageSample{} : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Largest number of jobs arrived but not yet dispatched (or dropped), from
/// the virtual-clock records.  At equal instants departures count first.
std::size_t max_backlog(const std::vector<serve::JobRecord>& records) {
  std::vector<std::pair<double, int>> events;
  events.reserve(2 * records.size());
  for (const serve::JobRecord& r : records) {
    events.emplace_back(r.arrival_us, +1);
    events.emplace_back(r.dropped || r.failed ? r.completion_us : r.dispatch_us,
                        -1);
  }
  std::sort(events.begin(), events.end());
  long depth = 0, peak = 0;
  for (const auto& e : events) peak = std::max(peak, depth += e.second);
  return static_cast<std::size_t>(peak);
}

/// Sweep count of one anneal under `schedule` (forward or reverse).
std::size_t sweeps_per_anneal(anneal::Schedule schedule, bool reverse,
                              double depth) {
  schedule.reverse = reverse;
  if (reverse) schedule.reverse_depth = depth;
  return schedule.betas().size();
}

/// Computed kernel work: physical spins x sweeps x anneals summed over the
/// waves (each member occupies one parallel placement of its shape).
double computed_spin_updates(serve::DecodeService& service,
                             const TraceResult& t) {
  const serve::ServiceConfig& cfg = service.config();
  const std::size_t cold_sweeps =
      sweeps_per_anneal(cfg.annealer.schedule, false, 0.0);
  const std::size_t warm_sweeps = sweeps_per_anneal(
      cfg.annealer.schedule, true, cfg.warm_reverse_depth);
  double total = 0.0;
  for (const serve::Wave& wave : t.report.waves) {
    if (wave.failed) continue;
    const auto placements =
        service.device_set()->cache(wave.device)->parallel(wave.shape);
    double spins = 0.0;
    for (std::size_t i = 0; i < wave.jobs.size() && i < placements->size(); ++i)
      spins += static_cast<double>((*placements)[i].num_physical());
    const double anneals =
        static_cast<double>(wave.warm ? t.warm_quota : cfg.num_anneals);
    total += spins * anneals *
             static_cast<double>(wave.warm ? warm_sweeps : cold_sweeps);
  }
  return total;
}

std::vector<Metric> end_to_end_metrics(const std::vector<double>& walls,
                                       const std::vector<double>& setups,
                                       const serve::ServiceStats& stats,
                                       std::size_t jobs) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const serve::LatencySummary total = stats.total();
  return {
      {"jobs_per_s", static_cast<double>(jobs) / median(walls), "jobs/s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
      // On time = 1 - ServiceStats::miss_rate (drops and failures miss);
      // reported this way because the miss rate is 0 on two workloads.
      {"vc_ontime_rate", 1.0 - stats.miss_rate(), "fraction"},
      {"vc_p50_total_us", total.p50_us, "us_virtual"},
      {"vc_p99_total_us", total.p99_us, "us_virtual"},
      {"vc_goodput_jobs_per_ms", stats.goodput_jobs_per_ms(),
       "jobs/ms_virtual"},
      {"ber", stats.ber(), "fraction"},
  };
}

/// Per-layer metrics of one traced run.
std::vector<Metric> layer_metrics(serve::DecodeService& service,
                                  const Workload& w, const TraceResult& t,
                                  double untraced_wall_s, std::size_t lanes) {
  const double n = static_cast<double>(w.jobs);
  const serve::ServiceStats& stats = t.report.stats;

  const StageSample fields = stage(t.loadgen_stages, "core.update_ml_fields");
  const StageSample embed = stage(t.collect_stages, "chimera.embed");
  const StageSample unembed = stage(t.collect_stages, "chimera.unembed");
  const StageSample sweep = stage(t.collect_stages, "anneal.batch_sweep");
  const double profiled = embed.seconds + unembed.seconds + sweep.seconds;
  const double collect = span_s(t, "sched.collect");
  // Lanes block on a condition variable when idle, so process CPU time
  // during collect is the lanes' busy time.
  const double lane_time = std::max(t.collect_cpu_s, profiled);

  const double q_first = t.quarter_submit_s[0];
  const double q_last = t.quarter_submit_s[3];
  const std::size_t compiles =
      t.compile.full_compiles + t.compile.delta_compiles;

  // Layer self-times on the wall clock.  collect's wall is split across
  // lanes, so it is attributed by each stage's share of collect lane-time;
  // the rest of collect (scoring, merge, ICE) is sched's decode loop.
  const double loadgen = span_s(t, "serve.loadgen");
  const double anneal_wall = collect * ratio(sweep.seconds, lane_time);
  const double chimera_wall =
      collect * ratio(embed.seconds + unembed.seconds, lane_time);
  const double core_wall = std::min(fields.seconds, loadgen);
  const double serve_wall =
      loadgen - core_wall + span_s(t, "serve.stats");
  const double sched_wall = span_s(t, "sched.build") +
                            span_s(t, "sched.submit") +
                            span_s(t, "sched.drain") + collect - anneal_wall -
                            chimera_wall;
  const double covered = serve_wall + core_wall + sched_wall + anneal_wall +
                         chimera_wall;

  std::size_t warm_waves = 0, waves = 0;
  for (const serve::Wave& wave : t.report.waves)
    if (!wave.failed) {
      ++waves;
      warm_waves += wave.warm ? 1 : 0;
    }

  return {
      {"serve.loadgen.us_per_job", 1e6 * loadgen / n, "us/job"},
      {"serve.loadgen.delta_share",
       ratio(static_cast<double>(t.compile.delta_compiles),
             static_cast<double>(compiles)),
       "fraction"},
      {"core.update_ml_fields.us_per_call",
       1e6 * ratio(fields.seconds, static_cast<double>(fields.calls)),
       "us/call"},
      {"sched.submit.us_per_job", 1e6 * span_s(t, "sched.submit") / n,
       "us/job"},
      {"sched.drain.s", span_s(t, "sched.drain"), "s"},
      {"sched.submit.late_early_ratio", ratio(q_last, q_first), "ratio"},
      {"sched.max_backlog", static_cast<double>(max_backlog(t.report.jobs)),
       "jobs"},
      {"sched.waves", static_cast<double>(waves), "count"},
      {"sched.mean_occupancy", stats.mean_wave_occupancy(), "jobs/wave"},
      {"sched.warm_wave_share",
       ratio(static_cast<double>(warm_waves), static_cast<double>(waves)),
       "fraction"},
      {"sched.queue_wait_us_p50", stats.queueing().p50_us, "us_virtual"},
      {"sched.queue_wait_us_p99", stats.queueing().p99_us, "us_virtual"},
      {"sched.collect.us_per_job", 1e6 * collect / n, "us/job"},
      {"sched.collect.lane_util",
       ratio(profiled, collect * static_cast<double>(lanes)), "fraction"},
      {"sched.collect.unattributed_share",
       ratio(lane_time - profiled, lane_time), "fraction"},
      {"chimera.embed.us_per_call",
       1e6 * ratio(embed.seconds, static_cast<double>(embed.calls)), "us/call"},
      {"chimera.embed.share", ratio(embed.seconds, lane_time), "fraction"},
      {"chimera.unembed.us_per_call",
       1e6 * ratio(unembed.seconds, static_cast<double>(unembed.calls)),
       "us/call"},
      {"anneal.batch_sweep.us_per_call",
       1e6 * ratio(sweep.seconds, static_cast<double>(sweep.calls)), "us/call"},
      {"anneal.batch_sweep.share", ratio(sweep.seconds, lane_time), "fraction"},
      {"anneal.spin_updates_per_s",
       ratio(computed_spin_updates(service, t), sweep.seconds),
       "computed/s"},
      {"anneal.total_anneals", static_cast<double>(stats.total_anneals()),
       "count"},
      {"serve.stats.us_per_job", 1e6 * span_s(t, "serve.stats") / n, "us/job"},
      {"obs.events", static_cast<double>(t.obs_events), "count"},
      {"obs.window.us_per_event",
       1e6 * ratio(span_s(t, "obs.window"),
                   static_cast<double>(t.obs_events)),
       "us/event"},
      {"trace.overhead_frac", ratio(t.wall_s, untraced_wall_s) - 1.0,
       "fraction"},
      {"trace.uncovered_share", ratio(t.wall_s - covered, t.wall_s),
       "fraction"},
      {"layer.serve.share", ratio(serve_wall, t.wall_s), "fraction"},
      {"layer.core.share", ratio(core_wall, t.wall_s), "fraction"},
      {"layer.sched.share", ratio(sched_wall, t.wall_s), "fraction"},
      {"layer.chimera.share", ratio(chimera_wall, t.wall_s), "fraction"},
      {"layer.anneal.share", ratio(anneal_wall, t.wall_s), "fraction"},
  };
}

/// Median of each metric across traced repetitions (names/units from the
/// first).
std::vector<Metric> median_metrics(
    const std::vector<std::vector<Metric>>& reps) {
  std::vector<Metric> out = reps.front();
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const auto& rep : reps) values.push_back(rep[m].value);
    out[m].value = median(values);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output.

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t jobs = 0;  ///< 0 = the workload's fixed count
  std::string commit = "unknown";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") o.workload = value;
    else if (arg == "--seed") o.seed = std::stoull(value);
    else if (arg == "--seconds") o.seconds = std::stod(value);
    else if (arg == "--trace") o.trace = std::stoi(value) != 0;
    else if (arg == "--jobs") o.jobs = std::stoull(value);
    else if (arg == "--commit") o.commit = value;
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

int run(const Options& opt) {
  Workload w = make_workload(opt.workload);
  if (opt.jobs > 0) w.jobs = opt.jobs;
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t lanes = std::min<std::size_t>(4, nproc);
  w.service.num_threads = lanes;

  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"jobs\": %zu, "
      "\"lanes\": %zu, \"nproc\": %zu, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\", \"trace\": %d, "
      "\"seconds\": %s}}\n",
      w.name.c_str(), static_cast<unsigned long long>(opt.seed), w.jobs, lanes,
      nproc, json_escape(QUAMAX_PERFBENCH_COMPILER).c_str(),
      json_escape(QUAMAX_PERFBENCH_BUILD_TYPE).c_str(),
      json_escape(opt.commit).c_str(), opt.trace ? 1 : 0,
      json_number(opt.seconds).c_str());
  std::fflush(stdout);

  const auto start = Clock::now();
  std::vector<std::string> errors;

  // Set-up: service construction plus placement compile for every shape the
  // workload submits.  The first service built is the one that serves; the
  // others are timed and dropped.  Set-up is sampled in batches before every
  // repetition so the median spans the whole run, not one instant of it.
  constexpr int kSetupBatch = 101;
  std::vector<double> setups;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto built = std::make_unique<serve::DecodeService>(w.service);
    for (const std::size_t shape : w.shapes) (void)built->wave_capacity(shape);
    setups.push_back(seconds_since(t0));
    return built;
  };
  const auto sample_setup = [&] {
    for (int i = 0; i < kSetupBatch; ++i) (void)set_up();
  };
  const std::unique_ptr<serve::DecodeService> service = set_up();

  // Untraced repetitions of the fixed-size workload.  The traced mode spends
  // ~40% of the budget here (for trace.overhead_frac), the rest traced.
  const double untraced_budget = opt.trace ? 0.4 * opt.seconds : opt.seconds;
  const int min_untraced = opt.trace ? 1 : 3;
  std::vector<double> walls;
  std::string digest;
  serve::ServiceStats stats;
  std::size_t attempted = 0, failed = 0;
  // A repetition starts only if it is expected to end within the budget.
  while (walls.size() < static_cast<std::size_t>(min_untraced) ||
         seconds_since(start) + walls.back() <= untraced_budget) {
    sample_setup();
    RunResult r = untraced_run(*service, w, opt.seed, errors);
    attempted += w.jobs;
    failed += r.failed;
    walls.push_back(r.wall_s);
    if (digest.empty()) {
      digest = r.digest;
      stats = std::move(r.stats);
    } else if (r.digest != digest) {
      errors.push_back("untraced repetition " + std::to_string(walls.size()) +
                       " digest differs");
    }
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = end_to_end_metrics(walls, setups, stats, w.jobs);
  } else {
    std::vector<std::vector<Metric>> reps;
    double last_s = 0.0;
    while (reps.empty() || seconds_since(start) + last_s <= opt.seconds) {
      const auto t0 = Clock::now();
      TraceResult t = traced_run(*service, w, opt.seed, errors);
      last_s = seconds_since(t0);
      attempted += w.jobs;
      failed += t.failed;
      if (t.digest != digest)
        errors.push_back("traced run digest differs from untraced digest");
      reps.push_back(layer_metrics(*service, w, t, median(walls), lanes));
    }
    metrics = median_metrics(reps);
  }

  std::printf("digest fnv1a=%016llx reps=%zu\nuntraced walls (s):",
              static_cast<unsigned long long>(fnv1a(digest)), walls.size());
  for (const double wall : walls) std::printf(" %.4f", wall);
  std::printf("\n");
  for (const Metric& m : metrics)
    std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& e : errors)
    std::fprintf(stderr, "correctness check failed: %s\n", e.c_str());
  if (!errors.empty()) failed = std::max<std::size_t>(failed, 1);

  std::string line = "{\"correct\": ";
  line += errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "quamax_perfbench: %s\n", e.what());
    return 2;
  }
}
