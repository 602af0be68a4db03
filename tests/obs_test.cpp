// quamax::obs — tracing, metrics, and the determinism contract (ISSUE 8).
//
// The contracts under test:
//   * TraceLog captures a COMPLETE job lifecycle: every served job is
//     submitted exactly once and then dispatched or dropped exactly once,
//     dispatch events agree field-for-field with the JobRecords, and every
//     wave's program/anneal/readout spans tile [dispatch, completion]
//     exactly (the §7 latency decomposition);
//   * QuantileSketch keeps count/sum/min/max exact, answers p50/p95/p99
//     within the gated 1% relative error, and merges deterministically —
//     a sketch merged from shards equals the sketch of the whole stream;
//   * attaching a trace sink changes NOTHING: the full ServiceReport digest
//     is byte-identical traced vs untraced across threads x replicas x
//     devices, and the async SchedClient path (a different poll cadence
//     over the same virtual clock) emits the identical event stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "quamax/common/error.hpp"
#include "quamax/common/rng.hpp"
#include "quamax/common/stats.hpp"
#include "quamax/fault/plan.hpp"
#include "quamax/obs/metrics.hpp"
#include "quamax/obs/registry.hpp"
#include "quamax/obs/sketch.hpp"
#include "quamax/obs/slo.hpp"
#include "quamax/obs/trace.hpp"
#include "quamax/obs/window.hpp"
#include "quamax/sched/client.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/service.hpp"

namespace quamax {
namespace {

// ---------------------------------------------------------------------------
// QuantileSketch.

TEST(SketchTest, ExactMomentsAndEdgeCases) {
  obs::QuantileSketch sketch;
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.count(), 0u);

  // Integer-valued samples: sums are exact in double, so mean must be too.
  const std::vector<double> values = {4.0, 1.0, 9.0, 0.0, 16.0, 2.0};
  for (const double v : values) sketch.add(v);
  EXPECT_FALSE(sketch.empty());
  EXPECT_EQ(sketch.count(), values.size());
  EXPECT_DOUBLE_EQ(sketch.mean(), 32.0 / 6.0);
  EXPECT_DOUBLE_EQ(sketch.min(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 16.0);
  // Quantiles never leave the observed range.
  for (const double p : {0.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0}) {
    EXPECT_GE(sketch.quantile(p), 0.0);
    EXPECT_LE(sketch.quantile(p), 16.0);
  }

  obs::QuantileSketch lone;
  lone.add(42.5);
  for (const double p : {0.0, 50.0, 100.0})
    EXPECT_DOUBLE_EQ(lone.quantile(p), 42.5);

  // The all-zero stream (ServiceStats feeds queueing_us = 0 at light load;
  // serve_test pins its digest line to exact zeros).
  obs::QuantileSketch zeros;
  for (int i = 0; i < 10; ++i) zeros.add(0.0);
  EXPECT_DOUBLE_EQ(zeros.mean(), 0.0);
  EXPECT_DOUBLE_EQ(zeros.max(), 0.0);
  EXPECT_DOUBLE_EQ(zeros.quantile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(zeros.quantile(99.0), 0.0);
}

TEST(SketchTest, QuantilesWithinOnePercentOfStoredRecords) {
  // Latency-shaped samples spanning several octaves: a floor plus a
  // heavy-ish multiplicative tail, deterministic stream.
  Rng rng(0x0B5E);
  std::vector<double> values;
  obs::QuantileSketch sketch;
  for (int i = 0; i < 20000; ++i) {
    const double v = 40.0 + 900.0 * std::exp(2.0 * rng.normal());
    values.push_back(v);
    sketch.add(v);
  }
  for (const double p : {10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double exact = percentile(values, p);
    const double approx = sketch.quantile(p);
    EXPECT_LE(std::abs(approx - exact) / exact, 0.01)
        << "p" << p << ": sketch " << approx << " vs exact " << exact;
  }
}

TEST(SketchTest, MergeOfShardsEqualsWholeStream) {
  // Integer-valued samples again so shard-order summation is exact and the
  // merged sketch must match the whole-stream sketch bit for bit.
  Rng rng(0xFACE);
  std::vector<double> values;
  for (int i = 0; i < 4096; ++i)
    values.push_back(std::floor(rng.uniform(0.0, 1e6)));

  obs::QuantileSketch whole;
  for (const double v : values) whole.add(v);

  obs::QuantileSketch merged;
  for (std::size_t shard = 0; shard < 8; ++shard) {
    obs::QuantileSketch part;
    for (std::size_t i = shard; i < values.size(); i += 8)
      part.add(values[i]);
    merged.merge(part);
  }

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.mean(), whole.mean());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  for (const double p : {1.0, 25.0, 50.0, 75.0, 95.0, 99.0})
    EXPECT_DOUBLE_EQ(merged.quantile(p), whole.quantile(p))
        << "merge is bucket-wise, so quantiles must agree exactly at p" << p;

  obs::QuantileSketch empty;
  merged.merge(empty);  // no-op
  EXPECT_EQ(merged.count(), whole.count());
}

TEST(RegistryTest, NamedInstrumentsAndMerge) {
  obs::Registry a;
  EXPECT_TRUE(a.empty());
  a.counter("waves") += 3;
  a.gauge("occupancy") = 7.5;
  a.sketch("latency_us").add(100.0);

  obs::Registry b;
  b.counter("waves") += 2;
  b.gauge("occupancy") = 8.0;
  b.sketch("latency_us").add(300.0);

  a.merge(b);
  EXPECT_EQ(a.counter("waves"), 5);
  EXPECT_DOUBLE_EQ(a.gauge("occupancy"), 8.0);  // gauges: last writer wins
  EXPECT_EQ(a.sketch("latency_us").count(), 2u);
  EXPECT_DOUBLE_EQ(a.sketch("latency_us").mean(), 200.0);
}

// ---------------------------------------------------------------------------
// Trace sink completeness.

serve::ServiceConfig fast_service(std::size_t threads = 1,
                                  std::size_t replicas = 8,
                                  std::size_t devices = 1) {
  serve::ServiceConfig cfg;
  cfg.annealer.schedule.anneal_time_us = 1.0;
  cfg.annealer.schedule.pause_time_us = 0.0;
  cfg.annealer.batch_replicas = replicas;
  cfg.num_anneals = 20;
  cfg.num_threads = threads;
  cfg.num_devices = devices;
  cfg.packing = true;
  cfg.program_overhead_us = 10.0;
  return cfg;
}

serve::LoadConfig bpsk8_load(double jobs_per_ms, double deadline_us = 1000.0) {
  serve::LoadConfig cfg;
  cfg.offered_load_jobs_per_ms = jobs_per_ms;
  cfg.deadline_us = deadline_us;
  cfg.users = 8;
  cfg.problem.users = 8;
  cfg.problem.mod = wireless::Modulation::kBpsk;
  cfg.problem.kind = wireless::ChannelKind::kRandomPhase;
  cfg.problem.snr_db = std::nullopt;
  return cfg;
}

TEST(TraceSinkTest, LifecycleCompleteAndConsistentWithRecords) {
  obs::TraceLog log;
  serve::ServiceConfig cfg = fast_service();
  cfg.trace = &log;
  serve::DecodeService service(cfg);
  serve::LoadGenerator gen(bpsk8_load(80.0), 0xA11CE);
  const serve::ServiceReport report = service.run(gen.open_loop(48));

  // One submit per job, in admission (arrival) order.
  ASSERT_EQ(log.submits().size(), report.jobs.size());
  for (std::size_t i = 0; i + 1 < log.submits().size(); ++i)
    EXPECT_LE(log.submits()[i].submit_us, log.submits()[i + 1].submit_us);

  std::map<std::uint64_t, obs::JobDispatchEvent> dispatched;
  for (const auto& e : log.dispatches())
    EXPECT_TRUE(dispatched.emplace(e.job_id, e).second)
        << "job " << e.job_id << " dispatched twice";
  EXPECT_TRUE(log.drops().empty()) << "roomy deadline: nothing drops";
  ASSERT_EQ(dispatched.size(), report.jobs.size());

  // Dispatch events agree with the records the report keeps.
  for (const serve::JobRecord& rec : report.jobs) {
    const auto it = dispatched.find(rec.job_id);
    ASSERT_NE(it, dispatched.end());
    EXPECT_EQ(it->second.wave_id, rec.wave_id);
    EXPECT_EQ(it->second.dispatch_us, rec.dispatch_us);
    EXPECT_EQ(it->second.completion_us, rec.completion_us);
    const obs::JobSubmitEvent& sub =
        log.submits()[rec.job_id];  // ids are dense submit indices
    EXPECT_EQ(sub.job_id, rec.job_id);
    EXPECT_EQ(sub.submit_us, rec.arrival_us);
    EXPECT_EQ(sub.deadline_us, rec.deadline_us);
  }

  // Wave spans tile [dispatch, completion] exactly and account for the
  // closed-form wave cost: overhead/2 + anneals * duration + overhead/2.
  ASSERT_EQ(log.waves().size(), report.waves.size());
  const double duration_us = cfg.annealer.schedule.duration_us();
  std::map<std::uint64_t, std::size_t> jobs_in_wave;
  for (const auto& e : log.dispatches()) ++jobs_in_wave[e.wave_id];
  for (const obs::WaveEvent& w : log.waves()) {
    EXPECT_EQ(w.policy, "fifo");
    EXPECT_EQ(w.num_jobs, jobs_in_wave[w.wave_id]);
    EXPECT_DOUBLE_EQ(w.program_end_us - w.dispatch_us,
                     cfg.program_overhead_us / 2.0);
    EXPECT_DOUBLE_EQ(w.completion_us - w.readout_start_us,
                     cfg.program_overhead_us / 2.0);
    EXPECT_DOUBLE_EQ(w.readout_start_us - w.program_end_us,
                     static_cast<double>(w.num_anneals) * duration_us);
    EXPECT_EQ(w.num_anneals, static_cast<int>(cfg.num_anneals));
  }
}

TEST(TraceSinkTest, DropsEmitDropEventsNotDispatches) {
  obs::TraceLog log;
  serve::ServiceConfig cfg = fast_service();
  cfg.drop_late = true;
  cfg.trace = &log;
  serve::DecodeService service(cfg);
  // Saturating load with a deadline shorter than one wave's service time:
  // queued jobs expire before dispatch.
  serve::LoadGenerator gen(bpsk8_load(2000.0, /*deadline_us=*/25.0), 0xD401);
  const serve::ServiceReport report = service.run(gen.open_loop(64));

  std::set<std::uint64_t> dropped_ids;
  for (const auto& e : log.drops()) dropped_ids.insert(e.job_id);
  std::size_t dropped_records = 0;
  for (const serve::JobRecord& rec : report.jobs) {
    if (!rec.dropped) continue;
    ++dropped_records;
    EXPECT_TRUE(dropped_ids.count(rec.job_id))
        << "dropped job " << rec.job_id << " missing a drop event";
  }
  ASSERT_GT(dropped_records, 0u) << "workload failed to force any drop";
  EXPECT_EQ(dropped_ids.size(), dropped_records);
  EXPECT_EQ(log.dispatches().size() + dropped_records, report.jobs.size());
}

// ---------------------------------------------------------------------------
// The zero-drift contract.

std::string run_digest(std::size_t threads, std::size_t replicas,
                       std::size_t devices, obs::TraceSink* sink) {
  serve::ServiceConfig cfg = fast_service(threads, replicas, devices);
  cfg.trace = sink;
  serve::DecodeService service(cfg);
  serve::LoadGenerator gen(bpsk8_load(120.0), 0xB0B);
  return service.run(gen.open_loop(40)).stats.digest();
}

TEST(TraceSinkTest, DigestBitIdenticalTracedOrNot) {
  for (const std::size_t devices : {std::size_t{1}, std::size_t{3}}) {
    const std::string baseline = run_digest(1, 1, devices, nullptr);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      for (const std::size_t replicas : {std::size_t{1}, std::size_t{16}}) {
        obs::TraceLog log;
        EXPECT_EQ(run_digest(threads, replicas, devices, &log), baseline)
            << "traced digest drifted at threads=" << threads
            << " replicas=" << replicas << " devices=" << devices;
        EXPECT_FALSE(log.dispatches().empty());
      }
    }
  }
}

TEST(TraceSinkTest, AsyncClientEmitsIdenticalEventStream) {
  // The same workload through the batch service and through SchedClient
  // with an aggressive poll cadence (poll after every submit).  Both drive
  // the same virtual clock, so the traces must match event for event.
  serve::LoadGenerator gen(bpsk8_load(120.0), 0x57EA);
  const std::vector<serve::CellJob> jobs = gen.open_loop(32);

  obs::TraceLog batch_log;
  serve::ServiceConfig cfg = fast_service();
  cfg.trace = &batch_log;
  serve::DecodeService service(cfg);
  const serve::ServiceReport report = service.run(jobs);

  obs::TraceLog async_log;
  sched::SchedConfig async_cfg;
  async_cfg.annealer = cfg.annealer;
  async_cfg.devices = sched::uniform_devices(cfg.annealer, 1);
  async_cfg.num_anneals = cfg.num_anneals;
  async_cfg.program_overhead_us = cfg.program_overhead_us;
  async_cfg.seed = cfg.seed;
  async_cfg.trace = &async_log;
  sched::SchedClient client(async_cfg);
  std::size_t polled = 0;
  for (const serve::CellJob& job : jobs) {
    client.submit(job);
    polled += client.poll().size();  // cadence: poll every submit
  }
  polled += client.drain().size();
  EXPECT_EQ(polled, report.jobs.size());

  ASSERT_EQ(async_log.submits().size(), batch_log.submits().size());
  ASSERT_EQ(async_log.dispatches().size(), batch_log.dispatches().size());
  ASSERT_EQ(async_log.waves().size(), batch_log.waves().size());
  for (std::size_t i = 0; i < batch_log.dispatches().size(); ++i) {
    EXPECT_EQ(async_log.dispatches()[i].job_id,
              batch_log.dispatches()[i].job_id);
    EXPECT_EQ(async_log.dispatches()[i].dispatch_us,
              batch_log.dispatches()[i].dispatch_us);
    EXPECT_EQ(async_log.dispatches()[i].completion_us,
              batch_log.dispatches()[i].completion_us);
  }
  for (std::size_t i = 0; i < batch_log.waves().size(); ++i) {
    EXPECT_EQ(async_log.waves()[i].dispatch_us,
              batch_log.waves()[i].dispatch_us);
    EXPECT_EQ(async_log.waves()[i].completion_us,
              batch_log.waves()[i].completion_us);
    EXPECT_EQ(async_log.waves()[i].num_jobs, batch_log.waves()[i].num_jobs);
  }
}

// ---------------------------------------------------------------------------
// Windowed telemetry, duty-cycle/energy accounting, and SLO alerts (obs v2).

/// Serializes every derived byte of a finalized collector (windows, devices,
/// totals, SLO reports) — the bit-identity oracle for the tests below.
std::string windowed_digest(const obs::WindowedCollector& collector,
                            const std::vector<obs::SloReport>& slos = {}) {
  std::ostringstream out;
  obs::write_metrics_json(collector, slos, out);
  return out.str();
}

/// Windows a finished trace the way the serving binaries do.
obs::WindowedCollector window_log(const obs::TraceLog& log,
                                  std::size_t devices) {
  obs::WindowedCollector collector;
  collector.ingest(log);
  collector.set_devices(devices);
  collector.finalize();
  return collector;
}

/// fast_service under a scripted mid-run outage with retries + classical
/// fallback: exercises every event kind the collector windows (retries,
/// failed waves, fallbacks, device down/up), and resolves every job so the
/// accounting invariants below are total.
serve::ServiceConfig storm_service(std::size_t threads = 1,
                                   std::size_t replicas = 8) {
  serve::ServiceConfig cfg = fast_service(threads, replicas);
  auto storm = std::make_shared<fault::FaultPlan>();
  storm->outages.push_back({0, 150.0, 650.0});
  cfg.fault = std::move(storm);
  cfg.max_retries = 1;
  cfg.retry_backoff_us = 10.0;
  cfg.fallback = fault::FallbackMode::kZf;
  return cfg;
}

obs::TraceLog trace_storm(std::size_t threads = 1, std::size_t replicas = 8) {
  obs::TraceLog log;
  serve::ServiceConfig cfg = storm_service(threads, replicas);
  cfg.trace = &log;
  serve::DecodeService service(cfg);
  serve::LoadGenerator gen(bpsk8_load(120.0, /*deadline_us=*/200.0), 0x57043);
  service.run(gen.open_loop(48));
  return log;
}

TEST(WindowedCollectorTest, SeriesBitIdenticalAcrossThreadsAndReplicas) {
  const std::string baseline = windowed_digest(window_log(trace_storm(), 1));
  EXPECT_NE(baseline.find("\"windows\":"), std::string::npos);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const std::size_t replicas : {std::size_t{1}, std::size_t{16}}) {
      EXPECT_EQ(windowed_digest(window_log(trace_storm(threads, replicas), 1)),
                baseline)
          << "windowed series drifted at threads=" << threads
          << " replicas=" << replicas;
    }
  }
}

TEST(WindowedCollectorTest, SeriesBitIdenticalAcrossPollCadence) {
  serve::LoadGenerator gen(bpsk8_load(120.0), 0x57EA);
  const std::vector<serve::CellJob> jobs = gen.open_loop(32);

  obs::TraceLog batch_log;
  serve::ServiceConfig cfg = fast_service();
  cfg.trace = &batch_log;
  serve::DecodeService(cfg).run(jobs);
  const std::string baseline = windowed_digest(window_log(batch_log, 1));

  for (const std::size_t cadence : {std::size_t{1}, std::size_t{7}}) {
    obs::TraceLog async_log;
    sched::SchedConfig async_cfg;
    async_cfg.annealer = cfg.annealer;
    async_cfg.devices = sched::uniform_devices(cfg.annealer, 1);
    async_cfg.num_anneals = cfg.num_anneals;
    async_cfg.program_overhead_us = cfg.program_overhead_us;
    async_cfg.seed = cfg.seed;
    async_cfg.trace = &async_log;
    sched::SchedClient client(async_cfg);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      client.submit(jobs[i]);
      if ((i + 1) % cadence == 0) client.poll();
    }
    client.drain();
    EXPECT_EQ(windowed_digest(window_log(async_log, 1)), baseline)
        << "windowed series drifted at poll cadence " << cadence;
  }
}

TEST(WindowedCollectorTest, MergeIsAssociativeBitForBit) {
  const obs::TraceLog log = trace_storm();
  ASSERT_FALSE(log.retries().empty()) << "storm produced no retries";
  ASSERT_FALSE(log.fallbacks().empty()) << "storm produced no fallbacks";

  // Scatter the event stream round-robin across three shards — the shape a
  // per-device or per-shard deployment would hand back.
  obs::TraceLog shards[3];
  std::size_t turn = 0;
  const auto pick = [&]() -> obs::TraceLog& { return shards[turn++ % 3]; };
  for (const auto& e : log.submits()) pick().on_job_submit(e);
  for (const auto& e : log.dispatches()) pick().on_job_dispatch(e);
  for (const auto& e : log.drops()) pick().on_job_drop(e);
  for (const auto& e : log.waves()) pick().on_wave(e);
  for (const auto& e : log.downs()) pick().on_device_down(e);
  for (const auto& e : log.ups()) pick().on_device_up(e);
  for (const auto& e : log.retries()) pick().on_job_retry(e);
  for (const auto& e : log.fallbacks()) pick().on_job_fallback(e);

  const std::string whole = windowed_digest(window_log(log, 1));

  // (A + B) + C and A + (B + C), with finalize() already run on the inputs:
  // merge folds raw buffers, so stale derived state cannot leak through.
  obs::WindowedCollector left;
  left.ingest(shards[0]);
  left.finalize();
  obs::WindowedCollector mid;
  mid.ingest(shards[1]);
  left.merge(mid);
  obs::WindowedCollector right;
  right.ingest(shards[2]);
  left.merge(right);
  left.set_devices(1);
  left.finalize();
  EXPECT_EQ(windowed_digest(left), whole);

  obs::WindowedCollector bc;
  bc.ingest(shards[1]);
  obs::WindowedCollector c;
  c.ingest(shards[2]);
  bc.merge(c);
  obs::WindowedCollector a;
  a.ingest(shards[0]);
  a.merge(bc);
  a.set_devices(1);
  a.finalize();
  EXPECT_EQ(windowed_digest(a), whole);
}

TEST(WindowedCollectorTest, RejectsWidthsBeyondTheWindowBound) {
  obs::TraceLog log;
  log.on_job_submit({.job_id = 0, .user = 0, .direction = 0,
                     .submit_us = 1562.5, .deadline_us = 2000.0});
  const auto finalize_at = [&log](double width_us) {
    obs::WindowedCollector collector({width_us});
    collector.ingest(log);
    collector.finalize();
    return collector.windows().size();
  };
  // A 1562.5 us horizon in 1/64 us windows is exactly the bound (both
  // binary-exact); finer widths are rejected before anything is allocated,
  // as is a width that is not finite.
  static_assert(obs::WindowedCollector::kMaxWindows == 100'000);
  EXPECT_EQ(finalize_at(1.0 / 64.0), obs::WindowedCollector::kMaxWindows);
  EXPECT_THROW(finalize_at(1.0 / 128.0), InvalidArgument);
  EXPECT_THROW(finalize_at(1e-9), InvalidArgument);
  EXPECT_THROW(finalize_at(std::numeric_limits<double>::infinity()),
               InvalidArgument);
}

TEST(WindowedCollectorTest, DutyCycleAndEnergyConserve) {
  const obs::TraceLog log = trace_storm();
  const obs::WindowedCollector collector = window_log(log, 1);
  const obs::WindowedTotals& totals = collector.totals();
  const double horizon = collector.horizon_us();

  // Windows tile [0, H] and counters conserve window-wise to the totals.
  ASSERT_FALSE(collector.windows().empty());
  EXPECT_EQ(collector.windows().front().start_us, 0.0);
  EXPECT_GE(collector.windows().back().end_us, horizon);
  std::int64_t submitted = 0, resolved = 0, bits = 0, retries = 0;
  double window_busy = 0.0, window_energy = 0.0;
  for (std::size_t i = 0; i < collector.windows().size(); ++i) {
    const obs::WindowStats& w = collector.windows()[i];
    EXPECT_EQ(w.index, i);
    if (i > 0) {
      EXPECT_EQ(w.start_us, collector.windows()[i - 1].end_us);
    }
    EXPECT_GE(w.queue_depth, 0);
    submitted += w.submitted;
    resolved += w.resolved;
    bits += w.bits;
    retries += w.retries;
    window_busy += w.busy_us;
    window_energy += w.energy_j;
  }
  EXPECT_EQ(submitted, totals.submitted);
  EXPECT_EQ(resolved, totals.resolved);
  EXPECT_EQ(bits, totals.bits);
  EXPECT_EQ(retries, totals.retries);
  EXPECT_EQ(collector.windows().back().queue_depth, 0) << "queue not drained";
  EXPECT_GT(totals.retries, 0) << "storm produced no retries";
  EXPECT_EQ(totals.submitted,
            totals.completed + totals.fallbacks + totals.dropped);

  // Per-device tiling: phases + outage + idle == horizon, attributed busy
  // time == the independently summed wave extents, energy conserves.
  ASSERT_EQ(collector.devices().size(), 1u);
  double device_busy = 0.0, device_energy = 0.0;
  for (const obs::DeviceUsage& d : collector.devices()) {
    EXPECT_NEAR(d.busy_us() + d.outage_us + d.idle_us, horizon,
                1e-9 * horizon);
    EXPECT_GE(d.idle_us, 0.0);
    EXPECT_GT(d.outage_us, 0.0) << "scripted outage not attributed";
    EXPECT_GT(d.aborted_us, 0.0) << "failed waves not attributed";
    device_busy += d.busy_us();
    device_energy += d.energy_j;
  }
  EXPECT_NEAR(device_busy, totals.wave_busy_us, 1e-9 * horizon);
  EXPECT_NEAR(window_busy, totals.wave_busy_us, 1e-9 * horizon);
  EXPECT_NEAR(device_energy, totals.energy_j, 1e-9 * totals.energy_j);
  EXPECT_NEAR(window_energy, totals.energy_j, 1e-9 * totals.energy_j);
  ASSERT_GT(totals.bits, 0);
  EXPECT_DOUBLE_EQ(totals.joules_per_bit,
                   totals.energy_j / static_cast<double>(totals.bits));
}

TEST(SloMonitorTest, SpecGrammarParsesAndRejects) {
  std::string error;
  const std::vector<obs::SloSpec> specs =
      obs::parse_slo_specs(" miss_rate<=0.05, p99<=2500, miss_rate<=0.1@6/2 ",
                           &error);
  ASSERT_EQ(specs.size(), 3u) << error;
  EXPECT_EQ(specs[0].kind, obs::SloSpec::Kind::kMissRate);
  EXPECT_DOUBLE_EQ(specs[0].threshold, 0.05);
  EXPECT_EQ(specs[0].long_windows, 4u);
  EXPECT_EQ(specs[0].short_windows, 1u);
  EXPECT_EQ(specs[1].kind, obs::SloSpec::Kind::kP99);
  EXPECT_DOUBLE_EQ(specs[1].threshold, 2500.0);
  EXPECT_EQ(specs[2].long_windows, 6u);
  EXPECT_EQ(specs[2].short_windows, 2u);
  EXPECT_EQ(specs[2].name, "miss_rate<=0.1@6/2");

  for (const char* bad : {"latency<=5", "miss_rate<0.05", "miss_rate<=-1",
                          "miss_rate<=0.05@1/2", "p99<=2500@4/0", "p99<="}) {
    error.clear();
    EXPECT_TRUE(obs::parse_slo_specs(bad, &error).empty()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(SloMonitorTest, StormAlertsAreDeterministicAndQuietRunIsClean) {
  const obs::SloMonitor monitor(obs::parse_slo_specs("miss_rate<=0.05"));

  // The storm arm must alert, identically on every evaluation and at any
  // thread count; alerts carry the breaching window's exact bounds.
  const obs::WindowedCollector storm = window_log(trace_storm(), 1);
  const std::vector<obs::SloReport> first = monitor.evaluate(storm);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_GE(first[0].alerts.size(), 1u) << "storm did not breach the SLO";
  EXPECT_EQ(first[0].breached_windows, first[0].alerts.size());
  for (const obs::AlertEvent& alert : first[0].alerts) {
    ASSERT_LT(alert.window, storm.windows().size());
    EXPECT_EQ(alert.start_us, storm.windows()[alert.window].start_us);
    EXPECT_EQ(alert.end_us, storm.windows()[alert.window].end_us);
    EXPECT_GT(alert.value, alert.threshold);
    EXPECT_DOUBLE_EQ(alert.burn, alert.value / alert.threshold);
  }
  EXPECT_EQ(windowed_digest(storm, monitor.evaluate(storm)),
            windowed_digest(storm, first));
  const obs::WindowedCollector threaded = window_log(trace_storm(8, 16), 1);
  EXPECT_EQ(windowed_digest(threaded, monitor.evaluate(threaded)),
            windowed_digest(storm, first));

  // The fault-free arm of the same workload stays alert-free.
  obs::TraceLog quiet_log;
  serve::ServiceConfig quiet = fast_service();
  quiet.trace = &quiet_log;
  serve::LoadGenerator gen(bpsk8_load(120.0, /*deadline_us=*/200.0), 0x57043);
  serve::DecodeService(quiet).run(gen.open_loop(48));
  const std::vector<obs::SloReport> clean =
      monitor.evaluate(window_log(quiet_log, 1));
  ASSERT_EQ(clean.size(), 1u);
  EXPECT_TRUE(clean[0].alerts.empty()) << "fault-free arm raised alerts";
  EXPECT_EQ(clean[0].breached_windows, 0u);
}

}  // namespace
}  // namespace quamax
