// quamax::sched — async scheduler, device sharding, and queue policies.
//
// The contracts under test (ISSUE 5):
//   * streaming a workload through the Scheduler (submit, collect(now),
//     finish, collect(+inf)) delivers each job exactly once, never before
//     its completion, with records identical to the batch DecodeService run
//     of the same workload at ANY submit/collect interleaving;
//   * ServiceReport digests are bit-identical across --threads/--replicas
//     for every queue-policy x device-count combination;
//   * interleaved warm chains run by dependency depth and keep records and
//     waves identical at any lanes x replicas and any poll cadence;
//   * EDF dispatches by (deadline, submission seq); slack defers doomed
//     jobs behind feasible ones; FIFO preserves the PR-3 arrival order;
//   * shape-aware routing: a wave only lands on a device whose defect map
//     can embed its shape, and unroutable shapes are rejected at submit,
//     as are non-finite or decreasing arrivals;
//   * DeviceSet keys embedding caches by topology: identical devices share
//     one cache, defect-distinct devices get their own;
//   * the per-shape pending index keeps the exact doom split (to the ulp,
//     for jobs doomed by retry backoff or by a future arrival) and the
//     policy order across shapes, growth drains and requeues.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "quamax/fault/plan.hpp"
#include "quamax/obs/trace.hpp"
#include "quamax/sched/device_set.hpp"
#include "quamax/sched/policy.hpp"
#include "quamax/sched/scheduler.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/service.hpp"

namespace quamax {
namespace {

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

serve::ServiceConfig fast_service(std::size_t threads = 1,
                                  std::size_t replicas = 8) {
  serve::ServiceConfig cfg;
  cfg.annealer.schedule.anneal_time_us = 1.0;
  cfg.annealer.schedule.pause_time_us = 0.0;
  cfg.annealer.batch_replicas = replicas;
  cfg.num_anneals = 20;
  cfg.num_threads = threads;
  cfg.program_overhead_us = 10.0;
  return cfg;
}

sched::SchedConfig fast_sched(std::size_t threads = 1) {
  const serve::ServiceConfig service = fast_service(threads);
  sched::SchedConfig cfg;
  cfg.annealer = service.annealer;
  cfg.num_anneals = service.num_anneals;
  cfg.program_overhead_us = service.program_overhead_us;
  cfg.num_threads = threads;
  cfg.seed = service.seed;
  return cfg;
}

/// Stride-4 dead rows: shape 16 (4 cell rows on the shore-4 chip) cannot
/// embed while shape 8 (2 rows) keeps half its tiling.
std::vector<chimera::Qubit> dead_row_map() {
  return sched::dead_row_fault_map(chimera::ChimeraGraph(), 4);
}

bool records_equal(const serve::JobRecord& a, const serve::JobRecord& b) {
  return a.job_id == b.job_id && a.user == b.user &&
         a.direction == b.direction && a.wave_id == b.wave_id &&
         a.arrival_us == b.arrival_us && a.dispatch_us == b.dispatch_us &&
         a.completion_us == b.completion_us && a.deadline_us == b.deadline_us &&
         a.dropped == b.dropped && a.bit_errors == b.bit_errors &&
         a.num_bits == b.num_bits && a.ground_state == b.ground_state;
}

constexpr double kEndOfStream = std::numeric_limits<double>::infinity();

TEST(SchedStreamTest, FinishThenCollectMatchesBatchService) {
  serve::LoadGenerator gen(bpsk8_load(80.0), 0xA51);
  const std::vector<serve::CellJob> jobs = gen.open_loop(40);

  const serve::ServiceReport batch =
      serve::DecodeService(fast_service()).run(jobs);

  sched::Scheduler engine(fast_sched());
  for (const serve::CellJob& job : jobs) engine.submit(job);
  engine.finish();
  const std::vector<std::size_t> done = engine.collect(kEndOfStream);

  ASSERT_EQ(done.size(), batch.jobs.size());
  EXPECT_EQ(std::set<std::size_t>(done.begin(), done.end()).size(),
            done.size());
  // collect() orders by (completion, seq); per-seq records must match the
  // batch report's per-index records exactly.
  for (const std::size_t seq : done)
    EXPECT_TRUE(records_equal(engine.records()[seq], batch.jobs[seq]))
        << "job " << seq;
  for (std::size_t i = 1; i < done.size(); ++i)
    EXPECT_LE(engine.records()[done[i - 1]].completion_us,
              engine.records()[done[i]].completion_us);
}

TEST(SchedStreamTest, CollectStreamsEachCompletionExactlyOnceAnyCadence) {
  serve::LoadGenerator gen(bpsk8_load(60.0), 0xA52);
  const std::vector<serve::CellJob> jobs = gen.open_loop(30);

  // Reference: one collect at end of stream.
  sched::Scheduler lazy(fast_sched());
  for (const serve::CellJob& job : jobs) lazy.submit(job);
  lazy.finish();
  std::map<std::size_t, serve::JobRecord> reference;
  for (const std::size_t seq : lazy.collect(kEndOfStream))
    reference[seq] = lazy.records()[seq];

  // Eager driver: collect(now) after every submit.  Each record is copied
  // when collect() returns it, so it must already be final then.
  sched::Scheduler eager(fast_sched());
  std::map<std::size_t, serve::JobRecord> seen;
  const auto absorb = [&](const std::vector<std::size_t>& done) {
    for (const std::size_t seq : done) {
      EXPECT_EQ(seen.count(seq), 0u) << "duplicate completion";
      seen[seq] = eager.records()[seq];
    }
  };
  for (const serve::CellJob& job : jobs) {
    const double now = job.arrival_us;
    eager.submit(job);
    absorb(eager.collect(eager.now_us()));
    // collect(now) may only surface jobs completed by the clock.
    for (const auto& [seq, record] : seen)
      EXPECT_LE(record.completion_us, now);
  }
  eager.finish();
  absorb(eager.collect(kEndOfStream));

  ASSERT_EQ(seen.size(), reference.size());
  for (const auto& [seq, record] : reference)
    EXPECT_TRUE(records_equal(seen.at(seq), record)) << "job " << seq;
}

TEST(SchedTest, ReportBitIdenticalAcrossThreadsReplicasForPolicyAndDevices) {
  serve::LoadGenerator gen(bpsk8_load(120.0, 400.0), 0xA53);
  const std::vector<serve::CellJob> jobs = gen.open_loop(36);

  for (const sched::QueuePolicy policy :
       {sched::QueuePolicy::kFifo, sched::QueuePolicy::kEdf,
        sched::QueuePolicy::kSlack}) {
    for (const std::size_t devices : {std::size_t{1}, std::size_t{2}}) {
      serve::ServiceConfig cfg = fast_service(1, 8);
      cfg.queue_policy = policy;
      cfg.num_devices = devices;
      const serve::ServiceReport baseline = serve::DecodeService(cfg).run(jobs);
      for (const auto& [threads, replicas] :
           std::vector<std::pair<std::size_t, std::size_t>>{{4, 8}, {2, 1}}) {
        serve::ServiceConfig other_cfg = fast_service(threads, replicas);
        other_cfg.queue_policy = policy;
        other_cfg.num_devices = devices;
        const serve::ServiceReport other =
            serve::DecodeService(other_cfg).run(jobs);
        EXPECT_EQ(baseline.stats.digest(), other.stats.digest())
            << sched::to_string(policy) << " devices=" << devices
            << " threads=" << threads << " replicas=" << replicas;
        ASSERT_EQ(baseline.jobs.size(), other.jobs.size());
        for (std::size_t j = 0; j < baseline.jobs.size(); ++j)
          EXPECT_TRUE(records_equal(baseline.jobs[j], other.jobs[j]));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Interleaved warm chains: one job per wave on one device, so each user's
// coherence chain is its own wave chain and the due list alternates chains
// (u0 k, u1 k, ..., u0 k+1, ...).  execute_due runs a due list by dependency
// depth, one lane barrier per coherence step; the report must not depend on
// lanes, replicas or how the client polls.

serve::LoadConfig chain_load() {
  serve::LoadConfig cfg;
  cfg.arrivals = serve::ArrivalKind::kSubframe;
  cfg.subframe_period_us = 200.0;
  cfg.users = 4;
  cfg.deadline_us = 1200.0;
  cfg.problem.users = 8;
  cfg.problem.mod = wireless::Modulation::kBpsk;
  cfg.problem.kind = wireless::ChannelKind::kRayleigh;
  cfg.problem.snr_db = 12.0;
  cfg.coherence = 0.9;  // chains of 10 subframes
  return cfg;
}

serve::ServiceConfig chain_service(std::size_t threads, std::size_t replicas) {
  serve::ServiceConfig cfg = fast_service(threads, replicas);
  cfg.max_wave_jobs = 1;
  cfg.warm_start = true;
  cfg.warm_num_anneals = 4;
  return cfg;
}

sched::SchedConfig chain_sched(std::size_t threads) {
  sched::SchedConfig cfg = fast_sched(threads);
  cfg.max_wave_jobs = 1;
  cfg.warm_start = true;
  cfg.warm_num_anneals = 4;
  return cfg;
}

bool waves_equal(const serve::Wave& a, const serve::Wave& b) {
  return a.id == b.id && a.shape == b.shape && a.jobs == b.jobs &&
         a.dispatch_us == b.dispatch_us && a.completion_us == b.completion_us &&
         a.device == b.device && a.warm == b.warm && a.seeds == b.seeds &&
         a.failed == b.failed && a.fail_us == b.fail_us;
}

void expect_same_run(const std::vector<serve::JobRecord>& jobs,
                     const std::vector<serve::Wave>& waves,
                     const serve::ServiceReport& reference, const char* what) {
  ASSERT_EQ(jobs.size(), reference.jobs.size()) << what;
  for (std::size_t j = 0; j < jobs.size(); ++j)
    EXPECT_TRUE(records_equal(jobs[j], reference.jobs[j]))
        << what << ": job " << j;
  ASSERT_EQ(waves.size(), reference.waves.size()) << what;
  for (std::size_t w = 0; w < waves.size(); ++w)
    EXPECT_TRUE(waves_equal(waves[w], reference.waves[w]))
        << what << ": wave " << w;
}

/// Barriers one execute_due over the whole wave log takes when split into
/// greedy ready prefixes (`first`) and by dependency depth (`second`).
std::pair<std::size_t, std::size_t> prefix_and_depth_barriers(
    const serve::ServiceReport& report) {
  std::set<std::pair<double, std::size_t>> due;  // execute_due's pop order
  for (const serve::Wave& wave : report.waves)
    due.emplace(wave.completion_us, wave.id);
  std::map<std::size_t, std::size_t> level;
  std::map<std::size_t, std::size_t> depth;
  std::size_t levels = 1;
  std::size_t depths = 1;
  for (const auto& [completion_us, w] : due) {
    bool pred_in_level = false;
    for (const std::size_t pred : report.waves[w].seeds) {
      const std::size_t pred_wave = report.jobs[pred].wave_id;
      pred_in_level = pred_in_level || level[pred_wave] + 1 == levels;
      depth[w] = std::max(depth[w], depth[pred_wave] + 1);
    }
    if (pred_in_level) ++levels;
    level[w] = levels - 1;
    depths = std::max(depths, depth[w] + 1);
  }
  return {levels, depths};
}

TEST(SchedTest, InterleavedWarmChainsIdenticalAtAnyLanesReplicasAndCadence) {
  serve::LoadGenerator gen(chain_load(), 0xC4A1);
  const std::vector<serve::CellJob> jobs = gen.open_loop(120);  // 3 blocks

  // DecodeService::run submits everything, then finish() executes every
  // wave in one execute_due call.
  const serve::ServiceReport reference =
      serve::DecodeService(chain_service(1, 1)).run(jobs);
  ASSERT_EQ(reference.waves.size(), jobs.size());
  EXPECT_EQ(reference.stats.warm_waves(), 108u);  // 9 of every 10 subframes
  // The scenario the depth split exists for: ready prefixes would cut the
  // due list at every subframe, depth only at every coherence step.
  const auto [levels, depths] = prefix_and_depth_barriers(reference);
  EXPECT_EQ(depths, 10u);
  EXPECT_GT(levels, depths);

  for (const auto& [threads, replicas] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {4, 1}, {1, 16}, {4, 16}}) {
    const serve::ServiceReport other =
        serve::DecodeService(chain_service(threads, replicas)).run(jobs);
    EXPECT_EQ(other.stats.digest(), reference.stats.digest());
    expect_same_run(other.jobs, other.waves, reference,
                    threads == 1 ? "1 lane" : "4 lanes");
  }

  // Async == batch on a warm workload: collecting after every submit,
  // after every 7th, or only at end of stream leaves the same records and
  // waves.
  for (const std::size_t every : {std::size_t{1}, std::size_t{7}, jobs.size()}) {
    sched::Scheduler engine(chain_sched(4));
    std::vector<serve::JobRecord> records(jobs.size());
    const auto absorb = [&](const std::vector<std::size_t>& done) {
      for (const std::size_t seq : done) records[seq] = engine.records()[seq];
    };
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      engine.submit(jobs[j]);
      if ((j + 1) % every == 0) absorb(engine.collect(engine.now_us()));
    }
    engine.finish();
    absorb(engine.collect(kEndOfStream));
    expect_same_run(records, engine.waves(), reference,
                    every == 1 ? "collect each" : every == 7 ? "collect 7th"
                                                             : "end only");
  }
}

TEST(SchedTest, EdfDispatchesByDeadlineFifoByArrival) {
  // Six same-arrival jobs with descending deadlines on one unpacked device:
  // FIFO serves submission order, EDF the exact reverse.
  serve::LoadGenerator gen(bpsk8_load(10.0), 0xA54);
  std::vector<serve::CellJob> jobs;
  for (std::size_t k = 0; k < 6; ++k) {
    serve::CellJob job = gen.job(k, k % 8, 0.0);
    job.deadline_us = 1000.0 - 100.0 * static_cast<double>(k);
    jobs.push_back(std::move(job));
  }

  for (const bool edf : {false, true}) {
    serve::ServiceConfig cfg = fast_service();
    cfg.packing = false;
    cfg.queue_policy = edf ? sched::QueuePolicy::kEdf : sched::QueuePolicy::kFifo;
    const serve::ServiceReport report = serve::DecodeService(cfg).run(jobs);
    ASSERT_EQ(report.jobs.size(), 6u);
    for (std::size_t k = 0; k < 6; ++k) {
      // Wave w dispatches at w * 30 us; EDF reverses the order.
      const std::size_t rank = edf ? 5 - k : k;
      EXPECT_DOUBLE_EQ(report.jobs[k].dispatch_us,
                       30.0 * static_cast<double>(rank))
          << (edf ? "edf" : "fifo") << " job " << k;
    }
  }
}

TEST(SchedTest, SlackDefersDoomedJobsEdfDoesNot) {
  // Job 0: earliest deadline but already unmeetable (budget < one service
  // time).  EDF still serves it first; slack defers it behind every
  // feasible job, so the feasible ones all meet their deadlines.
  // Job k (k >= 1) can make its deadline only from service slot k-1; the
  // doomed job's 30 us head start under EDF pushes each one slot too late.
  serve::LoadGenerator gen(bpsk8_load(10.0), 0xA55);
  std::vector<serve::CellJob> jobs;
  for (std::size_t k = 0; k < 4; ++k) {
    serve::CellJob job = gen.job(k, k % 8, 0.0);
    job.deadline_us = (k == 0) ? 20.0 : 10.0 + 30.0 * static_cast<double>(k);
    jobs.push_back(std::move(job));
  }

  serve::ServiceConfig edf_cfg = fast_service();
  edf_cfg.packing = false;
  edf_cfg.queue_policy = sched::QueuePolicy::kEdf;
  const serve::ServiceReport edf = serve::DecodeService(edf_cfg).run(jobs);
  EXPECT_DOUBLE_EQ(edf.jobs[0].dispatch_us, 0.0);  // doomed job served first
  // Its 30 us of service push every feasible job one slot too late.
  EXPECT_EQ(edf.stats.misses(), 4u);

  serve::ServiceConfig slack_cfg = edf_cfg;
  slack_cfg.queue_policy = sched::QueuePolicy::kSlack;
  const serve::ServiceReport slack = serve::DecodeService(slack_cfg).run(jobs);
  EXPECT_DOUBLE_EQ(slack.jobs[0].dispatch_us, 90.0);  // deferred to the back
  EXPECT_EQ(slack.stats.misses(), 1u);  // only the born-doomed job misses
  for (std::size_t k = 1; k < 4; ++k)
    EXPECT_FALSE(slack.jobs[k].missed_deadline()) << "job " << k;
}

TEST(SchedTest, ShapeAwareRoutingKeepsWavesOnEmbeddableDevices) {
  // Device 0 pristine, device 1 dead-row defective: shape 16 (QPSK) must
  // never land on device 1, shape 8 may use both.
  auto qpsk = bpsk8_load(100.0, 3000.0);
  qpsk.problem.mod = wireless::Modulation::kQpsk;
  serve::LoadGenerator bpsk_gen(bpsk8_load(100.0, 3000.0), 0xA56);
  serve::LoadGenerator qpsk_gen(qpsk, 0xA57);
  std::vector<serve::CellJob> jobs = bpsk_gen.open_loop(24);
  for (serve::CellJob& job : qpsk_gen.open_loop(24)) {
    job.id += 24;
    jobs.push_back(std::move(job));
  }

  serve::ServiceConfig cfg = fast_service();
  cfg.device_specs = {sched::DeviceSpec{},
                      sched::DeviceSpec{.disabled = dead_row_map()}};
  cfg.max_wave_jobs = 4;  // force enough waves that both devices get work
  const serve::ServiceReport report = serve::DecodeService(cfg).run(jobs);

  ASSERT_EQ(report.jobs.size(), 48u);
  std::set<std::size_t> devices_used;
  for (const serve::Wave& wave : report.waves) {
    devices_used.insert(wave.device);
    if (wave.shape == 16) {
      EXPECT_EQ(wave.device, 0u) << "wave " << wave.id;
    }
  }
  EXPECT_EQ(devices_used.size(), 2u) << "the defective device never served";
  // Decode quality holds on the defective chip too (noise-free BPSK).
  for (const serve::JobRecord& rec : report.jobs)
    EXPECT_EQ(rec.bit_errors, 0u) << "job " << rec.job_id;
}

TEST(SchedTest, SubmitRejectsShapeNoDeviceCanEmbed) {
  auto qpsk = bpsk8_load(10.0);
  qpsk.problem.mod = wireless::Modulation::kQpsk;
  serve::LoadGenerator gen(qpsk, 0xA58);

  sched::SchedConfig cfg = fast_sched();
  cfg.devices = {sched::DeviceSpec{.disabled = dead_row_map()}};
  sched::Scheduler engine(cfg);
  EXPECT_THROW(engine.submit(gen.job(0, 0, 0.0)), CapacityError);
}

/// The InvalidArgument message submit() throws for `job`, or "" when the
/// job is accepted.
std::string submit_error(sched::Scheduler& engine, serve::CellJob job) {
  try {
    engine.submit(std::move(job));
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(SchedTest, SubmitRequiresMonotoneArrivals) {
  serve::LoadGenerator gen(bpsk8_load(10.0), 0xA59);
  sched::Scheduler engine(fast_sched());
  engine.submit(gen.job(0, 0, 100.0));
  const std::string early = submit_error(engine, gen.job(1, 1, 50.0));
  EXPECT_NE(early.find("job 1 "), std::string::npos) << early;
  EXPECT_NE(early.find("50.0"), std::string::npos) << early;
  EXPECT_NE(early.find("100.0"), std::string::npos) << early;

  serve::CellJob no_deadline = gen.job(2, 2, 100.0);
  no_deadline.deadline_us = std::numeric_limits<double>::quiet_NaN();
  const std::string nan = submit_error(engine, std::move(no_deadline));
  EXPECT_NE(nan.find("job 2 "), std::string::npos) << nan;
  EXPECT_NE(nan.find("NaN deadline"), std::string::npos) << nan;

  // Neither rejected job left a trace.
  engine.finish();
  EXPECT_EQ(engine.records().size(), 1u);
}

TEST(SchedTest, SubmitRejectsNonFiniteArrivalNamingTheJob) {
  serve::LoadGenerator gen(bpsk8_load(10.0), 0xA5A);
  for (const double arrival : {std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()}) {
    sched::Scheduler scheduler(fast_sched());
    scheduler.submit(gen.job(0, 0, 100.0));
    const std::string error = submit_error(scheduler, gen.job(17, 1, arrival));
    EXPECT_NE(error.find("job 17"), std::string::npos)
        << "arrival " << arrival << ": " << error;
    // The rejected job left no trace: the run still finishes cleanly.
    scheduler.finish();
    EXPECT_EQ(scheduler.records().size(), 1u);
  }
}

// ---------------------------------------------------------------------------
// Pending-index edge cases: the per-shape policy index must reproduce the
// policy order and the exact doom split at every boundary.

/// A hand-placed job of shape 8 (BPSK) or 16 (QPSK) with an explicit
/// deadline.
serve::CellJob hand_job(std::size_t id, std::size_t shape, double arrival_us,
                        double deadline_us) {
  serve::LoadConfig load = bpsk8_load(10.0);
  if (shape == 16) load.problem.mod = wireless::Modulation::kQpsk;
  serve::LoadGenerator gen(load, 0xED6E);
  serve::CellJob job = gen.job(id, id % 8, arrival_us);
  EXPECT_EQ(job.shape(), shape);
  job.deadline_us = deadline_us;
  return job;
}

/// Job ids in trace emission order — the engine's finalization order.
std::vector<std::size_t> dispatch_ids(const obs::TraceLog& log) {
  std::vector<std::size_t> ids;
  for (const obs::JobDispatchEvent& e : log.dispatches()) ids.push_back(e.job_id);
  return ids;
}
std::vector<std::size_t> drop_ids(const obs::TraceLog& log) {
  std::vector<std::size_t> ids;
  for (const obs::JobDropEvent& e : log.drops()) ids.push_back(e.job_id);
  return ids;
}

/// One job per wave, 30 us per wave (fast_sched: 10 us overhead + 20 x 1 us).
sched::SchedConfig one_job_waves(sched::QueuePolicy policy) {
  sched::SchedConfig cfg = fast_sched();
  cfg.packing = false;
  cfg.policy = policy;
  return cfg;
}

std::vector<serve::JobRecord> run_jobs(const sched::SchedConfig& cfg,
                                       std::vector<serve::CellJob> jobs) {
  sched::Scheduler scheduler(cfg);
  for (serve::CellJob& job : jobs) scheduler.submit(std::move(job));
  scheduler.finish();
  return scheduler.records();
}

/// A plan whose only event is an outage of `device` over [start, end).
std::shared_ptr<fault::FaultPlan> outage_plan(std::size_t device,
                                              double start_us, double end_us) {
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->outages.push_back({device, start_us, end_us});
  return plan;
}

TEST(SchedIndexTest, DoomBoundaryIsExactToTheUlp) {
  // Job 0 holds the device over [0.1, t).  At t the doom boundary is
  // fl(t + 30): job 1's deadline sits one ulp below it, job 2's exactly on
  // it (a wave finishing AT the deadline is on time).
  const double t = 0.1 + 30.0;
  const double boundary = t + 30.0;
  const std::vector<serve::CellJob> jobs = {
      hand_job(0, 8, 0.1, 1000.0),
      hand_job(1, 8, 0.2, std::nextafter(boundary, 0.0)),
      hand_job(2, 8, 0.2, boundary)};

  // EDF ignores doom: the earlier deadline goes first.
  const auto edf = run_jobs(one_job_waves(sched::QueuePolicy::kEdf), jobs);
  EXPECT_EQ(edf[1].dispatch_us, t);
  EXPECT_EQ(edf[2].dispatch_us, boundary);

  // Slack: job 1 is doomed at t, job 2 is not, so job 2 goes first.
  const auto slack = run_jobs(one_job_waves(sched::QueuePolicy::kSlack), jobs);
  EXPECT_EQ(slack[2].dispatch_us, t);
  EXPECT_EQ(slack[2].completion_us, boundary);
  EXPECT_FALSE(slack[2].missed_deadline());
  EXPECT_EQ(slack[1].dispatch_us, boundary);

  // drop_late sheds exactly the doomed one, at t.
  sched::SchedConfig drop = one_job_waves(sched::QueuePolicy::kEdf);
  drop.drop_late = true;
  const auto dropped = run_jobs(drop, jobs);
  EXPECT_TRUE(dropped[1].dropped);
  EXPECT_EQ(dropped[1].completion_us, t);
  EXPECT_FALSE(dropped[2].dropped);
  EXPECT_EQ(dropped[2].dispatch_us, t);
}

TEST(SchedIndexTest, RetryBackoffBeyondTheDeadlineIsBornDoomed) {
  // Job 0 starts on device 0 at 0; an outage aborts its wave at 10 and the
  // retry is ready at 10 + 50 = 60.  Device 1 looks at it at t = 10, where
  // fl(t + 30) = 40 <= deadline 80 — but no wave can start before 60, and
  // 60 + 30 > 80, so the job is doomed from the moment it is re-queued.
  const std::vector<serve::CellJob> jobs = {hand_job(0, 8, 0.0, 80.0),
                                            hand_job(1, 8, 10.0, 500.0)};
  const auto config = [](sched::QueuePolicy policy) {
    sched::SchedConfig cfg = one_job_waves(policy);
    cfg.devices = sched::uniform_devices(cfg.annealer, 2);
    cfg.fault = outage_plan(0, 10.0, 1000.0);
    cfg.max_retries = 1;
    cfg.retry_backoff_us = 50.0;
    return cfg;
  };

  // Slack serves the feasible job 1 first; the doomed retry waits.
  const auto slack = run_jobs(config(sched::QueuePolicy::kSlack), jobs);
  EXPECT_EQ(slack[0].retries, 1u);
  EXPECT_EQ(slack[1].dispatch_us, 10.0);
  EXPECT_EQ(slack[0].dispatch_us, 60.0);

  // EDF serves the retry first (earlier deadline), starting at readiness.
  const auto edf = run_jobs(config(sched::QueuePolicy::kEdf), jobs);
  EXPECT_EQ(edf[0].dispatch_us, 60.0);
  EXPECT_EQ(edf[1].dispatch_us, 90.0);

  // drop_late sheds the retry at its earliest start, 60.
  sched::SchedConfig drop = config(sched::QueuePolicy::kEdf);
  drop.drop_late = true;
  const auto dropped = run_jobs(drop, jobs);
  EXPECT_TRUE(dropped[0].dropped);
  EXPECT_EQ(dropped[0].retries, 1u);
  EXPECT_EQ(dropped[0].completion_us, 60.0);
  EXPECT_EQ(dropped[1].dispatch_us, 10.0);
}

TEST(SchedIndexTest, FutureArrivalOnReArmedDeviceIsBornDoomed) {
  // Device 1 (dead rows: no shape 16) parks at t = 1 behind job 1.  Device
  // 0's round at 30 admits jobs 2 and 3 (arrival 20) and re-arms device 1
  // at its old time 1.  There, fl(1 + 30) = 31 <= job 2's deadline 40, but
  // job 2 cannot start before its arrival at 20 and 20 + 30 > 40: doomed.
  const std::vector<serve::CellJob> jobs = {
      hand_job(0, 16, 0.0, 1000.0), hand_job(1, 16, 1.0, 100.0),
      hand_job(2, 8, 20.0, 40.0), hand_job(3, 8, 20.0, 200.0)};
  sched::SchedConfig cfg = one_job_waves(sched::QueuePolicy::kSlack);
  cfg.devices = {sched::DeviceSpec{},
                 sched::DeviceSpec{.disabled = dead_row_map()}};

  // Device 1 serves the feasible job 3 at its arrival, job 2 after.
  const auto slack = run_jobs(cfg, jobs);
  EXPECT_EQ(slack[1].dispatch_us, 30.0);  // device 0, after job 0
  EXPECT_EQ(slack[3].dispatch_us, 20.0);
  EXPECT_EQ(slack[2].dispatch_us, 50.0);

}

TEST(SchedIndexTest, SlackMergesDoomedJobsByDeadline) {
  // At t = 30: job 2 is feasible; job 1 is doomed by t (50 < 60) and job 3
  // was born doomed (40 < 20 + 30).  The doomed ones follow in deadline
  // order, whichever way they became doomed.
  const std::vector<serve::CellJob> jobs = {
      hand_job(0, 8, 0.0, 1000.0), hand_job(1, 8, 1.0, 50.0),
      hand_job(2, 8, 1.0, 500.0), hand_job(3, 8, 20.0, 40.0)};
  const auto slack = run_jobs(one_job_waves(sched::QueuePolicy::kSlack), jobs);
  EXPECT_EQ(slack[2].dispatch_us, 30.0);
  EXPECT_EQ(slack[3].dispatch_us, 60.0);
  EXPECT_EQ(slack[1].dispatch_us, 90.0);
}

TEST(SchedIndexTest, DoomSweepShedsInSequenceOrder) {
  // At t = 30 jobs 1-3 are doomed by t, with deadlines falling in sequence
  // order, and job 4 was born doomed (20 < 4 + 30).  The sweep must drop
  // them, and emit their drop events, in sequence order under both index
  // layouts.
  for (const sched::QueuePolicy policy :
       {sched::QueuePolicy::kFifo, sched::QueuePolicy::kEdf}) {
    std::vector<serve::CellJob> jobs = {
        hand_job(0, 8, 0.0, 1000.0), hand_job(1, 8, 1.0, 50.0),
        hand_job(2, 8, 2.0, 45.0), hand_job(3, 8, 3.0, 40.0),
        hand_job(4, 8, 4.0, 20.0)};
    sched::SchedConfig cfg = one_job_waves(policy);
    cfg.drop_late = true;
    obs::TraceLog log;
    cfg.trace = &log;
    sched::Scheduler scheduler(cfg);
    for (serve::CellJob& job : jobs) scheduler.submit(std::move(job));
    scheduler.finish();
    EXPECT_EQ(dispatch_ids(log), (std::vector<std::size_t>{0}))
        << sched::to_string(policy);
    EXPECT_EQ(drop_ids(log), (std::vector<std::size_t>{1, 2, 3, 4}))
        << sched::to_string(policy);
    EXPECT_LT(log.dispatches()[0].dispatch_us, log.drops()[0].drop_us);
    for (std::size_t seq = 1; seq <= 4; ++seq)
      EXPECT_TRUE(scheduler.records()[seq].dropped) << "job " << seq;
  }
}

TEST(SchedIndexTest, SlackRanksShapeHeadsByFeasibilityFirst) {
  // At t = 30: job 1 (shape 8) is doomed (50 < 60), job 2 (shape 8) and
  // job 3 (shape 16) are feasible.  Shape 8's slack head is job 2, and the
  // shape-16 head beats it on deadline.
  const std::vector<serve::CellJob> jobs = {
      hand_job(0, 8, 0.0, 1000.0), hand_job(1, 8, 1.0, 50.0),
      hand_job(2, 8, 1.0, 300.0), hand_job(3, 16, 1.0, 200.0)};

  const auto slack = run_jobs(one_job_waves(sched::QueuePolicy::kSlack), jobs);
  EXPECT_EQ(slack[3].dispatch_us, 30.0);
  EXPECT_EQ(slack[2].dispatch_us, 60.0);
  EXPECT_EQ(slack[1].dispatch_us, 90.0);

  const auto edf = run_jobs(one_job_waves(sched::QueuePolicy::kEdf), jobs);
  EXPECT_EQ(edf[1].dispatch_us, 30.0);
  EXPECT_EQ(edf[3].dispatch_us, 60.0);
  EXPECT_EQ(edf[2].dispatch_us, 90.0);
}

TEST(SchedIndexTest, GrowthDrainFinalizesInSequenceOrder) {
  // At 30 EDF dispatches job 4; the three shape-16 jobs stay queued, in
  // reverse sequence order in the EDF index.  A defect growth at 40 kills
  // shape 16 on the only device (and aborts job 4's wave): the queued jobs
  // must fail, and emit their drop events, in sequence order, ahead of the
  // aborted job 4.
  std::vector<serve::CellJob> jobs = {
      hand_job(0, 8, 0.0, 1000.0), hand_job(1, 16, 1.0, 900.0),
      hand_job(2, 16, 2.0, 800.0), hand_job(3, 16, 3.0, 700.0),
      hand_job(4, 8, 4.0, 500.0)};
  sched::SchedConfig cfg = one_job_waves(sched::QueuePolicy::kEdf);
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->growths.push_back({0, 40.0, dead_row_map()});
  cfg.fault = plan;
  obs::TraceLog log;
  cfg.trace = &log;

  sched::Scheduler scheduler(cfg);
  for (serve::CellJob& job : jobs) scheduler.submit(std::move(job));
  scheduler.finish();

  // Job 4's aborted wave emits no dispatch event; it fails mid-flight.
  EXPECT_EQ(dispatch_ids(log), (std::vector<std::size_t>{0}));
  EXPECT_EQ(drop_ids(log), (std::vector<std::size_t>{1, 2, 3, 4}));
  EXPECT_LT(log.dispatches()[0].dispatch_us, log.drops()[0].drop_us);
  EXPECT_TRUE(log.drops().back().mid_flight);
  for (std::size_t seq = 1; seq <= 4; ++seq) {
    EXPECT_TRUE(scheduler.records()[seq].failed) << "job " << seq;
    EXPECT_EQ(scheduler.records()[seq].completion_us, 40.0) << "job " << seq;
  }
  EXPECT_EQ(scheduler.records()[4].dispatch_us, 30.0);
}

TEST(SchedIndexTest, RequeuedJobRegainsItsPolicyPosition) {
  // Job 0's wave aborts at 10 (outage until 20) and is re-queued behind
  // nothing: at 20 it must sit where the policy puts it among jobs 1 and 2.
  const std::vector<serve::CellJob> jobs = {hand_job(0, 8, 0.0, 300.0),
                                            hand_job(1, 8, 5.0, 400.0),
                                            hand_job(2, 8, 6.0, 200.0)};
  const auto config = [](sched::QueuePolicy policy) {
    sched::SchedConfig cfg = one_job_waves(policy);
    cfg.fault = outage_plan(0, 10.0, 20.0);
    cfg.max_retries = 1;
    return cfg;
  };

  const auto fifo = run_jobs(config(sched::QueuePolicy::kFifo), jobs);
  EXPECT_EQ(fifo[0].retries, 1u);
  EXPECT_EQ(fifo[0].dispatch_us, 20.0);
  EXPECT_EQ(fifo[1].dispatch_us, 50.0);
  EXPECT_EQ(fifo[2].dispatch_us, 80.0);

  const auto edf = run_jobs(config(sched::QueuePolicy::kEdf), jobs);
  EXPECT_EQ(edf[2].dispatch_us, 20.0);
  EXPECT_EQ(edf[0].dispatch_us, 50.0);
  EXPECT_EQ(edf[1].dispatch_us, 80.0);
}

TEST(DeviceSetTest, TopologyKeyedCachesSharedOnlyWhenIdentical) {
  anneal::AnnealerConfig base;
  // Three devices: two identical pristine chips, one defective.
  std::vector<sched::DeviceSpec> specs(3);
  specs[2].disabled = dead_row_map();
  sched::DeviceSet set(base, specs);

  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.cache(0), set.cache(1)) << "identical topologies must share";
  EXPECT_NE(set.cache(0), set.cache(2)) << "defect-distinct must not share";
  EXPECT_TRUE(set.graph(0).same_topology(set.graph(1)));
  EXPECT_FALSE(set.graph(0).same_topology(set.graph(2)));

  // The defect map kills shape 16 entirely and halves shape 8's tiling.
  EXPECT_GT(set.capacity(0, 16), 0u);
  EXPECT_EQ(set.capacity(2, 16), 0u);
  EXPECT_FALSE(set.fits(2, 16));
  EXPECT_GT(set.capacity(2, 8), 0u);
  EXPECT_LT(set.capacity(2, 8), set.capacity(0, 8));
  EXPECT_EQ(set.max_capacity(16), set.capacity(0, 16));
}

TEST(DeviceSetTest, WorkerConfigCarriesDeviceDefects) {
  anneal::AnnealerConfig base;
  base.num_threads = 4;
  std::vector<sched::DeviceSpec> specs(2);
  specs[1].defects = 17;
  specs[1].defect_seed = 0xD1;
  sched::DeviceSet set(base, specs);

  const anneal::AnnealerConfig w0 = set.worker_config(0);
  const anneal::AnnealerConfig w1 = set.worker_config(1);
  EXPECT_EQ(w0.num_threads, 1u) << "workers must be single-threaded";
  EXPECT_EQ(w0.chip_defects, 0u);
  EXPECT_EQ(w1.chip_defects, 17u);
  EXPECT_EQ(w1.chip_seed, 0xD1u);
  // A worker built from the config reproduces the device's exact topology
  // (the set_embedding_cache compatibility requirement).
  anneal::ChimeraAnnealer worker(w1);
  EXPECT_TRUE(worker.graph().same_topology(set.graph(1)));
  anneal::ChimeraAnnealer pristine(w0);
  EXPECT_FALSE(pristine.graph().same_topology(set.graph(1)));
}

}  // namespace
}  // namespace quamax
