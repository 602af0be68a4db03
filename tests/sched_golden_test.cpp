// Golden pins for the scheduler's observable behaviour.
//
// sched_property_test compares an async run against a batch run of the SAME
// code, so a rewrite of the scheduler's internals that changed both paths
// alike would pass it.  This suite pins the behaviour itself: each scenario
// is an overload run of 1-2k jobs, and the FNV-1a hash of every JobRecord
// field and every Wave field (the fields sched_property_test's
// records_equal and waves_equal compare) must equal a recorded constant.
//
// The scenarios cover the queue policies (fifo/edf/slack), drop_late off and
// on, fallback none and zf, one device and three devices with one of them
// dead-row-sharded (shape-aware routing), a 30% downlink mix (two shapes and
// two deadline budgets), coherent warm start, and a fault plan with
// retries and backoff (requeue, and jobs doomed from the moment they are
// queued again).
//
// A constant may only change together with a deliberate, documented change
// of scheduling or decode behaviour.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "quamax/fault/plan.hpp"
#include "quamax/sched/device_set.hpp"
#include "quamax/sched/policy.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/service.hpp"

namespace quamax {
namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void flag(bool v) { u64(v ? 1 : 0); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

std::uint64_t report_hash(const serve::ServiceReport& report) {
  Fnv1a h;
  h.u64(report.jobs.size());
  for (const serve::JobRecord& r : report.jobs) {
    h.u64(r.job_id);
    h.u64(r.user);
    h.u64(static_cast<std::uint64_t>(r.direction));
    h.u64(r.wave_id);
    h.f64(r.arrival_us);
    h.f64(r.dispatch_us);
    h.f64(r.completion_us);
    h.f64(r.deadline_us);
    h.flag(r.dropped);
    h.u64(r.retries);
    h.flag(r.fallback);
    h.flag(r.failed);
    h.u64(r.bit_errors);
    h.u64(r.num_bits);
    h.flag(r.ground_state);
  }
  h.u64(report.waves.size());
  for (const serve::Wave& w : report.waves) {
    h.u64(w.id);
    h.u64(w.shape);
    h.u64(w.jobs.size());
    for (const std::size_t seq : w.jobs) h.u64(seq);
    h.f64(w.dispatch_us);
    h.f64(w.completion_us);
    h.u64(w.device);
    h.flag(w.warm);
    h.u64(w.seeds.size());
    for (const std::size_t seq : w.seeds) h.u64(seq);
    h.flag(w.failed);
    h.f64(w.fail_us);
  }
  return h.value();
}

using sched::QueuePolicy;
constexpr auto kNone = fault::FallbackMode::kNone;
constexpr auto kZf = fault::FallbackMode::kZf;

enum class Pool { kOneDevice, kThreeSharded };

struct Scenario {
  std::string name;
  sched::QueuePolicy policy = sched::QueuePolicy::kFifo;
  bool drop_late = false;
  fault::FallbackMode fallback = fault::FallbackMode::kNone;
  Pool pool = Pool::kThreeSharded;
  bool coherent = false;  ///< coherent subframes + warm-start serving
  bool faults = false;    ///< outages, growth, injected failures, retries
  std::size_t jobs = 1500;
};

/// 8-user noise-free BPSK uplink with a 30% 4x4 QPSK downlink mix at a
/// tighter budget, offered well above the pool's capacity.
serve::LoadConfig load_of(const Scenario& s) {
  serve::LoadConfig cfg;
  cfg.users = 8;
  cfg.problem.users = 8;
  cfg.problem.mod = wireless::Modulation::kBpsk;
  cfg.problem.kind = wireless::ChannelKind::kRandomPhase;
  cfg.problem.snr_db = std::nullopt;
  cfg.deadline_us = 400.0;
  cfg.downlink_fraction = 0.3;
  cfg.downlink.users = 4;
  cfg.downlink.antennas = 4;
  cfg.downlink.mod = wireless::Modulation::kQpsk;
  cfg.downlink.snr_db = 14.0;
  cfg.downlink_deadline_us = 250.0;
  if (s.coherent) {
    // One job per user every 16 us (500 jobs/ms), 10-subframe coherence
    // blocks: most uplink jobs have a predecessor to warm-start from.
    cfg.arrivals = serve::ArrivalKind::kSubframe;
    cfg.subframe_period_us = 16.0;
    cfg.coherence = 0.9;
  } else {
    cfg.arrivals = serve::ArrivalKind::kPoisson;
    cfg.offered_load_jobs_per_ms = s.pool == Pool::kOneDevice ? 500.0 : 1200.0;
  }
  return cfg;
}

/// 14 us cold waves of at most 4 jobs: ~285 jobs/ms per device.
serve::ServiceConfig service_of(const Scenario& s) {
  serve::ServiceConfig cfg;
  cfg.annealer.schedule.anneal_time_us = 1.0;
  cfg.annealer.schedule.pause_time_us = 0.0;
  cfg.annealer.batch_replicas = 8;
  cfg.num_anneals = 4;
  cfg.program_overhead_us = 10.0;
  cfg.max_wave_jobs = 4;
  cfg.num_threads = 2;
  cfg.queue_policy = s.policy;
  cfg.drop_late = s.drop_late;
  cfg.fallback = s.fallback;
  if (s.pool == Pool::kThreeSharded) {
    cfg.device_specs = sched::uniform_devices(cfg.annealer, 3);
    cfg.device_specs[2].disabled =
        sched::dead_row_fault_map(chimera::ChimeraGraph(), 4);
  }
  if (s.coherent) {
    cfg.warm_start = true;
    cfg.warm_num_anneals = 1;
  }
  if (s.faults) {
    auto plan = std::make_shared<fault::FaultPlan>();
    plan->seed = 0x601D;
    plan->outages.push_back({0, 300.0, 700.0});
    plan->outages.push_back({1, 1200.0, 1500.0});
    plan->anneal_failure_prob = 0.15;
    plan->readout_failure_prob = 0.1;
    fault::DefectGrowth growth;
    growth.device = 2;
    growth.time_us = 900.0;
    growth.qubits = sched::dead_row_fault_map(chimera::ChimeraGraph(), 9);
    plan->growths.push_back(growth);
    cfg.fault = plan;
    cfg.max_retries = 2;
    // Longer than some budgets' remaining slack: a retried job can be
    // doomed the moment it is queued again.
    cfg.retry_backoff_us = 120.0;
  }
  return cfg;
}

serve::ServiceReport run(const Scenario& s) {
  serve::LoadGenerator gen(load_of(s), 0x6011D);
  return serve::DecodeService(service_of(s)).run(gen.open_loop(s.jobs));
}

/// The scenario exercises the paths its name claims.
void expect_coverage(const Scenario& s, const serve::ServiceReport& report) {
  std::size_t warm = 0, failed_waves = 0, retried = 0, dropped = 0;
  for (const serve::Wave& w : report.waves) {
    warm += w.warm ? 1 : 0;
    failed_waves += w.failed ? 1 : 0;
  }
  for (const serve::JobRecord& r : report.jobs) {
    retried += r.retries > 0 ? 1 : 0;
    dropped += r.dropped ? 1 : 0;
  }
  if (s.coherent) {
    EXPECT_GT(warm, 0u) << s.name;
  }
  if (s.faults) {
    EXPECT_GT(failed_waves, 0u) << s.name;
    EXPECT_GT(retried, 0u) << s.name;
  }
  if (s.drop_late && s.fallback == kNone) {
    EXPECT_GT(dropped, 0u) << s.name;
  }
}

std::vector<Scenario> scenarios() {
  const QueuePolicy policies[] = {QueuePolicy::kFifo, QueuePolicy::kEdf,
                                  QueuePolicy::kSlack};
  std::vector<Scenario> out;
  for (const QueuePolicy p : policies) {
    Scenario s;
    s.name = sched::to_string(p) + "/1dev";
    s.policy = p;
    s.pool = Pool::kOneDevice;
    out.push_back(s);
  }
  for (const QueuePolicy p : policies)
    // drop_late + fallback equals fallback alone (fallback wins over
    // drop_late for doomed jobs), so that pair is not pinned twice.
    for (const auto& [drop, fb] :
         {std::pair{false, kNone}, std::pair{true, kNone},
          std::pair{false, kZf}}) {
      Scenario s;
      s.name = sched::to_string(p) + "/3dev" + (drop ? "/drop" : "") +
               (fb == kZf ? "/zf" : "");
      s.policy = p;
      s.drop_late = drop;
      s.fallback = fb;
      out.push_back(s);
    }
  for (const QueuePolicy p : policies) {
    Scenario s;
    s.name = sched::to_string(p) + "/coherent";
    s.policy = p;
    s.pool = Pool::kOneDevice;
    s.coherent = true;
    s.drop_late = p == QueuePolicy::kEdf;
    out.push_back(s);
  }
  for (const QueuePolicy p : policies)
    for (const fault::FallbackMode fb : {kNone, kZf}) {
      Scenario s;
      s.name = sched::to_string(p) + "/faults" +
               (fb == kZf ? "/zf" : "");
      s.policy = p;
      s.faults = true;
      s.fallback = fb;
      s.drop_late = p == QueuePolicy::kSlack;
      out.push_back(s);
    }
  return out;
}

/// Recorded constants, in scenarios() order.  After a doom sweep (drop_late
/// or a fallback) every queued job is feasible, so slack orders like edf and
/// the two pin the same hash in those scenarios.
constexpr std::uint64_t kGolden[] = {
    0xFBA6C04CF62B3CC5ull,  // fifo/1dev
    0xF75500E36F761B20ull,  // edf/1dev
    0x67B1D8745154910Bull,  // slack/1dev
    0x891CE93F4F098714ull,  // fifo/3dev
    0x2D99D49BEC13CFBEull,  // fifo/3dev/drop
    0x5E1A348584307FCAull,  // fifo/3dev/zf
    0xF89ABDD3887D7693ull,  // edf/3dev
    0xE069A855BC6DE327ull,  // edf/3dev/drop
    0x907AA2CEA43F031Dull,  // edf/3dev/zf
    0x97B7A23DFCF363FEull,  // slack/3dev
    0xE069A855BC6DE327ull,  // slack/3dev/drop
    0x907AA2CEA43F031Dull,  // slack/3dev/zf
    0xF40270009B554E71ull,  // fifo/coherent
    0xCE22D2C4369000F0ull,  // edf/coherent
    0xED090924D5A08C05ull,  // slack/coherent
    0xB0F419AF9B546CA5ull,  // fifo/faults
    0x6917C30AF4452411ull,  // fifo/faults/zf
    0x26FF110A597939F4ull,  // edf/faults
    0x0DB6F3A799CAD643ull,  // edf/faults/zf
    0x5F3E78B68C959BA1ull,  // slack/faults
    0x0DB6F3A799CAD643ull,  // slack/faults/zf
};

TEST(SchedGoldenTest, ReportsMatchRecordedHashes) {
  const std::vector<Scenario> all = scenarios();
  ASSERT_EQ(all.size(), sizeof kGolden / sizeof kGolden[0]);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const serve::ServiceReport report = run(all[i]);
    expect_coverage(all[i], report);
    const std::uint64_t got = report_hash(report);
    char hex[24];
    std::snprintf(hex, sizeof hex, "0x%016llX",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, kGolden[i]) << all[i].name << " hashed " << hex;
  }
}

}  // namespace
}  // namespace quamax
