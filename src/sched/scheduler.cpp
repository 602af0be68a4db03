#include "quamax/sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "quamax/common/error.hpp"
#include "quamax/core/transform.hpp"
#include "quamax/fault/fallback.hpp"
#include "quamax/metrics/solution_stats.hpp"
#include "quamax/vpp/precode.hpp"
#include "quamax/wireless/channel.hpp"

namespace quamax::sched {
namespace {

/// Ground-state test sharing metrics::kEnergyTolerance so scheduler records
/// and the metrics layer agree on the same samples by construction.
bool reaches_ground(double best_energy, double ground_energy) {
  return best_energy <= ground_energy + metrics::kEnergyTolerance;
}

constexpr double kInfinity = std::numeric_limits<double>::infinity();

using Key = std::pair<double, std::size_t>;
using KeySet = std::set<Key>;

/// One shape's pending jobs in policy order at a dispatch instant: first
/// queue[split, end) — slack's feasible suffix, empty for fifo/edf — then
/// queue[begin, split) merged by key with the born-doomed set.
class PolicyWalk {
 public:
  PolicyWalk(const KeySet& queue, const KeySet& born_doomed,
             KeySet::const_iterator split)
      : first_(split),
        queue_end_(queue.end()),
        rest_(queue.begin()),
        split_(split),
        doomed_(born_doomed.begin()),
        doomed_end_(born_doomed.end()) {}

  /// Writes the next job's seq; false once every job was visited.
  bool next(std::size_t& seq) {
    if (first_ != queue_end_) {
      seq = (first_++)->second;
      return true;
    }
    const bool rest = rest_ != split_;
    const bool doomed = doomed_ != doomed_end_;
    if (!rest && !doomed) return false;
    if (rest && (!doomed || *rest_ < *doomed_))
      seq = (rest_++)->second;
    else
      seq = (doomed_++)->second;
    return true;
  }

 private:
  KeySet::const_iterator first_, queue_end_, rest_, split_, doomed_,
      doomed_end_;
};

}  // namespace

Scheduler::Scheduler(SchedConfig config, std::shared_ptr<DeviceSet> devices)
    : config_(std::move(config)),
      devices_(std::move(devices)),
      pool_(config_.num_threads) {
  require(config_.num_anneals >= 1, "Scheduler: need at least one anneal");
  require(config_.program_overhead_us >= 0.0,
          "Scheduler: negative program overhead");
  config_.annealer.schedule.validate();
  require(!config_.annealer.schedule.reverse,
          "Scheduler: reverse annealing is single-problem only");
  if (config_.devices.empty())
    config_.devices = uniform_devices(config_.annealer, 1);
  if (devices_ == nullptr)
    devices_ = std::make_shared<DeviceSet>(config_.annealer, config_.devices);
  require(devices_->size() == config_.devices.size(),
          "Scheduler: device set size does not match the device specs");
  require(config_.warm_num_anneals <= config_.num_anneals,
          "Scheduler: the warm quota is a CUT of the cold quota");
  // The warm reverse schedule is fixed at construction; validate it even
  // when warm_start is off so a config error surfaces immediately.
  warm_schedule_ = config_.annealer.schedule;
  warm_schedule_.reverse = true;
  warm_schedule_.reverse_depth = config_.warm_reverse_depth;
  warm_schedule_.validate();
  for (std::size_t d = 0; d < devices_->size(); ++d)
    free_devices_.emplace(0.0, d);
  workers_.resize(pool_.size());
  for (auto& lane : workers_) lane.resize(devices_->size());
  // warm_key_ is drawn AFTER decode_key_ from the same root, so cold waves
  // keep their historical streams and warm waves can never collide with
  // them for any wave id.
  Rng root(config_.seed);
  decode_key_ = root();
  warm_key_ = root();

  // Fault plan (normalized: an empty plan IS the fault-free path).  The
  // fault stream family is keyed by the PLAN's own seed — the root draws
  // above never move, so attaching a plan keeps every decode and warm
  // stream bit-compatible with history.
  if (config_.fault != nullptr && !config_.fault->empty()) {
    config_.fault->validate(devices_->size());
    plan_ = config_.fault;
    fault_key_ = Rng(plan_->seed)();
    // Defect growth mutates the device pool mid-run; a caller-shared
    // DeviceSet must never see that, so take a private pool built from the
    // same specs (placements recompile — correctness over reuse here).
    if (!plan_->growths.empty())
      devices_ = std::make_shared<DeviceSet>(config_.annealer, config_.devices);
    outage_windows_.assign(devices_->size(), {});
    for (std::size_t i = 0; i < plan_->outages.size(); ++i) {
      const fault::OutageWindow& w = plan_->outages[i];
      outage_windows_[w.device].push_back(w);
      fault_events_.push(
          {w.start_us, fault_event_order_++, FaultKind::kOutageStart, i});
      fault_events_.push(
          {w.end_us, fault_event_order_++, FaultKind::kOutageEnd, i});
    }
    for (auto& windows : outage_windows_)
      std::sort(windows.begin(), windows.end(),
                [](const fault::OutageWindow& a, const fault::OutageWindow& b) {
                  return a.start_us < b.start_us;
                });
    growth_applied_.assign(plan_->growths.size(), 0);
    for (std::size_t i = 0; i < plan_->growths.size(); ++i)
      fault_events_.push({plan_->growths[i].time_us, fault_event_order_++,
                          FaultKind::kGrowth, i});
  }
}

double Scheduler::wave_service_us() const {
  return config_.program_overhead_us +
         static_cast<double>(config_.num_anneals) *
             config_.annealer.schedule.duration_us();
}

std::size_t Scheduler::warm_quota() const {
  return config_.warm_num_anneals > 0 ? config_.warm_num_anneals
                                      : config_.num_anneals;
}

double Scheduler::warm_wave_service_us() const {
  return config_.program_overhead_us +
         static_cast<double>(warm_quota()) * warm_schedule_.duration_us();
}

std::size_t Scheduler::submit(serve::CellJob job) {
  // The messages are built only on failure: submit is the per-job hot path.
  const auto reject = [&job](const std::string& why) {
    throw InvalidArgument("Scheduler::submit: job " + std::to_string(job.id) +
                          why);
  };
  // An infinite arrival would stage a job no round ever admits.
  if (!std::isfinite(job.arrival_us)) reject(" has a non-finite arrival time");
  if (job.arrival_us < last_arrival_us_)
    reject(" arrives at " + std::to_string(job.arrival_us) +
           " us, before the previous arrival at " +
           std::to_string(last_arrival_us_) +
           " us; jobs must arrive in non-decreasing order");
  // Deadlines key the edf/slack order; NaN has no place in an order.
  if (std::isnan(job.deadline_us)) reject(" has a NaN deadline");
  // Under a fault plan an unservable shape (a defect growth may have eaten
  // the last embedding mid-run) rides the fallback ladder below instead of
  // throwing; without one the historical contract holds.
  const bool servable = devices_->max_capacity(job.shape()) > 0;
  if (!servable && plan_ == nullptr)
    throw CapacityError("Scheduler::submit: no device can embed shape " +
                        std::to_string(job.shape()));
  advance_to(job.arrival_us);
  last_arrival_us_ = job.arrival_us;
  now_us_ = std::max(now_us_, job.arrival_us);

  const std::size_t seq = jobs_.size();
  serve::JobRecord record;
  record.job_id = job.id;
  record.user = job.user;
  record.direction = job.direction();
  record.arrival_us = job.arrival_us;
  record.deadline_us = job.deadline_us;
  // Coherence chains reference predecessors by JOB id; map to sequence
  // numbers so warm dispatch can find the prior record.
  if (config_.warm_start) {
    if (!job.downlink()) id_to_seq_[job.id] = seq;
    seeds_.emplace_back();
  }
  records_.push_back(record);
  states_.push_back(JobState::kQueued);
  job_ready_us_.push_back(0.0);
  job_retries_.push_back(0);
  if (config_.trace != nullptr) {
    obs::JobSubmitEvent event;
    event.job_id = job.id;
    event.user = static_cast<int>(job.user);
    event.direction = job.downlink() ? 1 : 0;
    event.submit_us = job.arrival_us;
    event.deadline_us = job.deadline_us;
    config_.trace->on_job_submit(event);
  }
  jobs_.push_back(std::move(job));
  if (!servable) {
    if (config_.fallback != fault::FallbackMode::kNone)
      finalize_fallback(seq, jobs_[seq].arrival_us, jobs_[seq].arrival_us);
    else
      finalize_failed(seq, jobs_[seq].arrival_us, jobs_[seq].arrival_us);
  }
  return seq;
}

void Scheduler::advance_to(double horizon_us) {
  while (round(horizon_us)) {
  }
}

void Scheduler::finish() {
  advance_to(kInfinity);
  require(admit_cursor_ == jobs_.size() && pending_.empty(),
          "Scheduler::finish: undispatched jobs remain");
  execute_due(kInfinity);
}

// One dispatch attempt for the earliest-free device — the PR-3 event loop's
// body, generalized with policy ordering and shape-aware routing.  The
// round's effective time never reaches `horizon_us`: every arrival a round
// could admit has already been submitted, which is what makes the async
// timeline identical to a batch run of the same workload.
bool Scheduler::round(double horizon_us) {
  if (free_devices_.empty()) return false;
  const auto [freed_us, device] = free_devices_.top();
  free_devices_.pop();
  double t_free = freed_us;
  bool finalized = false;  // process_faults ended a job

  while (true) {
    // An idle device jumps to the next submitted arrival or the next fault
    // event — whichever comes first, so fault processing stays globally
    // time-ordered against every dispatch decision.
    if (pending_.empty()) {
      double next = kInfinity;
      if (admit_cursor_ < jobs_.size())
        next = jobs_[admit_cursor_].arrival_us;
      if (!fault_events_.empty() && fault_events_.top().t_us < next)
        next = fault_events_.top().t_us;
      if (next == kInfinity) {
        free_devices_.emplace(finalized ? t_free : freed_us, device);
        return finalized;
      }
      t_free = std::max(t_free, next);
    }
    if (t_free >= horizon_us) {
      // Re-queue at the ORIGINAL free time, not the jumped one: a round
      // that does nothing must leave no trace, or device tie-breaking
      // would depend on how many advance_to() calls a driver happens to
      // make (a driver may flush before each submit or never) — and the
      // async == batch contract would break the moment two devices go free
      // at the same instant (tests/sched_property_test.cpp caught exactly
      // this).
      free_devices_.emplace(freed_us, device);
      return false;
    }

    // Apply the fault timeline up to this instant: defect growth, outage
    // trace marks, failed waves' retry/fallback ladders (which may
    // re-queue members into pending_).  Every event <= t_free is processed
    // before any decision at t_free, in (time, insertion) order — the same
    // order in every driver, whatever its advance_to() cadence.
    if (process_faults(t_free)) finalized = true;

    // A device inside an outage window serves nothing until it ends.
    const double up_us = outage_until(device, t_free);
    if (up_us > t_free) {
      free_devices_.emplace(up_us, device);
      return true;
    }

    // Admit everything released by t_free, then shed doomed jobs (the doom
    // sweep also runs with a fallback configured — doomed jobs are served
    // classically instead of dropped).
    admit_up_to(t_free);
    if (config_.drop_late || config_.fallback != fault::FallbackMode::kNone) {
      const bool had_pending = !pending_.empty();
      sweep_doomed(t_free);
      if (pending_.empty() && had_pending) {
        // The sweep emptied the queue: requeue the device and let the next
        // round (any device) jump forward, exactly like the batch loop.
        free_devices_.emplace(t_free, device);
        return true;
      }
    }
    if (pending_.empty()) continue;  // nothing admitted yet; jump again

    // Shape-aware routing: seed with the policy-best pending job whose
    // shape this device can embed — the best of the fitting shapes' heads.
    std::size_t seed_seq = jobs_.size();
    bool found = false;
    for (const auto& [shape, q] : pending_) {
      if (!devices_->fits(device, shape)) continue;
      std::size_t head = 0;
      PolicyWalk(q.queue, q.born_doomed, feasible_begin(q, t_free)).next(head);
      if (!found || policy_before(head, seed_seq, t_free)) {
        seed_seq = head;
        found = true;
      }
    }
    if (!found) {
      // Every pending job needs some other device; park until the next
      // admission re-arms us.
      parked_.emplace_back(t_free, device);
      return true;
    }

    dispatch_wave(device, t_free, seed_seq);
    return true;
  }
}

void Scheduler::admit_up_to(double t_us) {
  bool admitted = false;
  while (admit_cursor_ < jobs_.size() &&
         jobs_[admit_cursor_].arrival_us <= t_us) {
    const std::size_t seq = admit_cursor_++;
    // submit() may have finalized a staged job already (shape unservable on
    // arrival under a fault plan) — never re-admit a resolved job.
    if (states_[seq] != JobState::kQueued) continue;
    // Defect growth between staging and admission may have eaten the last
    // embedding for this shape; resolve at admission instead of routing.
    if (plan_ != nullptr && !plan_->growths.empty() &&
        devices_->max_capacity(jobs_[seq].shape()) == 0) {
      if (config_.fallback != fault::FallbackMode::kNone)
        finalize_fallback(seq, jobs_[seq].arrival_us, jobs_[seq].arrival_us);
      else
        finalize_failed(seq, jobs_[seq].arrival_us, jobs_[seq].arrival_us);
      continue;
    }
    enqueue(seq);
    admitted = true;
  }
  if (admitted && !parked_.empty()) {
    // New work may fit a parked device; re-arm the whole bench.
    for (const Device& d : parked_) free_devices_.push(d);
    parked_.clear();
  }
}

// Deadline-aware admission (ServiceConfig::drop_late and the fallback
// ladder): every queued job that even immediate service — starting at
// start_at(seq, t_free) — can no longer save is shed.  With a fallback
// configured a doomed job completes classically RIGHT NOW instead of
// dropping (the degraded-mode guarantee; fallback wins over drop_late).
// The doomed jobs are each shape's (deadline, seq) prefix below
// t_free + service plus its born-doomed set, so per-job budgets may differ
// (HARQ class mixes); they are shed in sequence order.
void Scheduler::sweep_doomed(double t_free_us) {
  const Key bound{t_free_us + wave_service_us(), 0};
  std::vector<std::size_t> doomed;
  for (const auto& [shape, q] : pending_) {
    const KeySet& by_deadline =
        config_.policy == QueuePolicy::kFifo ? q.deadlines : q.queue;
    for (auto it = by_deadline.begin();
         it != by_deadline.end() && *it < bound; ++it)
      doomed.push_back(it->second);
    for (const Key& key : q.born_doomed) doomed.push_back(key.second);
  }
  std::sort(doomed.begin(), doomed.end());
  for (const std::size_t seq : doomed) {
    dequeue(seq);
    const double start_us = start_at(seq, t_free_us);
    if (config_.fallback != fault::FallbackMode::kNone) {
      finalize_fallback(seq, start_us, start_us);
      continue;
    }
    records_[seq].dropped = true;
    records_[seq].retries = job_retries_[seq];
    records_[seq].dispatch_us = start_us;
    records_[seq].completion_us = start_us;
    states_[seq] = JobState::kDropped;
    undelivered_.emplace(start_us, seq);
    if (config_.trace != nullptr) {
      obs::JobDropEvent event;
      event.job_id = jobs_[seq].id;
      event.drop_us = start_us;
      event.deadline_us = jobs_[seq].deadline_us;
      config_.trace->on_job_drop(event);
    }
  }
}

bool Scheduler::process_faults(double t_us) {
  bool finalized = false;
  while (!fault_events_.empty() && fault_events_.top().t_us <= t_us) {
    const FaultEvent ev = fault_events_.top();
    fault_events_.pop();
    switch (ev.kind) {
      case FaultKind::kOutageStart: {
        // Scheduling reads the window list directly (outage_until,
        // wave_fail_us); the timeline entry exists so the down-mark lands
        // in the trace exactly once, in global time order, in every driver.
        if (config_.trace != nullptr) {
          const fault::OutageWindow& w = plan_->outages[ev.index];
          obs::DeviceDownEvent event;
          event.device = static_cast<int>(w.device);
          event.down_us = w.start_us;
          event.up_us = w.end_us;
          config_.trace->on_device_down(event);
        }
        break;
      }
      case FaultKind::kOutageEnd: {
        if (config_.trace != nullptr) {
          const fault::OutageWindow& w = plan_->outages[ev.index];
          obs::DeviceUpEvent event;
          event.device = static_cast<int>(w.device);
          event.up_us = w.end_us;
          config_.trace->on_device_up(event);
        }
        break;
      }
      case FaultKind::kGrowth: {
        const fault::DefectGrowth& growth = plan_->growths[ev.index];
        // Flush every decode due by the growth instant FIRST: those waves
        // annealed on the pre-growth topology and must sample it.
        execute_due(growth.time_us);
        devices_->grow_defects(growth.device, growth.qubits);
        growth_applied_[ev.index] = 1;
        // Lane workers cached the old chip; rebuild lazily on next use.
        for (auto& lane : workers_) lane[growth.device].reset();
        // Pending jobs whose shape the shrunken pool can no longer embed
        // anywhere resolve now (fallback or terminal failure), in sequence
        // order.
        std::vector<std::size_t> lost;
        for (const auto& [shape, q] : pending_) {
          if (devices_->max_capacity(shape) > 0) continue;
          for (const Key& key : q.queue) lost.push_back(key.second);
          for (const Key& key : q.born_doomed) lost.push_back(key.second);
        }
        std::sort(lost.begin(), lost.end());
        for (const std::size_t seq : lost) {
          dequeue(seq);
          const double at = std::max(growth.time_us, jobs_[seq].arrival_us);
          if (config_.fallback != fault::FallbackMode::kNone)
            finalize_fallback(seq, at, at);
          else
            finalize_failed(seq, at, at);
          finalized = true;
        }
        break;
      }
      case FaultKind::kWaveFail: {
        // The failed wave's members (in sequence order — canonical wave
        // membership order) ride the retry/fallback ladder.
        const serve::Wave& wave = waves_[ev.index];
        bool requeued = false;
        for (const std::size_t seq : wave.jobs) {
          if (states_[seq] != JobState::kInFlight) continue;
          ++job_retries_[seq];
          const double ready = wave.fail_us + config_.retry_backoff_us;
          const bool budget_ok =
              job_retries_[seq] <= config_.max_retries &&
              devices_->max_capacity(jobs_[seq].shape()) > 0;
          const bool slack_ok =
              jobs_[seq].deadline_us >= ready + wave_service_us();
          // Retry while the budget lasts; with a fallback configured only
          // retries that can still make the deadline are worth burning
          // device time on — otherwise degrade immediately.  Without one,
          // a doomed retry is still the job's best remaining shot.
          if (budget_ok &&
              (config_.fallback == fault::FallbackMode::kNone || slack_ok)) {
            states_[seq] = JobState::kQueued;
            job_ready_us_[seq] = ready;
            enqueue(seq);
            requeued = true;
            if (config_.trace != nullptr) {
              obs::JobRetryEvent event;
              event.job_id = jobs_[seq].id;
              event.wave_id = wave.id;
              event.device = static_cast<int>(wave.device);
              event.fail_us = wave.fail_us;
              event.ready_us = ready;
              event.retry = static_cast<int>(job_retries_[seq]);
              config_.trace->on_job_retry(event);
            }
            continue;
          }
          if (config_.fallback != fault::FallbackMode::kNone)
            finalize_fallback(seq, wave.dispatch_us, wave.fail_us,
                              /*mid_flight=*/true);
          else
            finalize_failed(seq, wave.dispatch_us, wave.fail_us,
                            /*mid_flight=*/true);
          finalized = true;
        }
        if (requeued && !parked_.empty()) {
          // Re-queued work may fit a parked device; re-arm the bench.
          for (const Device& d : parked_) free_devices_.push(d);
          parked_.clear();
        }
        break;
      }
    }
  }
  return finalized;
}

double Scheduler::outage_until(std::size_t device, double t_us) const {
  if (plan_ == nullptr) return t_us;
  // Union of overlapping/adjacent windows: extend past every window
  // covering t until a fixpoint (the per-device list is start-sorted, so
  // one forward pass suffices).
  double t = t_us;
  for (const fault::OutageWindow& w : outage_windows_[device])
    if (w.start_us <= t && t < w.end_us) t = w.end_us;
  return t;
}

double Scheduler::wave_fail_us(std::size_t device, std::size_t wave_id,
                               double dispatch_us, double completion_us) {
  double fail = kInfinity;
  for (const fault::OutageWindow& w : outage_windows_[device])
    if (w.start_us < completion_us && w.end_us > dispatch_us)
      fail = std::min(fail, std::max(dispatch_us, w.start_us));
  for (std::size_t i = 0; i < plan_->growths.size(); ++i) {
    const fault::DefectGrowth& g = plan_->growths[i];
    // Only growths NOT yet applied to the pool can abort this wave: a
    // parked device may pop with a free time predating an already-applied
    // growth, but its wave anneals on the post-growth topology.
    if (growth_applied_[i] == 0 && g.device == device &&
        g.time_us < completion_us)
      fail = std::min(fail, std::max(dispatch_us, g.time_us));
  }
  if (plan_->anneal_failure_prob > 0.0 || plan_->readout_failure_prob > 0.0) {
    // Both uniforms are ALWAYS drawn when either probability is set, so
    // toggling one injection never shifts the other's draw for any wave.
    Rng draw = Rng::for_stream(fault_key_, wave_id);
    const double u_anneal = draw.uniform();
    const double u_readout = draw.uniform();
    const double half_overhead = config_.program_overhead_us / 2.0;
    if (u_anneal < plan_->anneal_failure_prob)
      fail = std::min(fail, completion_us - half_overhead);
    else if (u_readout < plan_->readout_failure_prob)
      fail = std::min(fail, completion_us);
  }
  return fail;
}

void Scheduler::finalize_fallback(std::size_t seq, double dispatch_us,
                                  double t_us, bool mid_flight) {
  const fault::ClassicalDecode decode =
      fault::classical_decode(jobs_[seq], config_.fallback);
  serve::JobRecord& record = records_[seq];
  record.fallback = true;
  record.retries = job_retries_[seq];
  record.dispatch_us = dispatch_us;
  record.completion_us = t_us;
  record.bit_errors = decode.bit_errors;
  record.num_bits = decode.num_bits;
  record.ground_state = false;
  states_[seq] = JobState::kFallback;
  undelivered_.emplace(t_us, seq);
  if (config_.trace != nullptr) {
    obs::JobFallbackEvent event;
    event.job_id = jobs_[seq].id;
    event.direction = jobs_[seq].downlink() ? 1 : 0;
    event.fallback_us = t_us;
    event.deadline_us = jobs_[seq].deadline_us;
    event.bit_errors = decode.bit_errors;
    event.num_bits = decode.num_bits;
    event.mid_flight = mid_flight;
    config_.trace->on_job_fallback(event);
  }
}

void Scheduler::finalize_failed(std::size_t seq, double dispatch_us,
                                double t_us, bool mid_flight) {
  serve::JobRecord& record = records_[seq];
  record.failed = true;
  record.retries = job_retries_[seq];
  record.dispatch_us = dispatch_us;
  record.completion_us = t_us;
  states_[seq] = JobState::kFailed;
  undelivered_.emplace(t_us, seq);
  if (config_.trace != nullptr) {
    // A terminal failure is a miss the same way a drop is; it shares the
    // drop event so downstream tooling needs no third terminal kind.
    obs::JobDropEvent event;
    event.job_id = jobs_[seq].id;
    event.drop_us = t_us;
    event.deadline_us = jobs_[seq].deadline_us;
    event.mid_flight = mid_flight;
    config_.trace->on_job_drop(event);
  }
}

bool Scheduler::warm_eligible(std::size_t seq, double t_free_us) const {
  if (!config_.warm_start) return false;
  const serve::CellJob& job = jobs_[seq];
  if (job.downlink() || !job.predecessor.has_value()) return false;
  const auto it = id_to_seq_.find(*job.predecessor);
  if (it == id_to_seq_.end()) return false;
  const std::size_t pred = it->second;
  // A dropped predecessor was never decoded; a downlink one (possible only
  // if a driver recycled ids) leaves no spin configuration either.
  if (states_[pred] != JobState::kDispatched) return false;
  if (records_[pred].direction != serve::Direction::kUplink) return false;
  // A seed can only start a problem of the same variable count (coherent
  // chains guarantee this; arbitrary drivers may not).
  if (jobs_[pred].shape() != jobs_[seq].shape()) return false;
  // The seed exists at this dispatch instant only if the predecessor's
  // wave completed by it on the VIRTUAL clock.  (The wave's decode may
  // still be pending on the wall clock — execute_due orders it first.)
  return records_[pred].completion_us <= t_free_us;
}

bool Scheduler::born_doomed(std::size_t seq) const {
  // fl(x + s) is monotone in x, so the doom test at instant t,
  // deadline < fl(max(t, arrival, ready) + s), holds exactly when the
  // deadline fails against t, arrival or ready alone.  The last two are
  // fixed while the job is queued.
  const double service_us = wave_service_us();
  const double deadline = jobs_[seq].deadline_us;
  return deadline < jobs_[seq].arrival_us + service_us ||
         deadline < job_ready_us_[seq] + service_us;
}

Scheduler::Key Scheduler::policy_key(std::size_t seq) const {
  if (config_.policy == QueuePolicy::kFifo) return {0.0, seq};
  return {jobs_[seq].deadline_us, seq};
}

bool Scheduler::tracks_doom() const {
  return config_.drop_late || config_.fallback != fault::FallbackMode::kNone ||
         config_.policy == QueuePolicy::kSlack;
}

void Scheduler::enqueue(std::size_t seq) {
  ShapeQueue& q = pending_[jobs_[seq].shape()];
  if (tracks_doom() && born_doomed(seq)) {
    q.born_doomed.insert(policy_key(seq));
    return;
  }
  q.queue.insert(policy_key(seq));
  if (tracks_doom() && config_.policy == QueuePolicy::kFifo)
    q.deadlines.emplace(jobs_[seq].deadline_us, seq);
}

void Scheduler::dequeue(std::size_t seq) {
  const auto it = pending_.find(jobs_[seq].shape());
  ShapeQueue& q = it->second;
  if (tracks_doom() && born_doomed(seq)) {
    q.born_doomed.erase(policy_key(seq));
  } else {
    q.queue.erase(policy_key(seq));
    q.deadlines.erase({jobs_[seq].deadline_us, seq});
  }
  if (q.queue.empty() && q.born_doomed.empty()) pending_.erase(it);
}

KeySet::const_iterator Scheduler::feasible_begin(
    const ShapeQueue& q, double t_us) const {
  if (config_.policy != QueuePolicy::kSlack) return q.queue.end();
  return q.queue.lower_bound({t_us + wave_service_us(), 0});
}

std::size_t Scheduler::effective_capacity(std::size_t device, std::size_t shape) {
  return clamp_wave_jobs(devices_->capacity(device, shape), config_.packing,
                         config_.max_wave_jobs);
}

bool Scheduler::policy_before(std::size_t a, std::size_t b, double t_us) const {
  switch (config_.policy) {
    case QueuePolicy::kFifo:
      return a < b;
    case QueuePolicy::kEdf: {
      const double da = jobs_[a].deadline_us;
      const double db = jobs_[b].deadline_us;
      if (da != db) return da < db;
      return a < b;
    }
    case QueuePolicy::kSlack: {
      // Feasible jobs (still able to meet their deadline from this dispatch
      // instant) come first, in deadline order; doomed jobs defer to the
      // back rather than burn device time ahead of winnable work.
      const double service_us = wave_service_us();
      const auto doomed = [&](std::size_t seq) {
        return jobs_[seq].deadline_us < start_at(seq, t_us) + service_us;
      };
      const bool doomed_a = doomed(a);
      const bool doomed_b = doomed(b);
      if (doomed_a != doomed_b) return !doomed_a;
      const double da = jobs_[a].deadline_us;
      const double db = jobs_[b].deadline_us;
      if (da != db) return da < db;
      return a < b;
    }
  }
  return a < b;
}

void Scheduler::dispatch_wave(std::size_t device, double t_free_us,
                              std::size_t seed_seq) {
  const std::size_t shape = jobs_[seed_seq].shape();
  const std::size_t cap = effective_capacity(device, shape);
  // Warmness homogeneity: the whole wave runs ONE anneal program (one
  // schedule, one quota), so only jobs matching the seed job's warmness at
  // this instant may fill it; the others stay queued for a later wave.
  const bool warm = warm_eligible(seed_seq, t_free_us);

  // Fill with the policy-best same-shape jobs (the seed, the shape's head,
  // is the first of them).
  std::vector<std::size_t> same_shape;
  const ShapeQueue& q = pending_.at(shape);
  PolicyWalk walk(q.queue, q.born_doomed, feasible_begin(q, t_free_us));
  for (std::size_t seq = 0; same_shape.size() < cap && walk.next(seq);)
    if (warm_eligible(seq, t_free_us) == warm) same_shape.push_back(seq);
  for (const std::size_t seq : same_shape) dequeue(seq);
  // Wave membership is recorded in sequence order whatever the policy, so
  // the wave log (and the job -> sample mapping) has one canonical form.
  std::sort(same_shape.begin(), same_shape.end());

  serve::Wave wave;
  wave.id = waves_.size();
  wave.shape = shape;
  wave.device = device;
  wave.jobs = same_shape;
  wave.warm = warm;
  if (warm)
    for (const std::size_t seq : wave.jobs)
      wave.seeds.push_back(id_to_seq_.at(*jobs_[seq].predecessor));
  // Causality under multiple devices: members admitted at another device's
  // clock may arrive in THIS device's future (and a retried member may
  // still be inside its backoff); the wave starts no earlier than every
  // member's earliest legal start.
  wave.dispatch_us = t_free_us;
  for (const std::size_t seq : wave.jobs)
    wave.dispatch_us = std::max(wave.dispatch_us, start_at(seq, t_free_us));
  wave.completion_us =
      wave.dispatch_us + (warm ? warm_wave_service_us() : wave_service_us());

  // Fault pre-decision: the wave's fate is fixed AT DISPATCH on the virtual
  // clock (the fail instant is a pure function of the plan and the wave id),
  // so the decode lanes never see failed waves and the wall clock stays
  // fault-blind.
  if (plan_ != nullptr) {
    const double fail =
        wave_fail_us(device, wave.id, wave.dispatch_us, wave.completion_us);
    if (fail <= wave.completion_us) {
      wave.failed = true;
      wave.fail_us = fail;
    }
  }

  if (config_.trace != nullptr) {
    // The trace decomposition reproduces QuAMax §7's latency split from the
    // wave cost model: program_overhead_us covers programming + readout, so
    // it brackets the anneal span half-and-half; the anneal span itself is
    // exactly quota * schedule duration.  The four spans tile
    // [dispatch, completion], so per-job span sums equal the virtual-clock
    // service time bit-for-bit (the round-trip CTest re-adds them).
    obs::WaveEvent event;
    event.wave_id = wave.id;
    event.device = static_cast<int>(device);
    event.warm = warm;
    event.num_anneals =
        static_cast<int>(warm ? warm_quota() : config_.num_anneals);
    event.num_jobs = wave.jobs.size();
    event.policy = to_string(config_.policy);
    event.shape = std::to_string(shape);
    event.dispatch_us = wave.dispatch_us;
    const double half_overhead = config_.program_overhead_us / 2.0;
    event.program_end_us = wave.dispatch_us + half_overhead;
    event.readout_start_us = wave.completion_us - half_overhead;
    event.completion_us = wave.completion_us;
    event.failed = wave.failed;
    event.fail_us = wave.fail_us;
    config_.trace->on_wave(event);
  }

  if (wave.failed) {
    // A failed wave yields no samples: members go in-flight until the
    // kWaveFail event at the abort instant runs their retry/fallback
    // ladder.  No completion record, no delivery, no dispatch trace — on
    // the virtual clock nothing has been promised yet.  The device is
    // occupied only until the abort.
    for (const std::size_t seq : wave.jobs) {
      records_[seq].wave_id = wave.id;
      states_[seq] = JobState::kInFlight;
    }
    free_devices_.emplace(wave.fail_us, device);
    fault_events_.push(
        {wave.fail_us, fault_event_order_++, FaultKind::kWaveFail, wave.id});
    wave_executed_.push_back(1);  // never decodes
    waves_.push_back(std::move(wave));
    return;
  }

  for (const std::size_t seq : wave.jobs) {
    records_[seq].wave_id = wave.id;
    records_[seq].retries = job_retries_[seq];
    records_[seq].dispatch_us = wave.dispatch_us;
    records_[seq].completion_us = wave.completion_us;
    states_[seq] = JobState::kDispatched;
    undelivered_.emplace(wave.completion_us, seq);
    if (config_.trace != nullptr) {
      obs::JobDispatchEvent event;
      event.job_id = jobs_[seq].id;
      event.wave_id = wave.id;
      event.device = static_cast<int>(device);
      event.dispatch_us = wave.dispatch_us;
      event.completion_us = wave.completion_us;
      event.num_bits = jobs_[seq].downlink()
                           ? jobs_[seq].precode().tx_bits.size()
                           : jobs_[seq].uplink().use.tx_bits.size();
      config_.trace->on_job_dispatch(event);
    }
  }

  // The device idles from t_free to the (possibly later) dispatch.
  free_devices_.emplace(wave.completion_us, device);
  unexecuted_waves_.emplace(wave.completion_us, wave.id);
  wave_executed_.push_back(0);
  waves_.push_back(std::move(wave));
}

std::vector<std::size_t> Scheduler::collect(double t) {
  // execute_due first: every record popped below with completion <= t
  // belongs to a wave executed just now (or earlier) or to a drop.
  execute_due(t);
  std::vector<std::size_t> done;
  while (!undelivered_.empty() && undelivered_.top().first <= t) {
    done.push_back(undelivered_.top().second);
    undelivered_.pop();
  }
  // Heap pop order IS (completion time, seq) — no sort needed.
  return done;
}

// The wall-clock phase: fan every due wave across lane-local, device-affine
// ChimeraAnnealer workers.  Wave w's entire decode draws from
// Rng::for_stream(key, w) and writes only its members' record slots, so the
// filled records are bit-identical at any thread count and any
// submit/collect interleaving.
void Scheduler::execute_due(double t_us) {
  std::vector<std::size_t> due;
  while (!unexecuted_waves_.empty() && unexecuted_waves_.top().first <= t_us) {
    due.push_back(unexecuted_waves_.top().second);
    unexecuted_waves_.pop();
  }
  if (due.empty()) return;
  // Warm waves read their predecessors' decoded configurations, so the due
  // list runs by dependency DEPTH: a wave whose predecessor waves have all
  // executed has depth 0, any other 1 + the deepest of its predecessors.  A
  // predecessor completes strictly before its dependent (pred completion <=
  // dependent dispatch < dependent completion), so an unexecuted one sits
  // strictly earlier in this (completion, id) pop order and is found by
  // binary search.  Each depth is one parallel_for_lanes barrier over its
  // waves in pop order; the partition depends only on the virtual-clock wave
  // log, never on poll cadence, and each wave's result only on its own
  // stream and its predecessors' decodes.  A cold-only list is one barrier.
  const auto earlier = [this](std::size_t a, std::size_t b) {
    return Due{waves_[a].completion_us, a} < Due{waves_[b].completion_us, b};
  };
  std::vector<std::size_t> depth;  // by due index; empty while all are 0
  std::size_t max_depth = 0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    const serve::Wave& wave = waves_[due[i]];
    for (const std::size_t pred : wave.seeds) {
      const std::size_t pred_wave = records_[pred].wave_id;
      if (wave_executed_[pred_wave]) continue;
      const auto it = std::lower_bound(due.begin(), due.begin() + i,
                                       pred_wave, earlier);
      if (it == due.begin() + i || *it != pred_wave)
        throw InvalidArgument("Scheduler::execute_due: warm wave " +
                              std::to_string(wave.id) +
                              " is due but its predecessor wave " +
                              std::to_string(pred_wave) +
                              " has neither executed nor come due");
      if (depth.empty()) depth.assign(due.size(), 0);
      depth[i] = std::max(depth[i], depth[it - due.begin()] + 1);
      max_depth = std::max(max_depth, depth[i]);
    }
  }
  const auto run_barrier = [this](const std::vector<std::size_t>& wave_ids) {
    pool_.parallel_for_lanes(wave_ids.size(),
                             [&](std::size_t lane, std::size_t i) {
                               run_wave(lane, wave_ids[i]);
                             });
    for (const std::size_t id : wave_ids) wave_executed_[id] = 1;
  };
  if (max_depth == 0) {
    run_barrier(due);
    return;
  }
  std::vector<std::vector<std::size_t>> by_depth(max_depth + 1);
  for (std::size_t i = 0; i < due.size(); ++i)
    by_depth[depth[i]].push_back(due[i]);
  for (const std::vector<std::size_t>& wave_ids : by_depth)
    run_barrier(wave_ids);
}

void Scheduler::run_wave(std::size_t lane, std::size_t wave_id) {
  const serve::Wave& wave = waves_[wave_id];
  std::unique_ptr<anneal::ChimeraAnnealer>& worker = workers_[lane][wave.device];
  if (worker == nullptr) {
    worker = std::make_unique<anneal::ChimeraAnnealer>(
        devices_->worker_config(wave.device));
    worker->set_embedding_cache(devices_->cache(wave.device));
  }

  std::vector<const qubo::IsingModel*> problems;
  problems.reserve(wave.jobs.size());
  for (const std::size_t seq : wave.jobs)
    problems.push_back(&jobs_[seq].ising());

  std::vector<std::vector<qubo::SpinVec>> samples;
  if (wave.warm) {
    // Reverse anneal from each member's predecessor configuration, at the
    // warm quota, on the warm key family — cold waves' streams are never
    // touched by this draw.
    std::vector<const qubo::SpinVec*> initial(wave.jobs.size());
    for (std::size_t s = 0; s < wave.jobs.size(); ++s) {
      const qubo::SpinVec& seed = seeds_[wave.seeds[s]];
      require(!seed.empty(),
              "Scheduler::run_wave: warm wave executed before its "
              "predecessor's decode was recorded");
      initial[s] = &seed;
    }
    Rng stream = Rng::for_stream(warm_key_, wave.id);
    samples = worker->sample_batch_seeded(problems, initial, warm_schedule_,
                                          warm_quota(), stream);
  } else {
    Rng stream = Rng::for_stream(decode_key_, wave.id);
    samples = worker->sample_batch(problems, config_.num_anneals, stream);
  }

  for (std::size_t s = 0; s < wave.jobs.size(); ++s) {
    const serve::CellJob& job = jobs_[wave.jobs[s]];
    serve::JobRecord& record = records_[wave.jobs[s]];

    // Best-of-N_a, exactly the QuAMaxDetector policy: keep the
    // lowest-energy configuration.
    const qubo::IsingModel& ising = job.ising();
    const qubo::SpinVec* best = nullptr;
    double best_energy = 0.0;
    for (const qubo::SpinVec& sample : samples[s]) {
      const double energy = ising.energy(sample);
      if (best == nullptr || energy < best_energy) {
        best = &sample;
        best_energy = energy;
      }
    }

    if (job.downlink()) {
      // Downlink: the sample is a perturbation vector.  A precoder never
      // sends a perturbation worse than none, so clip to v = 0 (classic
      // zero-forcing) when the anneal did not beat it — the jobwise VPP <=
      // ZF guarantee bench_vpp and the full-duplex experiment gate on.
      const vpp::PrecodeInstance& instance = job.precode();
      const qubo::SpinVec* chosen = best;
      double chosen_energy = best_energy;
      qubo::SpinVec zero;
      if (chosen_energy > instance.zf_energy) {
        zero = vpp::zero_perturbation_spins(instance.problem);
        chosen = &zero;
        chosen_energy = instance.zf_energy;
      }
      record.bit_errors = vpp::downlink_bit_errors(instance, *chosen);
      record.num_bits = instance.tx_bits.size();
      record.ground_state = reaches_ground(chosen_energy, instance.ground_energy);
      continue;
    }

    // Uplink: post-translate the decoded configuration to Gray bits.
    const sim::Instance& instance = job.uplink();
    // Keep the best configuration as a potential warm-start seed for a
    // dependent subframe.  This lane owns the slot; the dependent wave
    // reads it at a greater execute_due depth or in a later call.
    if (config_.warm_start) seeds_[wave.jobs[s]] = *best;
    const wireless::BitVec decoded = core::gray_bits_from_spins(
        *best, instance.use.h.cols(), instance.use.mod);
    record.bit_errors =
        wireless::count_bit_errors(decoded, instance.use.tx_bits);
    record.num_bits = instance.use.tx_bits.size();
    record.ground_state = reaches_ground(best_energy, instance.ground_energy);
  }
}

}  // namespace quamax::sched
