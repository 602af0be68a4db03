// Shared observability backend for the serving binaries.
//
// Every binary that serves a traced run (bench_serve_load, bench_fault,
// bench_warmstart, examples/cran_service) wants the same post-run dance:
// window the TraceLog on the service's device pool, evaluate the SLO spec
// text, inject the resulting alerts back into the log (so the Chrome trace
// grows its "slo alerts" track), dump the windowed series + Prometheus
// snapshot to the --metrics path, write the Chrome trace, and dump the
// profiler.  ObsSession is that dance, once: it reads the six obs knobs,
// owns the ONE TraceLog sink attached to the scheduler, and derives
// everything else offline, preserving the zero-drift rule by construction.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "quamax/obs/slo.hpp"
#include "quamax/obs/trace.hpp"
#include "quamax/obs/window.hpp"
#include "quamax/serve/service.hpp"

namespace quamax::serve {

/// The `--metrics FILE` / `--metrics-window US` / `--slo SPECS` knob bundle.
struct MetricsOptions {
  std::string path;       ///< output file; empty = no dump (windowing may
                          ///< still run for in-process consumers)
  double window_us = 0.0; ///< tumbling width; 0 = auto (horizon / 20)
  std::string slo;        ///< SLO spec text; empty = no monitoring

  bool enabled() const { return !path.empty() || !slo.empty(); }
};

/// A finished windowed view of one traced run.
struct WindowedView {
  obs::WindowedCollector collector;
  std::vector<obs::SloReport> slos;
};

/// Windows `log` for a run of the service described by `cfg` (device count
/// and per-device power model come from cfg.device_specs, or num_devices
/// copies of the default 25 kW model when specs are empty), evaluates
/// `opts.slo`, and — when `alert_sink` is non-null — injects every alert
/// into it (pass `log` itself to grow the Chrome-trace alert track).  Throws quamax::InvalidArgument on a malformed SLO spec.
WindowedView window_trace(const obs::TraceLog& log, const ServiceConfig& cfg,
                          const MetricsOptions& opts,
                          obs::TraceLog* alert_sink = nullptr);

/// One serving binary's observability: the --trace, --prof, --prof-json,
/// --metrics, --metrics-window and --slo knobs, the TraceLog they observe,
/// and the files they write.  Notices go to stderr only — stdout stays
/// byte-identical with observability on or off.
class ObsSession {
 public:
  /// Reads the six knobs (sim::knob_table rows) and switches the profiler
  /// on when --prof or --prof-json is set.
  ObsSession(int argc, char** argv);
  // The attached ServiceConfig holds the address of the log.
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// The metrics knobs; binaries may default the SLO spec before attach().
  MetricsOptions& metrics() noexcept { return metrics_; }

  /// Profiling is on (--prof or --prof-json).
  bool profiling() const noexcept { return prof_ || !prof_json_.empty(); }

  /// When a trace or metrics output was asked for (an SLO spec counts):
  /// clears the log and attaches it as `cfg`'s trace sink.
  /// The last attached run is the one finish() writes; its device pool
  /// drives the windowing.
  void attach(ServiceConfig& cfg);

  /// Windows the attached run once — alerts are injected into the log —
  /// and returns the cached view.  Requires an attached run.
  const WindowedView& window();

  /// Post-run outputs, in order: windowing (when metrics are enabled and
  /// window() has not run), the metrics export (obs::write_metrics_file:
  /// JSON, or CSV for a ".csv" path, plus the ".prom" snapshot), the Chrome
  /// trace, and the profiler table + JSON.  Returns 0, or 1 when any file
  /// write failed.
  int finish();

 private:
  MetricsOptions metrics_;
  std::string trace_path_;
  bool prof_ = false;
  std::string prof_json_;
  obs::TraceLog log_;
  std::optional<ServiceConfig> attached_;
  std::optional<WindowedView> view_;
};

}  // namespace quamax::serve
