#include "quamax/serve/metrics_export.hpp"

#include <cstdio>
#include <iostream>
#include <utility>

#include "quamax/common/error.hpp"
#include "quamax/obs/metrics.hpp"
#include "quamax/obs/profile.hpp"
#include "quamax/sim/knobs.hpp"

namespace quamax::serve {

WindowedView window_trace(const obs::TraceLog& log, const ServiceConfig& cfg,
                          const MetricsOptions& opts,
                          obs::TraceSink* alert_sink) {
  std::vector<obs::SloSpec> specs;
  if (!opts.slo.empty()) {
    std::string error;
    specs = obs::parse_slo_specs(opts.slo, &error);
    if (specs.empty()) throw InvalidArgument("--slo: " + error);
  }

  WindowedView view{obs::WindowedCollector({opts.window_us}), {}};
  view.collector.ingest(log);
  const std::size_t devices =
      cfg.device_specs.empty() ? cfg.num_devices : cfg.device_specs.size();
  std::vector<obs::DevicePower> power;
  power.reserve(cfg.device_specs.size());
  for (const auto& spec : cfg.device_specs) power.push_back(spec.power);
  view.collector.set_devices(devices, std::move(power));
  view.collector.finalize();

  if (!specs.empty()) {
    const obs::SloMonitor monitor(std::move(specs));
    view.slos = monitor.evaluate(view.collector);
    if (alert_sink != nullptr) obs::SloMonitor::annotate(view.slos, *alert_sink);
  }
  return view;
}

namespace {

/// Reports one output file on stderr; returns 0 when `ok`, else 1.
int notice(bool ok, const char* what, const std::string& path) {
  if (ok)
    std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
  else
    std::fprintf(stderr, "%s: could not write %s\n", what, path.c_str());
  return ok ? 0 : 1;
}

}  // namespace

ObsSession::ObsSession(int argc, char** argv)
    : metrics_{sim::knob_text("--metrics", argc, argv),
               sim::knob_number("--metrics-window", argc, argv),
               sim::knob_text("--slo", argc, argv)},
      trace_path_(sim::knob_text("--trace", argc, argv)),
      prof_(sim::knob_switch("--prof", argc, argv)),
      prof_json_(sim::knob_text("--prof-json", argc, argv)) {
  if (profiling()) obs::Profiler::instance().set_enabled(true);
}

void ObsSession::attach(ServiceConfig& cfg) {
  if (trace_path_.empty() && !metrics_.enabled()) return;
  log_.clear();
  view_.reset();
  cfg.trace = &log_;
  attached_ = cfg;
}

const WindowedView& ObsSession::window() {
  require(attached_.has_value(), "ObsSession::window: no run attached");
  if (!view_) view_ = window_trace(log_, *attached_, metrics_, &log_);
  return *view_;
}

int ObsSession::finish() {
  int status = 0;
  if (attached_ && metrics_.enabled()) window();
  if (view_ && !metrics_.path.empty())
    status |= notice(
        obs::write_metrics_file(view_->collector, view_->slos, metrics_.path),
        "metrics", metrics_.path);
  if (attached_ && !trace_path_.empty())
    status |= notice(obs::write_chrome_trace_file(log_, trace_path_), "trace",
                     trace_path_);
  if (prof_) obs::Profiler::instance().dump(std::cerr, 5);
  if (!prof_json_.empty())
    status |= notice(obs::Profiler::instance().dump_json_file(prof_json_),
                     "profile json", prof_json_);
  return status;
}

}  // namespace quamax::serve
