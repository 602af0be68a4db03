// Named-metric registry: counters, gauges, and quantile sketches.
//
// A Registry is a deterministic container, not a global: each owner
// (ServiceStats, a bench, an exporter) holds its own and iterates in a
// fixed order.  Metrics are stored in name-sorted maps so iteration order —
// and therefore any dump built on it — is a pure function of the metric
// names, never of insertion or thread timing.  Counter/gauge updates
// are plain integer/double stores; nothing here consumes RNG or takes a
// lock (all mutation happens on the owner's driver thread, the same
// single-writer rule the virtual clock already imposes).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "quamax/obs/sketch.hpp"

namespace quamax::obs {

class Registry {
 public:
  /// Monotonic integer counter, created on first touch at 0.
  std::int64_t& counter(const std::string& name) { return counters_[name]; }
  /// Last-write-wins double gauge, created on first touch at 0.
  double& gauge(const std::string& name) { return gauges_[name]; }
  /// Streaming quantile sketch, created empty on first touch.
  QuantileSketch& sketch(const std::string& name) { return sketches_[name]; }

  const std::map<std::string, std::int64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, QuantileSketch>& sketches() const {
    return sketches_;
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && sketches_.empty();
  }

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, QuantileSketch> sketches_;
};

}  // namespace quamax::obs
