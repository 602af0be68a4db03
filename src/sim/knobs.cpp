#include "quamax/sim/knobs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <iterator>
#include <ranges>

#include "quamax/common/error.hpp"

namespace quamax::sim {

namespace {

using enum KnobKind;

constexpr Knob kKnobs[] = {
    {"--threads", "QUAMAX_THREADS", kCount, "1", "[0, 4096]",
     "batch-runtime lanes; 0 = one per hardware thread"},
    {"--replicas", "QUAMAX_REPLICAS", kCount, "8", "[1, 4096]",
     "replicas per batched SA kernel call; 1 = scalar path"},
    {"--accept-mode", "QUAMAX_ACCEPT_MODE", kChoice, "",
     "exact|threshold|threshold32",
     "sweep-kernel acceptance rule; unset = exact (serving: threshold32)"},
    {"--devices", "QUAMAX_DEVICES", kCount, "1", "[1, 4096]",
     "modeled QA processors in the scheduler pool"},
    {"--queue-policy", "QUAMAX_QUEUE_POLICY", kText, "fifo", "",
     "scheduler dispatch discipline (sched::parse_queue_policy)"},
    {"--downlink", "QUAMAX_DOWNLINK", kNumber, "0", "[0, 1]",
     "fraction of serve releases that are downlink VPP precoding jobs"},
    {"--tau", "QUAMAX_TAU", kNumber, "0", "[0, inf)",
     "VPP perturbation modulus; 0 = constellation default"},
    {"--coherence", "QUAMAX_COHERENCE", kNumber, "0", "[0, 1)",
     "subframe channel coherence of the serve workload"},
    {"--fault-plan", "QUAMAX_FAULT_PLAN", kPath, "", "",
     "fault::load_fault_plan schedule file; unset = fault-free"},
    {"--max-retries", "QUAMAX_MAX_RETRIES", kCount, "0", "[0, 4096]",
     "per-job retry budget for members of failed waves"},
    {"--fallback", "QUAMAX_FALLBACK", kText, "none", "",
     "classical fallback decoder (fault::parse_fallback_mode)"},
    {"--trace", "QUAMAX_TRACE", kPath, "", "",
     "Chrome trace-event JSON of the served run"},
    {"--prof", "QUAMAX_PROF", kSwitch, "", "",
     "wall-clock stage profile table on stderr at exit"},
    {"--prof-json", "QUAMAX_PROF_JSON", kPath, "", "",
     "per-stage profile as JSON; implies --prof"},
    {"--metrics", "QUAMAX_METRICS", kPath, "", "",
     "windowed telemetry export (JSON, or CSV by suffix) + FILE.prom"},
    {"--metrics-window", "QUAMAX_METRICS_WINDOW", kNumber, "0", "[0, inf)",
     "tumbling-window width in virtual-clock us; 0 = horizon / 20"},
    {"--slo", "QUAMAX_SLO", kText, "", "",
     "SLO specs for burn-rate alerts (obs::parse_slo_specs)"},
    {"", "QUAMAX_SCALE", kNumber, "1", "(0, inf)",
     "multiplier on bench instance and anneal counts"},
};

std::string where(const Knob& k) {
  if (k.flag.empty()) return std::string(k.env);
  return std::string(k.flag) + " / " + std::string(k.env);
}

/// Recognizes `--flag V` and `--flag=V` (a switch only as the bare flag) at
/// argv[i]; stores the value and returns how many entries the flag spans,
/// or 0 when argv[i] is not this knob.
int flag_at(const Knob& k, int argc, char** argv, int i, std::string& value) {
  if (k.flag.empty()) return 0;
  const std::string_view arg = argv[i];
  if (arg == k.flag) {
    if (k.kind == kSwitch) return 1;
    require(i + 1 < argc, std::string(k.flag) + ": missing value");
    value = argv[i + 1];
    return 2;
  }
  if (k.kind != kSwitch && arg.size() > k.flag.size() &&
      arg.starts_with(k.flag) && arg[k.flag.size()] == '=') {
    value = arg.substr(k.flag.size() + 1);
    return 1;
  }
  return 0;
}

struct Raw {
  std::string text;
  bool from_flag = false;
};

/// The knob's value text: the first matching flag, else the environment.
std::optional<Raw> lookup(const Knob& k, int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (flag_at(k, argc, argv, i, value) > 0) return Raw{value, true};
  }
  const char* env = std::getenv(std::string(k.env).c_str());
  if (env == nullptr) return std::nullopt;
  return Raw{env, false};
}

/// The row whose flag or environment variable is `name`, of one of `kinds`.
const Knob& checked(std::string_view name,
                    std::initializer_list<KnobKind> kinds) {
  const Knob* it =
      std::find_if(std::begin(kKnobs), std::end(kKnobs), [&](const Knob& k) {
        return (!k.flag.empty() && k.flag == name) || k.env == name;
      });
  require(it != std::end(kKnobs), "unknown knob '" + std::string(name) + "'");
  const Knob& k = *it;
  require(std::find(kinds.begin(), kinds.end(), k.kind) != kinds.end(),
          where(k) + ": knob read with the wrong typed getter");
  return k;
}

/// kCount / kNumber bounds: "[lo, hi]" with '(' / ')' marking open ends.
bool in_range(const Knob& k, double v) {
  const std::size_t comma = k.range.find(',');
  const double lo = std::stod(std::string(k.range.substr(1, comma - 1)));
  const double hi = std::stod(
      std::string(k.range.substr(comma + 1, k.range.size() - comma - 2)));
  const bool above = k.range.front() == '(' ? v > lo : v >= lo;
  const bool below = k.range.back() == ')' ? v < hi : v <= hi;
  return above && below;
}

std::string value_text(const Knob& k, int argc, char** argv) {
  const std::optional<Raw> raw = lookup(k, argc, argv);
  return raw ? raw->text : std::string(k.fallback);
}

}  // namespace

std::span<const Knob> knob_table() { return kKnobs; }

std::size_t knob_count(std::string_view name, int argc, char** argv) {
  const Knob& k = checked(name, {kCount});
  const std::string text = value_text(k, argc, argv);
  // stoull accepts and wraps a leading '-'; reject it up front.
  unsigned long long v = 0;
  std::size_t pos = 0;
  if (!text.empty() && text.front() != '-') {
    try {
      v = std::stoull(text, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
  }
  require(!text.empty() && pos == text.size() &&
              in_range(k, static_cast<double>(v)),
          where(k) + ": expected an integer in " + std::string(k.range) +
              ", got '" + text + "'");
  return static_cast<std::size_t>(v);
}

double knob_number(std::string_view name, int argc, char** argv) {
  const Knob& k = checked(name, {kNumber});
  const std::string text = value_text(k, argc, argv);
  double v = 0.0;
  std::size_t pos = 0;
  try {
    v = std::stod(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  require(!text.empty() && pos == text.size() && std::isfinite(v) &&
              in_range(k, v),
          where(k) + ": expected a finite number in " + std::string(k.range) +
              ", got '" + text + "'");
  return v;
}

std::string knob_text(std::string_view name, int argc, char** argv) {
  const Knob& k = checked(name, {kChoice, kText, kPath});
  const std::optional<Raw> raw = lookup(k, argc, argv);
  if (!raw) return std::string(k.fallback);
  if (k.kind == kPath)
    require(!raw->from_flag || !raw->text.empty(),
            std::string(k.flag) + ": need a file path");
  if (k.kind == kChoice) {
    bool known = false;
    for (const auto choice : std::views::split(k.range, '|'))
      known = known ||
              std::string_view(choice.begin(), choice.end()) == raw->text;
    require(known, where(k) + ": expected one of " + std::string(k.range) +
                       ", got '" + raw->text + "'");
  }
  return raw->text;
}

bool knob_switch(std::string_view name, int argc, char** argv) {
  const Knob& k = checked(name, {kSwitch});
  const std::optional<Raw> raw = lookup(k, argc, argv);
  return raw && (raw->from_flag || (!raw->text.empty() && raw->text != "0"));
}

std::optional<anneal::AcceptMode> knob_accept_mode(int argc, char** argv) {
  const std::string text = knob_text("--accept-mode", argc, argv);
  for (const auto mode :
       {anneal::AcceptMode::kExact, anneal::AcceptMode::kThreshold,
        anneal::AcceptMode::kThreshold32})
    if (text == anneal::to_string(mode)) return mode;
  return std::nullopt;  // unset: the row's empty default
}

std::size_t scaled(std::size_t base) {
  const double v =
      std::round(static_cast<double>(base) * knob_number("QUAMAX_SCALE"));
  return static_cast<std::size_t>(std::max(1.0, v));
}

std::vector<std::string> positional_args(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 1; i < argc;) {
    int consumed = 0;
    std::string value;
    for (const Knob& k : kKnobs)
      if ((consumed = flag_at(k, argc, argv, i, value)) > 0) break;
    if (consumed == 0) out.emplace_back(argv[i]);
    i += std::max(consumed, 1);
  }
  return out;
}

}  // namespace quamax::sim
