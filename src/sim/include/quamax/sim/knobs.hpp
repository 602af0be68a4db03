// Operator knobs of the bench and example binaries, as ONE declarative table.
//
// Every knob is a row of knob_table(): flag spelling, environment variable,
// value kind, default, bounds, and help text.  One generic lookup serves
// them all: `--flag V` or `--flag=V` on the command line (first occurrence
// wins), else the environment variable, else the row's default.  The
// environment is read only when the flag is absent, so a malformed variable
// cannot abort a run that passed a valid explicit flag.  Every rejection is
// a quamax::InvalidArgument located by the knob's spellings, e.g.
// "--threads / QUAMAX_THREADS: expected an integer in [0, 4096], got 'x'".
//
// The typed getters take the knob's flag ("--threads") or, for
// environment-only rows, its variable ("QUAMAX_SCALE").  Called without
// argv they read the environment alone (bench_micro_kernels, whose argv
// belongs to Google Benchmark).  README.md and docs/REPRODUCING.md document
// the same rows; tests/knob_docs_test.cpp keeps them in sync.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "quamax/anneal/sa_engine.hpp"

namespace quamax::sim {

/// How a knob's value text is parsed and checked.
enum class KnobKind {
  kCount,   ///< non-negative integer inside `range`
  kNumber,  ///< finite real number inside `range`
  kChoice,  ///< one of the '|'-separated spellings in `range`
  kText,    ///< free text, validated by the module that consumes it
  kPath,    ///< file path; an explicit flag needs a non-empty value
  kSwitch,  ///< bare flag; the variable is on when non-empty and not "0"
};

/// One row of the knob table.
struct Knob {
  std::string_view flag;      ///< "--threads"; empty for environment-only rows
  std::string_view env;       ///< "QUAMAX_THREADS"
  KnobKind kind;
  std::string_view fallback;  ///< default value text; "" = unset / off
  /// kCount / kNumber: the accepted interval, e.g. "[0, 1)" or "(0, inf)".
  /// kChoice: the accepted spellings, e.g. "exact|threshold".
  std::string_view range;
  std::string_view help;
};

/// Every knob, in documentation order.
std::span<const Knob> knob_table();

/// Typed lookups by the row's flag or environment variable.  Each requires
/// the row's kind: knob_count for kCount, knob_number for kNumber,
/// knob_text for kChoice / kText / kPath, and knob_switch for kSwitch.  An
/// unknown name or the wrong getter throws InvalidArgument.
std::size_t knob_count(std::string_view name, int argc = 0,
                       char** argv = nullptr);
double knob_number(std::string_view name, int argc = 0, char** argv = nullptr);
std::string knob_text(std::string_view name, int argc = 0,
                      char** argv = nullptr);
bool knob_switch(std::string_view name, int argc = 0, char** argv = nullptr);

/// `--accept-mode` / QUAMAX_ACCEPT_MODE as the kernel enum; nullopt when
/// neither is set, so binaries whose subsystem default differs from the
/// library-wide kExact (serve defaults to kThreshold32) can tell.
std::optional<anneal::AcceptMode> knob_accept_mode(int argc = 0,
                                                   char** argv = nullptr);

/// Scale-adjusted count: max(1, round(base * QUAMAX_SCALE)).  The bench
/// binaries apply it to instance and anneal counts so the suite scales from
/// smoke test to paper scale.
std::size_t scaled(std::size_t base);

/// argv entries that are not knob flags or their values (program name
/// excluded), in order.  Binaries with positional arguments parse these
/// instead of argv, so positional handling cannot drift from the table.
std::vector<std::string> positional_args(int argc, char** argv);

}  // namespace quamax::sim
