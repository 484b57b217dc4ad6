// common.hpp — shared helpers for the table/figure reproduction binaries.
//
// Every bench prints (a) the measured quantity from the simulator next to
// (b) the value the paper reports, so running `for b in build/bench/*` gives
// a complete paper-vs-measured readout. Absolute agreement is not expected
// (the substrate is a simulator); the *shape* — who wins, rough factors,
// crossovers — is the reproduction target (see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/trace.hpp"
#include "util/table.hpp"

namespace fluxpower::bench {

/// Optional trace dump, gated entirely on the environment:
///   FLUXPOWER_TRACE_OUT=<path>  — enable the process trace sink and write
///                                 Chrome trace-event JSON at exit.
/// Unset, this is a no-op: nothing is enabled, nothing is written, and bench
/// stdout stays byte-identical. Output goes to a file only — never stdout —
/// so enabling it cannot perturb the readouts either. For metrics, run
/// `tools/trace_dump --metrics <path>`: the per-broker registries a bench
/// builds are gone by the time it exits.
inline void obs_init_from_env() {
  static bool initialised = false;
  if (initialised) return;
  initialised = true;
  const char* trace_out = std::getenv("FLUXPOWER_TRACE_OUT");
  if (trace_out == nullptr) return;
  obs::process_trace().set_enabled(true);
  // Leak-free static storage for the atexit hook's path.
  static std::string trace_path;
  trace_path = trace_out;
  std::atexit([] {
    if (std::FILE* f = std::fopen(trace_path.c_str(), "w")) {
      const std::string json = obs::process_trace().to_chrome_json().dump();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  });
}

inline void banner(const std::string& id, const std::string& title) {
  obs_init_from_env();
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) {
  std::printf("note: %s\n", text.c_str());
}

inline std::string num(double v, int precision = 2) {
  return util::TextTable::num(v, precision);
}

/// Host wall-clock readouts are a side channel, gated entirely on the
/// environment: FLUXPOWER_HOST_TIMING=1 prints real host times; unset,
/// the affected cells render "-" so bench stdout stays byte-identical
/// run-to-run (the CI byte-diff lanes depend on that).
inline bool host_timing_enabled() {
  const char* v = std::getenv("FLUXPOWER_HOST_TIMING");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// "measured (paper X)" cell.
inline std::string vs(double measured, double paper, int precision = 2) {
  return num(measured, precision) + " (" + num(paper, precision) + ")";
}

inline std::string vs_str(double measured, const std::string& paper,
                          int precision = 2) {
  return num(measured, precision) + " (" + paper + ")";
}

}  // namespace fluxpower::bench
