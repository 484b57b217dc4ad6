// trace.hpp — per-layer spans of the traced driver binary.
//
// perfbench_traced links trace.cpp, which wraps each layer's public entry
// points (GNU ld --wrap) and times every call with a per-thread span stack,
// so a layer's self time excludes the layers it calls. It also wraps
// operator new and charges each allocation to the innermost open span.
// perfbench_driver links notrace.cpp instead, where these report nothing.
#pragma once

#include <string>

#include "util/json.hpp"

namespace perfbench {

/// True in the traced binary.
bool tracing();

/// Per-layer totals over every thread so far, as
///   {"groups": {"<layer>": {"calls", "self_s", "allocs", "alloc_bytes"}},
///    "run_before_s": <inclusive seconds inside Simulation::run_before>,
///    "unexercised": [<wrapped entry points `workload` should have called
///                     but did not>],
///    "unexpected": [<wrapped entry points `workload` should bypass but
///                    called>]}.
/// Call only while no worker thread of the program is running.
fluxpower::util::Json trace_report(const std::string& workload);

}  // namespace perfbench
