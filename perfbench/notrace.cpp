#include "trace.hpp"

namespace perfbench {

bool tracing() { return false; }

fluxpower::util::Json trace_report(const std::string& /*workload*/) {
  return fluxpower::util::Json::object();
}

}  // namespace perfbench
