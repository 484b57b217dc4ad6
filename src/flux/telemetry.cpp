#include "flux/telemetry.hpp"

#include "variorum/variorum.hpp"

namespace fluxpower::flux {

using util::Json;

Json render_telemetry_entry(const TelemetryNodeEntry& entry) {
  Json j = Json::object();
  j["hostname"] = entry.hostname;
  j["rank"] = entry.rank;
  j["complete"] = entry.complete;
  if (entry.errored) {
    j["samples"] = Json::array();
    j["error"] = entry.error;
    return j;
  }
  j["decimated"] = entry.decimated;
  Json samples = Json::array();
  for (const hwsim::PowerSample& s : entry.samples) {
    samples.push_back(variorum::render_node_power_json(s));
  }
  j["samples"] = std::move(samples);
  return j;
}

Json render_telemetry_payload(const Json& meta, const TelemetryBatch& batch) {
  if (batch.single_entry && batch.nodes.size() == 1) {
    return render_telemetry_entry(batch.nodes.front());
  }
  Json payload = meta.is_object() ? meta : Json::object();
  Json nodes = Json::array();
  for (const TelemetryNodeEntry& entry : batch.nodes) {
    nodes.push_back(render_telemetry_entry(entry));
  }
  payload["nodes"] = std::move(nodes);
  return payload;
}

}  // namespace fluxpower::flux
