#include "twin/snapshot.hpp"

namespace fluxpower::twin {

Snapshot Snapshot::capture(TwinSession& session) {
  Snapshot snap;
  snap.spec_ = session.spec();
  snap.t_snapshot_ = session.now();
  snap.advanced_ = session.advanced();
  snap.image_ = capture_state(session.scenario());
  return snap;
}

std::unique_ptr<TwinSession> Snapshot::restore() const {
  return restore_with_spec(spec_);
}

std::unique_ptr<TwinSession> Snapshot::restore_with_spec(
    const TwinSpec& spec_override) const {
  auto session = std::make_unique<TwinSession>(spec_override);
  if (advanced_) session->advance_to(t_snapshot_);
  const StateImage replayed = capture_state(session->scenario());
  for (const StateSection& stored : image_.sections) {
    const StateSection* live = replayed.find(stored.tag);
    if (live == nullptr || *live != stored) {
      throw SnapshotMismatch(
          "Snapshot::restore: replayed state diverges from the captured "
          "image at t=" +
          std::to_string(t_snapshot_) + "s\n" +
          describe_divergence(image_, replayed, "snapshot", "replay"));
    }
  }
  return session;
}

}  // namespace fluxpower::twin
