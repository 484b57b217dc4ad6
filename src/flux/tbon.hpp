// tbon.hpp — tree-based overlay network topology.
//
// A Flux instance is a set of brokers forming a TBON with configurable
// fanout k. Messages between ranks are routed along tree edges; the
// simulator charges a fixed latency per hop, which makes telemetry
// aggregation latency scale with tree depth (O(log_k N)) exactly as the
// paper's scalability argument requires. Fanout is ablated in
// bench/ablation_tbon.
#pragma once

#include <vector>

#include "flux/message.hpp"

namespace fluxpower::flux {

class Tbon {
 public:
  /// k-ary tree over ranks 0..size-1 in breadth-first order.
  Tbon(int size, int fanout = 2);

  int size() const noexcept { return size_; }
  int fanout() const noexcept { return fanout_; }

  /// Parent of `rank`; -1 for the root.
  Rank parent(Rank rank) const;

  std::vector<Rank> children(Rank rank) const;

  /// Depth of `rank` (root = 0).
  int level(Rank rank) const;

  /// Tree height: max level over all ranks.
  int height() const;

  /// Number of tree edges on the routing path between two ranks
  /// (up to the lowest common ancestor, then down).
  int hops(Rank from, Rank to) const;

  /// Next rank on the path from `from` towards `to`.
  Rank next_hop(Rank from, Rank to) const;

  /// All ranks in the subtree rooted at `rank` (including itself).
  std::vector<Rank> subtree(Rank rank) const;

  /// The depth-1 ancestor of `rank` (itself at depth 1; the root for the
  /// root): the root child whose subtree holds it, i.e. its placement cell
  /// in the sharded profile.
  Rank root_child(Rank rank) const;

 private:
  void check(Rank rank) const;
  int size_;
  int fanout_;
  // Per-rank parent/level tables, built once at construction: hops() sits
  // on the broadcast fan-out path (one call per destination broker per
  // event), where recomputing levels by repeated division dominated.
  std::vector<Rank> parents_;
  std::vector<int> levels_;
};

}  // namespace fluxpower::flux
