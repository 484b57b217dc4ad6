#include "flux/tbon.hpp"

#include <algorithm>
#include <stdexcept>

namespace fluxpower::flux {

Tbon::Tbon(int size, int fanout) : size_(size), fanout_(fanout) {
  if (size <= 0) throw std::invalid_argument("Tbon: size must be positive");
  if (fanout <= 0) throw std::invalid_argument("Tbon: fanout must be positive");
  parents_.resize(static_cast<std::size_t>(size));
  levels_.resize(static_cast<std::size_t>(size));
  parents_[0] = -1;
  levels_[0] = 0;
  for (Rank r = 1; r < size; ++r) {
    const Rank p = (r - 1) / fanout_;
    parents_[static_cast<std::size_t>(r)] = p;
    levels_[static_cast<std::size_t>(r)] = levels_[static_cast<std::size_t>(p)] + 1;
  }
}

void Tbon::check(Rank rank) const {
  if (rank < 0 || rank >= size_) {
    throw std::out_of_range("Tbon: rank out of range");
  }
}

Rank Tbon::parent(Rank rank) const {
  check(rank);
  return parents_[static_cast<std::size_t>(rank)];
}

std::vector<Rank> Tbon::children(Rank rank) const {
  check(rank);
  std::vector<Rank> out;
  for (int i = 1; i <= fanout_; ++i) {
    const Rank child = rank * fanout_ + i;
    if (child < size_) out.push_back(child);
  }
  return out;
}

int Tbon::level(Rank rank) const {
  check(rank);
  return levels_[static_cast<std::size_t>(rank)];
}

int Tbon::height() const {
  // Deepest rank is the last one in BFS order.
  return level(size_ - 1);
}

int Tbon::hops(Rank from, Rank to) const {
  check(from);
  check(to);
  // Walk both ranks up to their lowest common ancestor.
  int hops = 0;
  Rank a = from, b = to;
  int la = levels_[static_cast<std::size_t>(a)];
  int lb = levels_[static_cast<std::size_t>(b)];
  while (la > lb) {
    a = parents_[static_cast<std::size_t>(a)];
    --la;
    ++hops;
  }
  while (lb > la) {
    b = parents_[static_cast<std::size_t>(b)];
    --lb;
    ++hops;
  }
  while (a != b) {
    a = parents_[static_cast<std::size_t>(a)];
    b = parents_[static_cast<std::size_t>(b)];
    hops += 2;
  }
  return hops;
}

Rank Tbon::next_hop(Rank from, Rank to) const {
  check(from);
  check(to);
  if (from == to) return from;
  // If `to` lies in a child subtree of `from`, descend towards it,
  // otherwise go up.
  Rank cursor = to;
  while (cursor != kRootRank) {
    const Rank p = parent(cursor);
    if (p == from) return cursor;
    cursor = p;
  }
  // `to` is not below `from`; route upward.
  return parent(from);
}

Rank Tbon::root_child(Rank rank) const {
  check(rank);
  while (levels_[static_cast<std::size_t>(rank)] > 1) {
    rank = parents_[static_cast<std::size_t>(rank)];
  }
  return rank;
}

std::vector<Rank> Tbon::subtree(Rank rank) const {
  check(rank);
  std::vector<Rank> out;
  std::vector<Rank> frontier{rank};
  while (!frontier.empty()) {
    const Rank r = frontier.back();
    frontier.pop_back();
    out.push_back(r);
    for (Rank c : children(r)) frontier.push_back(c);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fluxpower::flux
