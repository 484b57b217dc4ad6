// reference.cpp — times a fixed, benchmark-owned kernel and prints its host
// seconds as one line.
//
//   perfbench_reference
//
// run.py runs it between driver iterations. On a shared host, other guests
// slow every process for seconds to minutes at a time (the process keeps
// running, at a lower rate); this kernel slows with it, so dividing a
// driver iteration's times by the kernel's time around it cancels most of
// that. The kernel uses none of the simulator's code, so a change to the
// simulator never moves it. Its mix follows the simulator's: hash-map
// updates and lookups, small allocations, transcendental math and a sort.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

int main() {
  constexpr int kRounds = 10;
  constexpr int kSteps = 200000;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t found = 0;
  double median_sum = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    std::unordered_map<std::uint64_t, double> counts;
    std::vector<std::unique_ptr<double[]>> blocks;
    std::vector<double> values;
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      counts[x % 100000] += 1.0;
      if ((i & 7) == 0) blocks.emplace_back(new double[8 + (x & 15)]);
      if (blocks.size() > 512) blocks.erase(blocks.begin(), blocks.begin() + 256);
      values.push_back(std::sin(static_cast<double>(x % 1000)) *
                       std::exp(-static_cast<double>(i % 50) / 10.0));
    }
    std::sort(values.begin(), values.end());
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto it = counts.find(x % 100000);
      if (it != counts.end()) found += static_cast<std::uint64_t>(it->second);
    }
    median_sum += values[values.size() / 2];
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // The checksums keep the compiler from dropping the work.
  std::printf("%.9f %llu %.17g\n", seconds,
              static_cast<unsigned long long>(found), median_sum);
  return 0;
}
