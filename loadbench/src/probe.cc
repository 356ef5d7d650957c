#include "loadbench/src/probe.h"

#include <chrono>
#include <numeric>
#include <random>

#include "loadbench/src/stats.h"

namespace loadbench {

namespace {

// One sample takes about 1.5 ms: short enough to take four times a
// second between requests, and the chase touches only 256 KiB of the
// cache the daemon shares with it.
constexpr std::size_t kRingEntries = (16u << 20) / sizeof(std::uint32_t);
constexpr int kAluIterations = 1 << 16;
constexpr int kChaseSteps = 1 << 12;

double nsSince(std::chrono::steady_clock::time_point t0, int ops) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         ops;
}

}  // namespace

HostProbe::HostProbe() : ring_(kRingEntries) {
  // Sattolo's shuffle: one cycle through every entry, so the chase never
  // settles into a cache-resident loop.
  std::iota(ring_.begin(), ring_.end(), 0u);
  std::mt19937 rng(12345);
  for (std::size_t i = ring_.size() - 1; i > 0; --i)
    std::swap(ring_[i], ring_[std::uniform_int_distribution<std::size_t>(
                             0, i - 1)(rng)]);
}

void HostProbe::sample() {
  auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = sink_ | 1;
  for (int i = 0; i < kAluIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  alu_.push_back(nsSince(t0, kAluIterations));

  t0 = std::chrono::steady_clock::now();
  std::uint32_t at = cursor_;
  for (int i = 0; i < kChaseSteps; ++i) at = ring_[at];
  chase_.push_back(nsSince(t0, kChaseSteps));
  cursor_ = at;
  sink_ = x + at;
}

double HostProbe::aluNs() const { return median(alu_); }
double HostProbe::chaseNs() const { return median(chase_); }

}  // namespace loadbench
