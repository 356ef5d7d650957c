// The host probe recorded with every run.
//
// The host's contention for shared cache and memory sets the speed of
// the analysis (README.md, "Noise"): a fixed ALU loop stays steady while
// a memory-bound pointer chase swings with the requests. Sampling both
// next to the requests lets a run taken in a slow host phase be told
// apart from a regression of the program; the timed run rescales its
// gated times by the run's median chase step (main.cc).
#pragma once

#include <cstdint>
#include <vector>

namespace loadbench {

class HostProbe {
 public:
  HostProbe();

  /// Runs both probes once and records their speed.
  void sample();

  /// Medians over the samples so far: ns per ALU iteration and ns per
  /// pointer-chase step.
  [[nodiscard]] double aluNs() const;
  [[nodiscard]] double chaseNs() const;
  [[nodiscard]] std::size_t samples() const { return alu_.size(); }

 private:
  std::vector<std::uint32_t> ring_;  ///< one random cycle over 16 MiB
  std::uint32_t cursor_ = 0;
  std::uint64_t sink_ = 0;
  std::vector<double> alu_, chase_;
};

}  // namespace loadbench
