// Synthetic explicitly-parallel program generation.
//
// The paper evaluates on hand-written kernels (Figures 1–5); a production
// library also needs parameterized workloads to characterize compile-time
// cost and optimization effectiveness at scale, and randomized programs
// for property testing. Three families:
//
//   generateRandom      — arbitrary structured programs (branches, loops,
//                         nested cobegins, locks, optional events). In
//                         `determinate` mode every shared write is a
//                         commutative update under a per-variable lock
//                         and all reads happen after the coend, so the
//                         program output is interleaving-independent —
//                         the property the semantic-preservation tests
//                         rely on.
//   makeLockStructured  — T threads × R lock regions with a tunable
//                         fraction of shared accesses inside mutex
//                         bodies; drives the π-reduction sweeps.
//   makeBank            — account-transfer workload with per-bank lock
//                         and thread-local bookkeeping, the motivating
//                         mutex-heavy shape for the LICM experiments.
#pragma once

#include <cstdint>
#include <string>

#include "src/ir/program.h"

namespace cssame::workload {

struct GeneratorConfig {
  std::uint64_t seed = 1;
  int threads = 4;           ///< threads in the top-level cobegin
  int sharedVars = 6;
  int locks = 2;
  int stmtsPerThread = 20;
  int maxDepth = 3;          ///< nesting depth for if/while
  double branchProb = 0.2;
  double loopProb = 0.1;
  double lockedFraction = 0.7;  ///< shared accesses inside mutex bodies
  bool useEvents = false;       ///< sprinkle set/wait pairs across threads
  bool determinate = true;      ///< interleaving-independent output
  /// Probability of emitting a `fence;` before each statement slot. 0
  /// (the default) draws nothing from the RNG, so pre-TSO seeds generate
  /// byte-identical programs.
  double fenceProb = 0.0;
  /// Fraction of non-determinate shared updates emitted as
  /// atomic_store/atomic_load instead of plain accesses. 0 (default)
  /// likewise leaves existing seeds untouched.
  double atomicFraction = 0.0;
  /// Probability of emitting a pointer update at a statement slot: a
  /// thread-private pointer is retargeted to a shared variable and the
  /// cell updated through `*q` under that variable's lock (additive, so
  /// determinate mode stays interleaving-independent). 0 (default) draws
  /// nothing from the RNG — pre-pointer seeds stay byte-identical.
  double ptrProb = 0.0;
  /// Probability of an array-cell update `arr[acc % N] = arr[acc % N] + c`
  /// under the array's lock. Same RNG-stability contract as ptrProb.
  double arrayProb = 0.0;

  /// Copy with every field clamped into a safe range (counts positive and
  /// bounded, probabilities in [0,1], NaNs zeroed). generateRandom applies
  /// this itself, so arbitrary — fuzzer-chosen — configurations can never
  /// divide by zero, hand empty ranges to the RNG, or blow up memory.
  [[nodiscard]] GeneratorConfig sanitized() const;
};

[[nodiscard]] ir::Program generateRandom(const GeneratorConfig& config);

/// T threads, each performing `regions` lock/unlock regions of
/// `stmtsPerRegion` statements; a `lockedFraction` of all shared-variable
/// accesses land inside the regions, the rest between them.
[[nodiscard]] ir::Program makeLockStructured(int threads, int regions,
                                             int stmtsPerRegion,
                                             double lockedFraction,
                                             std::uint64_t seed);

/// Bank workload: `threads` tellers each apply `opsPerThread` deposits to
/// `accounts` accounts under one bank lock, with thread-local statistics
/// computed inside the critical section (LICM's prey).
[[nodiscard]] ir::Program makeBank(int accounts, int threads,
                                   int opsPerThread, std::uint64_t seed);

/// Source text of the dense lock-region shape: `threads` threads of
/// `regions` straight-line `lock(L); x = x + c; unlock(L); lock(M);
/// z = z + 1; unlock(M);` with initialised shared variables, printing x
/// and z. Conflict edges grow with regions², so it is the adversarial
/// input for every phase that visits them, and for mutex-structure
/// construction.
[[nodiscard]] std::string lockRegionSource(int threads, int regions);

}  // namespace cssame::workload
