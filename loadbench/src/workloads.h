// The benchmark's workloads: seeded request streams for cssamed.
//
// Every request is a pure function of the workload, the seed and its
// position in the stream, so a seed names one exact request sequence and
// the timed run, the traced replay and the tests all see the same one.
// cssamed only ever receives these generated requests.
//
//   lock_regions  cold `csan` over distinct 3-thread x k straight-line
//                 lock-region programs (the ROADMAP Scal-1 shape).
//   optimize      cold `analyze {"opt": true}` over distinct determinate
//                 generateRandom programs of one configuration.
//   service_mix   a synthetic mix over a stream of program versions: a
//                 cold csan per version, three compilation-tier
//                 follow-ups, exact repeats (response-tier hits, and far
//                 repeats whose entries were evicted), explore and fix
//                 on small racy programs and on the examples gallery.
//                 The shares place the percentiles; they are not
//                 measured traffic.
//
// Each request carries a class; requests of one class cost about the
// same, and the class shares place every reported percentile inside one
// class (README.md, tests/loadbench_test.cc).
#pragma once

#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "src/driver/runner.h"
#include "src/service/json.h"

namespace loadbench {

enum class Workload : std::uint8_t { LockRegions, Optimize, ServiceMix };

[[nodiscard]] bool parseWorkload(std::string_view name, Workload& out);
[[nodiscard]] const char* workloadName(Workload w);

/// Regions per thread in the lock_regions workload (one fixed size; the
/// traced run's growth replay doubles it).
constexpr int kLockRegions = 16;

/// The independent answer a response is checked against, beyond the
/// byte comparison with an in-process reference run of the same request.
enum class Oracle : std::uint8_t {
  None,
  RaceFree,    ///< csan reports no race and no deadlock (by construction)
  SameOutput,  ///< the optimized program prints what the original prints
  Golden,      ///< the fix report equals `golden`
};

/// One request and what its answer is checked against.
struct Request {
  std::string cls;     ///< request class: requests of one class cost alike
  std::string method;  ///< wire method
  std::string file;    ///< the request's "file" field
  std::string source;
  cssame::service::Json options = cssame::service::Json::object();
  /// Expected `fix` report for gallery requests (examples/programs/golden);
  /// empty when the request has no golden answer.
  std::string golden;
  Oracle oracle = Oracle::None;

  /// The wire payload with the given request id.
  [[nodiscard]] std::string payload(std::int64_t id) const;
  /// The option set cssamed derives for this request, which is also the
  /// cssamec option set of the in-process reference run.
  [[nodiscard]] cssame::driver::RunOptions runOptions() const;
};

/// A lock-region program: `threads` x `regions` straight-line
/// `lock(L); x = x + c; unlock(L); lock(M); z = z + 1; unlock(M);` with
/// initialised declarations and constants drawn from `seed`. Race-free
/// and deadlock-free by construction.
[[nodiscard]] std::string lockRegionSource(int threads, int regions,
                                           std::uint64_t seed);

/// The request every workload sends first to a fresh daemon; its answer
/// ends the set-up interval.
[[nodiscard]] Request setupRequest(std::uint64_t seed);

/// The seeded, unbounded request stream of one workload.
class RequestStream {
 public:
  /// `repoRoot` locates examples/programs for the service_mix gallery.
  RequestStream(Workload w, std::uint64_t seed, std::string repoRoot);

  /// The next request of the stream.
  [[nodiscard]] Request next();

  /// True once the daemon's cache tiers would be full and, for
  /// service_mix, far repeats can occur. Warm-up runs until then.
  [[nodiscard]] bool steady() const;

 private:
  struct Gallery {
    std::string name, source, fixTarget, golden;
  };
  [[nodiscard]] Request nextServiceMix();
  [[nodiscard]] std::string versionSource();
  [[nodiscard]] std::string smallRacySource();

  Workload workload_;
  std::uint64_t seed_;
  std::uint64_t index_ = 0;
  std::mt19937_64 rng_;
  // service_mix state.
  std::vector<Gallery> gallery_;
  std::deque<Request> pending_;     ///< follow-ups of the current version
  /// Versions not yet repeated far back, oldest first.
  std::deque<std::pair<std::uint64_t, Request>> farQueue_;
  std::deque<Request> recent_;      ///< recent requests, for near repeats
  std::uint64_t versions_ = 0;
  std::uint64_t smallPrograms_ = 0;
  std::uint64_t galleryRuns_ = 0;
};

/// splitmix64: the seed mixer behind every stream.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b);

}  // namespace loadbench
