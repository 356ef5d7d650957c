// cssamed's request router and connection loops.
//
// The server is transport-agnostic at its core: handlePayload() maps one
// request payload (a JSON document) to one response payload, consulting
// the two-tier artifact cache and never throwing — every malformed or
// hostile input degrades into a structured error response. Around that
// core sit the two transports (a Unix-socket accept loop for concurrent
// clients, a stdio loop for a single piped client; both in transport.h,
// shared with the fleet gateway) and the scheduling glue: each
// connection is its own thread, and each request body runs as one task
// on the shared support::ThreadPool, which bounds analysis parallelism
// independently of connection count.
//
// Protocol, methods and the cache-key derivation are specified in
// docs/SERVICE.md; the wire framing is src/service/protocol.h.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "src/service/cache.h"
#include "src/service/json.h"
#include "src/service/protocol.h"
#include "src/service/transport.h"
#include "src/support/counters.h"
#include "src/support/threadpool.h"

namespace cssame::service {

struct ServerOptions {
  /// Disk-cache directory; empty runs memory-only.
  std::string cacheDir;
  /// Capacity (entries) of each in-memory tier (responses and live
  /// compilations). 0 disables in-memory caching.
  std::size_t memEntries = 128;
  /// Per-frame payload bound, both directions.
  std::size_t maxPayload = kDefaultMaxPayload;
  /// Analysis thread pool size (ThreadPool semantics: 0 = one per
  /// hardware thread, 1 = run requests inline on connection threads).
  unsigned workers = 1;
};

/// Monotonic service counters, exported by the `stats` method and listed
/// in docs/ANALYSIS.md. The per-method counters are the request
/// accounting the fleet gateway aggregates across workers: they break
/// the one opaque `requests` number down by what the daemon actually
/// spent its time on.
struct ServiceCounters {
  support::Counter requests;         ///< frames parsed as requests
  support::Counter errors;           ///< error responses produced
  support::Counter badFrames;        ///< framing violations (conn dropped)
  support::Counter connections;      ///< connections accepted
  support::Counter shutdownRequests; ///< shutdown method calls
  support::Counter methodAnalyze;    ///< analyze requests routed
  support::Counter methodCsan;       ///< csan requests routed
  support::Counter methodVrange;     ///< vrange requests routed
  support::Counter methodExplore;    ///< explore requests routed
  support::Counter methodFix;        ///< fix requests routed
  support::Counter methodStats;      ///< stats requests routed
  /// Repair-engine totals summed over every uncached fix request — the
  /// `repair.*` family in the stats JSON, aggregated across the fleet
  /// like the per-method counters (docs/ANALYSIS.md, docs/REPAIR.md).
  support::Counter repairTargets;        ///< repair targets attempted
  support::Counter repairTried;          ///< candidates generated & tried
  support::Counter repairVerified;       ///< candidates accepted
  support::Counter repairRejected;       ///< candidates failing the contract
  support::Counter repairUnverifiable;   ///< of rejected: budget tripped
  support::Counter repairFreshLocks;     ///< fixes declaring a fresh lock
  /// Partial-order-reduction totals summed over every explore request
  /// (zero contributions when a request sets dpor:false). The gateway
  /// aggregates these like the per-method counters: together with
  /// statesExplored in each response they show how much of the state
  /// space the fleet never had to visit.
  support::Counter dporStatesPruned; ///< successors pruned by DPOR
  support::Counter dporSleepHits;    ///< sleep-set suppressions
  support::Counter dporDepQueries;   ///< dependence tests evaluated
};

class Server {
 public:
  explicit Server(ServerOptions opts);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The transport-free core: one request payload in, one response
  /// payload out. Never throws; crashes of the analysis pipeline become
  /// `{"ok":false,...}` envelopes. Public for tests and the bench.
  [[nodiscard]] std::string handlePayload(const std::string& payload);

  /// Serves one already-connected duplex stream (socket or socketpair)
  /// until EOF, a framing violation or shutdown. Each request is
  /// scheduled on the pool; responses go back in request order. A
  /// framing violation counts as a bad frame and an error.
  void serveStream(support::FdStream& stream);

  /// Binds `socketPath` and serves until requestShutdown() (from a
  /// signal handler or a `shutdown` request). Joins every connection
  /// thread before returning, so the cache is quiescent afterwards.
  [[nodiscard]] Status serveUnix(const std::string& socketPath);

  /// Serves a single client over inherited stdin/stdout.
  void serveStdio();

  /// Signal-safe shutdown trigger: sets the stop flag and wakes the
  /// accept loop via the self-pipe. Callable from any thread and from
  /// signal handlers.
  void requestShutdown() { transport_.requestShutdown(); }
  [[nodiscard]] bool shutdownRequested() const {
    return transport_.shutdownRequested();
  }

  [[nodiscard]] ArtifactCache& cache() { return cache_; }
  [[nodiscard]] const ServiceCounters& counters() const { return counters_; }
  [[nodiscard]] const ServerOptions& options() const { return opts_; }

  /// The `stats` response body (also reachable without the wire).
  [[nodiscard]] Json statsJson();

 private:
  /// handlePayload, run as one task on the pool.
  [[nodiscard]] std::string handleOnPool(const std::string& payload);
  [[nodiscard]] Json handleRequest(const Json& request);
  [[nodiscard]] Json runAnalysisMethod(const std::string& method,
                                       const Json& request);
  [[nodiscard]] Json runExplore(const Json& request);
  /// The first *write* method: runs the synchronization repair engine
  /// and returns the verified patched source, line diff and per-target
  /// outcomes (docs/SERVICE.md). Cached under cacheKey v5 like any
  /// analysis response — the doFix bit and fix target in the key keep
  /// fix responses from ever colliding with read-method responses.
  [[nodiscard]] Json runFix(const Json& request);

  /// Computes a result payload on a response-tier miss. It may report a
  /// live-compilation hit through `tier`; on failure it sets `error` to
  /// an error envelope, which is answered instead and not cached.
  using ComputeResult =
      std::function<std::string(CacheTier& tier, Json& error)>;
  /// The cache path shared by every result-caching method: answers from
  /// the response tiers, or computes and stores the payload, then splices
  /// the payload bytes into the success envelope (docs/SERVICE.md).
  [[nodiscard]] Json serveCached(const Json& request, std::string_view method,
                                 const support::Hash128& requestKey,
                                 const ComputeResult& compute);

  ServerOptions opts_;
  support::ThreadPool pool_;
  ArtifactCache cache_;
  ServiceCounters counters_;
  Transport transport_;
};

}  // namespace cssame::service
