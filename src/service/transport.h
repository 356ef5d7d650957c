// The client-facing transport cssamed's Server and the fleet gateway
// share: a stop flag with a self-pipe that wakes the accept loop, the
// framed request/response loop of one connection, and the Unix-socket
// accept loop that serves each connection on its own thread and drains
// them all before it returns. Each owner supplies its request handler
// and its bad-frame accounting.
#pragma once

#include <atomic>
#include <functional>
#include <string>

#include "src/service/json.h"
#include "src/service/protocol.h"
#include "src/support/counters.h"
#include "src/support/io.h"
#include "src/support/status.h"

namespace cssame::service {

/// The failure response: `{"id", "ok": false, "error": {"kind", "stage",
/// "message"}}`. The daemon and the fleet gateway both answer with it, so
/// a gateway's own protocol errors are byte-identical to a daemon's.
[[nodiscard]] Json errorEnvelope(const Json& id, const std::string& kind,
                                 const std::string& stage,
                                 const std::string& message);

class Transport {
 public:
  /// Answers one request payload with one response payload.
  using Handler = std::function<std::string(const std::string& payload)>;

  /// `onBadFrame` runs once per framing violation, before the bad-frame
  /// envelope goes out.
  Transport(std::size_t maxPayload, Handler handle,
            std::function<void()> onBadFrame);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Signal-safe shutdown trigger: sets the stop flag and wakes the
  /// accept loop through the self-pipe. Callable from any thread and from
  /// signal handlers.
  void requestShutdown();
  [[nodiscard]] bool shutdownRequested() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// Reads framed requests from `in` and writes each answer to `out`, in
  /// request order, until EOF, a framing violation or shutdown. After a
  /// violation the stream position is unrecoverable: it is answered once
  /// with a bad-frame envelope and the loop ends.
  void serveFrames(support::FdStream& in, support::FdStream& out);

  /// Binds `socketPath` and serves each accepted connection with
  /// serveFrames on its own thread, until requestShutdown() or an accept
  /// error. On every return path it first shuts the read side of each
  /// live connection, so a blocked read sees EOF while an in-flight
  /// response still writes out, and then joins every connection thread.
  [[nodiscard]] Status serveUnix(const std::string& socketPath,
                                 support::Counter& connections);

 private:
  std::size_t maxPayload_;
  Handler handle_;
  std::function<void()> onBadFrame_;
  std::atomic<bool> stop_{false};
  int wakePipe_[2] = {-1, -1};
};

}  // namespace cssame::service
