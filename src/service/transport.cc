#include "src/service/transport.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace cssame::service {

Json errorEnvelope(const Json& id, const std::string& kind,
                   const std::string& stage, const std::string& message) {
  Json error = Json::object();
  error.set("kind", kind).set("stage", stage).set("message", message);
  Json env = Json::object();
  env.set("id", id).set("ok", false).set("error", std::move(error));
  return env;
}

Transport::Transport(std::size_t maxPayload, Handler handle,
                     std::function<void()> onBadFrame)
    : maxPayload_(maxPayload),
      handle_(std::move(handle)),
      onBadFrame_(std::move(onBadFrame)) {
  if (::pipe(wakePipe_) != 0) wakePipe_[0] = wakePipe_[1] = -1;
  for (int fd : wakePipe_)
    if (fd >= 0) {
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
      // A signal handler must never park on a full pipe.
      ::fcntl(fd, F_SETFL, O_NONBLOCK);
    }
}

Transport::~Transport() {
  for (int fd : wakePipe_)
    if (fd >= 0) ::close(fd);
}

void Transport::requestShutdown() {
  stop_.store(true, std::memory_order_release);
  if (wakePipe_[1] >= 0) {
    // Async-signal-safe: one byte wakes the poll in the accept loop.
    const char b = 'x';
    [[maybe_unused]] ssize_t r = ::write(wakePipe_[1], &b, 1);
  }
}

void Transport::serveFrames(support::FdStream& in, support::FdStream& out) {
  std::string payload;
  while (!shutdownRequested()) {
    const FrameStatus fs = readFrame(in, payload, maxPayload_);
    if (fs == FrameStatus::Eof) break;
    if (fs != FrameStatus::Ok) {
      onBadFrame_();
      const Json env = errorEnvelope(
          Json(), "bad-frame", "protocol",
          std::string("framing violation: ") + frameStatusName(fs));
      (void)writeFrame(out, env.write(), maxPayload_);
      break;
    }
    if (Status s = writeFrame(out, handle_(payload), maxPayload_); !s.ok())
      break;
  }
}

Status Transport::serveUnix(const std::string& socketPath,
                            support::Counter& connections) {
  Expected<support::UnixListener> listener =
      support::UnixListener::bind(socketPath);
  if (!listener) return listener.fault();

  std::mutex mutex;
  std::set<int> liveFds;
  std::vector<std::thread> threads;
  Status result = Status::okStatus();
  while (!shutdownRequested()) {
    Expected<support::FdStream> conn = listener->accept(wakePipe_[0]);
    if (!conn) {
      result = conn.fault();
      break;
    }
    if (!conn->valid()) break;  // woken by requestShutdown()
    connections.inc();
    std::lock_guard<std::mutex> lock(mutex);
    liveFds.insert(conn->fd());
    threads.emplace_back([&, stream = std::move(*conn)]() mutable {
      serveFrames(stream, stream);
      std::lock_guard<std::mutex> done(mutex);
      liveFds.erase(stream.fd());
    });
  }

  // Only the read side is shut down: a connection thread may be mid-way
  // through writing the response that requested this shutdown, and
  // SHUT_RDWR would tear that write out from under it. The joins
  // establish happens-before for everything the handlers touched.
  {
    std::lock_guard<std::mutex> lock(mutex);
    for (int fd : liveFds) ::shutdown(fd, SHUT_RD);
  }
  for (std::thread& t : threads) t.join();
  return result;
}

}  // namespace cssame::service
