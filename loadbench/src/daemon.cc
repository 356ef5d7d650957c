#include "loadbench/src/daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/service/protocol.h"

namespace loadbench {

namespace {

std::string readProc(pid_t pid, const char* file) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/" + file);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Forks a child that runs `binary` with `arg` (or none) and its stdout
/// on /dev/null. Should the benchmark die first, so does the child.
pid_t spawn(const std::string& binary, const std::string& arg) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, 1);
    cssame::support::closeFdsExcept(-1);
    const char* argv[] = {binary.c_str(), arg.empty() ? nullptr : arg.c_str(),
                          nullptr};
    ::execv(binary.c_str(), const_cast<char* const*>(argv));
    std::fprintf(stderr, "loadgen: cannot exec %s: %s\n", binary.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  return pid;
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::string& socketPath)
    : socketPath_(socketPath) {
  ::unlink(socketPath.c_str());
  pid_ = spawn(binary, "--socket=" + socketPath);
}

double spawnAndWaitSeconds(const std::string& binary) {
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = spawn(binary, "");
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    return -1;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Daemon::~Daemon() { stop(); }

bool Daemon::connect(int timeoutMs) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  while (pid_ > 0) {
    if (auto conn = cssame::support::connectUnix(socketPath_)) {
      conn_ = std::move(*conn);
      return true;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;  // died before listening
      return false;
    }
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

bool Daemon::roundTrip(const std::string& payload, std::string& response,
                       int timeoutMs) {
  const auto deadline = cssame::support::Deadline::in(timeoutMs);
  if (!conn_.valid()) return false;
  if (!cssame::service::writeFrameDeadline(conn_, payload,
                                           cssame::service::kDefaultMaxPayload,
                                           deadline)
           .ok())
    return false;
  return cssame::service::readFrameDeadline(
             conn_, response, cssame::service::kDefaultMaxPayload,
             deadline) == cssame::service::FrameStatus::Ok;
}

double Daemon::cpuSeconds() const {
  const std::string stat = readProc(pid_, "stat");
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  // After the command name: state is field 3; utime and stime are 14, 15.
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int f = 3; f < 14; ++f) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peakRssMb() const {
  const std::string status = readProc(pid_, "status");
  const std::size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0;
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
}

void Daemon::stop() {
  conn_.close();
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  for (int i = 0; i < 5000; ++i) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

}  // namespace loadbench
