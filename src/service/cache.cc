#include "src/service/cache.h"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/service/json.h"
#include "src/support/version.h"

namespace cssame::service {

namespace fs = std::filesystem;

DiskStore::DiskStore(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) dir_.clear();  // degrade to memory-only, never fail the daemon
}

std::string DiskStore::pathFor(const support::Hash128& key) const {
  return dir_ + "/" + support::toHex(key) + ".art";
}

std::optional<std::string> DiskStore::lookup(const support::Hash128& key) {
  if (!enabled()) return std::nullopt;
  const std::string path = pathFor(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;

  // Header: cssame-artifact v1 <buildFp> <keyHex> <bytes> <payloadFp>
  std::string headerLine;
  if (!std::getline(in, headerLine)) {
    corruptRejected.inc();
    std::remove(path.c_str());
    return std::nullopt;
  }
  std::istringstream header(headerLine);
  std::string magic, version, buildFp, keyHex, payloadFpHex;
  std::size_t bytes = 0;
  header >> magic >> version >> buildFp >> keyHex >> bytes >> payloadFpHex;
  support::Hash128 storedKey{}, payloadFp{};
  if (!header || magic != "cssame-artifact" || version != "v1" ||
      !support::fromHex(keyHex, storedKey) ||
      !support::fromHex(payloadFpHex, payloadFp) || storedKey != key) {
    corruptRejected.inc();
    std::remove(path.c_str());
    return std::nullopt;
  }
  if (buildFp != support::buildFingerprint()) {
    // A different build wrote this; its outputs may legitimately differ.
    buildRejected.inc();
    std::remove(path.c_str());
    return std::nullopt;
  }
  std::string payload(bytes, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(bytes));
  if (in.gcount() != static_cast<std::streamsize>(bytes) ||
      support::fingerprintBytes(payload) != payloadFp) {
    corruptRejected.inc();
    std::remove(path.c_str());
    return std::nullopt;
  }
  // The server splices payloads into responses unparsed, so one from the
  // disk is parsed here, once: a payload that is not a JSON document is
  // rejected like any corrupt entry, and one that is comes back in the
  // writer's compact form.
  Expected<Json> doc = parseJson(payload);
  if (!doc) {
    corruptRejected.inc();
    std::remove(path.c_str());
    return std::nullopt;
  }
  return doc->write();
}

void DiskStore::noteWriteFailure(int err) {
  writeFailed.inc();
  const bool fatal = err == ENOSPC || err == EDQUOT || err == EACCES ||
                     err == EROFS || err == EPERM;
  const unsigned consecutive =
      consecutiveWriteFailures_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!fatal && consecutive < kWriteFailureLimit) return;
  if (!writesDisabled_.exchange(true, std::memory_order_relaxed)) {
    degraded.inc();
    std::fprintf(stderr,
                 "cssamed: disk cache '%s' unwritable (%s); degrading to "
                 "memory-only caching\n",
                 dir_.c_str(), std::strerror(err));
  }
}

void DiskStore::insert(const support::Hash128& key,
                       const std::string& payload) {
  if (!writesEnabled()) return;
  const std::string path = pathFor(key);
  // Unique per process and per write, so two threads (or two daemons
  // sharing a cache dir) never interleave bytes in one tmp file; rename
  // makes whichever finishes last win, and both wrote identical content.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmpUnique =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  {
    errno = 0;
    std::ofstream out(tmpUnique, std::ios::binary | std::ios::trunc);
    if (!out) {
      noteWriteFailure(errno);
      return;
    }
    out << "cssame-artifact v1 " << support::buildFingerprint() << ' '
        << support::toHex(key) << ' ' << payload.size() << ' '
        << support::toHex(support::fingerprintBytes(payload)) << '\n';
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    // Flush before the badbit check: a full disk often surfaces only
    // when buffered bytes hit the kernel.
    out.flush();
    if (!out) {
      noteWriteFailure(errno);
      out.close();
      std::remove(tmpUnique.c_str());
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmpUnique, path, ec);
  if (ec) {
    noteWriteFailure(ec.value());
    std::remove(tmpUnique.c_str());
    return;
  }
  consecutiveWriteFailures_.store(0, std::memory_order_relaxed);
}

std::size_t DiskStore::sweepTmp() {
  if (!enabled()) return 0;
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    const std::size_t tag = name.find(".tmp.");
    if (tag == std::string::npos) continue;
    // "<key>.art.tmp.<pid>.<seq>" — skip files whose writer still runs
    // (a fleet sibling sharing this directory, mid-insert). kill(pid, 0)
    // probes existence without signaling; our own pid counts as live so
    // a concurrent insert on this process is never self-swept either.
    const pid_t writer =
        static_cast<pid_t>(std::atol(name.c_str() + tag + 5));
    if (writer > 0 &&
        (::kill(writer, 0) == 0 || errno == EPERM))
      continue;
    std::error_code rmEc;
    fs::remove(entry.path(), rmEc);
    if (!rmEc) ++removed;
  }
  return removed;
}

const char* cacheTierName(CacheTier t) {
  switch (t) {
    case CacheTier::Miss: return "miss";
    case CacheTier::Memory: return "memory";
    case CacheTier::Disk: return "disk";
    case CacheTier::Compilation: return "compilation";
  }
  return "?";
}

std::shared_ptr<const std::string> ArtifactCache::lookupResponse(
    const support::Hash128& requestKey, CacheTier& tier) {
  if (std::shared_ptr<const std::string> hit =
          responses_.lookup(requestKey)) {
    tier = CacheTier::Memory;
    counters_.responseHits.inc();
    return hit;
  }
  if (std::optional<std::string> fromDisk = disk_.lookup(requestKey)) {
    tier = CacheTier::Disk;
    counters_.diskHits.inc();
    auto payload =
        std::make_shared<const std::string>(std::move(*fromDisk));
    counters_.responseEvictions.inc(responses_.insert(requestKey, payload));
    return payload;
  }
  tier = CacheTier::Miss;
  return nullptr;
}

void ArtifactCache::storeResponse(
    const support::Hash128& requestKey,
    std::shared_ptr<const std::string> payload) {
  disk_.insert(requestKey, *payload);
  counters_.responseEvictions.inc(
      responses_.insert(requestKey, std::move(payload)));
}

}  // namespace cssame::service
