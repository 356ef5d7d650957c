#include "loadbench/src/workloads.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/ir/printer.h"
#include "src/workload/generator.h"

namespace loadbench {

using cssame::service::Json;

namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int intIn(std::mt19937_64& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

Request csanRequest(std::string source, std::string cls) {
  Request r;
  r.cls = std::move(cls);
  r.method = "csan";
  r.file = "bench.cp";
  r.source = std::move(source);
  return r;
}

std::string randomSource(const cssame::workload::GeneratorConfig& cfg) {
  return cssame::ir::printProgram(cssame::workload::generateRandom(cfg));
}

// service_mix shape: the share of requests of each kind. A version
// brings four requests (a cold csan and three compilation-tier
// follow-ups, one class each); every other kind brings one. The shares
// are chosen, not measured: with the classes in order of cost, they put
// the client-side p50 in the middle of compilation-hit-stats and the p95
// inside csan-miss, while every request kind still occurs
// (README.md, tests/loadbench_test.cc).
enum Kind { kVersion, kNear, kFar, kExplore, kFix, kGallery, kKinds };
constexpr double kShare[kKinds] = {0.72, 0.22, 0.03, 0.015, 0.0075, 0.0075};
constexpr double kRequestsPerDraw[kKinds] = {4, 1, 1, 1, 1, 1};
constexpr std::size_t kRecentWindow = 24;  // far below the 128-entry tier
/// cssamed's default capacity of each in-memory cache tier.
constexpr std::uint64_t kDaemonCacheEntries = 128;
/// A far repeat goes back at least this many versions: past the
/// compilation tier (one entry per version) and the response tier.
constexpr std::uint64_t kFarDistance = kDaemonCacheEntries + 8;

}  // namespace

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool parseWorkload(std::string_view name, Workload& out) {
  for (Workload w :
       {Workload::LockRegions, Workload::Optimize, Workload::ServiceMix})
    if (name == workloadName(w)) {
      out = w;
      return true;
    }
  return false;
}

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::LockRegions: return "lock_regions";
    case Workload::Optimize: return "optimize";
    case Workload::ServiceMix: return "service_mix";
  }
  return "?";
}

std::string Request::payload(std::int64_t id) const {
  Json req = Json::object();
  req.set("id", id)
      .set("method", method)
      .set("file", file)
      .set("source", source)
      .set("options", options);
  return req.write();
}

cssame::driver::RunOptions Request::runOptions() const {
  cssame::driver::RunOptions o;
  o.doOpt = options.getBool("opt", false);
  o.doStats = options.getBool("stats", false);
  o.doRaces = options.getBool("races", false);
  o.doTso = options.getBool("tso", false);
  if (method == "csan") o.doCsan = true;
  if (method == "vrange") o.doVrange = true;
  if (method == "explore") o.doExplore = true;
  if (method == "fix") {
    o.doFix = true;
    o.fixTarget = options.getString("fix", "all");
  }
  return o;
}

std::string lockRegionSource(int threads, int regions, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string s = "int x = " + std::to_string(intIn(rng, 0, 99)) +
                  ", z = " + std::to_string(intIn(rng, 0, 99)) + ";\n";
  s += "lock L;\nlock M;\ncobegin {\n";
  for (int t = 0; t < threads; ++t) {
    s += "  thread T" + std::to_string(t) + " {\n";
    for (int k = 0; k < regions; ++k)
      s += "    lock(L); x = x + " + std::to_string(intIn(rng, 1, 99)) +
           "; unlock(L); lock(M); z = z + 1; unlock(M);\n";
    s += "  }\n";
  }
  s += "}\nprint(x);\nprint(z);\n";
  return s;
}

Request setupRequest(std::uint64_t seed) {
  return csanRequest(lockRegionSource(3, 2, mix(seed, 0x5e7u)), "setup");
}

RequestStream::RequestStream(Workload w, std::uint64_t seed,
                             std::string repoRoot)
    : workload_(w), seed_(seed), rng_(mix(seed, 0x57u)) {
  if (w != Workload::ServiceMix) return;
  const std::string dir = repoRoot + "/examples/programs/";
  for (const char* name : {"repair_race", "repair_fresh_lock",
                           "repair_partial", "repair_no_safe_fix"})
    gallery_.push_back({name, readFile(dir + name + ".cp"), "all",
                        readFile(dir + "golden/" + name + ".out")});
  gallery_.push_back({"tso_peterson", readFile(dir + "tso_peterson.cp"),
                      "tso", readFile(dir + "golden/tso_peterson.fix.out")});
}

Request RequestStream::next() {
  const std::uint64_t i = index_++;
  switch (workload_) {
    case Workload::LockRegions: {
      Request r = csanRequest(
          lockRegionSource(3, kLockRegions, mix(seed_, i)), "csan-miss");
      r.oracle = Oracle::RaceFree;
      return r;
    }
    case Workload::Optimize: {
      cssame::workload::GeneratorConfig cfg;
      cfg.seed = mix(seed_, i);
      cfg.threads = 4;
      cfg.stmtsPerThread = 20;
      cfg.determinate = true;
      Request r;
      r.cls = "opt-miss";
      r.method = "analyze";
      r.file = "bench.cp";
      r.source = randomSource(cfg);
      r.options.set("opt", true);
      r.oracle = Oracle::SameOutput;
      return r;
    }
    case Workload::ServiceMix: return nextServiceMix();
  }
  throw std::logic_error("unknown workload");
}

std::string RequestStream::versionSource() {
  // Versions cycle through the feature families the static analyzers
  // treat specially: plain, pointers, arrays, events plus fences. Each
  // is a fresh program, so a run averages over many programs and its
  // percentiles do not hang on a few seed-chosen ones.
  cssame::workload::GeneratorConfig cfg;
  cfg.seed = mix(seed_, 0xd0c0u + versions_);
  cfg.threads = 4;
  cfg.stmtsPerThread = 24;
  cfg.determinate = false;
  switch (versions_ % 4) {
    case 1: cfg.ptrProb = 0.15; break;
    case 2: cfg.arrayProb = 0.15; break;
    case 3:
      cfg.useEvents = true;
      cfg.fenceProb = 0.1;
      break;
    default: break;
  }
  return randomSource(cfg);
}

std::string RequestStream::smallRacySource() {
  cssame::workload::GeneratorConfig cfg;
  cfg.seed = mix(seed_, 0x5a11u + smallPrograms_);
  cfg.threads = 2;
  cfg.sharedVars = 2;
  cfg.locks = 1;
  cfg.stmtsPerThread = 3;
  cfg.maxDepth = 1;
  cfg.branchProb = 0;
  cfg.loopProb = 0;
  cfg.lockedFraction = 0.3;
  cfg.determinate = false;
  // The trailing print keeps every small program a distinct source.
  return randomSource(cfg) + "print(" + std::to_string(smallPrograms_++) +
         ");\n";
}

Request RequestStream::nextServiceMix() {
  Request r;
  if (!pending_.empty()) {
    r = std::move(pending_.front());
    pending_.pop_front();
  } else {
    double weight[kKinds], total = 0;
    for (int k = 0; k < kKinds; ++k)
      total += weight[k] = kShare[k] / kRequestsPerDraw[k];
    double u = std::uniform_real_distribution<double>(0, total)(rng_);
    int kind = 0;
    while (kind + 1 < kKinds && u >= weight[kind]) u -= weight[kind++];
    // Until the stream is old enough for a far repeat (the warm-up
    // covers that stretch) or has history to repeat, send a version.
    if (kind == kFar && (farQueue_.empty() ||
                         farQueue_.front().first + kFarDistance > versions_))
      kind = kVersion;
    if (kind == kNear && recent_.empty()) kind = kVersion;
    switch (kind) {
      case kVersion: {
        r = csanRequest(versionSource(), "csan-miss");
        farQueue_.emplace_back(versions_++, r);
        // Three follow-ups for the same version: each reuses the live
        // compilation the csan request left behind.
        Request vr = r;
        vr.method = "vrange";
        vr.cls = "compilation-hit-vrange";
        Request tso = vr;
        tso.method = "analyze";
        tso.cls = "compilation-hit-tso";
        tso.options.set("tso", true);
        Request st = vr;
        st.method = "analyze";
        st.cls = "compilation-hit-stats";
        st.options.set("stats", true).set("races", true);
        pending_ = {std::move(vr), std::move(tso), std::move(st)};
        break;
      }
      case kNear:
        r = recent_[rng_() % recent_.size()];
        r.cls = "response-hit";
        break;
      case kFar:
        // Each version comes back at most once, so a far repeat is
        // always cold in both memory tiers.
        r = std::move(farQueue_.front().second);
        farQueue_.pop_front();
        break;
      case kExplore:
      case kFix:
        r.cls = kind == kExplore ? "explore-miss" : "fix-miss";
        r.method = kind == kExplore ? "explore" : "fix";
        r.file = "bench.cp";
        r.source = smallRacySource();
        break;
      default: {
        const Gallery& g = gallery_[galleryRuns_ % gallery_.size()];
        r.cls = "fix-gallery-miss";
        r.method = "fix";
        // A fresh file name per run makes each a distinct (cold)
        // request; the report does not depend on it.
        r.file = g.name + "-" + std::to_string(galleryRuns_++) + ".cp";
        r.source = g.source;
        r.options.set("fix", g.fixTarget);
        r.golden = g.golden;
        r.oracle = Oracle::Golden;
      }
    }
  }
  // Near repeats re-send follow-ups only: a csan response carries
  // witness traces several times larger, and its repeat would cost as
  // much as a compilation hit, blurring the class boundary below p50.
  if (r.cls.rfind("compilation-hit", 0) == 0) {
    recent_.push_back(r);
    if (recent_.size() > kRecentWindow) recent_.pop_front();
  }
  return r;
}

bool RequestStream::steady() const {
  // Until cssamed's memory tiers are full, no request pays for an
  // eviction and every allocation takes fresh pages: the first hundred
  // lock_regions requests run about a third slower than the rest.
  return workload_ == Workload::ServiceMix ? versions_ > kFarDistance
                                           : index_ > kDaemonCacheEntries;
}

}  // namespace loadbench
