#include "loadbench/src/traced.h"

#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include "loadbench/src/daemon.h"
#include "loadbench/src/stats.h"
#include "src/driver/pipeline.h"
#include "src/interp/explore.h"
#include "src/interp/interp.h"
#include "src/opt/optimize.h"
#include "src/parser/parser.h"
#include "src/repair/repair.h"
#include "src/sanalysis/csan.h"
#include "src/sanalysis/tso.h"
#include "src/sanalysis/vrange.h"
#include "src/service/server.h"

namespace loadbench {

namespace {

using Clock = std::chrono::steady_clock;
using cssame::service::Json;
namespace driver = cssame::driver;

/// Requests replayed after warm-up, per workload: under ten seconds each
/// at today's speed. A fixed count makes the count metrics (evictions,
/// hit shares) repeat exactly for a seed.
std::size_t replayCount(Workload w) {
  switch (w) {
    case Workload::LockRegions: return 48;
    case Workload::Optimize: return 160;
    case Workload::ServiceMix: return 3000;
  }
  return 0;
}

/// Lock-region programs replayed at k and at 2k for the growth ratios.
constexpr int kGrowthPrograms = 3;

/// Programs of the optimize stream replayed in-process by the traced runs
/// of the other workloads, which send no optimize request, so that every
/// traced run times the opt layer.
constexpr int kOptReplayPrograms = 8;

/// The layer metric each pipeline phase of Compilation::phaseTimes()
/// belongs to (module names under src/).
const char* phaseLayer(const std::string& phase) {
  static const std::map<std::string, const char*> layers = {
      {"pfg", "pfg.ms"},
      {"dom", "analysis.ms"},
      {"pdom", "analysis.ms"},
      {"mhp", "analysis.ms"},
      {"sites", "analysis.ms"},
      {"conflicts", "analysis.ms"},
      {"mutex", "mutex.ms"},
      {"ssa", "ssa.ms"},
      {"cssa-pi", "cssa.pi_ms"},
      {"cssame-rewrite", "cssa.rewrite_ms"},
      {"pointsto", "sanalysis.pointsto_ms"},
      {"sites-refined", "sanalysis.pointsto_ms"},
      {"heldlocks", "dataflow.heldlocks_ms"},
      {"reaching", "cssa.reaching_ms"},
  };
  auto it = layers.find(phase);
  return it == layers.end() ? "" : it->second;
}

/// In-memory span recorder. Times are ms since the recorder started.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;  ///< per-layer metric the self time counts toward
    double start = 0, end = 0;
    int parent = -1;
    std::int64_t request = -1;
  };

  double now() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }
  void setRequest(std::int64_t id) { request_ = id; }

  int begin(std::string name, std::string layer, int parent) {
    spans_.push_back(
        {std::move(name), std::move(layer), now(), 0, parent, request_});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int span) { spans_[static_cast<std::size_t>(span)].end = now(); }

  /// A span measured elsewhere (a pipeline phase), placed inside `parent`.
  void add(std::string name, std::string layer, int parent, double start,
           double end) {
    spans_.push_back(
        {std::move(name), std::move(layer), start, end, parent, request_});
  }

  template <typename F>
  auto timed(std::string name, std::string layer, int parent, F&& f) {
    const int s = begin(std::move(name), std::move(layer), parent);
    auto result = f();
    end(s);
    return result;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration(int s) const {
    const Span& sp = spans_[static_cast<std::size_t>(s)];
    return sp.end - sp.start;
  }

  /// Chrome trace-event JSON: one complete ("X") event per span.
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json args = Json::object();
      args.set("request", s.request).set("parent", s.parent);
      if (!s.layer.empty()) args.set("layer", s.layer);
      Json ev = Json::object();
      ev.set("name", s.name)
          .set("ph", "X")
          .set("ts", s.start * 1e3)
          .set("dur", (s.end - s.start) * 1e3)
          .set("pid", 1)
          .set("tid", 1)
          .set("args", std::move(args));
      out << (i == 0 ? "" : ",\n") << ev.write();
    }
    out << "]}\n";
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::int64_t request_ = -1;
  std::vector<Span> spans_;
};

/// A parsed program with its analysis, kept for compilation-tier replays.
struct Analyzed {
  std::unique_ptr<cssame::ir::Program> program;
  std::unique_ptr<driver::Compilation> compilation;
  std::size_t phasesSeen = 0;
};

/// Per-request work counts read from the layers' own results, by metric.
using Counts = std::map<std::string, double>;

class Replayer {
 public:
  explicit Replayer(Tracer& tracer) : t_(tracer) {}

  /// The decomposed layer calls of one request, mirroring what cssamed
  /// does for it at `tier` (and, for cold requests, what runSource does).
  void layers(const Request& r, const std::string& tier, int root,
              Counts& counts) {
    if (tier == "memory") return;
    if (r.method == "explore" || r.method == "fix") {
      std::shared_ptr<Analyzed> a = analyzeCold(r.source, root, counts);
      if (a == nullptr) return;
      if (r.method == "explore") {
        cssame::interp::ExploreOptions eo;  // the service's clamped budgets
        eo.maxSteps = 1u << 16;
        eo.maxStates = 1u << 16;
        eo.maxDepthPerRun = 1024;
        eo.maxMemoryBytes = 64u << 20;
        const auto res =
            t_.timed("interp::exploreAllSchedules", "interp.explore_ms", root,
                     [&] {
                       return cssame::interp::exploreAllSchedules(*a->program,
                                                                  eo);
                     });
        counts["interp.explore_states"] =
            static_cast<double>(res.statesExplored);
        counts["interp.dpor_pruned"] =
            static_cast<double>(res.dpor.prunedSuccessors);
      } else {
        cssame::repair::FixTarget target = cssame::repair::FixTarget::All;
        (void)cssame::repair::parseFixTarget(
            r.options.getString("fix", "all"), target);
        const auto res = t_.timed("repair::repairSource", "repair.ms", root,
                                  [&] {
                                    return cssame::repair::repairSource(
                                        r.source, target);
                                  });
        counts["repair.candidates_tried"] =
            static_cast<double>(res.stats.candidatesTried);
        counts["repair.candidates_verified"] =
            static_cast<double>(res.stats.candidatesVerified);
      }
      return;
    }
    if (r.options.getBool("opt", false)) {
      optimize(r, root, counts);
      return;
    }
    std::shared_ptr<Analyzed> a;
    if (tier == "compilation") {
      auto it = compiled_.find(r.source);
      if (it != compiled_.end()) a = it->second;
    }
    if (a == nullptr) {
      a = analyzeCold(r.source, root, counts);
      if (a == nullptr) return;
      remember(r.source, a);
    } else {
      const int s = t_.begin("driver::runCompiled", "driver.runcompiled_ms",
                             root);
      (void)driver::runCompiled(*a->program, *a->compilation, "", r.file,
                                r.runOptions());
      t_.end(s);
      lazyPhases(*a, s);
    }
    const driver::Compilation& c = *a->compilation;
    cssame::DiagEngine diag;
    if (r.method == "csan") {
      const int s = t_.begin("sanalysis::runCsan", "sanalysis.csan_ms", root);
      (void)cssame::sanalysis::runCsan(c, diag);
      t_.end(s);
      lazyPhases(*a, s);
    } else if (r.method == "vrange") {
      const auto vr = t_.timed(
          "sanalysis::analyzeValueRanges", "sanalysis.vrange_ms", root,
          [&] { return cssame::sanalysis::analyzeValueRanges(c, &diag); });
      (void)t_.timed("sanalysis::crossCheckConstants",
                     "sanalysis.crosscheck_ms", root, [&] {
                       return cssame::sanalysis::crossCheckConstants(c, vr);
                     });
    } else if (r.options.getBool("tso", false)) {
      (void)t_.timed("sanalysis::runTso", "sanalysis.tso_ms", root,
                     [&] { return cssame::sanalysis::runTso(c, diag); });
    }
  }

 private:
  /// parseChecked + driver::analyze with the pipeline phases as children.
  std::shared_ptr<Analyzed> analyzeCold(const std::string& source, int root,
                                        Counts& counts) {
    auto pr = t_.timed("parser::parseChecked", "parser.ms", root, [&] {
      return cssame::parser::parseChecked(source);
    });
    if (!pr.ok()) return nullptr;
    auto a = std::make_shared<Analyzed>();
    a->program = std::make_unique<cssame::ir::Program>(std::move(pr.program));
    const int s = t_.begin("driver::analyze", "", root);
    a->compilation = std::make_unique<driver::Compilation>(
        driver::analyze(*a->program));
    t_.end(s);
    lazyPhases(*a, s, /*fromStart=*/true);
    const auto& bodies = a->compilation->mutexes().bodies();
    std::size_t wellFormed = 0;
    for (const auto& b : bodies) wellFormed += b.wellFormed ? 1 : 0;
    counts["mutex.bodies"] = static_cast<double>(bodies.size());
    if (!bodies.empty())
      counts["mutex.wellformed_share"] =
          static_cast<double>(wellFormed) / bodies.size();
    counts["analysis.conflict_edges"] =
        static_cast<double>(a->compilation->graph().conflicts.size());
    counts["driver.analyze_ms"] = t_.duration(s);
    return a;
  }

  /// Phase entries appended since the last look become children of
  /// `parent`: the constructor's chain in order from its start, lazy
  /// solves at the end of the call that forced them.
  void lazyPhases(Analyzed& a, int parent, bool fromStart = false) {
    const auto phases = a.compilation->phaseTimes();
    const Tracer::Span& p = t_.spans()[static_cast<std::size_t>(parent)];
    double at = p.start;
    if (!fromStart) {
      for (std::size_t i = a.phasesSeen; i < phases.size(); ++i)
        at -= phases[i].seconds * 1e3;
      at += p.end - p.start;
    }
    for (std::size_t i = a.phasesSeen; i < phases.size(); ++i) {
      const double ms = phases[i].seconds * 1e3;
      t_.add(phases[i].name, phaseLayer(phases[i].name), parent, at, at + ms);
      at += ms;
    }
    a.phasesSeen = phases.size();
  }

  void optimize(const Request& r, int root, Counts& counts) {
    std::shared_ptr<Analyzed> a = analyzeCold(r.source, root, counts);
    if (a == nullptr) return;
    a->compilation.reset();  // the optimizer re-analyzes as it goes
    const auto before = t_.timed("interp::run", "", root, [&] {
      return cssame::interp::run(*a->program, {.seed = 1});
    });
    const auto report = t_.timed("opt::optimizeProgram", "opt.ms", root, [&] {
      return cssame::opt::optimizeProgram(*a->program);
    });
    (void)t_.timed("interp::run", "", root, [&] {
      return cssame::interp::run(*a->program, {.seed = 1});
    });
    counts["opt.iterations"] = report.iterations;
    counts["interp.run_steps"] = static_cast<double>(before.steps);
  }

  void remember(const std::string& source, std::shared_ptr<Analyzed> a) {
    // Follow-ups come right after their version; a short memory bounds
    // the replay's footprint.
    constexpr std::size_t kKeep = 8;
    if (compiled_.emplace(source, std::move(a)).second)
      order_.push_back(source);
    if (order_.size() > kKeep) {
      compiled_.erase(order_.front());
      order_.pop_front();
    }
  }

  Tracer& t_;
  std::map<std::string, std::shared_ptr<Analyzed>> compiled_;
  std::deque<std::string> order_;
};

/// Self time of every span: its duration minus its children's.
std::vector<double> selfTimes(const std::vector<Tracer::Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end - spans[i].start;
  for (const Tracer::Span& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  return self;
}

double nsPerSpan() {
  // The recorder's own cost: begin/end pairs on a scratch recorder.
  Tracer scratch;
  constexpr int kPairs = 20000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kPairs; ++i) scratch.end(scratch.begin("x", "", -1));
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
         kPairs;
}

}  // namespace

TracedRun runTraced(const RunConfig& cfg) {
  TracedRun out;
  Tracer tracer;
  Replayer replayer(tracer);
  cssame::service::Server server({});  // in-process twin of the daemon
  Daemon daemon(cfg.cssamed, cfg.workDir + "/cssamed.sock");
  const bool connected = daemon.connect(kRequestTimeoutMs);

  // Per request: handlePayload ms and tier, layer-span sum, runSource ms,
  // client latency, counts.
  struct Row {
    std::string cls, tier;
    double handleMs = 0, layerMs = 0, runSourceMs = 0, clientMs = 0;
    bool timed = false;
    Counts counts;
  };
  std::vector<Row> rows;

  auto fail = [&](const std::string& why) {
    ++out.failed;
    if (out.failures.size() < 8) out.failures.push_back(why);
  };
  auto replay = [&](const Request& r, bool timed) {
    const std::int64_t id = static_cast<std::int64_t>(rows.size());
    const std::string payload = r.payload(id);
    tracer.setRequest(id);
    Row row;
    row.cls = r.cls;
    row.timed = timed;
    const int root = tracer.begin("request " + r.cls, "", -1);
    const int hs = tracer.begin("service::Server::handlePayload", "", root);
    const std::string response = server.handlePayload(payload);
    tracer.end(hs);
    row.handleMs = tracer.duration(hs);
    cssame::Expected<Json> env = cssame::service::parseJson(response);
    if (!env || !env->getBool("ok", false)) fail("error envelope for " + r.cls);
    row.tier = env ? env->getString("cached", "") : "";
    // Warm-up requests only bring both servers' caches to steady state.
    const std::size_t first = tracer.spans().size();
    if (timed) replayer.layers(r, row.tier, root, row.counts);
    for (std::size_t i = first; i < tracer.spans().size(); ++i) {
      const Tracer::Span& s = tracer.spans()[i];
      if (s.parent == root && s.name != "interp::run" &&
          s.name != "driver::runCompiled")
        row.layerMs += s.end - s.start;
    }
    tracer.end(root);
    if (timed && row.tier == "miss") {
      const int rs = tracer.begin("driver::runSource", "", -1);
      (void)driver::runSource(r.source, r.file, r.runOptions());
      tracer.end(rs);
      row.runSourceMs = tracer.duration(rs);
    }
    std::string answer;
    const Clock::time_point c0 = Clock::now();
    if (!connected || !daemon.roundTrip(payload, answer, kRequestTimeoutMs))
      fail("no answer from cssamed for " + r.cls);
    else if (maskPhaseTimes(answer) != maskPhaseTimes(response))
      fail("cssamed and the in-process server disagree on " + r.cls);
    row.clientMs =
        std::chrono::duration<double, std::milli>(Clock::now() - c0).count();
    rows.push_back(std::move(row));
  };

  out.probe.sample();
  const Clock::time_point start = Clock::now();
  replay(setupRequest(cfg.seed), false);
  RequestStream stream(cfg.workload, cfg.seed, cfg.repoRoot);
  while (!stream.steady()) replay(stream.next(), false);
  const auto evictions = [&] {
    const auto& cc = server.cache().counters();
    return cc.responseEvictions.value() + cc.compilationEvictions.value();
  };
  const auto evictions0 = evictions();
  // The time cap only guards against a pathologically slow build.
  const double capSeconds = 6 * cfg.seconds;
  for (std::size_t i = 0; i < replayCount(cfg.workload); ++i) {
    if (std::chrono::duration<double>(Clock::now() - start).count() >
        capSeconds)
      break;
    replay(stream.next(), true);
    ++out.requests;
  }
  const double evicted = static_cast<double>(evictions() - evictions0);
  out.attempted = rows.size();
  daemon.stop();
  out.probe.sample();

  // Growth replay: a few lock-region programs at k and at 2k.
  std::map<std::string, std::vector<double>> growth[2];
  for (int size = 0; size < 2; ++size)
    for (int j = 0; j < kGrowthPrograms; ++j) {
      tracer.setRequest(-2 - size);
      const std::size_t first = tracer.spans().size();
      const int root = tracer.begin(
          "growth k=" + std::to_string(kLockRegions << size), "", -1);
      Counts ignored;
      Request r;
      r.method = "csan";
      r.source = lockRegionSource(3, kLockRegions << size,
                                  mix(cfg.seed, 0x6000u + j));
      replayer.layers(r, "miss", root, ignored);
      tracer.end(root);
      const std::vector<double> self = selfTimes(tracer.spans());
      std::map<std::string, double> ms;
      for (std::size_t i = first; i < tracer.spans().size(); ++i)
        ms[tracer.spans()[i].layer] += self[i];
      for (const char* layer :
           {"mutex.ms", "cssa.rewrite_ms", "sanalysis.csan_ms"})
        growth[size][layer].push_back(ms[layer]);
    }
  // Optimizer replay: the first programs of the optimize stream, through
  // the same layer calls as an optimize request (no printout involved).
  std::vector<std::pair<std::size_t, std::size_t>> optSpans;
  std::vector<Counts> optCounts;
  if (cfg.workload != Workload::Optimize) {
    RequestStream optStream(Workload::Optimize, cfg.seed, cfg.repoRoot);
    for (int j = 0; j < kOptReplayPrograms; ++j) {
      tracer.setRequest(-4 - j);
      const std::size_t first = tracer.spans().size();
      const int root = tracer.begin("optimizer replay", "", -1);
      Counts counts;
      replayer.layers(optStream.next(), "miss", root, counts);
      tracer.end(root);
      optSpans.emplace_back(first, tracer.spans().size());
      optCounts.push_back(std::move(counts));
    }
  }
  const double wall =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();

  // Aggregate: per-request self time per layer, then medians over the
  // timed requests that ran the layer.
  const std::vector<double> self = selfTimes(tracer.spans());
  std::vector<std::map<std::string, double>> layerMs(rows.size());
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    if (s.layer.empty() || s.request < 0) continue;
    layerMs[static_cast<std::size_t>(s.request)][s.layer] += self[i];
  }
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> respHit, compHit, missOverhead, transport, attributed,
      pipelineEq;
  double tried = 0, verified = 0, responseHits = 0, compilationHits = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (!row.timed) continue;
    for (const auto& [layer, ms] : layerMs[i]) samples[layer].push_back(ms);
    for (const auto& [k, v] : row.counts) samples[k].push_back(v);
    if (row.tier == "memory") {
      respHit.push_back(row.handleMs);
      ++responseHits;
    } else if (row.tier == "compilation") {
      compHit.push_back(row.handleMs);
      ++compilationHits;
    } else if (row.tier == "miss" && row.runSourceMs > 0) {
      missOverhead.push_back(row.handleMs - row.runSourceMs);
      attributed.push_back(row.layerMs / row.runSourceMs);
    }
    transport.push_back(row.clientMs - row.handleMs);
    Counts c = row.counts;
    tried += c["repair.candidates_tried"];
    verified += c["repair.candidates_verified"];
    if (layerMs[i].count("opt.ms") && c["driver.analyze_ms"] > 0)
      pipelineEq.push_back(layerMs[i]["opt.ms"] / c["driver.analyze_ms"]);
  }
  for (std::size_t j = 0; j < optSpans.size(); ++j) {
    double optMs = 0;
    for (std::size_t i = optSpans[j].first; i < optSpans[j].second; ++i)
      if (tracer.spans()[i].layer == "opt.ms") optMs += self[i];
    Counts& c = optCounts[j];
    samples["opt.ms"].push_back(optMs);
    samples["opt.iterations"].push_back(c["opt.iterations"]);
    samples["interp.run_steps"].push_back(c["interp.run_steps"]);
    if (c["driver.analyze_ms"] > 0)
      pipelineEq.push_back(optMs / c["driver.analyze_ms"]);
  }
  auto med = [&](const std::string& k) { return median(samples[k]); };
  auto growthOf = [&](const std::string& k) {
    const double base = median(growth[0][k]);
    return base > 0 ? median(growth[1][k]) / base : 0;
  };
  const double n = std::max<double>(1, static_cast<double>(out.requests));
  const double overhead =
      static_cast<double>(tracer.spans().size()) * nsPerSpan() * 1e-6 / wall;

  out.metrics = {
      {"mutex.ms", "ms", med("mutex.ms")},
      {"mutex.bodies", "count", med("mutex.bodies")},
      {"mutex.wellformed_share", "ratio", med("mutex.wellformed_share")},
      {"mutex.growth_x2", "ratio", growthOf("mutex.ms")},
      {"cssa.rewrite_ms", "ms", med("cssa.rewrite_ms")},
      {"cssa.rewrite_growth_x2", "ratio", growthOf("cssa.rewrite_ms")},
      {"cssa.pi_ms", "ms", med("cssa.pi_ms")},
      {"cssa.reaching_ms", "ms", med("cssa.reaching_ms")},
      {"sanalysis.csan_ms", "ms", med("sanalysis.csan_ms")},
      {"sanalysis.csan_growth_x2", "ratio", growthOf("sanalysis.csan_ms")},
      {"sanalysis.vrange_ms", "ms", med("sanalysis.vrange_ms")},
      {"sanalysis.crosscheck_ms", "ms", med("sanalysis.crosscheck_ms")},
      {"sanalysis.tso_ms", "ms", med("sanalysis.tso_ms")},
      {"sanalysis.pointsto_ms", "ms", med("sanalysis.pointsto_ms")},
      {"opt.ms", "ms", med("opt.ms")},
      {"opt.iterations", "count", med("opt.iterations")},
      {"opt.pipeline_equivalents", "ratio", median(pipelineEq)},
      {"service.response_hit_ms", "ms", median(respHit)},
      {"service.compilation_hit_ms", "ms", median(compHit)},
      {"service.miss_overhead_ms", "ms", median(missOverhead)},
      {"service.transport_ms", "ms", median(transport)},
      {"service.response_hit_share", "ratio", responseHits / n},
      {"service.compilation_hit_share", "ratio", compilationHits / n},
      {"service.evictions", "count", evicted},
      {"driver.runcompiled_ms", "ms", med("driver.runcompiled_ms")},
      {"interp.explore_ms", "ms", med("interp.explore_ms")},
      {"interp.explore_states", "count", med("interp.explore_states")},
      {"interp.dpor_pruned", "count", med("interp.dpor_pruned")},
      {"interp.run_steps", "count", med("interp.run_steps")},
      {"repair.ms", "ms", med("repair.ms")},
      {"repair.candidates_tried", "count", med("repair.candidates_tried")},
      {"repair.verified_share", "ratio", tried > 0 ? verified / tried : 0},
      {"parser.ms", "ms", med("parser.ms")},
      {"pfg.ms", "ms", med("pfg.ms")},
      {"analysis.ms", "ms", med("analysis.ms")},
      {"analysis.conflict_edges", "count", med("analysis.conflict_edges")},
      {"ssa.ms", "ms", med("ssa.ms")},
      {"dataflow.heldlocks_ms", "ms", med("dataflow.heldlocks_ms")},
      {"trace.attributed_share", "ratio", median(attributed)},
      {"trace.overhead_share", "ratio", overhead},
  };

  const std::filesystem::path traces =
      std::filesystem::path(cfg.workDir).parent_path() / "traces";
  std::filesystem::create_directories(traces);
  out.tracePath = (traces / (std::string(workloadName(cfg.workload)) + "-" +
                             std::to_string(cfg.seed) + ".json"))
                      .string();
  tracer.write(out.tracePath);
  return out;
}

}  // namespace loadbench
