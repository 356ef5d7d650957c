// Experiment Scale-1 (ours): wall-clock scaling of the three hot paths
// this layer rebuilt — conflict-edge construction, schedule exploration,
// and the batch analysis driver.
//
//   1. Conflict construction: the memoized, access-indexed Ecf sweep
//      (src/analysis/concurrency.cc) against a verbatim transcription of
//      the original all-pairs algorithm (path-walk `conflicting` per
//      query), on 16-thread generator workloads. The speedup (target
//      >= 3x) is algorithmic, and the emitted edge sequence must be
//      IDENTICAL, including order.
//   2. Explorer: the serial exploreAllSchedules on a racy state-space
//      workload, reporting states, seconds and states per second so the
//      cost of `--explore` stays on record.
//   3. Batch driver: driver::analyze over many independent programs on a
//      support::ThreadPool (jobs = 1 vs 4), the `cssamec --jobs=N` shape.
//   4. Partial-order reduction: the unreduced sweep against the DPOR
//      explorer (src/interp/dpor.h) on the 4-thread x 4-statement
//      workload, under SC and TSO. The reduction is algorithmic like
//      part 1, so it binds on any machine: >= 10x fewer deduplicated
//      states, with the contract fields (outputs, racedVars, verdict
//      bits) exactly equal — both are hard failures.
//   5. Lock regions: a doubling series of the 3-thread
//      `lock(L); x = x + c; unlock(L); lock(M); z = z + 1; unlock(M);`
//      shape, timing parseChecked of the source, the mutex-structure
//      phase, the Ecf construction (analysis::computeConflictEdges), π
//      placement (cssa::placePiTerms), the CSSAME rewrite, csan (its
//      lock-lifecycle walks included), the TSO check, parallel reaching
//      definitions (Algorithm A.4 for every use, sharing one visited set
//      as PDCE does), CVRA (analyzeValueRanges without a DiagEngine) and
//      CSCC (opt::analyzeConstants). Conflict edges and π arguments grow
//      4x per doubling of the region count, so π placement, the rewrite,
//      csan, TSO, the reaching walk and the two sparse conditional
//      solves, which visit or emit each edge or argument a bounded
//      number of times, may grow up to 5x per doubling; the parse, the
//      mutex phase and the Ecf construction, which stores one record per
//      same-context run of accessors rather than one per edge
//      (pfg::ConflictRelation), at most 2.5x. Growth per doubling is
//      taken over the whole series, (t_last / t_first)^(1 / doublings),
//      which damps one noisy point; the all-candidates construction grew
//      12-14x per doubling, so a super-linear phase fails the run on any
//      machine.
//      Each point also reports the cost of one mayHappenInParallel query
//      (swept over every Ecf edge), and checks every Ecf pair's MHP
//      answer against part 1's reference. It counts the heap allocations
//      (operator new calls, through a counting operator new in this
//      binary) of one cold driver::analyze + runCsan, the work of a cold
//      csan request after parsing, and gates them at <= 4 per PFG node:
//      the counts repeat exactly, so this gate binds on any machine.
//   6. Pointer programs: a doubling series of generated 4-thread
//      programs with pointer updates (ptrProb 0.15, the shape of the
//      repository benchmark's pointer versions) at 12 … 96 statements
//      per thread, timing driver::analyze — the whole points-to
//      refinement loop — and recording the final form's Ecf edges and π
//      arguments. The final forms grow about 4x per doubling, so analyze
//      may grow up to 5x, the rewrite/csan bound.
//
// Results go to BENCH_scale.json. The two wall-clock speedups (parts 1
// and 3) and part 2's timing are table notes: each prints its value (a
// speedup also its target and whether it was met), and none decides the
// exit status, because a loaded or small host slows them without any
// change to the code. The JSON records whether the thread-parallel
// target of part 3 could apply here (speedup_target_applies, true with
// >= 4 hardware threads), so a 0.94x row measured on a 1-CPU container
// is not misread as a regression.
// Exit status is nonzero when any determinism, exactness,
// reduction-floor, lock-region growth or allocation, or pointer growth
// check fails — CI's
// scale-smoke job runs this on a small grid (CSSAME_SCALE_SMOKE=1) and
// treats any of them as a build breaker.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/concurrency.h"
#include "src/analysis/dominance.h"
#include "src/cssa/cssa.h"
#include "src/cssa/reaching.h"
#include "src/cssa/rewrite.h"
#include "src/driver/pipeline.h"
#include "src/interp/explore.h"
#include "src/ir/builder.h"
#include "src/ir/expr.h"
#include "src/opt/cscc.h"
#include "src/parser/parser.h"
#include "src/pfg/build.h"
#include "src/sanalysis/csan.h"
#include "src/sanalysis/tso.h"
#include "src/sanalysis/vrange.h"
#include "src/support/memmodel.h"
#include "src/support/threadpool.h"
#include "src/support/timer.h"
#include "src/workload/generator.h"

// Heap allocations of one cold request (part 5): this binary replaces the
// global operator new with one that counts its calls while armed, and
// arms it only around the analysis being counted. The replacements stay
// out of line, so no caller sees malloc and free pair up with new and
// delete.
namespace {
std::atomic<bool> gCountAllocations{false};
std::atomic<std::uint64_t> gAllocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (gCountAllocations.load(std::memory_order_relaxed))
    gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace cssame;

bool smokeMode() { return std::getenv("CSSAME_SCALE_SMOKE") != nullptr; }

/// Hardware threads the thread-parallel speedup targets assume.
constexpr int kSpeedupMinThreads = 4;

/// Best-of-N wall clock of fn() — minimum filters scheduler noise.
template <typename Fn>
double timeBest(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    support::Stopwatch watch;
    fn();
    best = std::min(best, watch.seconds());
  }
  return best;
}

// ---------------------------------------------------------------------------
// Part 1 — edge construction: reference all-pairs vs fast path. The
// reference transcribes the pre-memoization algorithm (the same
// transcription tests/mhp_equiv_test.cc verifies for exact equivalence):
// per-node statement walks for the accesses, a thread-path walk per
// `conflicting` query, linear set/wait scans per `orderedBefore`, and
// all-pairs sweeps for all three edge kinds. The bench workload is
// barrier-free, so the reference omits only the barrier refinement.
// ---------------------------------------------------------------------------

class RefMhp {
 public:
  RefMhp(const pfg::Graph& graph, const analysis::Dominators& dom)
      : graph_(graph), dom_(dom) {
    for (const pfg::Node& n : graph.nodes()) {
      if (n.kind == pfg::NodeKind::Set)
        setNodes_[n.syncStmt->sync].push_back(n.id);
      else if (n.kind == pfg::NodeKind::Wait)
        waitNodes_[n.syncStmt->sync].push_back(n.id);
    }
  }

  [[nodiscard]] bool conflicting(NodeId a, NodeId b) const {
    if (a == b) return false;
    const pfg::ThreadPath& pa = graph_.node(a).threadPath;
    const pfg::ThreadPath& pb = graph_.node(b).threadPath;
    const std::size_t common = std::min(pa.size(), pb.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (pa[i].cobegin != pb[i].cobegin) return false;
      if (pa[i].threadIndex != pb[i].threadIndex) return true;
    }
    return false;
  }

  [[nodiscard]] bool orderedBefore(NodeId a, NodeId b) const {
    for (const auto& [event, sets] : setNodes_) {
      auto waitsIt = waitNodes_.find(event);
      if (waitsIt == waitNodes_.end()) continue;
      bool aBeforeSet = false;
      for (NodeId s : sets)
        if (dom_.dominates(a, s)) {
          aBeforeSet = true;
          break;
        }
      if (!aBeforeSet) continue;
      for (NodeId w : waitsIt->second)
        if (dom_.dominates(w, b)) return true;
    }
    return false;
  }

  [[nodiscard]] bool mayHappenInParallel(NodeId a, NodeId b) const {
    return conflicting(a, b) && !orderedBefore(a, b) && !orderedBefore(b, a);
  }

 private:
  const pfg::Graph& graph_;
  const analysis::Dominators& dom_;
  std::unordered_map<SymbolId, std::vector<NodeId>> setNodes_;
  std::unordered_map<SymbolId, std::vector<NodeId>> waitNodes_;
};

struct RefAccess {
  std::vector<SymbolId> defs;
  std::vector<SymbolId> uses;
};

void refAddUnique(std::vector<SymbolId>& v, SymbolId s) {
  if (std::find(v.begin(), v.end(), s) == v.end()) v.push_back(s);
}

std::vector<RefAccess> refCollectAccesses(const pfg::Graph& graph) {
  const ir::SymbolTable& syms = graph.program().symbols;
  std::vector<RefAccess> access(graph.size());
  for (const pfg::Node& n : graph.nodes()) {
    if (n.kind != pfg::NodeKind::Block) continue;
    RefAccess& acc = access[n.id.index()];
    auto collect = [&](const ir::Expr& e) {
      ir::forEachExpr(e, [&](const ir::Expr& sub) {
        if (sub.kind == ir::ExprKind::VarRef && syms.isSharedVar(sub.var))
          refAddUnique(acc.uses, sub.var);
      });
    };
    for (const ir::Stmt* s : n.stmts) {
      if (s->expr) collect(*s->expr);
      if (s->kind == ir::StmtKind::Assign && syms.isSharedVar(s->lhs))
        refAddUnique(acc.defs, s->lhs);
    }
    if (n.terminator != nullptr && n.terminator->expr)
      collect(*n.terminator->expr);
  }
  return access;
}

struct RefEdges {
  std::vector<pfg::ConflictEdge> conflicts;
  std::vector<pfg::MutexEdge> mutexEdges;
  std::vector<pfg::DsyncEdge> dsyncEdges;
};

RefEdges refComputeEdges(const pfg::Graph& graph,
                         const analysis::Dominators& dom) {
  const RefMhp mhp(graph, dom);
  RefEdges out;
  const std::vector<RefAccess> access = refCollectAccesses(graph);
  for (const pfg::Node& d : graph.nodes()) {
    for (SymbolId v : access[d.id.index()].defs) {
      for (const pfg::Node& u : graph.nodes()) {
        if (!mhp.conflicting(d.id, u.id)) continue;
        const RefAccess& ua = access[u.id.index()];
        if (std::find(ua.uses.begin(), ua.uses.end(), v) != ua.uses.end())
          out.conflicts.push_back(pfg::ConflictEdge{d.id, u.id, v, false});
        if (std::find(ua.defs.begin(), ua.defs.end(), v) != ua.defs.end())
          out.conflicts.push_back(pfg::ConflictEdge{d.id, u.id, v, true});
      }
    }
  }
  for (const pfg::Node& a : graph.nodes()) {
    if (a.kind != pfg::NodeKind::Lock) continue;
    for (const pfg::Node& b : graph.nodes()) {
      if (b.kind != pfg::NodeKind::Unlock) continue;
      if (a.syncStmt->sync != b.syncStmt->sync) continue;
      if (!mhp.mayHappenInParallel(a.id, b.id)) continue;
      out.mutexEdges.push_back(pfg::MutexEdge{a.id, b.id, a.syncStmt->sync});
    }
  }
  for (const pfg::Node& a : graph.nodes()) {
    if (a.kind != pfg::NodeKind::Set) continue;
    for (const pfg::Node& b : graph.nodes()) {
      if (b.kind != pfg::NodeKind::Wait) continue;
      if (a.syncStmt->sync != b.syncStmt->sync) continue;
      if (!mhp.conflicting(a.id, b.id)) continue;
      out.dsyncEdges.push_back(pfg::DsyncEdge{a.id, b.id, a.syncStmt->sync});
    }
  }
  return out;
}

bool sameEdges(const RefEdges& ref, const pfg::Graph& graph,
               const analysis::SyncEdges& sync) {
  std::vector<pfg::ConflictEdge> conflicts;
  graph.conflicts.forEachEdge(
      [&](const pfg::ConflictEdge& e) { conflicts.push_back(e); });
  if (ref.conflicts.size() != graph.conflicts.size() ||
      ref.conflicts.size() != conflicts.size() ||
      ref.mutexEdges.size() != sync.mutex.size() ||
      ref.dsyncEdges.size() != sync.dsync.size())
    return false;
  for (std::size_t i = 0; i < ref.conflicts.size(); ++i) {
    const pfg::ConflictEdge &a = ref.conflicts[i], &b = conflicts[i];
    if (a.from != b.from || a.to != b.to || a.var != b.var ||
        a.toIsDef != b.toIsDef)
      return false;
  }
  for (std::size_t i = 0; i < ref.mutexEdges.size(); ++i) {
    const pfg::MutexEdge &a = ref.mutexEdges[i], &b = sync.mutex[i];
    if (a.lockNode != b.lockNode || a.unlockNode != b.unlockNode ||
        a.lockVar != b.lockVar)
      return false;
  }
  for (std::size_t i = 0; i < ref.dsyncEdges.size(); ++i) {
    const pfg::DsyncEdge &a = ref.dsyncEdges[i], &b = sync.dsync[i];
    if (a.setNode != b.setNode || a.waitNode != b.waitNode ||
        a.eventVar != b.eventVar)
      return false;
  }
  return true;
}

struct ConflictScale {
  std::size_t nodes = 0;
  std::size_t edges = 0;
  double refSeconds = 0;
  double fastSeconds = 0;
  bool identical = false;

  [[nodiscard]] double speedup() const {
    return fastSeconds > 0 ? refSeconds / fastSeconds : 0.0;
  }
};

/// Times both constructions on the canonical 16-thread generator
/// workload (sparse shared accesses across 64 variables, 16 locks,
/// set/wait event chains — events are what make the reference's
/// orderedBefore scans expensive). Both timings start from the same
/// built PFG + dominators; the fast-path timing conservatively includes
/// everything memoization buys it with — the Mhp constructor (context +
/// ordering tables) AND the access-index collection, not just the sweep —
/// and derives Esync as the reference does, although the pipeline only
/// does so for --dump-pfg.
ConflictScale runConflictScale() {
  workload::GeneratorConfig cfg;
  cfg.seed = 42;
  cfg.threads = 16;
  cfg.sharedVars = 64;
  cfg.locks = 16;
  cfg.stmtsPerThread = smokeMode() ? 24 : 96;
  cfg.maxDepth = 2;
  cfg.lockedFraction = 0.5;
  cfg.useEvents = true;
  cfg.determinate = false;
  ir::Program prog = workload::generateRandom(cfg);
  pfg::Graph graph = pfg::buildPfg(prog);
  const analysis::Dominators dom(graph,
                                 analysis::Dominators::Direction::Forward);
  ConflictScale out;
  out.nodes = graph.size();

  const int reps = smokeMode() ? 3 : 5;
  RefEdges refEdges;
  out.refSeconds =
      timeBest(reps, [&] { refEdges = refComputeEdges(graph, dom); });

  analysis::SyncEdges sync;
  out.fastSeconds = timeBest(reps, [&] {
    const analysis::Mhp mhp(graph, dom);
    const analysis::AccessSites sites = analysis::collectAccessSites(graph);
    analysis::computeConflictEdges(graph, mhp, sites);
    sync = analysis::syncEdges(graph, mhp);
  });
  out.edges = graph.conflicts.size();
  out.identical = sameEdges(refEdges, graph, sync);
  return out;
}

// ---------------------------------------------------------------------------
// Part 2 — serial explorer throughput.
// ---------------------------------------------------------------------------

/// N racy threads of `stmts` unlocked shared updates. The updates mix
/// doubling with per-thread additions, so they do NOT commute — distinct
/// interleavings produce distinct values of v and the deduplicated state
/// space stays exponential (pure increments would collapse to a
/// polynomial count of (positions, sum) states).
ir::Program makeRacy(int threads, int stmts) {
  ir::ProgramBuilder b;
  const SymbolId v = b.var("v");
  std::vector<ir::ProgramBuilder::BodyFn> bodies;
  for (int t = 0; t < threads; ++t)
    bodies.push_back([&b, v, stmts, t] {
      for (int s = 0; s < stmts; ++s) {
        if (s % 2 == 0)
          b.assign(v, b.add(b.ref(v), b.lit(t + 1)));
        else
          b.assign(v, b.mul(b.ref(v), b.lit(2)));
      }
    });
  b.cobegin(bodies);
  b.print(b.ref(v));
  return b.take();
}

struct ExplorerScale {
  std::uint64_t states = 0;
  double seconds = 0;

  [[nodiscard]] double statesPerSecond() const {
    return seconds > 0 ? static_cast<double>(states) / seconds : 0.0;
  }
};

ExplorerScale runExplorerScale() {
  ir::Program prog =
      smokeMode() ? makeRacy(3, 3) : makeRacy(4, 4);
  interp::ExploreOptions opts;
  opts.maxSteps = 1u << 26;
  opts.maxStates = 1u << 24;
  opts.detectRaces = true;
  opts.recordValues = true;

  ExplorerScale out;
  interp::ExploreResult r;
  const int reps = smokeMode() ? 1 : 2;
  out.seconds =
      timeBest(reps, [&] { r = interp::exploreAllSchedules(prog, opts); });
  out.states = r.statesExplored;
  return out;
}

// ---------------------------------------------------------------------------
// Part 3 — batch analysis driver: M independent programs on a pool.
// ---------------------------------------------------------------------------

struct BatchScale {
  std::size_t programs = 0;
  double jobs1Seconds = 0;
  double jobs4Seconds = 0;
  bool identical = false;

  [[nodiscard]] double speedup() const {
    return jobs4Seconds > 0 ? jobs1Seconds / jobs4Seconds : 0.0;
  }
};

BatchScale runBatchScale() {
  const std::size_t count = smokeMode() ? 8 : 32;
  // Programs are regenerated from their seed inside each run (an ir::
  // Program is not copyable, and the pipeline rewrites it into CSSAME
  // form) — the generator is deterministic, so every run analyzes the
  // same batch.
  auto programAt = [](std::size_t i) {
    workload::GeneratorConfig cfg;
    cfg.seed = 1000 + i;
    cfg.threads = 6;
    cfg.sharedVars = 6;
    cfg.stmtsPerThread = 24;
    cfg.useEvents = (i % 2) == 0;
    return workload::generateRandom(cfg);
  };

  // The observable per-program analysis fact the jobs=1/jobs=4 runs must
  // agree on (batch parallelism shards programs, never one analysis).
  auto analyzeAll = [&](unsigned jobs, std::vector<std::size_t>& edges) {
    edges.assign(count, 0);
    support::ThreadPool pool(jobs);
    pool.parallelFor(count, [&](std::size_t i) {
      ir::Program prog = programAt(i);
      driver::Compilation c = driver::analyze(prog);
      edges[i] = c.graph().conflicts.size();
    });
  };

  BatchScale out;
  out.programs = count;
  std::vector<std::size_t> edges1, edges4;
  const int reps = smokeMode() ? 1 : 3;
  out.jobs1Seconds = timeBest(reps, [&] { analyzeAll(1, edges1); });
  out.jobs4Seconds = timeBest(reps, [&] { analyzeAll(4, edges4); });
  out.identical = edges1 == edges4;
  return out;
}

// ---------------------------------------------------------------------------
// Part 4 — dynamic partial-order reduction, unreduced vs reduced sweep.
// ---------------------------------------------------------------------------

/// The 4-thread x 4-statement reduction workload (shared with
/// tests/explore_dpor_test.cc's floor test): three threads update
/// disjoint private counters — pure interleaving noise DPOR collapses —
/// while two of them also touch the shared, non-commutative `r`, keeping
/// a real dependence the reduction must preserve.
constexpr const char* kDporSource = R"(
  int w0, w1, w2, w3, r;
  cobegin {
    thread { w0 = w0 + 1; w0 = w0 * 2; w0 = w0 + 3; r = r + w0; }
    thread { w1 = w1 + 2; w1 = w1 * 3; w1 = w1 + 1; r = r * 2; }
    thread { w2 = w2 + 1; w2 = w2 * 2; w2 = w2 + 1; }
    thread { w3 = w3 + 5; w3 = w3 * 2; w3 = w3 + 1; }
  }
  print(r);
)";

struct DporScale {
  std::uint64_t statesFull = 0;
  std::uint64_t statesDpor = 0;
  double fullSeconds = 0;
  double dporSeconds = 0;
  std::uint64_t peakFrontierFull = 0;
  std::uint64_t peakFrontierDpor = 0;
  std::uint64_t pruned = 0;
  std::uint64_t depQueries = 0;
  bool exact = false;

  [[nodiscard]] double ratio() const {
    return statesDpor > 0
               ? static_cast<double>(statesFull) /
                     static_cast<double>(statesDpor)
               : 0.0;
  }
};

/// The DPOR exactness contract (docs/ANALYSIS.md): every field a client
/// may act on is equal; only statesExplored may shrink. observedRanges
/// is deliberately absent — the reduced sweep visits a subset of states,
/// so its ranges may be sub-ranges (recordValues is off here anyway).
bool contractExact(const interp::ExploreResult& full,
                   const interp::ExploreResult& reduced) {
  return full.complete && reduced.complete &&
         full.outputs == reduced.outputs &&
         full.racedVars == reduced.racedVars &&
         full.anyDeadlock == reduced.anyDeadlock &&
         full.anyLockError == reduced.anyLockError &&
         full.anyAssertFailure == reduced.anyAssertFailure &&
         full.anyPtrError == reduced.anyPtrError &&
         reduced.statesExplored <= full.statesExplored;
}

DporScale runDporScale(support::MemoryModel model) {
  ir::Program prog = parser::parseOrDie(kDporSource);
  interp::ExploreOptions opts;
  opts.maxSteps = 1u << 26;
  opts.maxStates = 1u << 24;
  opts.detectRaces = true;
  opts.model = model;

  DporScale out;
  interp::ExploreResult full, reduced;
  const int reps = smokeMode() ? 1 : 2;
  opts.dpor = false;
  out.fullSeconds =
      timeBest(reps, [&] { full = interp::exploreAllSchedules(prog, opts); });
  opts.dpor = true;
  out.dporSeconds = timeBest(
      reps, [&] { reduced = interp::exploreAllSchedules(prog, opts); });
  out.statesFull = full.statesExplored;
  out.statesDpor = reduced.statesExplored;
  out.peakFrontierFull = full.peakFrontierBytes;
  out.peakFrontierDpor = reduced.peakFrontierBytes;
  out.pruned = reduced.dpor.prunedSuccessors;
  out.depQueries = reduced.dpor.depQueries;
  out.exact = contractExact(full, reduced);
  return out;
}

// ---------------------------------------------------------------------------
// Part 5 — lock-region doubling series.
// ---------------------------------------------------------------------------

constexpr double kMutexGrowthBound = 2.5;
constexpr double kParseGrowthBound = 2.5;
constexpr double kConflictsGrowthBound = 2.5;
constexpr double kPiGrowthBound = 5.0;
constexpr double kRewriteGrowthBound = 5.0;
constexpr double kCsanGrowthBound = 5.0;
constexpr double kTsoGrowthBound = 5.0;
constexpr double kReachingGrowthBound = 5.0;
constexpr double kVrangeGrowthBound = 5.0;
constexpr double kCsccGrowthBound = 5.0;
/// Heap allocations per PFG node of one cold driver::analyze + runCsan.
/// Counts repeat exactly, so the bound holds on any machine. It reads
/// 2.6-3.4 with the PFG's and dominator trees' lists, the access index
/// and Ecf stored flat; per-node access vectors and csan's per-site hash
/// maps put it at 3.8-4.6, one vector per node and list above 15.
constexpr double kAllocationsPerNodeBound = 4.0;

struct LockRegionPoint {
  int regions = 0;
  std::size_t nodes = 0;
  std::size_t conflictEdges = 0;
  std::size_t bodies = 0;
  double parseSeconds = 1e30;
  double mutexSeconds = 1e30;
  double conflictsSeconds = 1e30;  ///< analysis::computeConflictEdges
  double piSeconds = 1e30;         ///< cssa::placePiTerms
  double rewriteSeconds = 1e30;
  double csanSeconds = 1e30;
  double tsoSeconds = 1e30;
  double reachingSeconds = 1e30;  ///< Algorithm A.4 for every use
  double vrangeSeconds = 1e30;    ///< CVRA, no DiagEngine
  double csccSeconds = 1e30;      ///< opt::analyzeConstants
  double mhpSweepSeconds = 1e30;  ///< one query per Ecf edge
  bool mhpIdentical = false;  ///< every Ecf pair agrees with RefMhp
  /// operator new calls of one cold driver::analyze + runCsan.
  std::uint64_t allocations = 0;

  [[nodiscard]] double mhpNsPerQuery() const {
    return conflictEdges > 0 ? mhpSweepSeconds * 1e9 / conflictEdges : 0.0;
  }
  [[nodiscard]] double allocationsPerNode() const {
    return nodes > 0 ? static_cast<double>(allocations) /
                           static_cast<double>(nodes)
                     : 0.0;
  }
};

/// Back-to-back calls per timing sample so that one sample lasts about
/// 10 ms: single calls of a few microseconds are too noisy to compare
/// across a doubling series, and a phase that sweeps megabytes at the
/// largest point needs several calls to amortize the cold cache the
/// previous phase leaves it.
int callsPerSample(double secondsPerCall) {
  return std::max(1, static_cast<int>(10e-3 / std::max(secondsPerCall, 1e-7)));
}

/// One region count, analyzed once. Each measure() call times
/// parseChecked of the source, then the phases alone on the finished
/// compilation with warm caches, so the series shows each phase's own
/// growth: the MutexStructures construction (with its Section 6
/// warnings), analysis::computeConflictEdges (which rebuilds the same
/// Ecf), cssa::placePiTerms on fresh copies of the sequential form,
/// cssa::rewritePiTerms on fresh copies of the unrewritten CSSA form,
/// sanalysis::runCsan, the
/// reaching-definition walk, a mayHappenInParallel sweep over the Ecf
/// edges, sanalysis::runTso, sanalysis::analyzeValueRanges and
/// opt::analyzeConstants.
/// The point keeps the best per-call time of every phase.
class LockRegionCase {
 public:
  explicit LockRegionCase(int regions)
      : source_(workload::lockRegionSource(3, regions)),
        prog_(parser::parseOrDie(source_)),
        comp_(driver::analyze(prog_)),
        sequential_(ssa::buildSequentialSsa(comp_.graph(), comp_.dom())),
        cssa_(sequential_) {
    cssa::placePiTerms(comp_.graph(), cssa_, comp_.mhp(), comp_.sites());
    point_.regions = regions;
    point_.nodes = comp_.graph().size();
    point_.conflictEdges = comp_.graph().conflicts.size();
    point_.bodies = comp_.mutexes().bodies().size();
    const RefMhp ref(comp_.graph(), comp_.dom());
    point_.mhpIdentical = true;
    comp_.graph().conflicts.forEachEdge([&](const pfg::ConflictEdge& e) {
      point_.mhpIdentical &=
          comp_.mhp().mayHappenInParallel(e.from, e.to) ==
              ref.mayHappenInParallel(e.from, e.to) &&
          comp_.mhp().mayHappenInParallel(e.to, e.from) ==
              ref.mayHappenInParallel(e.to, e.from);
    });
    countAllocations();
  }

  void measure() {
    pfg::Graph& graph = comp_.graph();
    burst(point_.parseSeconds, parseCalls_, [&] {
      const parser::ParseResult parsed = parser::parseChecked(source_);
      benchmark::DoNotOptimize(parsed.program.size());
    });
    burst(point_.mutexSeconds, mutexCalls_, [&] {
      DiagEngine diag;
      const mutex::MutexStructures structures(graph, comp_.dom(),
                                              comp_.pdom(), &diag);
      benchmark::DoNotOptimize(structures.bodies().size());
    });
    burst(point_.conflictsSeconds, conflictsCalls_, [&] {
      analysis::computeConflictEdges(graph, comp_.mhp(), comp_.sites());
      benchmark::DoNotOptimize(graph.conflicts.size());
    });
    burst(point_.csanSeconds, csanCalls_, [&] {
      DiagEngine diag;
      benchmark::DoNotOptimize(
          sanalysis::runCsan(comp_, diag).potentialRaces);
    });
    burst(point_.reachingSeconds, reachingCalls_, [&] {
      const ssa::SsaForm& form = comp_.ssa();
      DynBitset walked(form.defs.size());
      std::size_t defs = 0;
      for (const auto& [use, name] : form.useDef)
        cssa::forEachReachingDef(form, name, walked,
                                 [&](SsaNameId) { ++defs; });
      benchmark::DoNotOptimize(defs);
    });
    burst(point_.mhpSweepSeconds, mhpCalls_, [&] {
      std::size_t parallel = 0;
      graph.conflicts.forEachEdge([&](const pfg::ConflictEdge& e) {
        parallel += comp_.mhp().mayHappenInParallel(e.from, e.to) ? 1 : 0;
      });
      benchmark::DoNotOptimize(parallel);
    });
    // TSO sweeps far more memory than the walks above, so it runs after
    // them rather than leaving them a cold cache.
    burst(point_.tsoSeconds, tsoCalls_, [&] {
      DiagEngine diag;
      benchmark::DoNotOptimize(sanalysis::runTso(comp_, diag).notJustified);
    });
    burst(point_.vrangeSeconds, vrangeCalls_, [&] {
      benchmark::DoNotOptimize(
          sanalysis::analyzeValueRanges(comp_).stats.solverIterations);
    });
    burst(point_.csccSeconds, csccCalls_, [&] {
      benchmark::DoNotOptimize(opt::analyzeConstants(comp_).constantDefs);
    });
    // π placement and the rewrite edit the form in place, so every call
    // gets its own copy, made outside the timed burst.
    onCopies(point_.piSeconds, piCalls_, sequential_,
             [&](ssa::SsaForm& form) {
               (void)cssa::placePiTerms(graph, form, comp_.mhp(),
                                        comp_.sites());
             });
    onCopies(point_.rewriteSeconds, rewriteCalls_, cssa_,
             [&](ssa::SsaForm& form) {
               (void)cssa::rewritePiTerms(graph, form, comp_.mutexes());
             });
  }

  [[nodiscard]] const LockRegionPoint& point() const { return point_; }

 private:
  /// Counts the heap allocations of what a cold csan request runs after
  /// parsing: driver::analyze of a freshly parsed copy, then runCsan. One
  /// uncounted runCsan first initializes anything built on first use.
  void countAllocations() {
    {
      DiagEngine diag;
      benchmark::DoNotOptimize(sanalysis::runCsan(comp_, diag).potentialRaces);
    }
    ir::Program prog = parser::parseOrDie(source_);
    gAllocations.store(0, std::memory_order_relaxed);
    gCountAllocations.store(true, std::memory_order_relaxed);
    {
      const driver::Compilation comp = driver::analyze(prog);
      DiagEngine diag;
      benchmark::DoNotOptimize(sanalysis::runCsan(comp, diag).potentialRaces);
    }
    gCountAllocations.store(false, std::memory_order_relaxed);
    point_.allocations = gAllocations.load(std::memory_order_relaxed);
  }

  /// burst() for a phase that edits a form: fn runs once on each of
  /// `calls` copies of `from`, made before the clock starts.
  template <typename Fn>
  void onCopies(double& best, int& calls, const ssa::SsaForm& from, Fn&& fn) {
    forms_.assign(static_cast<std::size_t>(calls), from);
    support::Stopwatch watch;
    for (ssa::SsaForm& form : forms_) fn(form);
    const double perCall = watch.seconds() / calls;
    best = std::min(best, perCall);
    calls = callsPerSample(perCall);
    forms_.clear();
  }

  /// Times `calls` back-to-back calls of fn, keeps the best per-call time
  /// in `best` and sizes the next burst from it.
  template <typename Fn>
  static void burst(double& best, int& calls, Fn&& fn) {
    support::Stopwatch watch;
    for (int i = 0; i < calls; ++i) fn();
    const double perCall = watch.seconds() / calls;
    best = std::min(best, perCall);
    calls = callsPerSample(perCall);
  }

  std::string source_;
  ir::Program prog_;
  driver::Compilation comp_;
  ssa::SsaForm sequential_;  ///< before π placement
  ssa::SsaForm cssa_;        ///< after π placement, before the rewrite
  std::vector<ssa::SsaForm> forms_;
  int parseCalls_ = 1, mutexCalls_ = 1, conflictsCalls_ = 1, piCalls_ = 1,
      rewriteCalls_ = 1, csanCalls_ = 1, tsoCalls_ = 1, reachingCalls_ = 1,
      mhpCalls_ = 1, vrangeCalls_ = 1, csccCalls_ = 1;
  LockRegionPoint point_;
};

struct LockRegionScale {
  std::vector<LockRegionPoint> points;

  /// Growth per doubling of one timing across the whole series: the
  /// geometric mean of the step ratios, (last / first)^(1 / steps).
  template <typename Field>
  [[nodiscard]] double growth(Field field) const {
    const double steps = static_cast<double>(points.size() - 1);
    return std::pow(points.back().*field / points.front().*field,
                    1.0 / steps);
  }
  [[nodiscard]] double parseGrowth() const {
    return growth(&LockRegionPoint::parseSeconds);
  }
  [[nodiscard]] double mutexGrowth() const {
    return growth(&LockRegionPoint::mutexSeconds);
  }
  [[nodiscard]] double conflictsGrowth() const {
    return growth(&LockRegionPoint::conflictsSeconds);
  }
  [[nodiscard]] double piGrowth() const {
    return growth(&LockRegionPoint::piSeconds);
  }
  [[nodiscard]] double rewriteGrowth() const {
    return growth(&LockRegionPoint::rewriteSeconds);
  }
  [[nodiscard]] double csanGrowth() const {
    return growth(&LockRegionPoint::csanSeconds);
  }
  [[nodiscard]] double tsoGrowth() const {
    return growth(&LockRegionPoint::tsoSeconds);
  }
  [[nodiscard]] double reachingGrowth() const {
    return growth(&LockRegionPoint::reachingSeconds);
  }
  [[nodiscard]] double vrangeGrowth() const {
    return growth(&LockRegionPoint::vrangeSeconds);
  }
  [[nodiscard]] double csccGrowth() const {
    return growth(&LockRegionPoint::csccSeconds);
  }
  [[nodiscard]] double maxAllocationsPerNode() const {
    double most = 0;
    for (const LockRegionPoint& p : points)
      most = std::max(most, p.allocationsPerNode());
    return most;
  }
  [[nodiscard]] bool withinBounds() const {
    return parseGrowth() <= kParseGrowthBound &&
           mutexGrowth() <= kMutexGrowthBound &&
           conflictsGrowth() <= kConflictsGrowthBound &&
           piGrowth() <= kPiGrowthBound &&
           rewriteGrowth() <= kRewriteGrowthBound &&
           csanGrowth() <= kCsanGrowthBound &&
           tsoGrowth() <= kTsoGrowthBound &&
           reachingGrowth() <= kReachingGrowthBound &&
           vrangeGrowth() <= kVrangeGrowthBound &&
           csccGrowth() <= kCsccGrowthBound &&
           maxAllocationsPerNode() <= kAllocationsPerNodeBound;
  }
  [[nodiscard]] bool mhpIdentical() const {
    return std::all_of(points.begin(), points.end(),
                       [](const LockRegionPoint& p) { return p.mhpIdentical; });
  }
};

/// Measures every region count once per round, round after round, so a
/// burst of host noise inflates one sample of each point instead of every
/// sample of one point; each point keeps its best. The rounds span several
/// seconds, longer than the noisy spells of a shared host, which with
/// fewer rounds pushed a 4.4x column past its 5x bound.
LockRegionScale runLockRegionScale() {
  const std::vector<int> regions = smokeMode()
                                       ? std::vector<int>{20, 40, 80}
                                       : std::vector<int>{20, 40, 80, 160};
  std::vector<std::unique_ptr<LockRegionCase>> cases;
  for (int k : regions) cases.push_back(std::make_unique<LockRegionCase>(k));
  const int rounds = smokeMode() ? 9 : 15;
  for (int r = 0; r < rounds; ++r)
    for (auto& c : cases) c->measure();
  LockRegionScale out;
  for (const auto& c : cases) out.points.push_back(c->point());
  return out;
}

// ---------------------------------------------------------------------------
// Part 6 — pointer doubling series.
// ---------------------------------------------------------------------------

constexpr double kPointerGrowthBound = 5.0;
constexpr int kPointerSeeds = 4;

struct PointerPoint {
  int stmts = 0;
  double conflictEdges = 0;  ///< final Ecf edges, mean per program
  double piArgs = 0;         ///< final π conflict arguments, mean
  double analyzeSeconds = 1e30;  ///< best driver::analyze time, mean
};

/// The programs of one statement count: kPointerSeeds generated 4-thread
/// pointer programs, analyzed together in each timed call.
class PointerCase {
 public:
  explicit PointerCase(int stmts) {
    point_.stmts = stmts;
    for (int seed = 1; seed <= kPointerSeeds; ++seed) {
      workload::GeneratorConfig cfg;
      cfg.seed = static_cast<std::uint64_t>(seed);
      cfg.threads = 4;
      cfg.stmtsPerThread = stmts;
      cfg.determinate = false;
      cfg.ptrProb = 0.15;
      programs_.push_back(workload::generateRandom(cfg));
    }
    for (ir::Program& prog : programs_) {
      const driver::Compilation comp = driver::analyze(prog);
      point_.conflictEdges +=
          static_cast<double>(comp.graph().conflicts.size()) / kPointerSeeds;
      point_.piArgs +=
          static_cast<double>(comp.ssa().countPiConflictArgs()) /
          kPointerSeeds;
    }
  }

  /// One burst of `calls_` back-to-back passes over the programs; keeps
  /// the best per-program time and sizes the next burst from it.
  void measure() {
    support::Stopwatch watch;
    for (int i = 0; i < calls_; ++i)
      for (ir::Program& prog : programs_) {
        const driver::Compilation comp = driver::analyze(prog);
        benchmark::DoNotOptimize(comp.graph().conflicts.size());
      }
    const double perCall = watch.seconds() / calls_;
    point_.analyzeSeconds =
        std::min(point_.analyzeSeconds, perCall / kPointerSeeds);
    calls_ = callsPerSample(perCall);
  }

  [[nodiscard]] const PointerPoint& point() const { return point_; }

 private:
  std::vector<ir::Program> programs_;
  int calls_ = 1;
  PointerPoint point_;
};

struct PointerScale {
  std::vector<PointerPoint> points;

  [[nodiscard]] double growth() const {
    const double steps = static_cast<double>(points.size() - 1);
    return std::pow(points.back().analyzeSeconds /
                        points.front().analyzeSeconds,
                    1.0 / steps);
  }
  [[nodiscard]] bool withinBounds() const {
    return growth() <= kPointerGrowthBound;
  }
};

/// Round-robin best-of-bursts over the statement counts, like part 5.
PointerScale runPointerScale() {
  const std::vector<int> stmts = smokeMode()
                                     ? std::vector<int>{12, 24, 48}
                                     : std::vector<int>{12, 24, 48, 96};
  std::vector<std::unique_ptr<PointerCase>> cases;
  for (int s : stmts) cases.push_back(std::make_unique<PointerCase>(s));
  const int rounds = smokeMode() ? 5 : 7;
  for (int r = 0; r < rounds; ++r)
    for (auto& c : cases) c->measure();
  PointerScale out;
  for (const auto& c : cases) out.points.push_back(c->point());
  return out;
}

// ---------------------------------------------------------------------------

/// The BENCH_scale.json fields. The thread-parallel speedup target (part
/// 3) only binds when the machine has the cores; the flag is written into
/// the JSON so downstream dashboards never flag an ungated row as a
/// regression.
service::Json resultsJson(const ConflictScale& c, const ExplorerScale& e,
                          const BatchScale& b, const DporScale& dsc,
                          const DporScale& dtso, const LockRegionScale& lr,
                          const PointerScale& ptr, bool speedupApplies) {
  service::Json conflict = service::Json::object();
  conflict
      .set("workload",
           "generateRandom(threads=16, sharedVars=64, locks=16, events)")
      .set("pfg_nodes", c.nodes)
      .set("conflict_edges", c.edges)
      .set("reference_seconds", c.refSeconds)
      .set("fast_seconds", c.fastSeconds)
      .set("speedup", c.speedup())
      .set("edges_identical", c.identical);
  service::Json explorer = service::Json::object();
  explorer
      .set("workload", smokeMode() ? "3 threads x 3 non-commutative updates"
                                   : "4 threads x 4 non-commutative updates")
      .set("states", e.states)
      .set("seconds", e.seconds)
      .set("states_per_second", e.statesPerSecond());
  service::Json batch = service::Json::object();
  batch.set("programs", b.programs)
      .set("jobs_1_seconds", b.jobs1Seconds)
      .set("jobs_4_seconds", b.jobs4Seconds)
      .set("speedup", b.speedup())
      .set("speedup_target", "> 1x")
      .set("speedup_target_applies", speedupApplies)
      .set("results_identical", b.identical);
  auto model = [](const DporScale& d) {
    service::Json j = service::Json::object();
    j.set("states_unreduced", d.statesFull)
        .set("states_dpor", d.statesDpor)
        .set("reduction_ratio", d.ratio())
        .set("unreduced_seconds", d.fullSeconds)
        .set("dpor_seconds", d.dporSeconds)
        .set("peak_frontier_bytes_unreduced", d.peakFrontierFull)
        .set("peak_frontier_bytes_dpor", d.peakFrontierDpor)
        .set("pruned_successors", d.pruned)
        .set("dep_queries", d.depQueries)
        .set("results_exact", d.exact);
    return j;
  };
  service::Json dpor = service::Json::object();
  dpor.set("workload",
           "4 threads x 4 statements (3 private counters + shared "
           "non-commutative r)")
      .set("target_ratio", 10.0)
      .set("sc", model(dsc))
      .set("tso", model(dtso));
  service::Json lrSeries = service::Json::array();
  for (const LockRegionPoint& p : lr.points) {
    service::Json point = service::Json::object();
    point.set("k", p.regions)
        .set("pfg_nodes", p.nodes)
        .set("conflict_edges", p.conflictEdges)
        .set("mutex_bodies", p.bodies)
        .set("parse_ms", p.parseSeconds * 1e3)
        .set("mutex_seconds", p.mutexSeconds)
        .set("conflicts_seconds", p.conflictsSeconds)
        .set("pi_seconds", p.piSeconds)
        .set("rewrite_seconds", p.rewriteSeconds)
        .set("csan_seconds", p.csanSeconds)
        .set("tso_seconds", p.tsoSeconds)
        .set("reaching_seconds", p.reachingSeconds)
        .set("vrange_seconds", p.vrangeSeconds)
        .set("cscc_seconds", p.csccSeconds)
        .set("mhp_ns_per_query", p.mhpNsPerQuery())
        .set("allocations", p.allocations)
        .set("allocations_per_node", p.allocationsPerNode());
    lrSeries.push(std::move(point));
  }
  service::Json lockRegions = service::Json::object();
  lockRegions
      .set("workload",
           "3 threads x k x lock(L); x = x + c; unlock(L); lock(M); z = z + "
           "1; unlock(M)")
      .set("hardware_threads", benchutil::hardwareThreads())
      .set("growth_bound_parse", kParseGrowthBound)
      .set("growth_bound_mutex", kMutexGrowthBound)
      .set("growth_bound_conflicts", kConflictsGrowthBound)
      .set("growth_bound_pi", kPiGrowthBound)
      .set("growth_bound_rewrite", kRewriteGrowthBound)
      .set("growth_bound_csan", kCsanGrowthBound)
      .set("growth_bound_tso", kTsoGrowthBound)
      .set("growth_bound_reaching", kReachingGrowthBound)
      .set("growth_bound_vrange", kVrangeGrowthBound)
      .set("growth_bound_cscc", kCsccGrowthBound)
      .set("allocations_per_node_bound", kAllocationsPerNodeBound)
      .set("series", std::move(lrSeries))
      .set("growth_x2_parse", lr.parseGrowth())
      .set("growth_x2_mutex", lr.mutexGrowth())
      .set("growth_x2_conflicts", lr.conflictsGrowth())
      .set("growth_x2_pi", lr.piGrowth())
      .set("growth_x2_rewrite", lr.rewriteGrowth())
      .set("growth_x2_csan", lr.csanGrowth())
      .set("growth_x2_tso", lr.tsoGrowth())
      .set("growth_x2_reaching", lr.reachingGrowth())
      .set("growth_x2_vrange", lr.vrangeGrowth())
      .set("growth_x2_cscc", lr.csccGrowth())
      .set("mhp_identical_to_reference", lr.mhpIdentical())
      .set("within_bounds", lr.withinBounds());
  service::Json ptrSeries = service::Json::array();
  for (const PointerPoint& p : ptr.points) {
    service::Json point = service::Json::object();
    point.set("stmts", p.stmts)
        .set("conflict_edges", p.conflictEdges)
        .set("pi_args", p.piArgs)
        .set("analyze_ms", p.analyzeSeconds * 1e3);
    ptrSeries.push(std::move(point));
  }
  service::Json pointer = service::Json::object();
  pointer
      .set("workload",
           benchutil::fmt("generateRandom(threads=4, stmtsPerThread=s, "
                          "ptrProb=0.15, nondeterminate), %d seeds per point",
                          kPointerSeeds))
      .set("growth_bound_analyze", kPointerGrowthBound)
      .set("series", std::move(ptrSeries))
      .set("growth_x2_analyze", ptr.growth())
      .set("within_bounds", ptr.withinBounds());

  service::Json out = service::Json::object();
  out.set("speedup_min_hardware_threads", kSpeedupMinThreads)
      .set("speedup_targets_apply", speedupApplies)
      .set("smoke", smokeMode())
      .set("conflict_construction", std::move(conflict))
      .set("explorer", std::move(explorer))
      .set("batch_driver", std::move(batch))
      .set("dpor_reduction", std::move(dpor))
      .set("lock_regions", std::move(lockRegions))
      .set("pointer_programs", std::move(pointer));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int hw = benchutil::hardwareThreads();
  // The thread-parallel speedup target only binds where the hardware can
  // deliver it, so its row is a note; the determinism checks bind
  // everywhere.
  const bool canScale = hw >= kSpeedupMinThreads;

  benchutil::Table table("Scale-1: hot-path scaling (ours)");
  const ConflictScale c = runConflictScale();
  const ExplorerScale e = runExplorerScale();
  const BatchScale b = runBatchScale();
  const DporScale dsc = runDporScale(support::MemoryModel::SC);
  const DporScale dtso = runDporScale(support::MemoryModel::TSO);
  const LockRegionScale lr = runLockRegionScale();
  const PointerScale ptr = runPointerScale();

  using benchutil::fmt;
  // A wall-clock speedup: its value, its target and whether it was met.
  auto speedup = [](double value, bool met) {
    return fmt("%.1fx (%s)", value, met ? "met" : "not met");
  };
  table.note("conflict construction speedup (16 thr)", ">= 3x",
             speedup(c.speedup(), c.speedup() >= 3.0));
  table.gate("  conflict edges identical to all-pairs", "1", c.identical,
             c.identical);
  table.note("explorer: states, seconds, states/s", "(reported)",
             fmt("%llu, %.3f s, %.0f",
                 static_cast<unsigned long long>(e.states), e.seconds,
                 e.statesPerSecond()));
  table.note("batch driver speedup, jobs=4 vs 1", "> 1x",
             speedup(b.speedup(), b.speedup() > 1.0));
  table.gate("  per-program results identical", "1", b.identical,
             b.identical);
  // The reduction is algorithmic, so its floor binds on any machine.
  table.gate("dpor state reduction, SC", ">= 10x",
             fmt("%.1fx (%llu -> %llu)", dsc.ratio(),
                 static_cast<unsigned long long>(dsc.statesFull),
                 static_cast<unsigned long long>(dsc.statesDpor)),
             dsc.ratio() >= 10.0);
  table.gate("  SC results exact (contract fields)", "1", dsc.exact,
             dsc.exact);
  table.gate("dpor state reduction, TSO", ">= 10x",
             fmt("%.1fx (%llu -> %llu)", dtso.ratio(),
                 static_cast<unsigned long long>(dtso.statesFull),
                 static_cast<unsigned long long>(dtso.statesDpor)),
             dtso.ratio() >= 10.0);
  table.gate("  TSO results exact (contract fields)", "1", dtso.exact,
             dtso.exact);
  table.note("  TSO peak frontier bytes", "(reported)",
             fmt("%llu -> %llu",
                 static_cast<unsigned long long>(dtso.peakFrontierFull),
                 static_cast<unsigned long long>(dtso.peakFrontierDpor)));
  // A lock-region phase or the pointer pipeline growing faster than its
  // bound is super-linear.
  table.gate("lock regions: parse growth per doubling", "<= 2.5x",
             fmt("%.2fx", lr.parseGrowth()),
             lr.parseGrowth() <= kParseGrowthBound);
  table.gate("  mutex growth per doubling", "<= 2.5x",
             fmt("%.2fx", lr.mutexGrowth()),
             lr.mutexGrowth() <= kMutexGrowthBound);
  table.gate("  conflicts (Ecf) growth per doubling", "<= 2.5x",
             fmt("%.2fx", lr.conflictsGrowth()),
             lr.conflictsGrowth() <= kConflictsGrowthBound);
  table.gate("  cssa-pi growth per doubling", "<= 5x",
             fmt("%.2fx", lr.piGrowth()), lr.piGrowth() <= kPiGrowthBound);
  table.gate("  cssame-rewrite growth per doubling", "<= 5x",
             fmt("%.2fx", lr.rewriteGrowth()),
             lr.rewriteGrowth() <= kRewriteGrowthBound);
  table.gate("  csan growth per doubling", "<= 5x",
             fmt("%.2fx", lr.csanGrowth()),
             lr.csanGrowth() <= kCsanGrowthBound);
  table.gate("  tso growth per doubling", "<= 5x",
             fmt("%.2fx", lr.tsoGrowth()), lr.tsoGrowth() <= kTsoGrowthBound);
  table.gate("  reaching-defs (A.4) growth per doubling", "<= 5x",
             fmt("%.2fx", lr.reachingGrowth()),
             lr.reachingGrowth() <= kReachingGrowthBound);
  table.gate("  vrange (CVRA) growth per doubling", "<= 5x",
             fmt("%.2fx", lr.vrangeGrowth()),
             lr.vrangeGrowth() <= kVrangeGrowthBound);
  table.gate("  cscc growth per doubling", "<= 5x",
             fmt("%.2fx", lr.csccGrowth()),
             lr.csccGrowth() <= kCsccGrowthBound);
  table.gate("  MHP per Ecf pair identical to reference", "1",
             lr.mhpIdentical(), lr.mhpIdentical());
  table.gate("  heap allocations per PFG node (analyze + csan)", "<= 4",
             fmt("%.2f", lr.maxAllocationsPerNode()),
             lr.maxAllocationsPerNode() <= kAllocationsPerNodeBound);
  for (const LockRegionPoint& p : lr.points)
    table.note(fmt("  k=%d: allocations, per node", p.regions), "(reported)",
               fmt("%llu, %.2f", static_cast<unsigned long long>(p.allocations),
                   p.allocationsPerNode()));
  for (const LockRegionPoint& p : lr.points)
    table.note(fmt("  k=%d: parse, MHP, tso, reaching", p.regions),
               "(reported)",
               fmt("%.3f ms, %.2f ns, %.3f ms, %.3f ms", p.parseSeconds * 1e3,
                   p.mhpNsPerQuery(), p.tsoSeconds * 1e3,
                   p.reachingSeconds * 1e3));
  for (const LockRegionPoint& p : lr.points)
    table.note(fmt("  k=%d: vrange, cscc", p.regions), "(reported)",
               fmt("%.3f ms, %.3f ms", p.vrangeSeconds * 1e3,
                   p.csccSeconds * 1e3));
  for (const LockRegionPoint& p : lr.points)
    table.note(fmt("  k=%d: conflicts, cssa-pi", p.regions), "(reported)",
               fmt("%.3f ms, %.3f ms", p.conflictsSeconds * 1e3,
                   p.piSeconds * 1e3));
  table.gate("pointer programs: analyze growth per doubling", "<= 5x",
             fmt("%.2fx", ptr.growth()), ptr.withinBounds());
  for (const PointerPoint& p : ptr.points)
    table.note(fmt("  4 x %d: analyze, final form", p.stmts), "(reported)",
               fmt("%.3f ms, %.0f Ecf, %.0f pi args", p.analyzeSeconds * 1e3,
                   p.conflictEdges, p.piArgs));
  std::printf("  hardware threads: %d%s\n", hw,
              canScale ? "" : " (speedup targets not measurable here)");
  benchutil::writeBenchJson(
      "BENCH_scale.json",
      "Scale-1: hot-path scaling (conflict construction, explorer, batch "
      "driver, DPOR)",
      resultsJson(c, e, b, dsc, dtso, lr, ptr, canScale));
  return table.finish(argc, argv);
}
