// Experiment Tso-1 (ours): precision and soundness of the TSO
// pending-store-window analysis, cross-validated against the schedule
// explorer run under both memory models.
//
// Ground truth for one workload is the SC-vs-TSO explorer diff: the
// program is *TSO-broken* when exhaustive exploration finds behavior
// that exists only with store buffers — a variable entering racedVars
// under MemoryModel::TSO but not under SC (two critical-section
// accesses co-enabled only because entry stores were buffered), or an
// output sequence SC cannot produce. The static verdict is
// sanalysis::runTso reporting at least one reorderable store/load pair.
//
//   true positive  — flagged and TSO-broken (e.g. Peterson, Dekker,
//                    bakery, the store-buffering litmus);
//   false positive — flagged, but complete exploration of both models
//                    found no TSO-only behavior (the pass, like csan,
//                    over-approximates: MHP ignores branch feasibility);
//   false negative — not flagged although TSO races a variable SC never
//                    races, or diverges on an SC-race-free program (the
//                    DRF theorem makes that impossible without a
//                    reordered protocol). A SOUNDNESS BUG: the harness
//                    exits nonzero if any workload lands here.
//   sc-racy amplified — not flagged; already racy under SC and TSO only
//                    widens the output set without racing anything new.
//                    csan's SC race checker owns these, the TSO pass
//                    claims nothing about them.
//   unknown        — an exploration budget tripped; excluded from the
//                    precision/recall tallies.
//
// Fence-repaired protocol variants must be clean in both directions:
// no static finding (including no FenceRedundant on the load-bearing
// fences) and no TSO-only dynamic behavior. Results go to
// BENCH_tso.json for trend tracking.
#include "bench/bench_util.h"
#include "bench/oracle.h"
#include "src/driver/pipeline.h"
#include "src/parser/parser.h"
#include "src/sanalysis/tso.h"
#include "src/support/diag.h"
#include "src/workload/generator.h"

namespace {

using namespace cssame;

struct Tally {
  std::size_t workloads = 0;
  std::size_t truePositives = 0;
  std::size_t falsePositives = 0;
  std::size_t falseNegatives = 0;  ///< soundness violations (must stay 0)
  std::size_t trueNegatives = 0;
  /// Unflagged workloads that are racy under SC already and whose TSO
  /// run only multiplies the output set without racing any new
  /// variable. Their nondeterminism is csan's (SC) race checker's
  /// territory; the TSO pass claims nothing about them, so they count
  /// neither as hits nor as misses.
  std::size_t scRacyAmplified = 0;
  std::size_t unknown = 0;
  std::size_t completeExplorations = 0;
  std::size_t staticFindings = 0;
  std::size_t fenceLintOnRepairs = 0;  ///< load-bearing fences flagged

  [[nodiscard]] double precision() const {
    const std::size_t flagged = truePositives + falsePositives;
    return flagged == 0 ? 1.0
                        : static_cast<double>(truePositives) /
                              static_cast<double>(flagged);
  }
  [[nodiscard]] double recall() const {
    const std::size_t broken = truePositives + falseNegatives;
    return broken == 0 ? 1.0
                       : static_cast<double>(truePositives) /
                             static_cast<double>(broken);
  }
};

/// One workload end to end: the static verdict vs the SC/TSO explorer
/// diff. `isFenceRepair` additionally counts FenceRedundant findings on
/// a protocol whose fences are known load-bearing.
void crossValidate(ir::Program prog, Tally& tally,
                   bool isFenceRepair = false) {
  DiagEngine diag;
  driver::Compilation comp = driver::analyze(prog);
  const sanalysis::TsoReport report = sanalysis::runTso(comp, diag);
  const bool flagged = report.notJustified > 0;

  interp::ExploreOptions opts = benchutil::oracleExplore();
  opts.detectRaces = true;
  const interp::ExploreResult sc = interp::exploreAllSchedules(prog, opts);
  opts.model = support::MemoryModel::TSO;
  const interp::ExploreResult tso = interp::exploreAllSchedules(prog, opts);

  ++tally.workloads;
  tally.staticFindings += report.totalFindings();
  if (isFenceRepair) tally.fenceLintOnRepairs += report.redundantFences;
  if (sc.complete && tso.complete) ++tally.completeExplorations;

  if (!sc.complete || !tso.complete) {
    ++tally.unknown;
    return;
  }
  // Two strengths of SC-vs-TSO divergence. A *new* raced variable means
  // an access ordering the SC protocol excluded is now co-enabled — the
  // pass's exact claim. Output-set growth alone on a program that
  // already races under SC is just the schedule space widening; by the
  // DRF theorem a divergence on an SC-race-free program is impossible
  // without a reordered protocol, so there it stays a soundness miss.
  bool newRace = false;
  for (SymbolId v : tso.racedVars)
    if (!sc.racedVars.contains(v)) newRace = true;
  const bool outputsDiffer = sc.outputs != tso.outputs;
  const bool tsoBroken = newRace || outputsDiffer;

  if (flagged && tsoBroken) ++tally.truePositives;
  else if (flagged) ++tally.falsePositives;
  else if (newRace || (outputsDiffer && sc.racedVars.empty()))
    ++tally.falseNegatives;
  else if (outputsDiffer) ++tally.scRacyAmplified;
  else ++tally.trueNegatives;
}

void protocol(const char* src, Tally& tally, bool isFenceRepair = false) {
  crossValidate(parser::parseOrDie(src), tally, isFenceRepair);
}

/// The hand-written protocol suite: SC-correct mutual exclusion from
/// plain accesses (TSO-broken), its fence repairs (clean under both),
/// and litmus shapes TSO does and does not affect.
void runProtocols(Tally& tally) {
  // Peterson's algorithm: the canonical store->load reordering victim.
  protocol(R"(
    int flag0, flag1, turn, data;
    cobegin {
      thread {
        flag0 = 1; turn = 1;
        while (flag1 == 1 && turn == 1) { }
        data = data + 1; flag0 = 0;
      }
      thread {
        flag1 = 1; turn = 0;
        while (flag0 == 1 && turn == 0) { }
        data = data + 1; flag1 = 0;
      }
    }
    print(data);
  )", tally);
  protocol(R"(
    int flag0, flag1, turn, data;
    cobegin {
      thread {
        flag0 = 1; turn = 1; fence;
        while (flag1 == 1 && turn == 1) { }
        data = data + 1; flag0 = 0;
      }
      thread {
        flag1 = 1; turn = 0; fence;
        while (flag0 == 1 && turn == 0) { }
        data = data + 1; flag1 = 0;
      }
    }
    print(data);
  )", tally, /*isFenceRepair=*/true);

  // Dekker's entry protocol (flags only; livelocking schedules simply
  // never terminate and contribute no outputs).
  protocol(R"(
    int flag0, flag1, data;
    cobegin {
      thread { flag0 = 1; while (flag1 == 1) { } data = data + 1; flag0 = 0; }
      thread { flag1 = 1; while (flag0 == 1) { } data = data + 1; flag1 = 0; }
    }
    print(data);
  )", tally);
  protocol(R"(
    int flag0, flag1, data;
    cobegin {
      thread {
        flag0 = 1; fence;
        while (flag1 == 1) { } data = data + 1; flag0 = 0;
      }
      thread {
        flag1 = 1; fence;
        while (flag0 == 1) { } data = data + 1; flag1 = 0;
      }
    }
    print(data);
  )", tally, /*isFenceRepair=*/true);

  // Two-thread bakery: tickets from plain loads/stores.
  protocol(R"(
    int choosing0, choosing1, num0, num1, data;
    cobegin {
      thread {
        choosing0 = 1; num0 = num1 + 1; choosing0 = 0;
        while (choosing1 == 1) { }
        while (num1 != 0 && num1 < num0) { }
        data = data + 1; num0 = 0;
      }
      thread {
        choosing1 = 1; num1 = num0 + 1; choosing1 = 0;
        while (choosing0 == 1) { }
        while (num0 != 0 && num0 <= num1) { }
        data = data + 1; num1 = 0;
      }
    }
    print(data);
  )", tally);
  protocol(R"(
    int choosing0, choosing1, num0, num1, data;
    cobegin {
      thread {
        choosing0 = 1; fence; num0 = num1 + 1; choosing0 = 0; fence;
        while (choosing1 == 1) { }
        while (num1 != 0 && num1 < num0) { }
        data = data + 1; num0 = 0;
      }
      thread {
        choosing1 = 1; fence; num1 = num0 + 1; choosing1 = 0; fence;
        while (choosing0 == 1) { }
        while (num0 != 0 && num0 <= num1) { }
        data = data + 1; num1 = 0;
      }
    }
    print(data);
  )", tally, /*isFenceRepair=*/true);

  // Store-buffering litmus: r0 == r1 == 0 only under TSO.
  protocol(R"(
    int x, y, r0, r1;
    cobegin {
      thread { x = 1; r0 = y; }
      thread { y = 1; r1 = x; }
    }
    print(r0); print(r1);
  )", tally);
  protocol(R"(
    int x, y, r0, r1;
    cobegin {
      thread { x = 1; fence; r0 = y; }
      thread { y = 1; fence; r1 = x; }
    }
    print(r0); print(r1);
  )", tally, /*isFenceRepair=*/true);

  // Message passing: TSO preserves store->store order, so the flag
  // handshake stays correct without fences — a true-negative shape.
  protocol(R"(
    int data, flag;
    cobegin {
      thread { data = 1; flag = 1; }
      thread { while (flag == 0) { } print(data); }
    }
  )", tally);

  // Locked mutual exclusion: locked operations drain the buffer, the
  // SC verdict stays sound, nothing is flagged.
  protocol(R"(
    int a, b; lock L;
    cobegin {
      thread { lock(L); a = a + 1; b = a; unlock(L); }
      thread { lock(L); b = b + 2; a = b; unlock(L); }
    }
    print(a); print(b);
  )", tally);

  // Atomic flag handshake: atomics bypass the buffer entirely.
  protocol(R"(
    int data, flag;
    cobegin {
      thread { data = 1; atomic_store(flag, 1); }
      thread {
        int seen;
        seen = atomic_load(flag);
        while (seen == 0) { seen = atomic_load(flag); }
        print(data);
      }
    }
  )", tally);
}

/// >= 60 workloads total: the protocol suite plus generated sweeps —
/// racy random programs (some with fences and atomics in the mix),
/// determinate (race-free by construction) programs, and lock-structured
/// programs, all small enough that both explorations usually complete.
Tally runSweep() {
  Tally tally;
  runProtocols(tally);
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.threads = 2;
    cfg.sharedVars = 3;
    cfg.locks = 2;
    cfg.stmtsPerThread = 3;
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;
    cfg.lockedFraction = 0.25 * static_cast<double>(seed % 4);
    cfg.determinate = false;
    cfg.fenceProb = seed % 2 == 0 ? 0.2 : 0.0;
    cfg.atomicFraction = seed % 3 == 0 ? 0.4 : 0.0;
    crossValidate(workload::generateRandom(cfg), tally);
  }
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = 1000 + seed;
    cfg.threads = 2;
    cfg.sharedVars = 2;
    cfg.locks = 1;
    cfg.stmtsPerThread = 4;
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;
    cfg.determinate = true;
    crossValidate(workload::generateRandom(cfg), tally);
  }
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const double lockedFraction = 0.25 * static_cast<double>(seed % 5);
    crossValidate(workload::makeLockStructured(2, 1, 2, lockedFraction, seed),
                  tally);
  }
  return tally;
}

// Timing: the pass alone (pipeline prebuilt) as the program grows — the
// pending-store windows are reachability walks from each store's block,
// so the cost must stay near-linear in program size.
void BM_RunTso(benchmark::State& state) {
  ir::Program prog = workload::makeLockStructured(
      static_cast<int>(state.range(0)), 4, 8, 0.7, 42);
  driver::Compilation comp = driver::analyze(prog);
  for (auto _ : state) {
    DiagEngine diag;
    sanalysis::TsoReport r = sanalysis::runTso(comp, diag);
    benchmark::DoNotOptimize(r.notJustified);
  }
}
BENCHMARK(BM_RunTso)->Arg(2)->Arg(4)->Arg(8);

void BM_ExploreTso(benchmark::State& state) {
  workload::GeneratorConfig cfg;
  cfg.seed = 7;
  cfg.threads = 2;
  cfg.sharedVars = 3;
  cfg.locks = 1;
  cfg.stmtsPerThread = static_cast<int>(state.range(0));
  cfg.maxDepth = 1;
  cfg.loopProb = 0.0;
  cfg.determinate = false;
  const ir::Program prog = workload::generateRandom(cfg);
  interp::ExploreOptions opts = benchutil::oracleExplore();
  opts.model = support::MemoryModel::TSO;
  for (auto _ : state) {
    interp::ExploreResult r = interp::exploreAllSchedules(prog, opts);
    benchmark::DoNotOptimize(r.statesExplored);
  }
}
BENCHMARK(BM_ExploreTso)->Arg(2)->Arg(3)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  benchutil::Table table(
      "Tso-1: TSO static verdicts vs SC/TSO explorer (ours)");
  const Tally t = runSweep();
  table.gate("workloads", ">= 60", t.workloads, t.workloads >= 60,
             "workloads");
  table.gate("complete explorations", "(most)", t.completeExplorations,
             t.completeExplorations * 2 >= t.workloads,
             "complete_explorations");
  table.json().set("static_findings", t.staticFindings);
  table.gate("true positives (TSO-broken, flagged)", ">= 4", t.truePositives,
             t.truePositives >= 4, "true_positives");
  table.note("false positives (over-approximation)", "(few)",
             t.falsePositives, "false_positives");
  table.gate("false negatives (soundness misses)", "0", t.falseNegatives,
             t.falseNegatives == 0, "false_negatives");
  table.gate("true negatives (fences/locks/atomics)", ">= 10",
             t.trueNegatives, t.trueNegatives >= 10, "true_negatives");
  table.note("SC-racy, TSO-amplified (outside claim)", "(some)",
             t.scRacyAmplified, "sc_racy_amplified");
  table.note("unknown (budget tripped)", "(few)", t.unknown, "unknown");
  table.gate("FenceRedundant on load-bearing fences", "0",
             t.fenceLintOnRepairs, t.fenceLintOnRepairs == 0,
             "fence_lint_on_repairs");
  table.json()
      .set("precision", t.precision())
      .set("recall", t.recall());
  std::printf("  precision %.3f, recall %.3f (of decided workloads)\n",
              t.precision(), t.recall());
  benchutil::writeBenchJson("BENCH_tso.json",
                            "tso static verdicts vs SC/TSO explorer",
                            table.json());
  return table.finish(argc, argv);
}
