// Experiment Ver-1 (ours): cost of exhaustive schedule exploration — the
// verification substrate behind the refinement test suite. Shows the
// expected exponential growth in thread count and the dampening effect
// of locks (serialization collapses interleavings).
#include "bench/bench_util.h"
#include "src/interp/explore.h"
#include "src/ir/builder.h"
#include "src/support/budget.h"

namespace {

using namespace cssame;

/// N threads, each performing `stmts` independent shared increments,
/// optionally under one lock.
ir::Program makeRacy(int threads, int stmts, bool locked) {
  ir::ProgramBuilder b;
  const SymbolId v = b.var("v");
  const SymbolId L = b.lock("L");
  std::vector<ir::ProgramBuilder::BodyFn> bodies;
  for (int t = 0; t < threads; ++t) {
    bodies.push_back([&b, v, L, stmts, locked] {
      for (int s = 0; s < stmts; ++s) {
        if (locked) b.lockStmt(L);
        b.assign(v, b.add(b.ref(v), b.lit(1)));
        if (locked) b.unlockStmt(L);
      }
    });
  }
  b.cobegin(bodies);
  b.print(b.ref(v));
  return b.take();
}

void BM_Explore_Unlocked(benchmark::State& state) {
  ir::Program prog = makeRacy(static_cast<int>(state.range(0)), 2, false);
  for (auto _ : state) {
    interp::ExploreResult r = interp::exploreAllSchedules(prog);
    benchmark::DoNotOptimize(r.statesExplored);
  }
  interp::ExploreResult r = interp::exploreAllSchedules(prog);
  state.counters["states"] = static_cast<double>(r.statesExplored);
  state.counters["outputs"] = static_cast<double>(r.outputs.size());
}
BENCHMARK(BM_Explore_Unlocked)->Arg(2)->Arg(3)->Arg(4);

void BM_Explore_Locked(benchmark::State& state) {
  ir::Program prog = makeRacy(static_cast<int>(state.range(0)), 2, true);
  for (auto _ : state) {
    interp::ExploreResult r = interp::exploreAllSchedules(prog);
    benchmark::DoNotOptimize(r.statesExplored);
  }
  interp::ExploreResult r = interp::exploreAllSchedules(prog);
  state.counters["states"] = static_cast<double>(r.statesExplored);
  state.counters["outputs"] = static_cast<double>(r.outputs.size());
}
BENCHMARK(BM_Explore_Locked)->Arg(2)->Arg(3)->Arg(4);

// Budget-bounded exploration: the cost of giving up gracefully. A state
// cap turns the exponential search into a fixed-size prefix walk; the
// result still reports how far it got and which budget tripped.
void BM_Explore_StateBudget(benchmark::State& state) {
  ir::Program prog = makeRacy(4, 3, false);
  interp::ExploreOptions opts;
  opts.maxStates = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    interp::ExploreResult r = interp::exploreAllSchedules(prog, opts);
    benchmark::DoNotOptimize(r.statesExplored);
  }
  interp::ExploreResult r = interp::exploreAllSchedules(prog, opts);
  state.counters["states"] = static_cast<double>(r.statesExplored);
  state.counters["complete"] = r.complete ? 1.0 : 0.0;
  state.counters["tripped"] =
      r.budgetExceeded == support::BudgetKind::None ? 0.0 : 1.0;
}
BENCHMARK(BM_Explore_StateBudget)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace

int main(int argc, char** argv) {
  benchutil::Table table("Ver-1: exhaustive schedule exploration (ours)");
  // Statement-atomic increments never lose updates, so even the racy
  // version is deterministic in its final value; what differs is the
  // state-space size the explorer must cover.
  {
    ir::Program prog = makeRacy(3, 2, false);
    interp::ExploreResult r = interp::exploreAllSchedules(prog);
    table.gate("states, 3 threads x 2 increments, unlocked", "(baseline)",
               r.statesExplored, r.complete);
    table.gate("distinct outputs (atomic increments)", "1",
               r.outputs.size(), r.outputs.size() == 1);
  }
  {
    // Locking ADDS state dimensions (holder, waiter status), so the
    // deduplicated state count grows even though the behavior set does
    // not — the explorer must still complete.
    ir::Program prog = makeRacy(3, 2, true);
    interp::ExploreResult r = interp::exploreAllSchedules(prog);
    table.gate("states, same but locked", "(complete)", r.statesExplored,
               r.complete);
    table.gate("distinct outputs", "1", r.outputs.size(),
               r.outputs.size() == 1);
  }
  {
    // Budgeted run on a search too large to finish: must stop at the cap
    // and name the tripped budget instead of churning forever.
    ir::Program prog = makeRacy(4, 3, false);
    interp::ExploreOptions opts;
    opts.maxStates = 128;
    interp::ExploreResult r = interp::exploreAllSchedules(prog, opts);
    table.gate("states under a 128-state budget", "<= 129", r.statesExplored,
               r.statesExplored <= 129 &&
                   r.budgetExceeded == support::BudgetKind::States);
    std::printf("  tripped budget: %s (complete=%d)\n",
                support::budgetKindName(r.budgetExceeded), r.complete);
  }
  return table.finish(argc, argv);
}
