// Experiment Fig. 5a: parallel dead code elimination after constant
// propagation. The paper removes all assignments to `a` in T0 but keeps
// `b = 8` (T1 reads b through the surviving π) — a sequential DCE would
// wrongly kill it. Our CSCC is one step stronger than the paper's
// (x0 = 13 propagates into print(x)), so the x store dies here too.
#include "bench/bench_util.h"
#include "src/interp/interp.h"
#include "src/ir/printer.h"
#include "src/opt/cscc.h"
#include "src/opt/pdce.h"
#include "src/parser/parser.h"
#include "src/workload/paper_programs.h"

namespace {

using namespace cssame;

struct Result {
  opt::DceStats stats;
  bool keptB = false;
  bool removedADefs = false;
  bool outputsPreserved = false;
};

Result measure() {
  ir::Program prog = parser::parseOrDie(workload::figure2Source());
  {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    opt::propagateConstants(c);
  }
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  Result r;
  r.stats = opt::eliminateDeadCode(c);
  const std::string text = ir::printProgram(prog);
  r.keptB = text.find("b = 8") != std::string::npos;
  r.removedADefs = text.find("a = 5") == std::string::npos &&
                   text.find("a = a + b") == std::string::npos;
  r.outputsPreserved = true;
  for (const interp::RunResult& run : interp::runManySeeds(prog, 10)) {
    r.outputsPreserved &= run.completed && run.output.size() == 2 &&
                          run.output[0] == 13 &&
                          (run.output[1] == 6 || run.output[1] == 14);
  }
  return r;
}

void BM_Fig5a_Pdce(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    ir::Program prog = parser::parseOrDie(workload::figure2Source());
    {
      driver::Compilation c = driver::analyze(prog, {.warnings = false});
      opt::propagateConstants(c);
    }
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    state.ResumeTiming();
    benchmark::DoNotOptimize(opt::eliminateDeadCode(c).stmtsRemoved);
  }
}
BENCHMARK(BM_Fig5a_Pdce);

}  // namespace

int main(int argc, char** argv) {
  const Result r = measure();

  benchutil::Table table("Figure 5a: parallel dead code elimination");
  table.gate("dead statements removed", ">= 3", r.stats.stmtsRemoved,
             r.stats.stmtsRemoved >= 3);
  table.gate("kept `b = 8` (live in T1 via pi)", "yes",
             r.keptB ? "yes" : "no", r.keptB);
  table.gate("removed all `a` defs in T0", "yes",
             r.removedADefs ? "yes" : "no", r.removedADefs);
  table.gate("program outputs preserved (10 seeds)", "yes",
             r.outputsPreserved ? "yes" : "no", r.outputsPreserved);
  return table.finish(argc, argv);
}
