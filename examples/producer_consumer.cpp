// Producer/consumer with event ordering + mutual exclusion: demonstrates
// that the analysis understands both synchronization kinds at once.
// The producer fills a buffer, posts event `ready`; the consumer waits,
// then drains under the same lock. The set/wait ordering lets the MHP
// analysis drop conflict edges (the consumer's reads can only see the
// producer's writes), and CSSAME trims the π terms that remain.
//
//   $ ./producer_consumer
#include <cstdio>

#include "src/cssa/form_printer.h"
#include "src/driver/pipeline.h"
#include "src/interp/interp.h"
#include "src/ir/printer.h"
#include "src/opt/optimize.h"
#include "src/parser/parser.h"

using namespace cssame;

namespace {

const char* kSource = R"(
int buf0, buf1, produced, consumed;
lock L;
event ready;

cobegin {
  thread producer {
    lock(L);
    buf0 = 11;
    buf1 = 22;
    produced = 2;
    unlock(L);
    set(ready);
  }
  thread consumer {
    int sum;
    wait(ready);
    lock(L);
    sum = buf0 + buf1;
    consumed = produced;
    unlock(L);
    print(sum);
  }
}
print(produced);
print(consumed);
)";

}  // namespace

int main() {
  ir::Program prog = parser::parseOrDie(kSource);
  std::printf("=== Source ===\n%s\n", ir::printProgram(prog).c_str());

  driver::Compilation c = driver::analyze(prog);
  std::printf("=== Analysis ===\n");
  // The pipeline stores no Esync; derive it, as --dump-pfg does.
  const analysis::SyncEdges sync = analysis::syncEdges(c.graph(), c.mhp());
  std::printf("conflict edges:  %zu\n", c.graph().conflicts.size());
  std::printf("dsync edges:     %zu (set/wait pairs)\n", sync.dsync.size());
  std::printf("mutex edges:     %zu\n", sync.mutex.size());
  std::printf("pi terms:        %zu after CSSAME\n",
              c.ssa().countLivePis());
  for (const auto& d : c.diag().diagnostics())
    std::printf("  %s\n", d.str().c_str());

  std::printf("\n=== CSSAME form ===\n%s\n",
              cssa::printForm(c.graph(), c.ssa()).c_str());

  // The wait(ready) ordering makes the consumer's reads see exactly the
  // producer's writes, so constants flow across threads.
  opt::OptimizeReport report = opt::optimizeProgram(prog);
  std::printf("=== Optimized ===\n%s\n", ir::printProgram(prog).c_str());
  std::printf("(constants folded: %zu uses; dead statements removed: %zu)\n\n",
              report.constProp.usesReplaced, report.deadCode.stmtsRemoved);

  std::printf("=== Execution ===\n");
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    interp::RunResult r = interp::run(prog, {.seed = seed});
    std::printf("seed %llu:", static_cast<unsigned long long>(seed));
    for (long long v : r.output) std::printf(" %lld", v);
    std::printf("%s\n", r.completed ? "" : "  [did not complete]");
  }
  return 0;
}
