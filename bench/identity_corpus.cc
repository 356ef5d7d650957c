// Writes the identity corpus: the fixed set of programs over which
// bench/identity_compare.py runs two builds of cssamec and cssamed and
// compares their output byte for byte.
//
//   identity_corpus OUT_DIR EXAMPLES_DIR [--slice=ctest]
//
// OUT_DIR receives one .cp file per program and manifest.tsv, one line
// per program: the file name, a tab, and its tags, comma-separated
// (possibly none):
//   small     one --explore or --fix run takes well under 0.5 s, so the
//             harness adds both modes;
//   huge-pfg  --dump-pfg prints tens of MB, so the harness skips it.
//
// The full corpus:
//   - EXAMPLES_DIR/*.cp (examples/programs) and Figures 1, 2 and 5a;
//   - lock regions (workload::lockRegionSource, 3 threads) at k = 2, 16,
//     80 and 160;
//   - production-shape 4 x 24 generateRandom programs in five families,
//     each determinate and not: plain, ptrProb 0.15, arrayProb 0.15,
//     events with fenceProb 0.1, and atomics with fences;
//   - optimize-shaped 4 x 20 determinate programs;
//   - lock-structured programs and bank programs;
//   - small racy 2 x 3 programs, the shape service_mix explores and fixes;
//   - barrier programs and set/wait programs whose threads update one
//     variable under different locks: the context pairs that the barrier
//     and set/wait refinements of MHP apply to.
// The ctest slice is the examples, the figures, lock regions at k = 2
// and 16, and one barrier and one set/wait program. Every program is a
// pure function of this file, so two builds compared over one written
// corpus see the same bytes.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/ir/printer.h"
#include "src/workload/generator.h"
#include "src/workload/paper_programs.h"

namespace {

namespace fs = std::filesystem;
using namespace cssame;

class CorpusWriter {
 public:
  explicit CorpusWriter(fs::path dir) : dir_(std::move(dir)) {
    fs::create_directories(dir_);
    manifest_.open(dir_ / "manifest.tsv");
  }

  void add(const std::string& name, const std::string& source,
           const char* tags = "") {
    std::ofstream(dir_ / name) << source;
    manifest_ << name << '\t' << tags << '\n';
    ++programs_;
  }

  void addRandom(const std::string& name, const workload::GeneratorConfig& cfg,
                 const char* tags = "") {
    add(name, ir::printProgram(workload::generateRandom(cfg)), tags);
  }

  [[nodiscard]] int programs() const { return programs_; }

 private:
  fs::path dir_;
  std::ofstream manifest_;
  int programs_ = 0;
};

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The production shape of service_mix's csan-miss class (4 x 24), in
/// family `family` of five.
workload::GeneratorConfig productionShape(int family, bool determinate,
                                          std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.threads = 4;
  cfg.stmtsPerThread = 24;
  cfg.determinate = determinate;
  switch (family) {
    case 1: cfg.ptrProb = 0.15; break;
    case 2: cfg.arrayProb = 0.15; break;
    case 3:
      cfg.useEvents = true;
      cfg.fenceProb = 0.1;
      break;
    case 4:
      cfg.atomicFraction = 0.3;
      cfg.fenceProb = 0.1;
      break;
    default: break;
  }
  return cfg;
}

/// `threads` threads over `phases` barrier phases. In each phase a
/// thread adds to x under L or M, alternating by thread and phase, then
/// copies x to y or reads y into z without a lock.
std::string barrierSource(int threads, int phases) {
  std::string s = "int x, y, z;\nlock L, M;\ncobegin {\n";
  for (int t = 0; t < threads; ++t) {
    s += "  thread {";
    for (int p = 0; p < phases; ++p) {
      if (p > 0) s += " barrier;";
      const std::string lock = (t + p) % 2 == 0 ? "L" : "M";
      s += " lock(" + lock + "); x = x + " + std::to_string(t + 1) +
           "; unlock(" + lock + ");";
      s += (t + p) % 3 == 0 ? " y = x;"
                            : " z = y + " + std::to_string(p) + ";";
    }
    s += " }\n";
  }
  return s + "}\nprint(x); print(y); print(z);\n";
}

/// A set/wait chain of `threads` threads: thread t waits for thread
/// t - 1's event, adds to x under L or M by parity `rounds` times, sets
/// its own event halfway, and updates y without a lock. Neighbours are
/// ordered by their event; threads two apart are not.
std::string eventChainSource(int threads, int rounds) {
  std::string s = "int x, y;\nlock L, M;\nevent";
  for (int t = 0; t < threads; ++t)
    s += (t == 0 ? " e" : ", e") + std::to_string(t);
  s += ";\ncobegin {\n";
  for (int t = 0; t < threads; ++t) {
    const std::string lock = t % 2 == 0 ? "L" : "M";
    s += "  thread {";
    if (t > 0) s += " wait(e" + std::to_string(t - 1) + ");";
    for (int r = 0; r < rounds; ++r) {
      if (r == rounds / 2) s += " set(e" + std::to_string(t) + ");";
      s += " lock(" + lock + "); x = x + " + std::to_string(t + r + 1) +
           "; unlock(" + lock + ");";
    }
    s += " y = y + x; }\n";
  }
  return s + "}\nprint(x); print(y);\n";
}

void writeFull(CorpusWriter& w) {
  const char* families[] = {"plain", "ptr", "array", "events", "atomics"};
  for (int f = 0; f < 5; ++f)
    for (bool det : {true, false})
      for (int i = 1; i <= 10; ++i)
        w.addRandom(std::string("prod_") + families[f] +
                        (det ? "_det_" : "_nondet_") + std::to_string(i) +
                        ".cp",
                    productionShape(f, det, 1000u * (f + 1) + i));

  for (int i = 1; i <= 20; ++i) {
    workload::GeneratorConfig cfg;
    cfg.seed = 7000u + i;
    cfg.threads = 4;
    cfg.stmtsPerThread = 20;
    cfg.determinate = true;
    w.addRandom("optimize_" + std::to_string(i) + ".cp", cfg);
  }

  for (int i = 1; i <= 20; ++i)
    w.add("lockstruct_" + std::to_string(i) + ".cp",
          ir::printProgram(workload::makeLockStructured(
              2 + i % 3, 2 + i % 4, 2 + i % 2, 0.5 + 0.1 * (i % 5),
              8000u + i)));

  for (int i = 1; i <= 10; ++i)
    w.add("bank_" + std::to_string(i) + ".cp",
          ir::printProgram(
              workload::makeBank(2 + i % 3, 2 + i % 2, 3 + i % 3, 9000u + i)),
          "small");

  for (int i = 1; i <= 20; ++i) {
    workload::GeneratorConfig cfg;
    cfg.seed = 9500u + i;
    cfg.threads = 2;
    cfg.sharedVars = 2;
    cfg.locks = 1;
    cfg.stmtsPerThread = 3;
    cfg.maxDepth = 1;
    cfg.branchProb = 0;
    cfg.loopProb = 0;
    cfg.lockedFraction = 0.3;
    cfg.determinate = false;
    w.addRandom("small_" + std::to_string(i) + ".cp", cfg, "small");
  }

  // The ctest slice holds barrier_2x3 and events_3x2. Up to 12 thread
  // phases, or 3 threads of events, one --explore takes under 0.1 s.
  for (int threads : {2, 3, 4})
    for (int phases : {3, 6})
      if (threads != 2 || phases != 3)
        w.add("barrier_" + std::to_string(threads) + "x" +
                  std::to_string(phases) + ".cp",
              barrierSource(threads, phases),
              threads * phases <= 12 ? "small" : "");
  for (int threads : {3, 4})
    for (int rounds : {2, 4})
      if (threads != 3 || rounds != 2)
        w.add("events_" + std::to_string(threads) + "x" +
                  std::to_string(rounds) + ".cp",
              eventChainSource(threads, rounds), threads == 3 ? "small" : "");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || argc > 4 ||
      (argc == 4 && std::string(argv[3]) != "--slice=ctest")) {
    std::fprintf(stderr,
                 "usage: identity_corpus OUT_DIR EXAMPLES_DIR "
                 "[--slice=ctest]\n");
    return 2;
  }
  const bool full = argc == 3;
  CorpusWriter w(argv[1]);

  std::vector<fs::path> examples;
  for (const fs::directory_entry& e : fs::directory_iterator(argv[2]))
    if (e.path().extension() == ".cp") examples.push_back(e.path());
  std::sort(examples.begin(), examples.end());
  if (examples.empty()) {
    std::fprintf(stderr, "identity_corpus: no .cp files in %s\n", argv[2]);
    return 2;
  }
  for (const fs::path& p : examples)
    w.add("example_" + p.filename().string(), readFile(p), "small");

  w.add("fig1.cp", workload::figure1Source(), "small");
  w.add("fig2.cp", workload::figure2Source(), "small");
  w.add("fig5a.cp", workload::figure5aSource(), "small");

  w.add("lockregion_k2.cp", workload::lockRegionSource(3, 2), "small");
  w.add("lockregion_k16.cp", workload::lockRegionSource(3, 16));
  w.add("barrier_2x3.cp", barrierSource(2, 3), "small");
  w.add("events_3x2.cp", eventChainSource(3, 2), "small");
  if (full) {
    w.add("lockregion_k80.cp", workload::lockRegionSource(3, 80));
    w.add("lockregion_k160.cp", workload::lockRegionSource(3, 160),
          "huge-pfg");
    writeFull(w);
  }
  std::printf("identity_corpus: %d programs in %s\n", w.programs(), argv[1]);
  return 0;
}
