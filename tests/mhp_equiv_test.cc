// Equivalence sweep for the memoized MHP/conflict fast path.
//
// The bitset implementation in src/analysis/concurrency.cc promises
// bit-identical results to the original definition-style algorithms
// (thread-path walks, all-pairs sweeps). This test holds it to that: a
// verbatim transcription of the pre-memoization code serves as the
// reference, and >= 100 generated workloads — random programs with and
// without events, lock-structured sweeps, the bank workload, the paper
// figures, hand-written and generated barrier programs — are checked for
//
//   * exact equality of every pairwise query (inConcurrentThreads,
//     orderedBefore, mayHappenInParallel, conflicting, divergenceOf),
//   * exact equality of the emitted Ecf/Emutex/Edsync edge sequences,
//     INCLUDING order — downstream passes (π placement, lockset joins)
//     iterate these in order, so order is part of the contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/analysis/concurrency.h"
#include "src/analysis/dominance.h"
#include "src/ir/expr.h"
#include "src/parser/parser.h"
#include "src/pfg/build.h"
#include "src/support/bitset.h"
#include "src/workload/generator.h"
#include "src/workload/paper_programs.h"

namespace cssame::analysis {
namespace {

// ---------------------------------------------------------------------------
// Reference implementation: a transcription of the original (pre-memoization)
// analysis. Path walks on every query, linear scans over set/wait nodes,
// all-pairs edge sweeps. Deliberately kept dumb and independent of the
// production tables.
// ---------------------------------------------------------------------------

class RefMhp {
 public:
  RefMhp(const pfg::Graph& graph, const Dominators& dom)
      : graph_(graph), dom_(dom) {
    for (const pfg::Node& n : graph.nodes()) {
      if (n.kind == pfg::NodeKind::Set) {
        setNodes_[n.syncStmt->sync].push_back(n.id);
      } else if (n.kind == pfg::NodeKind::Wait) {
        waitNodes_[n.syncStmt->sync].push_back(n.id);
      } else if (n.kind == pfg::NodeKind::Barrier) {
        if (n.threadPath.empty()) continue;
        const pfg::ThreadPathEntry& arm = n.threadPath.back();
        armBarriers_[ArmKey{arm.cobegin, arm.threadIndex}].push_back(n.id);
        const DynBitset& reach = reachableFrom(n.id);
        if (reach.test(n.id.index())) barrierDisabled_.insert(arm.cobegin);
      }
    }
  }

  [[nodiscard]] bool inConcurrentThreads(NodeId a, NodeId b) const {
    const pfg::ThreadPath& pa = graph_.node(a).threadPath;
    const pfg::ThreadPath& pb = graph_.node(b).threadPath;
    const std::size_t common = std::min(pa.size(), pb.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (pa[i].cobegin != pb[i].cobegin) return false;
      if (pa[i].threadIndex != pb[i].threadIndex) return true;
    }
    return false;
  }

  [[nodiscard]] bool conflicting(NodeId a, NodeId b) const {
    return a != b && inConcurrentThreads(a, b);
  }

  [[nodiscard]] bool orderedBefore(NodeId a, NodeId b) const {
    for (const auto& [event, sets] : setNodes_) {
      auto waitsIt = waitNodes_.find(event);
      if (waitsIt == waitNodes_.end()) continue;
      bool aBeforeSet = false;
      for (NodeId s : sets) {
        if (dom_.dominates(a, s)) {
          aBeforeSet = true;
          break;
        }
      }
      if (!aBeforeSet) continue;
      for (NodeId w : waitsIt->second) {
        if (dom_.dominates(w, b)) return true;
      }
    }
    return false;
  }

  struct Divergence {
    StmtId cobegin;
    std::uint32_t armA = 0;
    std::uint32_t armB = 0;
  };

  [[nodiscard]] std::optional<Divergence> divergenceOf(NodeId a,
                                                       NodeId b) const {
    Divergence d;
    if (!divergence(a, b, &d.cobegin, &d.armA, &d.armB)) return std::nullopt;
    return d;
  }

  [[nodiscard]] bool mayHappenInParallel(NodeId a, NodeId b) const {
    if (a == b) return false;
    StmtId cobegin;
    std::uint32_t armA = 0, armB = 0;
    if (!divergence(a, b, &cobegin, &armA, &armB)) return false;
    if (orderedBefore(a, b) || orderedBefore(b, a)) return false;
    if (separatedByBarrier(a, b, cobegin, armA, armB)) return false;
    return true;
  }

  /// Coverage probe: a concurrent pair that only the barrier refinement
  /// keeps apart (set/wait orders it in neither direction).
  [[nodiscard]] bool separatedOnlyByBarrier(NodeId a, NodeId b) const {
    StmtId cobegin;
    std::uint32_t armA = 0, armB = 0;
    if (a == b || !divergence(a, b, &cobegin, &armA, &armB)) return false;
    if (orderedBefore(a, b) || orderedBefore(b, a)) return false;
    return separatedByBarrier(a, b, cobegin, armA, armB);
  }

  /// Coverage probe: cobegins whose barrier refinement is disabled.
  [[nodiscard]] std::size_t disabledCobegins() const {
    return barrierDisabled_.size();
  }

 private:
  struct ArmKey {
    StmtId cobegin;
    std::uint32_t arm;
    bool operator<(const ArmKey& o) const {
      return cobegin.value() != o.cobegin.value()
                 ? cobegin.value() < o.cobegin.value()
                 : arm < o.arm;
    }
  };

  bool divergence(NodeId a, NodeId b, StmtId* cobegin, std::uint32_t* armA,
                  std::uint32_t* armB) const {
    const pfg::ThreadPath& pa = graph_.node(a).threadPath;
    const pfg::ThreadPath& pb = graph_.node(b).threadPath;
    const std::size_t common = std::min(pa.size(), pb.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (pa[i].cobegin != pb[i].cobegin) return false;
      if (pa[i].threadIndex != pb[i].threadIndex) {
        *cobegin = pa[i].cobegin;
        *armA = pa[i].threadIndex;
        *armB = pb[i].threadIndex;
        return true;
      }
    }
    return false;
  }

  bool separatedByBarrier(NodeId a, NodeId b, StmtId cobegin,
                          std::uint32_t armA, std::uint32_t armB) const {
    if (barrierDisabled_.contains(cobegin)) return false;
    auto barriersDominating = [&](NodeId n, std::uint32_t arm) {
      std::size_t count = 0;
      auto it = armBarriers_.find(ArmKey{cobegin, arm});
      if (it == armBarriers_.end()) return count;
      for (NodeId bar : it->second)
        if (dom_.dominates(bar, n)) ++count;
      return count;
    };
    auto barriersReaching = [&](NodeId n, std::uint32_t arm) {
      std::size_t count = 0;
      auto it = armBarriers_.find(ArmKey{cobegin, arm});
      if (it == armBarriers_.end()) return count;
      for (NodeId bar : it->second)
        if (reachableFrom(bar).test(n.index())) ++count;
      return count;
    };
    if (barriersDominating(a, armA) > barriersReaching(b, armB)) return true;
    if (barriersDominating(b, armB) > barriersReaching(a, armA)) return true;
    return false;
  }

  const DynBitset& reachableFrom(NodeId from) const {
    auto it = reachCache_.find(from);
    if (it != reachCache_.end()) return it->second;
    DynBitset reach(graph_.size());
    std::vector<NodeId> work;
    for (NodeId s : graph_.node(from).succs) {
      if (!reach.test(s.index())) {
        reach.set(s.index());
        work.push_back(s);
      }
    }
    while (!work.empty()) {
      const NodeId cur = work.back();
      work.pop_back();
      for (NodeId s : graph_.node(cur).succs) {
        if (!reach.test(s.index())) {
          reach.set(s.index());
          work.push_back(s);
        }
      }
    }
    return reachCache_.emplace(from, std::move(reach)).first->second;
  }

  const pfg::Graph& graph_;
  const Dominators& dom_;
  std::unordered_map<SymbolId, std::vector<NodeId>> setNodes_;
  std::unordered_map<SymbolId, std::vector<NodeId>> waitNodes_;
  std::map<ArmKey, std::vector<NodeId>> armBarriers_;
  std::unordered_set<StmtId> barrierDisabled_;
  mutable std::unordered_map<NodeId, DynBitset> reachCache_;
};

/// Per-node shared accesses, transcribed from the original accessOf().
struct RefNodeAccess {
  std::vector<SymbolId> defs;
  std::vector<SymbolId> uses;
};

void refAddUnique(std::vector<SymbolId>& v, SymbolId s) {
  if (std::find(v.begin(), v.end(), s) == v.end()) v.push_back(s);
}

void refCollectExprUses(const ir::Expr& e, const ir::SymbolTable& syms,
                        std::vector<SymbolId>& uses) {
  ir::forEachExpr(e, [&](const ir::Expr& sub) {
    if (sub.kind == ir::ExprKind::VarRef && syms.isSharedVar(sub.var))
      refAddUnique(uses, sub.var);
  });
}

RefNodeAccess refAccessOf(const pfg::Node& n, const ir::SymbolTable& syms) {
  RefNodeAccess acc;
  for (const ir::Stmt* s : n.stmts) {
    if (s->expr) refCollectExprUses(*s->expr, syms, acc.uses);
    if (s->kind == ir::StmtKind::Assign && syms.isSharedVar(s->lhs))
      refAddUnique(acc.defs, s->lhs);
  }
  if (n.terminator != nullptr && n.terminator->expr)
    refCollectExprUses(*n.terminator->expr, syms, acc.uses);
  return acc;
}

struct RefEdges {
  std::vector<pfg::ConflictEdge> conflicts;
  std::vector<pfg::MutexEdge> mutexEdges;
  std::vector<pfg::DsyncEdge> dsyncEdges;
};

/// The original all-pairs edge construction, verbatim.
RefEdges refComputeEdges(const pfg::Graph& graph, const RefMhp& mhp) {
  RefEdges out;
  const ir::SymbolTable& syms = graph.program().symbols;

  std::vector<RefNodeAccess> access(graph.size());
  for (const pfg::Node& n : graph.nodes())
    if (n.kind == pfg::NodeKind::Block)
      access[n.id.index()] = refAccessOf(n, syms);

  for (const pfg::Node& d : graph.nodes()) {
    for (SymbolId v : access[d.id.index()].defs) {
      for (const pfg::Node& u : graph.nodes()) {
        if (!mhp.conflicting(d.id, u.id)) continue;
        const RefNodeAccess& ua = access[u.id.index()];
        const bool usesV =
            std::find(ua.uses.begin(), ua.uses.end(), v) != ua.uses.end();
        const bool defsV =
            std::find(ua.defs.begin(), ua.defs.end(), v) != ua.defs.end();
        if (usesV)
          out.conflicts.push_back(pfg::ConflictEdge{d.id, u.id, v, false});
        if (defsV)
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
      if (!mhp.inConcurrentThreads(a.id, b.id)) continue;
      out.dsyncEdges.push_back(pfg::DsyncEdge{a.id, b.id, a.syncStmt->sync});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Comparison driver
// ---------------------------------------------------------------------------

using ConflictKey = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                               bool>;

ConflictKey keyOf(const pfg::ConflictEdge& e) {
  return {e.from.value(), e.to.value(), e.var.value(), e.toIsDef};
}

/// What a sweep exercised, for non-vacuity floors.
struct Coverage {
  std::size_t concurrentPairs = 0;   ///< thread paths diverge
  std::size_t barrierOnlyPairs = 0;  ///< separated only by a barrier
  std::size_t orderedPairs = 0;      ///< separated by set/wait
  std::size_t disabledCobegins = 0;  ///< barrier refinement switched off
};

/// Builds the PFG for `prog`, runs both the production fast path and the
/// reference, and asserts exact agreement on every query and edge list.
/// Adds what the program exercised to `coverage` when given.
void checkEquivalence(ir::Program prog, const std::string& label,
                      Coverage* coverage = nullptr) {
  SCOPED_TRACE(label);
  pfg::Graph graph = pfg::buildPfg(prog);
  const Dominators dom(graph, Dominators::Direction::Forward);

  const Mhp mhp(graph, dom);
  const RefMhp ref(graph, dom);

  if (coverage != nullptr) {
    coverage->disabledCobegins += ref.disabledCobegins();
    for (const pfg::Node& a : graph.nodes()) {
      for (const pfg::Node& b : graph.nodes()) {
        if (!ref.conflicting(a.id, b.id)) continue;
        ++coverage->concurrentPairs;
        if (ref.orderedBefore(a.id, b.id) || ref.orderedBefore(b.id, a.id))
          ++coverage->orderedPairs;
        if (ref.separatedOnlyByBarrier(a.id, b.id))
          ++coverage->barrierOnlyPairs;
      }
    }
  }

  // All-pairs query agreement.
  for (const pfg::Node& a : graph.nodes()) {
    for (const pfg::Node& b : graph.nodes()) {
      ASSERT_EQ(mhp.inConcurrentThreads(a.id, b.id),
                ref.inConcurrentThreads(a.id, b.id))
          << "inConcurrentThreads(" << a.id.value() << "," << b.id.value()
          << ")";
      ASSERT_EQ(mhp.orderedBefore(a.id, b.id), ref.orderedBefore(a.id, b.id))
          << "orderedBefore(" << a.id.value() << "," << b.id.value() << ")";
      ASSERT_EQ(mhp.conflicting(a.id, b.id), ref.conflicting(a.id, b.id))
          << "conflicting(" << a.id.value() << "," << b.id.value() << ")";
      ASSERT_EQ(mhp.mayHappenInParallel(a.id, b.id),
                ref.mayHappenInParallel(a.id, b.id))
          << "mayHappenInParallel(" << a.id.value() << "," << b.id.value()
          << ")";
      const auto dNew = mhp.divergenceOf(a.id, b.id);
      const auto dRef = ref.divergenceOf(a.id, b.id);
      ASSERT_EQ(dNew.has_value(), dRef.has_value())
          << "divergenceOf(" << a.id.value() << "," << b.id.value() << ")";
      if (dNew.has_value()) {
        ASSERT_EQ(dNew->cobegin, dRef->cobegin);
        ASSERT_EQ(dNew->armA, dRef->armA);
        ASSERT_EQ(dNew->armB, dRef->armB);
      }
    }
  }

  // Edge-sequence agreement (order included).
  computeConflictEdges(graph, mhp, collectAccessSites(graph));
  const SyncEdges sync = syncEdges(graph, mhp);
  const RefEdges expect = refComputeEdges(graph, ref);

  ASSERT_EQ(graph.conflicts.size(), expect.conflicts.size());
  for (std::size_t i = 0; i < expect.conflicts.size(); ++i)
    ASSERT_EQ(keyOf(graph.conflicts[i]), keyOf(expect.conflicts[i]))
        << "conflict edge " << i;

  ASSERT_EQ(sync.mutex.size(), expect.mutexEdges.size());
  for (std::size_t i = 0; i < expect.mutexEdges.size(); ++i) {
    ASSERT_EQ(sync.mutex[i].lockNode, expect.mutexEdges[i].lockNode)
        << "mutex edge " << i;
    ASSERT_EQ(sync.mutex[i].unlockNode, expect.mutexEdges[i].unlockNode);
    ASSERT_EQ(sync.mutex[i].lockVar, expect.mutexEdges[i].lockVar);
  }

  ASSERT_EQ(sync.dsync.size(), expect.dsyncEdges.size());
  for (std::size_t i = 0; i < expect.dsyncEdges.size(); ++i) {
    ASSERT_EQ(sync.dsync[i].setNode, expect.dsyncEdges[i].setNode)
        << "dsync edge " << i;
    ASSERT_EQ(sync.dsync[i].waitNode, expect.dsyncEdges[i].waitNode);
    ASSERT_EQ(sync.dsync[i].eventVar, expect.dsyncEdges[i].eventVar);
  }
}

TEST(MhpEquivalence, RandomWorkloadSweep) {
  // 60 random programs: varying thread counts, event usage on half the
  // seeds (events exercise the orderedBefore bitsets), both determinate
  // and racy shapes.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.threads = 2 + static_cast<int>(seed % 3);
    cfg.sharedVars = 4;
    cfg.locks = 2;
    cfg.stmtsPerThread = 6 + static_cast<int>(seed % 5);
    cfg.useEvents = (seed % 2) == 0;
    cfg.determinate = (seed % 3) == 0;
    checkEquivalence(workload::generateRandom(cfg),
                     "generateRandom seed=" + std::to_string(seed));
  }
}

TEST(MhpEquivalence, LockStructuredSweep) {
  // 25 lock-structured workloads, including wide (8-thread) shapes that
  // stress the interned-context table.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const int threads = 2 + static_cast<int>(seed % 7);
    const int regions = 1 + static_cast<int>(seed % 3);
    const double lockedFraction = 0.25 * static_cast<double>(seed % 5);
    checkEquivalence(
        workload::makeLockStructured(threads, regions, 4, lockedFraction,
                                     seed),
        "makeLockStructured seed=" + std::to_string(seed));
  }
}

TEST(MhpEquivalence, BankSweep) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    checkEquivalence(workload::makeBank(3, 3, 4, seed),
                     "makeBank seed=" + std::to_string(seed));
}

TEST(MhpEquivalence, PaperFigures) {
  checkEquivalence(parser::parseOrDie(workload::figure1Source()), "figure1");
  checkEquivalence(parser::parseOrDie(workload::figure2Source()), "figure2");
  checkEquivalence(parser::parseOrDie(workload::figure5aSource()), "figure5a");
}

TEST(MhpEquivalence, BarrierPrograms) {
  // Hand-written barrier shapes: the generator never emits barriers, so
  // cover the phase-separation refinement and its loop-disabled escape
  // hatch explicitly.
  checkEquivalence(parser::parseOrDie(R"(
    int a; int b;
    cobegin {
      thread { a = 1; barrier; b = a; }
      thread { b = 2; barrier; a = b; }
    }
  )"),
                   "barrier two-phase");
  checkEquivalence(parser::parseOrDie(R"(
    int a; int b; int c;
    cobegin {
      thread { a = 1; barrier; b = 1; barrier; c = 1; }
      thread { c = 2; barrier; a = 2; barrier; b = 2; }
      thread { b = 3; barrier; c = 3; barrier; a = 3; }
    }
  )"),
                   "barrier three-phase three-thread");
  checkEquivalence(parser::parseOrDie(R"(
    int a; int i;
    cobegin {
      thread { i = 0; while (i < 3) { a = a + 1; barrier; i = i + 1; } }
      thread { i = 0; while (i < 3) { a = a + 2; barrier; i = i + 1; } }
    }
  )"),
                   "barrier in loop (refinement disabled)");
  checkEquivalence(parser::parseOrDie(R"(
    int a; int b; event e;
    cobegin {
      thread { a = 1; barrier; set(e); b = 1; }
      thread { wait(e); b = 2; barrier; a = 2; }
    }
  )"),
                   "barrier plus set/wait");
  checkEquivalence(parser::parseOrDie(R"(
    int a; int b;
    cobegin {
      thread {
        cobegin {
          thread { a = 1; barrier; b = 1; }
          thread { b = 2; barrier; a = 2; }
        }
      }
      thread { a = 3; }
    }
  )"),
                   "barrier in nested cobegin");
  checkEquivalence(parser::parseOrDie(R"(
    int a;
    cobegin {
      thread { if (a > 0) { barrier; } a = 1; }
      thread { barrier; a = 2; }
    }
  )"),
                   "conditional barrier");
}

// ---------------------------------------------------------------------------
// Generated barrier programs
// ---------------------------------------------------------------------------

/// The shape variants of the generated barrier sweep.
enum class BarrierVariant {
  Plain,   ///< straight-line arms, one barrier between phases
  Nested,  ///< the last arm runs an inner cobegin with barriers of its own
  Loop,    ///< one barrier inside a while loop (refinement disabled)
  Branch,  ///< one barrier under an if
  Events,  ///< set/wait pairs across arms next to the barriers
  /// A one-arm cobegin with a barrier runs first: its barrier dominates
  /// every later node, none of which is in its arm.
  Sequence,
};

constexpr BarrierVariant kBarrierVariants[] = {
    BarrierVariant::Plain,  BarrierVariant::Nested, BarrierVariant::Loop,
    BarrierVariant::Branch, BarrierVariant::Events, BarrierVariant::Sequence};

const char* variantName(BarrierVariant v) {
  switch (v) {
    case BarrierVariant::Plain: return "plain";
    case BarrierVariant::Nested: return "nested";
    case BarrierVariant::Loop: return "loop";
    case BarrierVariant::Branch: return "branch";
    case BarrierVariant::Events: return "events";
    case BarrierVariant::Sequence: return "sequence";
  }
  return "?";
}

/// Source of one barrier program: `arms` threads, each running `phases`
/// phases of 1–2 random shared updates separated by barriers, shaped by
/// `variant`; statement choices come from `seed`. One random arm runs
/// fewer phases, so sibling arms can differ in their barrier counts down
/// to none at all.
std::string barrierProgram(int arms, int phases, BarrierVariant variant,
                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  const char* vars[] = {"a", "b", "c"};
  auto updates = [&](const std::string& indent) {
    std::string out;
    for (int s = 0, n = 1 + pick(2); s < n; ++s) {
      const char* v = vars[pick(3)];
      out += indent + v + " = " + vars[pick(3)] + " + " +
             std::to_string(1 + pick(9)) + ";\n";
    }
    return out;
  };
  // The arm and the phase boundary that the Loop / Branch / Events
  // variants decorate.
  const int special = pick(arms);
  const int specialPhase = phases > 1 ? pick(phases - 1) : -1;
  const int shortArm = pick(arms);
  const int shortPhases = 1 + pick(phases);

  std::string src = "int a; int b; int c; int i; event e;\n";
  if (variant == BarrierVariant::Sequence)
    src += "cobegin {\n  thread {\n" + updates("    ") + "    barrier;\n" +
           updates("    ") + "  }\n}\n";
  src += "cobegin {\n";
  for (int t = 0; t < arms; ++t) {
    src += "  thread {\n";
    const bool nestedArm = variant == BarrierVariant::Nested && t == arms - 1;
    if (nestedArm) {
      // An inner cobegin whose barriers rendezvous its own two arms only.
      src += updates("    ");
      src += "    cobegin {\n";
      for (int inner = 0; inner < 2; ++inner) {
        src += "      thread {\n";
        for (int p = 0; p < phases; ++p) {
          src += updates("        ");
          if (p + 1 < phases) src += "        barrier;\n";
        }
        src += "      }\n";
      }
      src += "    }\n";
    }
    const int armPhases = t == shortArm ? shortPhases : phases;
    for (int p = 0; p < armPhases; ++p) {
      src += updates("    ");
      if (variant == BarrierVariant::Events && p == specialPhase) {
        if (t == special) src += "    set(e);\n";
        if (t == (special + 1) % arms) src += "    wait(e);\n";
      }
      if (p + 1 == armPhases) continue;
      const bool decorated = t == special && p == specialPhase;
      if (decorated && variant == BarrierVariant::Loop) {
        src += "    i = 0;\n    while (i < 2) { barrier; i = i + 1; }\n";
      } else if (decorated && variant == BarrierVariant::Branch) {
        src += "    if (a > 0) { barrier; }\n";
      } else {
        src += "    barrier;\n";
      }
    }
    src += "  }\n";
  }
  src += "}\nprint(a);\n";
  return src;
}

TEST(MhpEquivalence, GeneratedBarrierSweep) {
  // 1–4 phases x 2–4 arms x every variant, two seeds each: 144 programs.
  // The hand-written programs above cover six shapes; this sweep holds
  // the barrier phase tables to the reference across all combinations.
  Coverage total;
  std::size_t loopPrograms = 0;
  std::uint64_t seed = 1;
  for (BarrierVariant variant : kBarrierVariants) {
    for (int arms = 2; arms <= 4; ++arms) {
      for (int phases = 1; phases <= 4; ++phases) {
        for (int rep = 0; rep < 2; ++rep, ++seed) {
          const std::string src = barrierProgram(arms, phases, variant, seed);
          const std::string label = std::string(variantName(variant)) +
                                    " arms=" + std::to_string(arms) +
                                    " phases=" + std::to_string(phases) +
                                    " seed=" + std::to_string(seed) + "\n" +
                                    src;
          Coverage one;
          checkEquivalence(parser::parseOrDie(src), label, &one);
          if (HasFatalFailure()) return;
          if (src.find("while") != std::string::npos) {
            ++loopPrograms;
            EXPECT_EQ(one.disabledCobegins, 1u) << label;
          }
          total.concurrentPairs += one.concurrentPairs;
          total.barrierOnlyPairs += one.barrierOnlyPairs;
          total.orderedPairs += one.orderedPairs;
          total.disabledCobegins += one.disabledCobegins;
        }
      }
    }
  }
  // Non-vacuity: the sweep must reach both refinements and the disabled
  // escape hatch, not just the plain divergence table.
  EXPECT_GT(total.concurrentPairs, 10000u);
  EXPECT_GT(total.barrierOnlyPairs, 1000u);
  EXPECT_GT(total.orderedPairs, 0u);
  EXPECT_GT(loopPrograms, 0u);
  EXPECT_GE(total.disabledCobegins, loopPrograms);
}

}  // namespace
}  // namespace cssame::analysis
