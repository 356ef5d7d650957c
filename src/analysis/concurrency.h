// May-happen-in-parallel (MHP) analysis.
//
// Base relation: two nodes may execute concurrently when their thread
// paths first diverge at a common cobegin with different thread indices
// (cobegin forks all threads; coend joins them, so nodes sequentially
// before/after a cobegin never overlap with its threads).
//
// Refinement (Edsync): a guaranteed ordering u ≺ v is established by an
// event e when some Set(e) node s satisfies u DOM s and some Wait(e) node
// w satisfies w DOM v. Then v executes only after w proceeds, which
// requires s to have executed, which requires u to have executed first.
// (If s never executes, w blocks and v never executes, so the ordering
// holds vacuously.) This is a conservative subset of Lee et al.'s
// guaranteed-ordering computation; it only ever *removes* MHP pairs, so
// any imprecision keeps the analysis sound.
//
// Refinement (barriers — extension; the paper lists barrier support as
// future work): a barrier rendezvouses all threads of its enclosing
// cobegin. For sibling arms i and j, node u (arm i) and node v (arm j)
// cannot overlap when the number of arm-i barriers *dominating* u
// exceeds the number of arm-j barriers from which v is *reachable*: u
// runs only after its thread passed k barriers, which requires v's
// thread to have arrived at (and therefore executed everything before)
// its own k-th barrier — but fewer than k barriers can precede v on any
// path, so v has already completed. The refinement is disabled for a
// cobegin whenever one of its barriers sits on a control cycle (a
// barrier inside a loop executes repeatedly, which breaks the "distinct
// barriers reaching v" counting argument).
//
// Query cost: the constructor tabulates everything the queries need
// (docs/PERFORMANCE.md), so every query is a few array reads that neither
// hash nor allocate. The graph interns thread paths into *contexts* — two
// nodes with the same (cobegin, arm) stack share one context — and each
// context pair gets one entry: sequential, concurrent, or concurrent
// subject to the set/wait and barrier refinements, together with the
// divergence point and its level in the thread paths. The set/wait
// ordering facts are per-node bitsets over the ordering events (inline
// for up to 128 events), making orderedBefore one bitset intersection.
// The barrier refinement reads per-node phase counts: for every level of
// a node's thread path, how many barriers of that arm dominate it and
// how many reach it.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "src/analysis/dominance.h"
#include "src/pfg/graph.h"
#include "src/support/bitset.h"

namespace cssame::analysis {

class Mhp {
 public:
  /// `dom` must be the forward dominator tree of `graph`.
  Mhp(const pfg::Graph& graph, const Dominators& dom);

  /// True if the two nodes may execute concurrently.
  [[nodiscard]] bool mayHappenInParallel(NodeId a, NodeId b) const {
    const PairEntry& p = pairOf(a, b);
    if (!p.concurrent) return false;
    if ((p.refine & kRefineOrdering) != 0 &&
        (orderedBefore(a, b) || orderedBefore(b, a)))
      return false;
    if ((p.refine & kRefineBarrier) != 0 && separatedByBarrier(a, b, p.level))
      return false;
    return true;
  }

  /// Conflict relation used for Ecf edges and π placement: thread
  /// divergence WITHOUT the set/wait refinement. A definition in a thread
  /// ordered *before* a use still reaches that use (the ordering makes
  /// the data flow deterministic, it does not remove it), so π arguments
  /// must be kept; dropping them would let constant propagation wrongly
  /// fold the use to the value on the sequential control path. The
  /// ordering-refined mayHappenInParallel remains sound for LICM legality
  /// and data-race reports, where "cannot overlap" is what matters.
  [[nodiscard]] bool conflicting(NodeId a, NodeId b) const {
    return a != b && inConcurrentThreads(a, b);
  }

  /// True if a guaranteed ordering a ≺ b is established by set/wait.
  /// O(events/64) — one bitset intersection over precomputed facts.
  [[nodiscard]] bool orderedBefore(NodeId a, NodeId b) const {
    return orderingEvents_ != 0 &&
           ordSrc_[a.index()].intersects(ordDst_[b.index()]);
  }

  /// True if the thread paths of a and b diverge at a common cobegin
  /// (ignoring set/wait ordering). O(1) via the context-pair table.
  [[nodiscard]] bool inConcurrentThreads(NodeId a, NodeId b) const {
    return pairOf(a, b).concurrent;
  }

  /// The MHP justification for a concurrent pair: the cobegin where the
  /// two thread paths diverge and the sibling arms each node runs in.
  /// csan embeds this in race witness traces.
  struct Divergence {
    StmtId cobegin;
    std::uint32_t armA = 0;
    std::uint32_t armB = 0;
  };

  /// The divergence point of two nodes in concurrent threads, or nullopt
  /// when the nodes share one thread lineage (sequential). O(1).
  [[nodiscard]] std::optional<Divergence> divergenceOf(NodeId a,
                                                       NodeId b) const {
    const PairEntry& p = pairOf(a, b);
    if (!p.concurrent) return std::nullopt;
    return p.divergence;
  }

 private:
  // Refinements a concurrent context pair is still subject to.
  static constexpr std::uint8_t kRefineOrdering = 1;  // set/wait events
  static constexpr std::uint8_t kRefineBarrier = 2;   // barrier phases

  /// One context pair: whether the paths diverge, where, and which
  /// refinements can still separate two of its nodes.
  struct PairEntry {
    Divergence divergence;
    std::uint32_t level = 0;  ///< thread-path index of the divergence
    bool concurrent = false;
    std::uint8_t refine = 0;
  };

  /// Barrier phase counts of one node at one level of its thread path,
  /// over the barriers directly in that level's arm.
  struct BarrierPhase {
    std::uint32_t dominating = 0;  ///< barriers that dominate the node
    std::uint32_t reaching = 0;    ///< barriers the node is reachable from
  };

  [[nodiscard]] const PairEntry& pairOf(NodeId a, NodeId b) const {
    return pairs_[std::size_t{ctxOf_[a.index()]} * contextCount_ +
                  ctxOf_[b.index()]];
  }

  /// Barrier refinement (see the header comment) for two nodes whose
  /// thread paths diverge at `level`: u cannot overlap v when more arm
  /// barriers dominate u than reach v.
  [[nodiscard]] bool separatedByBarrier(NodeId a, NodeId b,
                                        std::uint32_t level) const {
    const BarrierPhase& pa = phases_[phaseBase_[a.index()] + level];
    const BarrierPhase& pb = phases_[phaseBase_[b.index()] + level];
    return pa.dominating > pb.reaching || pb.dominating > pa.reaching;
  }

  /// Builds the interned-context pair table and the per-node set/wait
  /// ordering bitsets and barrier phase counts (called once from the
  /// constructor).
  void buildContextTables(const pfg::Graph& graph);
  void buildOrderingFacts(const pfg::Graph& graph, const Dominators& dom);
  void buildBarrierPhases(const pfg::Graph& graph, const Dominators& dom);

  /// Reference path walk the tables are built from: finds the first
  /// divergence point of two thread paths and its level. Returns false
  /// when the paths share one thread lineage (sequential).
  [[nodiscard]] static bool pathsDiverge(pfg::ThreadPath pa,
                                         pfg::ThreadPath pb, Divergence* d,
                                         std::uint32_t* level);

  // --- query tables (immutable after construction) ---
  // The graph's thread contexts: ctxOf_[node] is the node's context;
  // pairs_[ca * contextCount_ + cb] describes the context pair.
  std::uint32_t contextCount_ = 0;
  std::vector<std::uint32_t> ctxOf_;
  std::vector<PairEntry> pairs_;
  // Set/wait ordering facts over the `orderingEvents_` events that have
  // both a Set and a Wait node: ordSrc_[n] bit e ⟺ n dominates some
  // Set(e); ordDst_[n] bit e ⟺ some Wait(e) dominates n.
  std::size_t orderingEvents_ = 0;
  std::vector<DynBitset> ordSrc_;
  std::vector<DynBitset> ordDst_;
  // Barrier phase counts, only built when some context pair carries
  // kRefineBarrier: node n's thread-path level l is phases_[phaseBase_[n]
  // + l].
  std::vector<std::uint32_t> phaseBase_;
  std::vector<BarrierPhase> phases_;
};

/// Definition and use sites of shared storage at statement granularity;
/// the CSSA π-placement consumes these (one π argument per concurrent
/// definition site). `byNode` is the node-granularity view of the same
/// walk — the shared access index the conflict-edge construction and the
/// lockset engines reuse instead of re-walking statements.
///
/// Both maps are keyed by *alias-class representative* (graph.aliases).
/// Under the identity partition the key is the accessed symbol itself and
/// the index matches the historic symbol-keyed one exactly; for pointer
/// programs a `*p = e` store lands in the class of everything p may point
/// to, and `a[i]` accesses key by the array symbol.
struct AccessSites {
  struct Def {
    ir::Stmt* stmt;  ///< the Assign statement
    NodeId node;
    /// Syntactic lhs symbol (the array for Index stores); invalid for
    /// Deref stores, which name no symbol at the site.
    SymbolId accessedSym{};
    bool viaDeref = false;  ///< `*p = e` store
  };
  struct Use {
    const ir::Expr* ref;  ///< the VarRef / Index / Deref expression
    ir::Stmt* stmt;       ///< statement containing the use
    NodeId node;
    /// Syntactic symbol read (the array for Index loads); invalid for
    /// Deref loads.
    SymbolId accessedSym{};
    bool viaDeref = false;  ///< `*p` load
  };
  std::unordered_map<SymbolId, std::vector<Def>> defs;
  std::unordered_map<SymbolId, std::vector<Use>> uses;

  /// Alias classes each node defines / uses, first-occurrence statement
  /// order, deduplicated. Indexed by NodeId.
  struct NodeAccess {
    std::vector<SymbolId> defs;
    std::vector<SymbolId> uses;
  };
  std::vector<NodeAccess> byNode;
};

/// Populates graph.conflicts (Ecf) from the conflict relation. Conflict
/// edges run from every node defining a shared alias class to every
/// concurrent node using (DU) or defining (DD) it; ConflictEdge::var
/// carries the class representative. Only nodes touching the same class
/// are ever paired (the access index bounds the sweep), and the emitted
/// edge sequence is identical to the all-pairs definition.
void computeConflictEdges(pfg::Graph& graph, const Mhp& mhp,
                          const AccessSites& sites);

/// Definition 1's synchronization edges, Esync = Emutex ∪ Edsync.
struct SyncEdges {
  std::vector<pfg::MutexEdge> mutex;  ///< Lock(L) ↔ concurrent Unlock(L)
  std::vector<pfg::DsyncEdge> dsync;  ///< Set(e) → Wait(e), other thread
};

/// Derives Esync from the MHP relation: lock nodes in id order, each with
/// its same-lock unlocks in id order, then set and wait nodes the same
/// way. No analysis reads these edges (mutex bodies come from dominance,
/// Algorithm A.1), so the pipeline never builds them; only `--dump-pfg`
/// asks. Reads the graph and the MHP tables only, so it is safe on a
/// Compilation that concurrent requests share.
[[nodiscard]] SyncEdges syncEdges(const pfg::Graph& graph, const Mhp& mhp);

/// Collects per-alias-class access sites over the whole graph, consulting
/// graph.aliases for the class of each direct, indexed or pointer access.
[[nodiscard]] AccessSites collectAccessSites(const pfg::Graph& graph);

}  // namespace cssame::analysis
