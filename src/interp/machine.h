// The interpreter's execution engine, factored out of the seeded runner
// so the exhaustive schedule explorer (explore.h) can drive it too.
//
// A Machine holds the complete dynamic state of one execution: shared
// memory, thread frame stacks, lock owners, event flags, barrier epochs
// and the observable output. It is *copyable*, which is what enables
// depth-first exploration of all schedules — the explorer forks the
// machine at every scheduling choice.
#pragma once

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "src/interp/interp.h"
#include "src/ir/program.h"
#include "src/support/memmodel.h"
#include "src/support/visited.h"

namespace cssame::interp {

/// Pure deterministic stand-in for external functions: an FNV-1a style
/// mix of the callee id and arguments, truncated to friendly ranges.
[[nodiscard]] inline long long externalCall(
    SymbolId callee, const std::vector<long long>& args) {
  std::uint64_t h = 1469598103934665603ull ^ (callee.value() * 0x9e3779b9ull);
  for (long long a : args) {
    h ^= static_cast<std::uint64_t>(a);
    h *= 1099511628211ull;
  }
  return static_cast<long long>(h & 0xffffffull);
}

class Machine {
 public:
  explicit Machine(const ir::Program& prog,
                   support::MemoryModel model = support::MemoryModel::SC)
      : model_(model) {
    // Memory layout: one cell per symbol index first (scalars live in
    // their own slot, so scalar-only programs keep the exact pre-array
    // layout and state hashes), then the cell regions of all arrays.
    // Cell addresses as seen by the program are 1-based: address 0 is
    // null, address k names cell k-1. `&x` therefore evaluates to
    // x.index() + 1 and `&a[i]` to base(a) + (i mod N) + 1.
    vars_.assign(prog.symbols.size(), 0);
    eventSet_.assign(prog.symbols.size(), false);
    lockHolder_.assign(prog.symbols.size(), kNoHolder);
    sharedVar_.assign(prog.symbols.size(), false);
    arraySize_.assign(prog.symbols.size(), 0);
    base_.assign(prog.symbols.size(), 0);
    for (const auto& sym : prog.symbols.all())
      if (sym.kind == ir::SymbolKind::Var && sym.shared)
        sharedVar_[sym.id.index()] = true;
    ownerCell_.resize(prog.symbols.size());
    for (const auto& sym : prog.symbols.all())
      ownerCell_[sym.id.index()] = sym.id;
    for (const auto& sym : prog.symbols.all()) {
      if (sym.kind != ir::SymbolKind::Var || !sym.isArray()) continue;
      arraySize_[sym.id.index()] = sym.arraySize;
      base_[sym.id.index()] = static_cast<std::uint32_t>(vars_.size());
      vars_.resize(vars_.size() + sym.arraySize, 0);
      ownerCell_.resize(vars_.size(), sym.id);
    }
    sharedCell_.assign(vars_.size(), false);
    for (std::size_t c = 0; c < vars_.size(); ++c)
      sharedCell_[c] = sharedVar_[ownerCell_[c].index()];
    Thread main;
    main.frames.push_back(Frame{&prog.body, 0, nullptr});
    main.rootList = &prog.body;
    threads_.push_back(std::move(main));
  }

  /// One scheduler choice: execute the thread's next program step, or
  /// (TSO only) commit the oldest entry of its store buffer to memory.
  /// Under SC every enabled action is a program step, so schedulers
  /// driving readyActions()/perform() behave exactly like the original
  /// readyThreads()/stepThread() pair.
  struct Action {
    std::size_t thread = 0;
    bool flush = false;
  };

  /// Scheduler-visible thread state, for the explorer's partial-order
  /// reduction (it must reason about *why* a thread is blocked to build
  /// necessary-enabling sets). Mirrors the internal status machine.
  enum class Status : std::uint8_t {
    Runnable,
    WaitLock,
    WaitEvent,
    BarrierWait,
    Joining,
    Done,
    /// TSO only: the thread has executed its last statement but still
    /// holds buffered stores; only its flush actions remain, and the
    /// last one retires it to Done. A thread in this state no longer
    /// blocks barriers, but its cobegin join waits for the drain —
    /// other threads may observe memory before the leftover stores
    /// land, exactly like a real core's buffer outliving its thread.
    /// (Listed after Done so SC state hashes keep their pre-TSO values.)
    Draining,
  };

  /// No thread holds the lock.
  static constexpr std::size_t kNoThread = static_cast<std::size_t>(-1);

  /// A buffered (not yet globally visible) store: memory cell (index
  /// into the flat cell vector — for a scalar this equals the symbol
  /// index, so scalar-only TSO hashes match the symbol-keyed era) and
  /// value.
  using BufferedStore = std::pair<std::uint32_t, long long>;

  [[nodiscard]] support::MemoryModel memoryModel() const { return model_; }

  /// True while at least one thread has not finished.
  [[nodiscard]] bool anyAlive() const {
    for (const Thread& t : threads_)
      if (t.status != Status::Done) return true;
    return false;
  }

  /// Indices of threads that can take a step right now. Empty while
  /// anyAlive() means deadlock.
  [[nodiscard]] std::vector<std::size_t> readyThreads() const {
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < threads_.size(); ++i)
      if (threads_[i].status != Status::Done && canProgress(i))
        ready.push_back(i);
    return ready;
  }

  /// Enabled scheduler actions in deterministic (thread-index) order:
  /// each thread's program step if enabled, then its flush action when a
  /// buffered store is waiting. Under SC this is readyThreads() verbatim.
  [[nodiscard]] std::vector<Action> readyActions() const {
    std::vector<Action> ready;
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      if (threads_[i].status != Status::Done && canProgress(i))
        ready.push_back(Action{i, false});
      if (!threads_[i].storeBuf.empty()) ready.push_back(Action{i, true});
    }
    return ready;
  }

  /// Performs one scheduler action (counts as one step either way).
  void perform(Action a) {
    if (a.flush) {
      Thread& t = threads_[a.thread];
      assert(!t.storeBuf.empty());
      const BufferedStore st = t.storeBuf.front();
      t.storeBuf.erase(t.storeBuf.begin());
      vars_[st.first] = st.second;
      if (t.storeBuf.empty() && t.status == Status::Draining)
        t.status = Status::Done;
      ++result_.steps;
      return;
    }
    stepThread(a.thread);
  }

  /// Executes one step of the given (ready) thread, with lock-hold
  /// accounting.
  void stepThread(std::size_t ti) {
    step(ti);
    ++result_.steps;
    for (SymbolId l : threads_[ti].heldLocks)
      ++result_.lockStats[l].holdSteps;
  }

  /// Pending (issued, not yet committed) stores of thread `ti`, oldest
  /// first. Always empty under SC.
  [[nodiscard]] const std::vector<BufferedStore>& storeBufOf(
      std::size_t ti) const {
    return threads_[ti].storeBuf;
  }

  [[nodiscard]] std::size_t threadCount() const { return threads_.size(); }

  /// The statement thread `ti` would execute on its next step, or nullptr
  /// when the thread is blocked, joining or done (its next step is then a
  /// synchronization action, not a variable access). The explorer's
  /// dynamic race detector inspects pending statements of co-enabled
  /// threads.
  [[nodiscard]] const ir::Stmt* pendingStmt(std::size_t ti) const {
    const Thread& t = threads_[ti];
    if (t.status != Status::Runnable || t.frames.empty()) return nullptr;
    const Frame& f = t.frames.back();
    if (f.idx >= f.list->size()) return nullptr;
    return (*f.list)[f.idx].get();
  }

  /// Current value of a symbol's shared-memory cell. The explorer samples
  /// these to build observed value ranges for the CVRA soundness check.
  [[nodiscard]] long long valueOf(SymbolId v) const {
    return vars_[v.index()];
  }

  /// Min/max over the symbol's cells: the scalar slot twice for a
  /// scalar, the cell region's extrema for an array.
  [[nodiscard]] std::pair<long long, long long> valueRangeOf(
      SymbolId v) const {
    const std::uint32_t n = arraySize_[v.index()];
    if (n == 0) {
      const long long x = vars_[v.index()];
      return {x, x};
    }
    long long lo = vars_[base_[v.index()]], hi = lo;
    for (std::uint32_t k = 1; k < n; ++k) {
      const long long x = vars_[base_[v.index()] + k];
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    return {lo, hi};
  }

  /// Dynamic shared-memory accesses of thread `ti`'s pending statement,
  /// as (cell, owning symbol) pairs. Addresses are evaluated in the
  /// thread's current view of memory without executing the statement and
  /// without recording pointer errors — this is the explorer's race
  /// oracle, and an out-of-range address touches no cell. For a
  /// scalar access the cell equals the symbol index, so scalar-only
  /// race detection is unchanged from the symbol-keyed implementation.
  struct PendingAccess {
    std::vector<std::pair<std::uint32_t, SymbolId>> writes;
    std::vector<std::pair<std::uint32_t, SymbolId>> reads;
  };

  [[nodiscard]] PendingAccess pendingAccesses(std::size_t ti) const {
    PendingAccess out;
    const ir::Stmt* s = pendingStmt(ti);
    if (s == nullptr) return out;
    const Thread& t = threads_[ti];
    auto addRead = [&](std::uint32_t cell) {
      if (sharedCell_[cell]) out.reads.emplace_back(cell, ownerCell_[cell]);
    };
    ir::forEachStmtExpr(*s, [&](const ir::Expr& root) {
      ir::forEachExpr(root, [&](const ir::Expr& e) {
        switch (e.kind) {
          case ir::ExprKind::VarRef:
            addRead(static_cast<std::uint32_t>(e.var.index()));
            break;
          case ir::ExprKind::Index:
            addRead(cellOfIndex(e.var, eval(*e.operands[0], t)));
            break;
          case ir::ExprKind::Deref: {
            const long long a = eval(*e.operands[0], t);
            if (a >= 1 && a <= static_cast<long long>(vars_.size()))
              addRead(static_cast<std::uint32_t>(a - 1));
            break;
          }
          default:
            break;
        }
      });
    });
    if (s->kind == ir::StmtKind::Assign) {
      std::uint32_t cell = 0;
      bool have = true;
      switch (s->lhsKind) {
        case ir::LValueKind::Var:
          cell = static_cast<std::uint32_t>(s->lhs.index());
          break;
        case ir::LValueKind::Index:
          cell = cellOfIndex(s->lhs, eval(*s->lhsAddr, t));
          break;
        case ir::LValueKind::Deref: {
          const long long a = eval(*s->lhsAddr, t);
          have = a >= 1 && a <= static_cast<long long>(vars_.size());
          if (have) cell = static_cast<std::uint32_t>(a - 1);
          break;
        }
      }
      if (have && sharedCell_[cell])
        out.writes.emplace_back(cell, ownerCell_[cell]);
    }
    return out;
  }

  /// Locks currently held by thread `ti`.
  [[nodiscard]] const std::vector<SymbolId>& heldLocksOf(
      std::size_t ti) const {
    return threads_[ti].heldLocks;
  }

  // -- Scheduler introspection for the explorer's DPOR layer ---------------

  [[nodiscard]] Status statusOf(std::size_t ti) const {
    return threads_[ti].status;
  }
  /// The lock or event symbol a WaitLock/WaitEvent thread is blocked on.
  [[nodiscard]] SymbolId waitSymOf(std::size_t ti) const {
    return threads_[ti].waitSym;
  }
  [[nodiscard]] const std::vector<std::size_t>& childrenOf(
      std::size_t ti) const {
    return threads_[ti].children;
  }
  [[nodiscard]] const std::vector<std::size_t>& siblingsOf(
      std::size_t ti) const {
    return threads_[ti].siblings;
  }
  [[nodiscard]] std::uint64_t barrierEpochOf(std::size_t ti) const {
    return threads_[ti].barrierEpoch;
  }
  /// Thread currently holding lock `m`, or kNoThread when free.
  [[nodiscard]] std::size_t lockHolderOf(SymbolId m) const {
    return lockHolder_[m.index()];
  }
  /// The statement list thread `ti` was spawned to run (stable pointer
  /// into the program; the main thread reports the program body).
  [[nodiscard]] const ir::StmtList* rootListOf(std::size_t ti) const {
    return threads_[ti].rootList;
  }

  /// Everything the DPOR dependence relation needs to know about one
  /// enabled action, resolved against the current dynamic state:
  ///
  ///  - `global`: the action commutes with nothing (assert halts the
  ///    whole machine; cobegin allocates thread indices, so two spawns
  ///    produce hash-distinct states in either order).
  ///  - `print`: appends to the observable output (print/print pairs are
  ///    order-dependent; print/anything-else commutes).
  ///  - `barrier`: a barrier arrive or release — dependent with barrier
  ///    actions of the same sibling group (arrivals enable releases).
  ///  - `sync`: the lock/event symbol a Lock/Unlock/Set/Wait action (or
  ///    a blocked-acquire resume) touches; two sync actions are
  ///    dependent iff they name the same symbol.
  ///  - `acc`: the dynamically-resolved shared memory cells the step
  ///    reads/writes (a flush action writes its front buffer cell).
  ///  - `loopReads`/`anywhereRead`: symbol-level reads the step may
  ///    additionally perform while unwinding frames — completing the
  ///    last statement of a while body re-evaluates the loop condition,
  ///    which reads memory beyond the pending statement's own accesses.
  ///
  /// Resumes of WaitEvent (events are never cleared) and Joining
  /// (children never leave Done) touch nothing but their own thread
  /// state and unwind reads.
  struct ActionFacts {
    bool global = false;
    bool print = false;
    bool barrier = false;
    bool anywhereRead = false;  ///< unwind may read via a pointer deref
    SymbolId sync;
    PendingAccess acc;
    std::vector<SymbolId> loopReads;  ///< shared symbols unwind may read
  };

  [[nodiscard]] ActionFacts actionFacts(Action a) const {
    ActionFacts f;
    const Thread& t = threads_[a.thread];
    if (a.flush) {
      const BufferedStore& st = t.storeBuf.front();
      f.acc.writes.emplace_back(st.first, ownerCell_[st.first]);
      return f;
    }
    // Any program step may unwind frames, re-evaluating enclosing
    // while-loop conditions; collect their reads at symbol granularity
    // (addresses inside a condition are re-evaluated in post-step
    // memory, so cell-exactness is not available here).
    for (const Frame& fr : t.frames) {
      if (fr.loop == nullptr) continue;
      ir::forEachExpr(*fr.loop->expr, [&](const ir::Expr& e) {
        switch (e.kind) {
          case ir::ExprKind::VarRef:
          case ir::ExprKind::Index:
            if (sharedVar_[e.var.index()]) f.loopReads.push_back(e.var);
            break;
          case ir::ExprKind::Deref:
            f.anywhereRead = true;
            break;
          default:
            break;
        }
      });
    }
    switch (t.status) {
      case Status::WaitLock:
        f.sync = t.waitSym;  // the resume acquires the lock
        return f;
      case Status::WaitEvent:
      case Status::Joining:
        return f;  // pure resume: no shared effect beyond the unwind
      case Status::BarrierWait:
        f.barrier = true;  // the resume releases past the barrier
        return f;
      default:
        break;
    }
    const ir::Stmt* s = pendingStmt(a.thread);
    if (s == nullptr) return f;
    switch (s->kind) {
      case ir::StmtKind::Assert:
      case ir::StmtKind::Cobegin:
        f.global = true;
        return f;
      case ir::StmtKind::Lock:
      case ir::StmtKind::Unlock:
      case ir::StmtKind::Set:
      case ir::StmtKind::Wait:
        f.sync = s->sync;
        return f;
      case ir::StmtKind::Barrier:
        f.barrier = true;
        return f;
      case ir::StmtKind::Fence:
        return f;  // gated on an empty own buffer; no shared effect
      case ir::StmtKind::Print:
        f.print = true;
        break;  // the printed expression's reads still matter
      default:
        break;
    }
    f.acc = pendingAccesses(a.thread);
    return f;
  }

  /// Approximate dynamic-state footprint in bytes, for memory budgets.
  /// Counts the owned containers, not the shared (read-only) program.
  [[nodiscard]] std::uint64_t approxBytes() const {
    std::uint64_t bytes = sizeof(Machine);
    bytes += vars_.capacity() * sizeof(long long);
    bytes += eventSet_.capacity() / 8;
    bytes += lockHolder_.capacity() * sizeof(std::size_t);
    bytes += result_.output.capacity() * sizeof(long long);
    bytes += result_.lockStats.size() * (sizeof(SymbolId) + sizeof(LockStats));
    for (const Thread& t : threads_) {
      bytes += sizeof(Thread);
      bytes += t.frames.capacity() * sizeof(Frame);
      bytes += t.children.capacity() * sizeof(std::size_t);
      bytes += t.siblings.capacity() * sizeof(std::size_t);
      bytes += t.heldLocks.capacity() * sizeof(SymbolId);
      bytes += t.storeBuf.capacity() * sizeof(BufferedStore);
    }
    return bytes;
  }

  [[nodiscard]] const RunResult& result() const { return result_; }
  [[nodiscard]] RunResult takeResult() && { return std::move(result_); }
  void markCompleted() { result_.completed = true; }
  void markDeadlocked() { result_.deadlocked = true; }

  /// 128-bit fingerprint of the full dynamic state (memory, control,
  /// sync, output) for explored-state deduplication: one traversal folded
  /// through two independent mixing functions. Output is included: two
  /// states that differ only in what they already printed must not be
  /// merged. The explorer dedups states by fingerprint only, so a
  /// collision silently prunes a reachable state; 128 bits push the
  /// birthday-bound collision probability below 1e-24 at the default
  /// state budget (docs/ANALYSIS.md).
  [[nodiscard]] support::Hash128 stateHash128() const {
    std::uint64_t h1 = 0xcbf29ce484222325ull;
    std::uint64_t h2 = 0x6c62272e07bb0142ull;
    auto mix = [&h1, &h2](std::uint64_t v) {
      h1 ^= v + 0x9e3779b97f4a7c15ull + (h1 << 6) + (h1 >> 2);
      h2 = (h2 ^ v) * 0xff51afd7ed558ccdull;
      h2 ^= h2 >> 33;
    };
    for (long long v : vars_) mix(static_cast<std::uint64_t>(v));
    for (bool b : eventSet_) mix(b);
    for (std::size_t l : lockHolder_) mix(l);
    for (const Thread& t : threads_) {
      mix(static_cast<std::uint64_t>(t.status));
      mix(t.waitSym.valid() ? t.waitSym.value() : 0xffffu);
      mix(t.barrierEpoch);
      for (const Frame& f : t.frames) {
        mix(reinterpret_cast<std::uintptr_t>(f.list));
        mix(f.idx);
        mix(reinterpret_cast<std::uintptr_t>(f.loop));
      }
      // Buffered stores are part of the state: two TSO states with equal
      // memory but different pending stores diverge later. Empty buffers
      // (always, under SC) contribute nothing, keeping SC hashes
      // bit-identical to the pre-TSO traversal.
      for (const BufferedStore& st : t.storeBuf) {
        mix(st.first);
        mix(static_cast<std::uint64_t>(st.second));
      }
      mix(0x5eedu);
    }
    for (long long v : result_.output) mix(static_cast<std::uint64_t>(v));
    mix(result_.assertFailed);
    // Only mixed when set, so error-free runs (every scalar-only run)
    // hash exactly as before the pointer extension.
    if (result_.ptrError) mix(1);
    return support::Hash128{h1, h2};
  }

 private:
  static constexpr std::size_t kNoHolder = static_cast<std::size_t>(-1);

  struct Frame {
    const ir::StmtList* list = nullptr;
    std::size_t idx = 0;
    /// When this frame is a while-loop body, the loop statement;
    /// reaching the end of the list re-evaluates its condition.
    const ir::Stmt* loop = nullptr;
  };

  struct Thread {
    std::vector<Frame> frames;
    Status status = Status::Runnable;
    /// The statement list this thread was spawned to run (the program
    /// body for the main thread, the cobegin arm's body otherwise).
    /// Points into the shared read-only program; the explorer's DPOR
    /// layer keys static whole-body footprints by it.
    const ir::StmtList* rootList = nullptr;
    SymbolId waitSym;                   ///< lock/event blocked on
    std::vector<std::size_t> children;  ///< indices of spawned threads
    std::vector<SymbolId> heldLocks;
    /// Spawn group (all children of the same cobegin, this thread
    /// included); barrier statements rendezvous within it.
    std::vector<std::size_t> siblings;
    /// Number of barrier episodes this thread has passed.
    std::uint64_t barrierEpoch = 0;
    /// TSO only: FIFO of issued-but-uncommitted stores to shared
    /// variables. The owning thread forwards from it (newest entry for
    /// the variable wins); other threads cannot see it until a flush
    /// action commits the oldest entry. Always empty under SC, and empty
    /// once the thread is Done (sync operations drain it before they
    /// run; a thread finishing its program Drains it via flush actions).
    std::vector<BufferedStore> storeBuf;
  };

  /// TSO store-buffer capacity: a full buffer blocks further plain
  /// shared stores until a flush commits (bounds the state space the
  /// same way real hardware bounds reordering windows).
  static constexpr std::size_t kStoreBufCap = 8;

  /// True when thread `ti`'s next program action must wait for its own
  /// store buffer to drain under TSO: fences, atomic accesses and every
  /// synchronization operation behave like x86 locked instructions, and
  /// a plain shared store needs a free buffer slot.
  [[nodiscard]] bool tsoBlocked(const Thread& t) const {
    if (t.storeBuf.empty()) return false;
    if (t.status != Status::Runnable || t.frames.empty()) return false;
    const Frame& f = t.frames.back();
    if (f.idx >= f.list->size()) return false;
    const ir::Stmt& s = *(*f.list)[f.idx];
    switch (s.kind) {
      case ir::StmtKind::Fence:
      case ir::StmtKind::Lock:
      case ir::StmtKind::Unlock:
      case ir::StmtKind::Set:
      case ir::StmtKind::Wait:
      case ir::StmtKind::Barrier:
      case ir::StmtKind::Cobegin:
        return true;
      case ir::StmtKind::Assign:
        if (s.atomic) return true;
        if (s.lhsKind == ir::LValueKind::Var)
          return sharedVar_[s.lhs.index()] &&
                 t.storeBuf.size() >= kStoreBufCap;
        // Indexed and indirect stores may hit any shared cell, so they
        // conservatively wait for a free buffer slot.
        return t.storeBuf.size() >= kStoreBufCap;
      default:
        return false;
    }
  }

  [[nodiscard]] bool canProgress(std::size_t ti) const {
    const Thread& t = threads_[ti];
    switch (t.status) {
      case Status::Runnable:
        return model_ == support::MemoryModel::SC || !tsoBlocked(t);
      case Status::WaitLock:
        return lockHolder_[t.waitSym.index()] == kNoHolder;
      case Status::WaitEvent:
        return eventSet_[t.waitSym.index()];
      case Status::BarrierWait: {
        // Released once every sibling has arrived at this episode's
        // barrier, already passed it, or finished.
        for (std::size_t s : t.siblings) {
          if (s == ti) continue;
          const Thread& sib = threads_[s];
          if (sib.status == Status::Done || sib.status == Status::Draining)
            continue;
          if (sib.barrierEpoch > t.barrierEpoch) continue;
          if (sib.status == Status::BarrierWait &&
              sib.barrierEpoch == t.barrierEpoch)
            continue;
          return false;
        }
        return true;
      }
      case Status::Joining: {
        for (std::size_t c : t.children)
          if (threads_[c].status != Status::Done) return false;
        return true;
      }
      case Status::Draining:  // only flush actions remain
      case Status::Done:
        return false;
    }
    return false;
  }

  /// Cell of `arr[idx]` under total semantics: the index is reduced
  /// modulo the array size (negative indices wrap), so every indexed
  /// access hits a real cell of its own array.
  [[nodiscard]] std::uint32_t cellOfIndex(SymbolId arr, long long idx) const {
    const std::uint32_t n = arraySize_[arr.index()];
    if (n == 0) return static_cast<std::uint32_t>(arr.index());
    long long m = idx % n;
    if (m < 0) m += n;
    return base_[arr.index()] + static_cast<std::uint32_t>(m);
  }

  /// Load of one cell in thread `t`'s view: under TSO the newest
  /// matching entry of the thread's own store buffer wins before shared
  /// memory.
  [[nodiscard]] long long loadCell(std::uint32_t cell, const Thread& t) const {
    for (auto it = t.storeBuf.rbegin(); it != t.storeBuf.rend(); ++it)
      if (it->first == cell) return it->second;
    return vars_[cell];
  }

  /// Evaluates in thread `t`'s view of memory. Dereferencing an address
  /// outside [1, #cells] is a total operation: the load yields 0 and,
  /// when `err` is non-null, flags the pointer error (null while
  /// peeking, e.g. from pendingAccesses()).
  long long eval(const ir::Expr& e, const Thread& t,
                 bool* err = nullptr) const {
    switch (e.kind) {
      case ir::ExprKind::IntConst:
        return e.intValue;
      case ir::ExprKind::VarRef:
        return loadCell(static_cast<std::uint32_t>(e.var.index()), t);
      case ir::ExprKind::Unary:
        return ir::evalUnOp(e.unop, eval(*e.operands[0], t, err));
      case ir::ExprKind::Binary:
        return ir::evalBinOp(e.binop, eval(*e.operands[0], t, err),
                             eval(*e.operands[1], t, err));
      case ir::ExprKind::Call: {
        std::vector<long long> args;
        args.reserve(e.operands.size());
        for (const auto& a : e.operands) args.push_back(eval(*a, t, err));
        return externalCall(e.callee, args);
      }
      case ir::ExprKind::AddrOf:
        if (e.operands.empty())
          return arraySize_[e.var.index()] == 0
                     ? static_cast<long long>(e.var.index()) + 1
                     : static_cast<long long>(base_[e.var.index()]) + 1;
        return static_cast<long long>(
                   cellOfIndex(e.var, eval(*e.operands[0], t, err))) +
               1;
      case ir::ExprKind::Deref: {
        const long long a = eval(*e.operands[0], t, err);
        if (a < 1 || a > static_cast<long long>(vars_.size())) {
          if (err != nullptr) *err = true;
          return 0;
        }
        return loadCell(static_cast<std::uint32_t>(a - 1), t);
      }
      case ir::ExprKind::Index:
        return loadCell(cellOfIndex(e.var, eval(*e.operands[0], t, err)), t);
    }
    return 0;
  }

  /// eval() in executing (not peeking) position: pointer errors are
  /// recorded on the run result.
  long long evalExec(const ir::Expr& e, const Thread& t) {
    bool err = false;
    const long long v = eval(e, t, &err);
    if (err) result_.ptrError = true;
    return v;
  }

  /// Advances past the current statement, unwinding completed frames and
  /// re-evaluating while-loop conditions.
  void advance(Thread& t) {
    ++t.frames.back().idx;
    unwind(t);
  }

  void unwind(Thread& t) {
    while (!t.frames.empty()) {
      Frame& f = t.frames.back();
      if (f.idx < f.list->size()) return;
      if (f.loop != nullptr && evalExec(*f.loop->expr, t) != 0) {
        f.idx = 0;  // next iteration (loop bodies are never empty here)
        return;
      }
      t.frames.pop_back();
      if (!t.frames.empty()) ++t.frames.back().idx;
    }
    if (t.frames.empty()) {
      // Retiring thread: leftover buffered stores stay in the buffer and
      // commit through ordinary flush actions (FIFO), so another thread
      // can still read the old values after this one's last program step
      // — the store-buffering litmus needs exactly that window. The
      // cobegin join waits for the drain, so Done threads never hold
      // invisible writes.
      t.status =
          t.storeBuf.empty() ? Status::Done : Status::Draining;
    }
  }

  void step(std::size_t ti) {
    Thread& t = threads_[ti];

    // Resolve a blocked state first: the blocking operation completes
    // now.
    if (t.status == Status::WaitLock) {
      assert(lockHolder_[t.waitSym.index()] == kNoHolder);
      lockHolder_[t.waitSym.index()] = ti;
      t.heldLocks.push_back(t.waitSym);
      auto& ls = result_.lockStats[t.waitSym];
      ++ls.acquisitions;
      ++ls.contendedAcquires;
      t.status = Status::Runnable;
      advance(t);
      return;
    }
    if (t.status == Status::WaitEvent) {
      t.status = Status::Runnable;
      advance(t);
      return;
    }
    if (t.status == Status::BarrierWait) {
      ++t.barrierEpoch;
      t.status = Status::Runnable;
      advance(t);
      return;
    }
    if (t.status == Status::Joining) {
      t.status = Status::Runnable;
      advance(t);
      return;
    }

    assert(!t.frames.empty());
    Frame& f = t.frames.back();
    const ir::Stmt& s = *(*f.list)[f.idx];

    switch (s.kind) {
      case ir::StmtKind::Assign: {
        const long long v = evalExec(*s.expr, t);
        // Resolve the target cell. A deref store through an out-of-range
        // address is dropped (total semantics, mirroring loads of 0) and
        // flags the pointer error.
        std::uint32_t cell = 0;
        bool haveCell = true;
        switch (s.lhsKind) {
          case ir::LValueKind::Var:
            cell = static_cast<std::uint32_t>(s.lhs.index());
            break;
          case ir::LValueKind::Index:
            cell = cellOfIndex(s.lhs, evalExec(*s.lhsAddr, t));
            break;
          case ir::LValueKind::Deref: {
            const long long a = evalExec(*s.lhsAddr, t);
            if (a < 1 || a > static_cast<long long>(vars_.size())) {
              result_.ptrError = true;
              haveCell = false;
            } else {
              cell = static_cast<std::uint32_t>(a - 1);
            }
            break;
          }
        }
        // TSO: plain stores to shared memory enter the issuing thread's
        // FIFO buffer and become visible only at a later flush action.
        // Atomic stores (and every SC store) commit immediately;
        // tsoBlocked() already guaranteed an empty buffer for atomics
        // and a free slot for plain stores.
        if (haveCell) {
          if (model_ == support::MemoryModel::TSO && !s.atomic &&
              sharedCell_[cell])
            t.storeBuf.emplace_back(cell, v);
          else
            vars_[cell] = v;
        }
        advance(t);
        return;
      }
      case ir::StmtKind::CallStmt:
        (void)evalExec(*s.expr, t);
        advance(t);
        return;
      case ir::StmtKind::Print:
        result_.output.push_back(evalExec(*s.expr, t));
        advance(t);
        return;
      case ir::StmtKind::Fence:
        // tsoBlocked() gates execution on an empty buffer, so by the time
        // the fence runs it has nothing left to drain.
        advance(t);
        return;
      case ir::StmtKind::Assert:
        if (evalExec(*s.expr, t) == 0) {
          // Trap: the whole machine halts, nothing else executes.
          // Pending buffered stores die with it (Done implies an empty
          // buffer, so no flush actions survive the trap).
          result_.assertFailed = true;
          for (Thread& th : threads_) {
            th.status = Status::Done;
            th.storeBuf.clear();
          }
        } else {
          advance(t);
        }
        return;
      case ir::StmtKind::Lock: {
        if (lockHolder_[s.sync.index()] == kNoHolder) {
          lockHolder_[s.sync.index()] = ti;
          t.heldLocks.push_back(s.sync);
          ++result_.lockStats[s.sync].acquisitions;
          advance(t);
        } else {
          t.status = Status::WaitLock;
          t.waitSym = s.sync;
        }
        return;
      }
      case ir::StmtKind::Unlock: {
        if (lockHolder_[s.sync.index()] != ti) {
          result_.lockError = true;
        } else {
          lockHolder_[s.sync.index()] = kNoHolder;
          std::erase(t.heldLocks, s.sync);
        }
        advance(t);
        return;
      }
      case ir::StmtKind::Set:
        eventSet_[s.sync.index()] = true;
        advance(t);
        return;
      case ir::StmtKind::Wait:
        if (eventSet_[s.sync.index()]) {
          advance(t);
        } else {
          t.status = Status::WaitEvent;
          t.waitSym = s.sync;
        }
        return;
      case ir::StmtKind::Barrier:
        if (t.siblings.size() <= 1) {
          advance(t);  // no partners: a barrier alone is a no-op
        } else {
          t.status = Status::BarrierWait;
        }
        return;
      case ir::StmtKind::If: {
        const bool taken = evalExec(*s.expr, t) != 0;
        const ir::StmtList& body = taken ? s.thenBody : s.elseBody;
        if (body.empty()) {
          advance(t);
        } else {
          t.frames.push_back(Frame{&body, 0, nullptr});
        }
        return;
      }
      case ir::StmtKind::While: {
        if (evalExec(*s.expr, t) != 0) {
          if (!s.thenBody.empty())
            t.frames.push_back(Frame{&s.thenBody, 0, &s});
          // Empty body + true condition: stay put and re-evaluate — a
          // spin-wait burns fuel instead of being skipped.
        } else {
          advance(t);
        }
        return;
      }
      case ir::StmtKind::Cobegin: {
        // threads_.push_back below may reallocate; never touch `t` (a
        // reference into threads_) after the first spawn.
        std::vector<std::size_t> children;
        for (const ir::ThreadBody& tb : s.threads) {
          Thread child;
          child.rootList = &tb.body;
          if (!tb.body.empty())
            child.frames.push_back(Frame{&tb.body, 0, nullptr});
          else
            child.status = Status::Done;
          children.push_back(threads_.size());
          threads_.push_back(std::move(child));
        }
        for (std::size_t c : children) threads_[c].siblings = children;
        threads_[ti].children = std::move(children);
        threads_[ti].status = Status::Joining;
        return;
      }
    }
  }

  support::MemoryModel model_ = support::MemoryModel::SC;
  std::vector<long long> vars_;  ///< flat cells: symbol slots, then arrays
  std::vector<bool> eventSet_;
  std::vector<std::size_t> lockHolder_;
  std::vector<bool> sharedVar_;  ///< per-symbol: shared integer variable
  std::vector<std::uint32_t> arraySize_;  ///< per-symbol: 0 for scalars
  std::vector<std::uint32_t> base_;  ///< per-symbol: first cell of an array
  std::vector<SymbolId> ownerCell_;  ///< per-cell: owning symbol
  std::vector<bool> sharedCell_;     ///< per-cell: owner is shared
  std::vector<Thread> threads_;
  RunResult result_;
};

}  // namespace cssame::interp
