// Lockset machinery for the static concurrency analyzer (csan).
//
// Two complementary views of "which locks protect this point":
//
//   - locksetAt(): the mutex-structure lockset — locks whose *well-formed*
//     mutex bodies (paper Definition 3/4) contain the node. This is the
//     must-hold notion the Section 6 race warnings are defined over; csan
//     uses it for every access-site lockset so its race verdicts agree
//     with (and subsume) the original checks. It is read from the per-node
//     index MutexStructures builds once; hot paths test two nodes for a
//     common lock with MutexStructures::shareLock and build no set.
//
//   - HeldLocks: a forward may/must dataflow of Lock/Unlock effects over
//     the PFG's control edges. Unlike mutex structures it also covers
//     *ill-formed* regions (a lock(L) whose unlock does not post-dominate
//     it still holds L in between), which is exactly what the
//     lock-lifecycle checks need: re-acquiring a lock that may already be
//     held (self-deadlock) and paths that leave the program with a lock
//     held (lock leak).
#pragma once

#include <set>

#include "src/dataflow/heldlocks.h"
#include "src/mutex/mutex_structures.h"
#include "src/pfg/graph.h"

namespace cssame::sanalysis {

/// Locks whose well-formed mutex bodies contain `node` (the node's
/// lockset for race checking).
[[nodiscard]] std::set<SymbolId> locksetAt(
    NodeId node, const mutex::MutexStructures& structures);

/// Forward held-locks dataflow over control edges. Lock(L) adds L at the
/// node's out; Unlock(L) removes it. May = union over predecessors
/// (some path holds the lock), must = intersection (every path does).
/// Now an instance of the generic dataflow framework; re-exported here
/// under its historical name for the csan checks and their tests.
using HeldLocks = dataflow::HeldLocks;

}  // namespace cssame::sanalysis
