// Post-run invariant checks over a SimContext (used by the property tests
// and available to embedders as a debugging aid).
#ifndef COOPFS_SRC_SIM_VALIDATION_H_
#define COOPFS_SRC_SIM_VALIDATION_H_

#include "src/common/status.h"
#include "src/sim/context.h"

namespace coopfs {

// Verifies that the server directory and the client caches agree:
//   * every cached block at client c has c in its directory holder set;
//   * every directory holder entry corresponds to a cached block;
//   * no cache exceeds its capacity;
//   * every block a client or server caches has a directory entry and is
//     listed, once, among its file's known blocks;
//   * N-Chance metadata is coherent: a copy that is recirculating or
//     flag-marked singlet really is the only client copy;
//   * each client cache's eviction-class index matches its marks: LRU
//     stamps rise strictly from LRU to MRU, and every class is the LRU list
//     filtered to that class.
// Returns the first violation found.
Status CheckCacheDirectoryConsistency(SimContext& context);

}  // namespace coopfs

#endif  // COOPFS_SRC_SIM_VALIDATION_H_
