// The steps the balancer, evacuation and the night shift share to move one
// process: the Section 7 check, the leased pick, and core::Migrate with its
// bookkeeping. (The reaper's Revive and the night shift's kLoadOnly walk pick
// by rules of their own.)

#ifndef PMIG_SRC_APPS_COORDINATOR_H_
#define PMIG_SRC_APPS_COORDINATOR_H_

#include <string>

#include "src/apps/placement.h"
#include "src/apps/recovery.h"
#include "src/core/tools.h"
#include "src/kernel/kernel.h"
#include "src/net/network.h"

namespace pmig::apps {

// Section 7: a process that has children (they would be orphaned) or holds a
// pipe or socket (it would be severed) cannot migrate.
bool Section7Movable(kernel::Kernel& host, const kernel::Proc& p);

// A migration target and, when it was leased, the placement lease won on it.
struct LeasedTarget {
  std::string host;      // "" when nothing qualified or every pick was contended
  PlacementLease lease;  // held only when the pick was leased
};

// Turns the pick `target` (already made for `query`, "" for none) into a
// migration target. With `lease_targets`, the target's placement lease must
// also be won: a target whose lease another coordinator holds is excluded,
// counted in *conflicts, and the query re-run — so concurrent coordinators
// spread across targets instead of dog-piling the one idlest host.
LeasedTarget LeasePick(kernel::SyscallApi& api, net::Network& net,
                       const PlacementEngine& engine, PlacementQuery query,
                       std::string target, bool lease_targets, int* conflicts);

// Migrates `pid` from `from_host` to `target.host`, then does the
// coordinator's bookkeeping: releases the target's lease, attaches the outcome
// to the decision log's record of the pick, and notes a committed move in
// `index` (when non-null). Returns core::Migrate's exit status.
int MigrateToTarget(kernel::SyscallApi& api, net::Network& net, int32_t pid,
                    const std::string& from_host, const LeasedTarget& target,
                    bool use_daemon, const core::MigrateOptions& opts,
                    ClusterIndex* index);

}  // namespace pmig::apps

#endif  // PMIG_SRC_APPS_COORDINATOR_H_
