#include "src/apps/coordinator.h"

#include "src/apps/cluster_index.h"
#include "src/apps/decision_log.h"

namespace pmig::apps {

bool Section7Movable(kernel::Kernel& host, const kernel::Proc& p) {
  for (const kernel::OpenFilePtr& f : p.fds) {
    if (f != nullptr && f->kind != kernel::FileKind::kInode) return false;
  }
  for (kernel::Proc* q : host.ListProcs()) {
    if (q->ppid == p.pid) return false;
  }
  return true;
}

LeasedTarget LeasePick(kernel::SyscallApi& api, net::Network& net,
                       const PlacementEngine& engine, PlacementQuery query,
                       std::string target, bool lease_targets, int* conflicts) {
  LeasedTarget out;
  if (!lease_targets) {
    out.host = std::move(target);
    return out;
  }
  // Every re-pick excludes one more host, so the engine runs dry long before
  // the bound; the bound only guards against a pick loop that never ends.
  for (size_t tries = 0; tries <= net.hosts().size() && !target.empty(); ++tries) {
    const Result<PlacementLease> acquired = AcquirePlacementLease(api, net, target);
    if (acquired.ok() && acquired->held) {
      out.host = std::move(target);
      out.lease = *acquired;
      return out;
    }
    ++*conflicts;
    query.exclude.push_back(target);
    target = engine.PickTarget(query);
  }
  return out;
}

int MigrateToTarget(kernel::SyscallApi& api, net::Network& net, int32_t pid,
                    const std::string& from_host, const LeasedTarget& target,
                    bool use_daemon, const core::MigrateOptions& opts,
                    ClusterIndex* index) {
  const int rc = core::Migrate(api, net, pid, from_host, target.host, use_daemon, opts);
  ReleasePlacementLease(api, target.lease);
  if (DecisionLog* dlog = net.decision_log(); dlog != nullptr && dlog->enabled()) {
    dlog->AttachOutcome(pid, from_host, target.host, rc, api.proc().trace_id);
  }
  if (rc == 0 && index != nullptr) index->NoteMigrated(from_host, target.host);
  return rc;
}

}  // namespace pmig::apps
