#include "src/apps/evacuate.h"

#include "src/apps/coordinator.h"
#include "src/core/tools.h"

namespace pmig::apps {

EvacuationReport EvacuateHost(kernel::SyscallApi& api, net::Network& net,
                              std::string_view from_host, std::string_view to_host,
                              bool use_daemon, const core::MigrateOptions& opts,
                              PlacementPolicy policy, double fault_threshold,
                              double health_threshold, bool lease_targets,
                              ClusterIndex* index) {
  EvacuationReport report;
  kernel::Kernel* from = net.FindHost(from_host);
  if (from == nullptr) return report;
  const PlacementEngine engine(&net, policy);

  // Snapshot the pids first; the list changes as processes move away.
  std::vector<int32_t> candidates;
  for (kernel::Proc* p : from->ListProcs()) {
    if (p->kind == kernel::ProcKind::kVm && p->Alive()) candidates.push_back(p->pid);
  }
  for (const int32_t pid : candidates) {
    kernel::Proc* p = from->FindProc(pid);
    if (p == nullptr || !p->Alive()) continue;  // exited meanwhile
    if (!Section7Movable(*from, *p)) {
      report.unmovable.push_back(pid);
      continue;
    }
    LeasedTarget target{std::string(to_host), {}};
    if (target.host.empty()) {
      PlacementQuery query;
      query.from_host = std::string(from_host);
      query.pid = pid;
      query.fault_threshold = fault_threshold;
      query.health_threshold = health_threshold;
      query.occupancy = true;  // count earlier evacuees even before they reschedule
      query.context = "evacuation";
      if (index != nullptr) {
        query.index = index;  // survey-free picks from the maintained view
        query.reachable_from = api.GetHostname();  // never aim across a partition
      }
      // Like the balancer: with leasing on, a pick must also be won, so a
      // concurrent coordinator cannot receive the same flood of evacuees.
      std::string pick = engine.PickTarget(query);
      target = LeasePick(api, net, engine, std::move(query), std::move(pick), lease_targets,
                         &report.lease_conflicts);
      if (target.host.empty()) {
        report.unplaced.push_back(pid);
        api.kernel().metrics().Inc("evacuate.unplaced");
        continue;
      }
    }
    const int rc = MigrateToTarget(api, net, pid, std::string(from_host), target, use_daemon,
                                   opts, index);
    if (rc == 0) {
      report.moved.push_back(pid);
    } else {
      report.failed.push_back(pid);
      api.kernel().metrics().Inc("evacuate.failed");
    }
  }
  return report;
}

}  // namespace pmig::apps
