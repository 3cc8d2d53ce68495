// The Ethernet: host registry and transfer-cost model.
//
// The paper's machines share a 10 Mbit Ethernet (Section 3). File access across
// machines goes through NFS (costed in the VFS layer via inode remoteness); this
// class provides host lookup and raw transfer timing for the remote-execution
// services (rsh, migration daemon) that move command output and dump data around.

#ifndef PMIG_SRC_NET_NETWORK_H_
#define PMIG_SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/sim/cost_model.h"
#include "src/sim/fault.h"
#include "src/sim/fault_history.h"
#include "src/sim/health_monitor.h"

namespace pmig::apps {
class DecisionLog;  // pointer slot only; apps/ owns the type (see decision_log.h)
}  // namespace pmig::apps

namespace pmig::net {

class SpawnService;

// Knobs for a single remote execution (Rsh / DaemonExec). The default timeout
// bounds how long the caller blocks waiting for the remote side: a target that
// powers off after accepting the request used to hang the client until the
// simulation's RunUntil limit; now the wait wakes at the deadline and returns
// kTimedOut (or kHostUnreach when the host is observably down). timeout <= 0
// means wait forever (the old behaviour).
struct RemoteExecOptions {
  sim::Nanos timeout = sim::Seconds(300);
};

// One host's load as the cluster sampler saw it at a sampling edge. Published
// to registered load observers so coordinators that keep incremental placement
// state (the apps::ClusterIndex) learn per-host load without surveying — the
// sampler already paid for the read.
struct LoadObservation {
  sim::Nanos at = 0;
  std::string host;
  bool down = false;
  int runnable = 0;  // runnable VM processes (the classic load signal)
  int alive_vm = 0;  // every live VM process (the occupancy signal)
};

class Network {
 public:
  explicit Network(const sim::CostModel* costs) : costs_(costs) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void AddHost(kernel::Kernel* host) { hosts_.push_back(host); }
  kernel::Kernel* FindHost(std::string_view name);
  const std::vector<kernel::Kernel*>& hosts() const { return hosts_; }

  // One-way time to move `bytes` across the wire (latency + serialisation).
  sim::Nanos TransferTime(int64_t bytes) const {
    return costs_->nfs_rpc / 2 + bytes * costs_->net_per_byte;
  }

  const sim::CostModel& costs() const { return *costs_; }

  // Well-known-port registry for the Section 6.4 migration daemons.
  void RegisterSpawnService(const std::string& hostname, SpawnService* service) {
    spawn_services_[hostname] = service;
  }
  SpawnService* FindSpawnService(std::string_view hostname);

  // Cluster-wide fault injector (null or disabled in default configs). The
  // remote-exec paths consult it to drop requests on the wire.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }
  sim::FaultInjector* faults() const { return faults_; }

  // True when traffic from `from` to `to` can flow right now: no configured
  // partition cuts that direction. Liveness (down()) is the caller's check —
  // a partitioned host is up, just unreachable. Pass null metrics when polling
  // from a wait predicate so only decision points count injections.
  bool Reachable(std::string_view from, std::string_view to,
                 sim::MetricsRegistry* metrics = nullptr) const {
    return faults_ == nullptr || !faults_->Partitioned(from, to, metrics);
  }

  // Cluster-wide per-host fault history (null when the network was built bare).
  // migrate records each remote leg's outcome here; placement policies read the
  // decayed scores back. Recording never affects virtual time.
  void set_fault_history(sim::FaultHistory* history) { fault_history_ = history; }
  sim::FaultHistory* fault_history() const { return fault_history_; }

  // Cluster-wide health monitor (null when the network was built bare).
  // migrate feeds it end-to-end latency and per-host error outcomes; the
  // placement engine reads host health scores back. Observation only.
  void set_health_monitor(sim::HealthMonitor* monitor) { health_monitor_ = monitor; }
  sim::HealthMonitor* health_monitor() const { return health_monitor_; }

  // Cluster-wide placement decision log (null when the network was built bare,
  // disarmed unless the cluster was configured for it). The placement engine
  // records every pick here; coordinators attach migrate outcomes and trace
  // ids after each leg. Observation only — recording never affects virtual
  // time, so an armed-but-unread log replays bit-identically.
  void set_decision_log(apps::DecisionLog* log) { decision_log_ = log; }
  apps::DecisionLog* decision_log() const { return decision_log_; }

  // Load-observation fan-out: the cluster sampler publishes each host's load
  // here as it samples, and subscribers (cluster indexes) fold it in for free.
  // Publishing is pure bookkeeping — no virtual time, no RNG — so an armed
  // sampler with observers stays bit-identical to one without. Observers must
  // remove themselves before they are destroyed.
  //
  // Delivery order is guaranteed: observers run in ascending registration
  // order, so a subscriber registered before another always folds an
  // observation in first. Event-driven consumers rely on this — a balancer's
  // wake condition (armed from its ClusterIndex's observer) must fire only
  // after that index has already absorbed the observation it is judging.
  // Delivery is also mutation-safe: an observer may add or remove observers
  // (including itself) mid-publish; removed observers registered later in the
  // same publish are simply skipped.
  uint64_t AddLoadObserver(std::function<void(const LoadObservation&)> fn);
  void RemoveLoadObserver(uint64_t id);
  void PublishLoad(const LoadObservation& obs);

 private:
  const sim::CostModel* costs_;
  std::vector<kernel::Kernel*> hosts_;
  std::map<std::string, SpawnService*, std::less<>> spawn_services_;
  sim::FaultInjector* faults_ = nullptr;
  sim::FaultHistory* fault_history_ = nullptr;
  sim::HealthMonitor* health_monitor_ = nullptr;
  apps::DecisionLog* decision_log_ = nullptr;
  std::map<uint64_t, std::function<void(const LoadObservation&)>> load_observers_;
  uint64_t next_observer_id_ = 1;
};

// The connect leg every remote command starts with (rsh and the migration
// daemon): books the connection under the `connections` counter plus the
// request message, pays `setup` of virtual time under a "setup" span, then
// fails as a real connect would — EHOSTUNREACH when `remote` went down
// meanwhile or a partition cuts the link, ETIMEDOUT when an injected fault
// loses the request on the wire.
Status Connect(kernel::SyscallApi& api, Network& net, kernel::Kernel& remote,
               const char* connections, sim::Nanos setup);

}  // namespace pmig::net

#endif  // PMIG_SRC_NET_NETWORK_H_
