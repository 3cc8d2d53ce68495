#include "src/net/network.h"

namespace pmig::net {

kernel::Kernel* Network::FindHost(std::string_view name) {
  for (kernel::Kernel* host : hosts_) {
    if (host->hostname() == name) return host;
  }
  return nullptr;
}

SpawnService* Network::FindSpawnService(std::string_view hostname) {
  auto it = spawn_services_.find(hostname);
  return it == spawn_services_.end() ? nullptr : it->second;
}

uint64_t Network::AddLoadObserver(std::function<void(const LoadObservation&)> fn) {
  const uint64_t id = next_observer_id_++;
  load_observers_[id] = std::move(fn);
  return id;
}

void Network::RemoveLoadObserver(uint64_t id) { load_observers_.erase(id); }

void Network::PublishLoad(const LoadObservation& obs) {
  // Snapshot the ids first: an observer's callback may register or remove
  // observers (a coordinator waking off this very observation can tear its
  // index down). Iterating the live map through that would be UB; walking the
  // id snapshot in ascending order preserves the registration-order delivery
  // guarantee and skips any observer removed mid-publish.
  std::vector<uint64_t> ids;
  ids.reserve(load_observers_.size());
  for (const auto& [id, fn] : load_observers_) ids.push_back(id);
  for (uint64_t id : ids) {
    const auto it = load_observers_.find(id);
    if (it != load_observers_.end() && it->second) it->second(obs);
  }
}

Status Connect(kernel::SyscallApi& api, Network& net, kernel::Kernel& remote,
               const char* connections, sim::Nanos setup) {
  kernel::Kernel& local = api.kernel();
  sim::MetricsRegistry& metrics = local.metrics();
  if (metrics.enabled()) {
    metrics.Inc(connections);
    metrics.Inc("net.messages." + local.hostname() + "->" + remote.hostname());
  }
  {
    kernel::TraceSpan span(local, api.proc(), "setup");
    api.Sleep(setup);
  }
  if (remote.down()) return Errno::kHostUnreach;
  if (!net.Reachable(local.hostname(), remote.hostname(), &metrics)) {
    return Errno::kHostUnreach;
  }
  if (sim::FaultInjector* f = net.faults(); f != nullptr && f->NetSendFails(&metrics)) {
    return Errno::kTimedOut;
  }
  return Status::Ok();
}

}  // namespace pmig::net
