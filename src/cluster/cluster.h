// A cluster of workstations on one Ethernet, sharing one virtual timeline.
//
// Reproduces the paper's environment (Section 3): Sun workstations plus a file
// server, each machine's root mounted on every other machine as /n/<host> (the 8th
// research edition convention), NFS for all cross-machine file access. Machines run
// in lockstep scheduler quanta; all timers and I/O completions live on the shared
// VirtualClock, so a whole multi-machine experiment is deterministic.

#ifndef PMIG_SRC_CLUSTER_CLUSTER_H_
#define PMIG_SRC_CLUSTER_CLUSTER_H_

#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/decision_log.h"
#include "src/kernel/kernel.h"
#include "src/net/migration_daemon.h"
#include "src/net/network.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/fault.h"
#include "src/sim/fault_history.h"
#include "src/sim/flight_recorder.h"
#include "src/sim/health_monitor.h"
#include "src/sim/metrics.h"
#include "src/sim/span.h"
#include "src/sim/trace.h"

namespace pmig::cluster {

struct HostSpec {
  std::string name;
  vm::IsaLevel isa = vm::IsaLevel::kIsa20;  // Sun-3 by default
};

struct ClusterConfig {
  std::vector<HostSpec> hosts;
  sim::CostModel costs;
  kernel::KernelConfig kernel;      // applied to every host (isa overridden per host)
  bool start_migration_daemons = false;  // run migrationd on every host (§6.4)
  bool enable_trace = false;
  // Observability (off by default; when off, instrumentation is a dead branch and
  // virtual-time results are bit-identical to an uninstrumented build).
  bool enable_metrics = false;  // per-host counter/gauge/histogram registries
  bool enable_spans = false;    // migration phase spans (cluster-wide log)
  // Flight recorder: per-host bounded rings of recent trace/span events that
  // auto-dump a JSONL post-mortem when a migrate fails, falls back, or the
  // kernel aborts a dump. Pure bookkeeping — no virtual time, no RNG.
  bool enable_flight_recorder = false;
  size_t flight_recorder_capacity = 256;  // events retained per host
  // Post-mortems are also written as POSTMORTEM_<n>.jsonl files here (real
  // filesystem) when non-empty; they always stay readable in memory.
  std::string postmortem_dir;
  // Time-series sampler: at least every `sample_period` of virtual time (checked
  // from the lockstep Step(), never via a clock timer, so sampling cannot perturb
  // virtual times), snapshot each host's runnable load, segment-cache bytes, and
  // fault score into the run report (the newest kSampleHistoryPerHost per host).
  // 0 (the default) disables sampling.
  sim::Nanos sample_period = 0;
  // Health monitor (sim::HealthMonitor): armed iff `health.anomaly_detection`
  // is set or `slos` is non-empty. The sampler above feeds it per-host load /
  // segcache / fault-score series, and the kernel + migrate paths feed dump,
  // restart, and end-to-end latency plus per-host error outcomes. Like the
  // metrics layer it is observation-only (no RNG, no timers, no virtual-time
  // charge): with the defaults — no SLOs, detection off — it is a dead branch
  // and results stay bit-identical.
  sim::HealthOptions health;
  std::vector<sim::Slo> slos;
  // Placement decision audit log (apps::DecisionLog): every PlacementEngine
  // pick records its full candidate set, per-factor scores, exclusions with
  // reasons, runner-up, and score margin; surfaced as report "decision" lines
  // and the msh pwhy built-in. Observation-only like the health monitor: off
  // it is a dead branch, and armed-but-unread runs stay bit-identical.
  bool enable_decision_log = false;
  size_t decision_log_capacity = 1024;  // decisions retained in the ring
  // Deterministic fault injection (inert by default; when disabled no RNG is
  // consumed, no timers are armed, and results stay bit-identical).
  sim::FaultConfig faults;
};

// Sampler snapshots the cluster keeps per host: the history behind the report's
// "sample" lines, bounded so a long run's memory does not grow with its length.
constexpr size_t kSampleHistoryPerHost = 64;

// One sampler snapshot of one host.
struct LoadSample {
  sim::Nanos at = 0;
  std::string host;
  bool down = false;
  int runnable = 0;            // runnable VM processes
  int64_t segcache_bytes = 0;  // bytes held by /var/segcache
  double fault_score = 0.0;    // decayed FaultHistory score
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  kernel::Kernel& host(std::string_view name);
  const std::vector<std::unique_ptr<kernel::Kernel>>& hosts() const { return hosts_; }
  net::Network& network() { return *network_; }
  sim::VirtualClock& clock() { return clock_; }
  sim::FaultInjector& faults() { return *faults_; }
  sim::FaultHistory& fault_history() { return fault_history_; }
  sim::TraceLog& trace() { return trace_; }
  sim::SpanLog& spans() { return spans_; }
  const sim::SpanLog& spans() const { return spans_; }
  sim::FlightRecorder& flight_recorder() { return recorder_; }
  const sim::FlightRecorder& flight_recorder() const { return recorder_; }
  sim::HealthMonitor& health_monitor() { return health_monitor_; }
  const sim::HealthMonitor& health_monitor() const { return health_monitor_; }
  apps::DecisionLog& decision_log() { return decision_log_; }
  const apps::DecisionLog& decision_log() const { return decision_log_; }
  // The newest kSampleHistoryPerHost sampler snapshots of every host, oldest
  // first (each sampler edge appends one per host, in host order).
  const std::deque<LoadSample>& samples() const { return samples_; }
  const sim::CostModel& costs() const { return config_.costs; }
  kernel::ProgramRegistry& programs() { return programs_; }

  void RegisterProgram(const std::string& name, kernel::ProgramEntry entry) {
    programs_[name] = std::move(entry);
  }

  // --- Simulation driving ---
  // Runs every machine for (roughly) `duration` of virtual time.
  void RunFor(sim::Nanos duration);
  // Runs until no machine has runnable/sleeping work (blocked-forever daemons are
  // considered idle) or `limit` virtual time elapses. True if it went idle.
  bool RunUntilIdle(sim::Nanos limit = sim::Seconds(600));
  // Runs until `cond()` holds; true if it did before `limit` elapsed.
  bool RunUntil(const std::function<bool()>& cond, sim::Nanos limit = sim::Seconds(600));

  // Total CPU consumed across all machines (for "CPU time of an operation" deltas).
  sim::Nanos TotalCpu() const;

  // The migration daemon's queue on `host` (null unless daemons are running).
  net::SpawnService* spawn_service(std::string_view host);

  // Powers a machine off (crash) or back on. While down it runs nothing and its
  // disk is unreachable from every other machine.
  void SetHostDown(std::string_view name, bool down);

  // --- Run reports ---
  // Sum of every host's metrics registry (counters/gauges add; histograms merge).
  sim::MetricsRegistry AggregateMetrics() const;
  // Machine-readable run report: one JSON object per line (JSONL). Includes a
  // header, per-host metrics, every closed span, and a phase-time summary whose
  // per-phase self times sum exactly to the end-to-end migrate time.
  void WriteReport(std::ostream& out) const;
  // Convenience: appends the report to `path` on the real filesystem. False on
  // open failure.
  bool WriteReport(const std::string& path) const;
  // Chrome trace-event JSON (loads in Perfetto / chrome://tracing): one track
  // per host, nested B/E phase slices per process, s/f flow arrows where a
  // span's parent lives on a different host. Only closed spans are emitted.
  void WriteChromeTrace(std::ostream& out) const;
  // Convenience: writes (truncates) `path` on the real filesystem.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  void Boot();
  // One lockstep step: each machine runs a quantum, then the clock advances by one
  // quantum (machines are parallel hardware). Returns true if anything ran.
  bool Step();
  bool AnyTimedWork() const;
  void TakeSample();
  static int64_t SegcacheBytes(kernel::Kernel& k);

  ClusterConfig config_;
  sim::VirtualClock clock_;
  sim::TraceLog trace_;
  sim::SpanLog spans_{&clock_, &trace_};
  sim::FlightRecorder recorder_{&clock_};
  sim::HealthMonitor health_monitor_;
  apps::DecisionLog decision_log_{&clock_};
  std::deque<LoadSample> samples_;
  sim::Nanos next_sample_at_ = 0;  // next sampler due time (0 = sampler off)
  kernel::ProgramRegistry programs_;
  std::unique_ptr<sim::FaultInjector> faults_;
  sim::FaultHistory fault_history_{&clock_};
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<net::SpawnService>> spawn_services_;
  // Declared last so it is destroyed first: tearing a host down unwinds the
  // native tasks it still runs, and their stacks may reach the network and the
  // spawn services (a blocked balancer's ClusterIndex unregisters from the
  // Network on its way out).
  std::vector<std::unique_ptr<kernel::Kernel>> hosts_;
};

}  // namespace pmig::cluster

#endif  // PMIG_SRC_CLUSTER_CLUSTER_H_
