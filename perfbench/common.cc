#include <cstdio>

#include "perfbench/workloads.h"

namespace pmig::perfbench {
namespace {

// Virtual phases the migration machinery opens spans for (src/core, kernel).
constexpr const char* kPhases[] = {"migrate", "signal", "dump", "transfer", "setup", "restart"};

int64_t SumCountersWithPrefix(const sim::MetricsRegistry& m, std::string_view prefix) {
  int64_t total = 0;
  for (const auto& [name, value] : m.counters()) {
    if (name.compare(0, prefix.size(), prefix) == 0) total += value;
  }
  return total;
}

double HistogramSum(const sim::MetricsRegistry& m, std::string_view name) {
  const sim::Histogram* h = m.FindHistogram(name);
  return h != nullptr ? static_cast<double>(h->sum) : 0.0;
}

}  // namespace

void RunResult::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

std::string RunResult::VirtualFingerprint() const {
  std::string out;
  char buf[64];
  const auto add = [&](const char* tag, const std::vector<double>& values) {
    out += tag;
    for (double v : values) {
      std::snprintf(buf, sizeof(buf), " %.17g", v);
      out += buf;
    }
    out += '\n';
  };
  std::snprintf(buf, sizeof(buf), "%.17g", window_vs);
  out += "window_vs " + std::string(buf) + " migrations " + std::to_string(migrations) +
         " attempted " + std::to_string(attempted) + " failed " + std::to_string(failed) +
         " bytes " + std::to_string(bytes_moved) + "\n";
  add("migrate_vms", migrate_vms);
  add("downtime_vms", downtime_vms);
  add("vcpu_ms", vcpu_ms);
  add("turnaround_vs", turnaround_vs);
  return out;
}

void EnableAllInstrumentation(testbed::TestbedOptions* options) {
  options->metrics = true;
  options->trace = true;
  options->spans = true;
  options->flight_recorder = true;
  if (options->sample_period == 0) options->sample_period = sim::Millis(50);
  options->decision_log = true;
}

int64_t TotalBytesMoved(testbed::Testbed& world) {
  int64_t total = 0;
  for (const auto& host : world.cluster().hosts()) {
    const sim::MetricsRegistry& m = host->metrics();
    total += m.Counter("vfs.bytes_written") + m.Counter("vfs.nfs_bytes_written") +
             m.Counter("vfs.nfs_bytes_read");
  }
  return total;
}

int64_t ProcsSpawned(testbed::Testbed& world) {
  int64_t total = 0;
  for (const auto& host : world.cluster().hosts()) total += host->stats().procs_spawned;
  return total;
}

Window::Window(testbed::Testbed& world, Probe& probe, RunResult* out)
    : world_(world),
      probe_(probe),
      out_(out),
      wall0_(WallNow()),
      main_cpu0_(ThreadCpuNow()),
      usage0_(ReadProcessUsage()),
      virtual0_(world.cluster().clock().now()),
      bytes0_(TotalBytesMoved(world)) {}

void Window::NoteOp() {
  op_wall_.push_back(WallNow());
  op_virtual_.push_back(world_.cluster().clock().now());
  op_procs_.push_back(ProcsSpawned(world_));
}

void Window::Finish(const RunConfig& config) {
  const double wall1 = WallNow();
  const double main_cpu1 = ThreadCpuNow();
  const ProcessUsage usage1 = ReadProcessUsage();
  RunResult& r = *out_;
  r.window_s = wall1 - wall0_;
  r.window_vs = sim::ToSeconds(world_.cluster().clock().now() - virtual0_);
  r.bytes_moved = TotalBytesMoved(world_) - bytes0_;

  // The run split into tenths by migration count.
  const size_t n = op_wall_.size();
  if (n >= 10) {
    double prev_wall = wall0_;
    sim::Nanos prev_virtual = virtual0_;
    for (size_t t = 0; t < 10; ++t) {
      const size_t begin = t * n / 10;
      const size_t end = (t + 1) * n / 10;
      const double wall = op_wall_[end - 1] - prev_wall;
      r.tenth_ms_per_migration.push_back(wall * 1e3 / static_cast<double>(end - begin));
      r.tenth_vsec_per_s.push_back(sim::ToSeconds(op_virtual_[end - 1] - prev_virtual) / wall);
      r.tenth_procs_spawned.push_back(op_procs_[end - 1]);
      prev_wall = op_wall_[end - 1];
      prev_virtual = op_virtual_[end - 1];
    }
  }
  if (!config.traced) return;

  std::map<std::string, double>& L = r.layers;
  const sim::MetricsRegistry m = world_.cluster().AggregateMetrics();
  const DriveStats& drive = probe_.drive();
  const double process_cpu = usage1.cpu_s - usage0_.cpu_s;
  const double main_cpu = main_cpu1 - main_cpu0_;

  L["cluster.steps"] = static_cast<double>(drive.steps);
  L["cluster.us_per_step"] =
      drive.steps > 0 ? drive.wall_s * 1e6 / static_cast<double>(drive.steps) : 0.0;
  L["cluster.drive_cpu_s"] = drive.cpu_s;
  L["cluster.boot_s"] = probe_.boot_s();
  L["cluster.aging_ratio"] =
      r.tenth_ms_per_migration.size() == 10 && r.tenth_ms_per_migration[0] > 0
          ? r.tenth_ms_per_migration[9] / r.tenth_ms_per_migration[0]
          : 0.0;

  const double instructions = static_cast<double>(m.Counter("kernel.instructions"));
  L["vm.instructions"] = instructions;
  L["vm.minstr_per_drive_cpu_s"] = drive.cpu_s > 0 ? instructions / 1e6 / drive.cpu_s : 0.0;
  L["vm.assemble_s"] = probe_.assemble_s();

  int64_t syscalls = 0;
  int64_t switches = 0;
  for (const auto& host : world_.cluster().hosts()) {
    syscalls += host->stats().syscalls;
    switches += host->stats().context_switches;
  }
  L["kernel.native_cpu_s"] = process_cpu - main_cpu;
  L["kernel.handoff_idle_s"] = r.window_s - process_cpu;
  L["kernel.vol_ctx_switches"] =
      static_cast<double>(usage1.vol_ctx_switches - usage0_.vol_ctx_switches);
  L["kernel.syscalls"] = static_cast<double>(syscalls);
  L["kernel.procs_spawned"] = static_cast<double>(ProcsSpawned(world_));
  L["sched.context_switches"] = static_cast<double>(switches);

  for (const char* name : {"vfs.bytes_written", "vfs.bytes_read", "vfs.nfs_bytes_read",
                           "vfs.nfs_bytes_written", "vfs.name_bytes_copied",
                           "net.rsh_connections", "net.daemon_connections"}) {
    L[name] = static_cast<double>(m.Counter(name));
  }
  L["net.messages"] = static_cast<double>(SumCountersWithPrefix(m, "net.messages."));
  L["net.bytes"] = static_cast<double>(SumCountersWithPrefix(m, "net.bytes."));
  L["net.transfer_vns"] = HistogramSum(m, "net.transfer_ns") / 1e9;

  r.span_totals = probe_.spans()->Summarize();
  const auto span_total = [&r](const char* name) {
    auto it = r.span_totals.find(name);
    return it != r.span_totals.end() ? it->second : HostSpans::Totals{};
  };
  L["core.sigdump_s"] = span_total("core.BuildSigdump").total_s;
  L["core.sigdump_calls"] = static_cast<double>(probe_.sigdump_calls());
  L["core.rest_proc_s"] = span_total("core.RestProcImpl").total_s;
  L["core.rest_proc_calls"] = static_cast<double>(probe_.rest_proc_calls());
  L["core.verify_dump_s"] = span_total("core.VerifyDumpBytes").total_s;
  L["core.verify_dump_calls"] = static_cast<double>(probe_.verify_calls());
  for (const char* tool : {"migrate", "dumpproc", "restart"}) {
    auto it = probe_.tool_usage().find(tool);
    L["core.tool." + std::string(tool) + "_cpu_s"] =
        it != probe_.tool_usage().end() ? it->second.cpu_s : 0.0;
  }
  L["core.dump_vms"] = HistogramSum(m, "migration.dump_ns") / 1e6;
  L["core.restart_vms"] = HistogramSum(m, "migration.restart_ns") / 1e6;
  const std::map<std::string, sim::Nanos> phases = world_.cluster().spans().PhaseSelfTimes();
  for (const char* phase : kPhases) {
    auto it = phases.find(phase);
    L["phase." + std::string(phase) + ".self_vms"] =
        it != phases.end() ? sim::ToMillis(it->second) : 0.0;
  }
  const double hits = static_cast<double>(m.Counter("cache.seg.dump_hits"));
  const double misses = static_cast<double>(m.Counter("cache.seg.dump_misses"));
  L["core.segcache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  L["core.bytes_saved"] = static_cast<double>(m.Counter("migration.bytes_saved"));
  L["core.retries"] = static_cast<double>(m.Counter("migrate.retries"));
  L["core.fallback_restarts"] = static_cast<double>(m.Counter("migrate.fallback_restarts"));
  L["core.dump_aborts"] = static_cast<double>(m.Counter("migration.dump_aborts"));

  auto balancer = probe_.tool_usage().find("apps.RunLoadBalancer");
  L["apps.balancer_cpu_s"] =
      balancer != probe_.tool_usage().end() ? balancer->second.cpu_s : 0.0;
  L["apps.survey_msgs"] = static_cast<double>(m.Counter("placement.survey_msgs"));
  const double rounds = static_cast<double>(m.Counter("balancer.rounds"));
  L["apps.rounds"] = rounds;
  L["apps.idle_round_ratio"] =
      rounds > 0 ? static_cast<double>(m.Counter("balancer.idle_rounds")) / rounds : 0.0;
  L["apps.lease_wait_vns"] = static_cast<double>(m.Counter("lease.wait_ns")) / 1e9;
  L.emplace("apps.decisions", 0.0);  // set by cluster_balance
  L.emplace("apps.balancer_launches", 0.0);
  L["sim.generator_late_vns"] = r.generator_late_vns;

  if (!config.spans_out.empty() && !probe_.spans()->WriteJsonl(config.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", config.spans_out.c_str());
  }
}

}  // namespace pmig::perfbench
