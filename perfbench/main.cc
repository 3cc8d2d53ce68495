// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]
//
// --trace 0 repeats the workload (same seed, fresh testbed each repetition)
// until S host seconds have passed, checks that every repetition reproduced
// the same virtual-time results, and reports the end-to-end metrics: host-time
// ones as the median over repetitions, virtual-time ones exactly. --trace 1
// runs the workload once plain and once traced, checks that both produced the
// same virtual-time results bit for bit, and reports the per-layer metrics.
// The last line of standard output is one JSON object.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/workloads.h"

namespace pmig::perfbench {
namespace {

struct Workload {
  const char* name;
  RunResult (*run)(const RunConfig&);
  int setup_trials;  // extra set-ups timed on their own, for a steady median
};

const Workload kWorkloads[] = {
    {"interactive_migrate", RunInteractiveMigrate, 15},
    {"dirty_migrate", RunDirtyMigrate, 15},
    {"cluster_balance", RunClusterBalance, 4},
};

constexpr size_t kMinSamples = 100;  // so each p90 has ten samples beyond it

// Metric names and units, in the order BENCHMARK.json lists them.
const std::pair<const char*, const char*> kEndToEnd[] = {
    {"setup_s", "s"},
    {"vsec_per_s", "vs/s"},
    {"migrations_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"migrate_vms_p50", "vms"},
    {"migrate_vms_p90", "vms"},
    {"downtime_vms_p50", "vms"},
    {"downtime_vms_p90", "vms"},
    {"migrate_vcpu_ms_p50", "vms"},
    {"bytes_per_migration", "bytes"},
    {"turnaround_vs_p50", "vs"},
    {"turnaround_vs_p90", "vs"},
};

const std::pair<const char*, const char*> kPerLayer[] = {
    {"cluster.steps", "count"},
    {"cluster.us_per_step", "us"},
    {"cluster.drive_cpu_s", "s"},
    {"cluster.boot_s", "s"},
    {"cluster.aging_ratio", "ratio"},
    {"vm.instructions", "count"},
    {"vm.minstr_per_drive_cpu_s", "Minstr/s"},
    {"vm.assemble_s", "s"},
    {"kernel.native_cpu_s", "s"},
    {"kernel.handoff_idle_s", "s"},
    {"kernel.vol_ctx_switches", "count"},
    {"kernel.syscalls", "count"},
    {"kernel.procs_spawned", "count"},
    {"sched.context_switches", "count"},
    {"vfs.bytes_written", "bytes"},
    {"vfs.bytes_read", "bytes"},
    {"vfs.nfs_bytes_read", "bytes"},
    {"vfs.nfs_bytes_written", "bytes"},
    {"vfs.name_bytes_copied", "bytes"},
    {"net.rsh_connections", "count"},
    {"net.daemon_connections", "count"},
    {"net.messages", "count"},
    {"net.bytes", "bytes"},
    {"net.transfer_vns", "vs"},
    {"core.sigdump_s", "s"},
    {"core.sigdump_calls", "count"},
    {"core.rest_proc_s", "s"},
    {"core.rest_proc_calls", "count"},
    {"core.verify_dump_s", "s"},
    {"core.verify_dump_calls", "count"},
    {"core.tool.migrate_cpu_s", "s"},
    {"core.tool.dumpproc_cpu_s", "s"},
    {"core.tool.restart_cpu_s", "s"},
    {"core.dump_vms", "vms"},
    {"core.restart_vms", "vms"},
    {"phase.migrate.self_vms", "vms"},
    {"phase.signal.self_vms", "vms"},
    {"phase.dump.self_vms", "vms"},
    {"phase.transfer.self_vms", "vms"},
    {"phase.setup.self_vms", "vms"},
    {"phase.restart.self_vms", "vms"},
    {"core.segcache_hit_ratio", "ratio"},
    {"core.bytes_saved", "bytes"},
    {"core.retries", "count"},
    {"core.fallback_restarts", "count"},
    {"core.dump_aborts", "count"},
    {"apps.balancer_cpu_s", "s"},
    {"apps.survey_msgs", "count"},
    {"apps.rounds", "count"},
    {"apps.idle_round_ratio", "ratio"},
    {"apps.decisions", "count"},
    {"apps.balancer_launches", "count"},
    {"apps.lease_wait_vns", "vs"},
    {"sim.generator_late_vns", "vns"},
    {"sim.trace_overhead_ratio", "ratio"},
};

// Linear interpolation between closest ranks (numpy's default).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) { return Percentile(values, 50); }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

void PrintResultLine(bool correct, int64_t attempted, int64_t failed,
                     const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
                         metrics) {
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no NaN or infinity; such a value has already failed the run.
    const double value = std::isfinite(metrics[i].second.first) ? metrics[i].second.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].first.c_str(), value,
                  metrics[i].second.second.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void PrintFailures(const char* label, const RunResult& r) {
  for (const std::string& f : r.failures) std::printf("  FAIL (%s): %s\n", label, f.c_str());
}

int RunPlain(const Workload& w, const Args& args) {
  RunConfig config;
  config.seed = args.seed;
  std::vector<double> setups;
  for (int i = 0; i < w.setup_trials; ++i) {
    config.setup_only = true;
    setups.push_back(w.run(config).setup_s);
  }
  config.setup_only = false;

  std::vector<RunResult> reps;
  double peak_rss_mb = 0;
  const double start = WallNow();
  do {
    reps.push_back(w.run(config));
    setups.push_back(reps.back().setup_s);
    // The high-water mark after the set-ups and one repetition, so it does not
    // depend on how many repetitions fit in the time.
    if (reps.size() == 1) peak_rss_mb = ReadProcessUsage().max_rss_mb;
  } while (WallNow() - start < args.seconds && reps.size() < 64);

  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> vsec_per_s;
  std::vector<double> migrations_per_s;
  for (size_t i = 0; i < reps.size(); ++i) {
    const RunResult& r = reps[i];
    attempted += r.attempted;
    failed += r.failed;
    PrintFailures(w.name, r);
    if (r.VirtualFingerprint() != reps[0].VirtualFingerprint()) {
      std::printf("  FAIL: repetition %zu reproduced different virtual-time results\n", i);
      correct = false;
    }
    // Host-time rates per tenth of each repetition, so the median shrugs off
    // bursts of load from elsewhere on the machine.
    for (size_t t = 0; t < r.tenth_ms_per_migration.size(); ++t) {
      vsec_per_s.push_back(r.tenth_vsec_per_s[t]);
      migrations_per_s.push_back(1e3 / r.tenth_ms_per_migration[t]);
    }
  }
  const RunResult& r = reps[0];
  for (const auto* samples : {&r.migrate_vms, &r.downtime_vms, &r.vcpu_ms, &r.turnaround_vs}) {
    if (samples->size() < kMinSamples) {
      std::printf("  FAIL: only %zu samples for a p90 (need %zu)\n", samples->size(),
                  kMinSamples);
      correct = false;
    }
  }
  if (failed != 0) correct = false;

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  const auto put = [&metrics](const char* name, double value) {
    for (const auto& [known, unit] : kEndToEnd) {
      if (std::strcmp(known, name) == 0) metrics.push_back({name, {value, unit}});
    }
  };
  put("setup_s", Median(setups));
  put("vsec_per_s", Median(vsec_per_s));
  put("migrations_per_s", Median(migrations_per_s));
  put("peak_rss_mb", peak_rss_mb);
  put("migrate_vms_p50", Percentile(r.migrate_vms, 50));
  put("migrate_vms_p90", Percentile(r.migrate_vms, 90));
  put("downtime_vms_p50", Percentile(r.downtime_vms, 50));
  put("downtime_vms_p90", Percentile(r.downtime_vms, 90));
  put("migrate_vcpu_ms_p50", Percentile(r.vcpu_ms, 50));
  put("bytes_per_migration",
      r.migrations > 0 ? static_cast<double>(r.bytes_moved) / static_cast<double>(r.migrations)
                       : 0.0);
  put("turnaround_vs_p50", Percentile(r.turnaround_vs, 50));
  put("turnaround_vs_p90", Percentile(r.turnaround_vs, 90));

  std::printf("workload %s seed %llu: %zu repetitions, %zu set-ups, %lld ops attempted, "
              "%lld failed (fail_ratio %.4f)\n",
              w.name, static_cast<unsigned long long>(args.seed), reps.size(), setups.size(),
              static_cast<long long>(attempted), static_cast<long long>(failed),
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0);
  std::printf("  samples per repetition: migrate %zu, downtime %zu, vcpu %zu, turnaround %zu; "
              "migrations %lld; generator late by at most %.0f vns\n",
              r.migrate_vms.size(), r.downtime_vms.size(), r.vcpu_ms.size(),
              r.turnaround_vs.size(), static_cast<long long>(r.migrations),
              r.generator_late_vns);
  for (const auto& [name, value] : metrics) {
    if (!std::isfinite(value.first) || value.first <= 0) {
      std::printf("  FAIL: %s is %g\n", name.c_str(), value.first);
      correct = false;
    }
    std::printf("  %-22s %16.6f %s\n", name.c_str(), value.first, value.second.c_str());
  }
  PrintResultLine(correct, attempted, failed, metrics);
  return 0;
}

int RunTraced(const Workload& w, const Args& args) {
  // Plain, traced, plain again: the tracing overhead compares the traced run
  // with the mean of the plain runs on either side of it.
  RunConfig config;
  config.seed = args.seed;
  const RunResult plain = w.run(config);
  config.traced = true;
  config.spans_out = args.spans_out;
  RunResult traced = w.run(config);
  config.traced = false;
  config.spans_out.clear();
  const RunResult plain_again = w.run(config);

  bool correct = plain.failed == 0 && traced.failed == 0 && plain_again.failed == 0;
  PrintFailures("plain", plain);
  PrintFailures("traced", traced);
  const bool identical = plain.VirtualFingerprint() == traced.VirtualFingerprint() &&
                         plain.VirtualFingerprint() == plain_again.VirtualFingerprint();
  std::printf("workload %s seed %llu: plain vs traced virtual-time results %s\n", w.name,
              static_cast<unsigned long long>(args.seed), identical ? "IDENTICAL" : "DIFFER");
  if (!identical) {
    std::printf("--- plain\n%s--- traced\n%s", plain.VirtualFingerprint().c_str(),
                traced.VirtualFingerprint().c_str());
    correct = false;
  }
  traced.layers["sim.trace_overhead_ratio"] =
      traced.window_s / ((plain.window_s + plain_again.window_s) / 2);

  std::printf("  host ms per migration by tenth of the run (processes spawned so far):\n");
  for (size_t t = 0; t < traced.tenth_ms_per_migration.size(); ++t) {
    std::printf("    tenth %zu: %9.3f ms  (kernel.procs_spawned %lld)\n", t + 1,
                traced.tenth_ms_per_migration[t],
                static_cast<long long>(traced.tenth_procs_spawned[t]));
  }
  std::printf("  host spans (self = total minus direct children):\n");
  for (const auto& [name, t] : traced.span_totals) {
    std::printf("    %-24s %8lld calls %12.6f s total %12.6f s self\n", name.c_str(),
                static_cast<long long>(t.count), t.total_s, t.self_s);
  }
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  for (const auto& [name, unit] : kPerLayer) {
    auto it = traced.layers.find(name);
    const double value = it != traced.layers.end() ? it->second : NAN;
    if (!std::isfinite(value)) {
      std::printf("  FAIL: per-layer metric %s is missing or not finite\n", name);
      correct = false;
    }
    metrics.push_back({name, {value, unit}});
    std::printf("  %-28s %18.6f %s\n", name, value, unit);
  }
  PrintResultLine(correct, plain.attempted + traced.attempted + plain_again.attempted,
                  plain.failed + traced.failed + plain_again.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace pmig::perfbench

int main(int argc, char** argv) {
  using namespace pmig::perfbench;
  // The simulator runs exactly one of its threads at a time, handing control
  // between the driver and the native processes' threads. Keeping them all on
  // one CPU makes each handoff a same-CPU switch instead of a cross-CPU wakeup,
  // whose latency depends on what else the machine is running; unpinned, host
  // times vary about twofold from run to run.
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      break;
    }
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans-out FILE]\n");
    return 2;
  }
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      return args.trace == 1 ? RunTraced(w, args) : RunPlain(w, args);
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
  return 2;
}
