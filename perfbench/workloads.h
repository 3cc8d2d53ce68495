// The perfbench workloads: each drives one long-lived testbed::Testbed from
// the calling thread and returns what it measured.

#ifndef PMIG_PERFBENCH_WORKLOADS_H_
#define PMIG_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "perfbench/probe.h"
#include "src/cluster/testbed.h"

namespace pmig::perfbench {

struct RunConfig {
  uint64_t seed = 1;
  bool traced = false;  // EnableAllInstrumentation-style options + host spans
  bool setup_only = false;  // build the world, time set-up, tear down
  std::string spans_out;    // traced runs write their host spans here
};

struct RunResult {
  // Host time.
  double setup_s = 0;     // testbed boot, installs and victims, up to the first op
  double window_s = 0;    // first op to the end of the measured work
  // Virtual time and outcomes (deterministic per seed).
  double window_vs = 0;   // virtual seconds the window advanced
  int64_t migrations = 0; // processes restored on another host
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // the first few reasons
  std::vector<double> migrate_vms;
  std::vector<double> downtime_vms;
  std::vector<double> vcpu_ms;
  std::vector<double> turnaround_vs;
  int64_t bytes_moved = 0;
  double generator_late_vns = 0;  // open-loop workloads: worst spawn lateness
  // Each tenth of the run's migrations: host ms per migration, virtual seconds
  // per host second, and the processes the cluster had spawned by its end.
  std::vector<double> tenth_ms_per_migration;
  std::vector<double> tenth_vsec_per_s;
  std::vector<int64_t> tenth_procs_spawned;
  // Per-layer metrics and host-span totals by span name (traced runs).
  std::map<std::string, double> layers;
  std::map<std::string, HostSpans::Totals> span_totals;

  void Fail(const std::string& why);
  // Every value derived from virtual time, printed exactly, for the identity
  // checks between repetitions and between the plain and the traced run.
  std::string VirtualFingerprint() const;
};

RunResult RunInteractiveMigrate(const RunConfig& config);
RunResult RunDirtyMigrate(const RunConfig& config);
RunResult RunClusterBalance(const RunConfig& config);

// Shared plumbing for the workload files.

// Turns every observation-only subsystem on, as the repository's figure
// benches do for their instrumented runs, but keeps a sampler period the
// workload set itself (the event-driven balancer wakes on the sampler).
void EnableAllInstrumentation(testbed::TestbedOptions* options);

// Disk plus wire bytes, summed over every host: all writes plus NFS reads.
int64_t TotalBytesMoved(testbed::Testbed& world);

int64_t ProcsSpawned(testbed::Testbed& world);

// Marks the start of the measured window and, at its end, fills the window
// fields, the aging tenths and (traced) the per-layer metrics of `out`.
class Window {
 public:
  Window(testbed::Testbed& world, Probe& probe, RunResult* out);
  // One completed migration op at the current host time (for the tenths).
  void NoteOp();
  void Finish(const RunConfig& config);

 private:
  testbed::Testbed& world_;
  Probe& probe_;
  RunResult* out_;
  double wall0_;
  double main_cpu0_;
  ProcessUsage usage0_;
  sim::Nanos virtual0_;
  int64_t bytes0_;
  std::vector<double> op_wall_;
  std::vector<sim::Nanos> op_virtual_;
  std::vector<int64_t> op_procs_;
};

}  // namespace pmig::perfbench

#endif  // PMIG_PERFBENCH_WORKLOADS_H_
