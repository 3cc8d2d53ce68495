// Bench-side instrumentation for the perfbench workloads.
//
// The probe wraps the simulator's public entry points without touching src/:
// the three kernel MigrationHooks (re-installed as wrappers that call the same
// core functions), every entry of Cluster::programs(), core::InstallProgram,
// and Cluster::RunUntil. In every run it keeps the bookkeeping the
// end-to-end metrics need — virtual timestamps of each SIGDUMP and restore,
// and which tool processes worked on which victim — none of which charges
// virtual time or draws randomness, so a probed run is bit-identical to an
// unprobed one. In a traced run it additionally records host-time spans
// (name, start, end, parent, op id) and per-thread CPU, held in memory and
// written out at exit.

#ifndef PMIG_PERFBENCH_PROBE_H_
#define PMIG_PERFBENCH_PROBE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/cluster/testbed.h"

namespace pmig::perfbench {

// Host clocks. Wall time is std::chrono::steady_clock; CPU comes from
// getrusage (RUSAGE_THREAD for one thread, RUSAGE_SELF for the process).
double WallNow();
double ThreadCpuNow();
struct ProcessUsage {
  double cpu_s = 0;             // user + system, all threads
  int64_t vol_ctx_switches = 0;
  double max_rss_mb = 0;
};
ProcessUsage ReadProcessUsage();

// Host-time spans of one traced run. Spans nest per OS thread; a span opened
// on a native task's thread with nothing open on that thread takes the open
// drive span (RunUntil on the driver thread) as its parent, since the
// driver is parked inside it while the task runs.
class HostSpans {
 public:
  struct Record {
    std::string name;
    double start = 0;
    double end = -1;
    int64_t parent = -1;  // index into records(), -1 for a root
    int64_t op = 0;       // victim pid the span worked for, 0 when none
  };
  struct Totals {
    int64_t count = 0;
    double total_s = 0;
    double self_s = 0;  // total minus the time its direct children cover
  };

  int64_t Begin(std::string name, int64_t op, bool drive = false);
  void End(int64_t id);

  std::map<std::string, Totals> Summarize() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Record> records_;
  int64_t open_drive_ = -1;
};

// What the hooks and tool wrappers saw for one process incarnation, keyed by
// (host, pid) of the incarnation that was migrated away.
struct VictimTrack {
  sim::Nanos first_tool_at = -1;   // virtual start of the first tool for it
  sim::Nanos dump_started = -1;    // BuildSigdump entry
  kernel::Proc* dumped = nullptr;  // the incarnation SIGDUMP took down
  sim::Nanos dumped_cpu0 = 0;      // its CPU at BuildSigdump entry
  std::vector<kernel::Proc*> tools;  // dumpproc/restart/migrate runs for it
  kernel::Proc* restored = nullptr;  // the restart process, now the victim
  kernel::Kernel* restored_on = nullptr;
  sim::Nanos restored_at = -1;     // RestProcImpl success
  sim::Nanos restored_cpu = 0;     // restart's CPU at the moment it overlaid
  int restores = 0;
};

// Host time spent on the driver thread inside RunUntil.
struct DriveStats {
  int64_t steps = 0;  // RunUntil predicate calls
  double wall_s = 0;
  double cpu_s = 0;
};

struct ToolUsage {
  double cpu_s = 0;  // thread CPU summed over every run of the entry
};

class Probe {
 public:
  using RestoreListener =
      std::function<void(kernel::Kernel&, kernel::Proc& restored, VictimTrack&)>;

  // Boots the testbed and installs the hook and program wrappers into it.
  // Host spans are recorded only when `traced`.
  Probe(testbed::TestbedOptions options, bool traced);
  // Tears the testbed down first, while the wrappers its unwinding native
  // tasks may still run through are alive.
  ~Probe() { world_.reset(); }

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  void set_restore_listener(RestoreListener listener) { on_restore_ = std::move(listener); }

  VictimTrack* Find(const std::string& host, int32_t pid);
  // Cluster-wide virtual CPU of one migration: every tool process that worked
  // on the victim (the restart counted up to the moment it overlaid) plus the
  // dump work charged to the dying incarnation.
  static sim::Nanos MigrationCpu(const VictimTrack& track);

  // Cluster::RunUntil, counted and timed.
  bool RunUntil(const std::function<bool()>& cond, sim::Nanos limit);

  // core::InstallProgram, timed.
  void InstallProgram(kernel::Kernel& host, const std::string& path,
                      std::string_view source);

  // Scope guard for a bench-side native entry (the balancer): CPU of the
  // calling thread plus a host span while traced.
  class EntryScope {
   public:
    EntryScope(Probe* probe, std::string name);
    ~EntryScope();
    EntryScope(const EntryScope&) = delete;
    EntryScope& operator=(const EntryScope&) = delete;

   private:
    Probe* probe_;
    std::string name_;
    double cpu0_;
    int64_t span_;
  };

  testbed::Testbed& world() { return *world_; }
  double boot_s() const { return boot_s_; }  // the Testbed constructor's wall time
  HostSpans* spans() { return spans_; }
  const DriveStats& drive() const { return drive_; }
  const std::map<std::string, ToolUsage>& tool_usage() const { return tools_; }
  double assemble_s() const { return assemble_s_; }
  int64_t sigdump_calls() const { return sigdump_calls_; }
  int64_t rest_proc_calls() const { return rest_proc_calls_; }
  int64_t verify_calls() const { return verify_calls_; }
  // Hosts a tool leg ran on; the balancer check reads it.
  const std::map<std::string, int64_t>& tool_hosts() const { return tool_hosts_; }

 private:
  void NoteTool(kernel::SyscallApi& api, const std::string& program,
                const std::vector<std::string>& args);
  void OnSigdump(kernel::Kernel& k, kernel::Proc& p);
  void OnRestored(kernel::Kernel& k, kernel::Proc& p);

  HostSpans span_log_;
  HostSpans* spans_;  // &span_log_ when traced, else null
  double boot_s_ = 0;
  RestoreListener on_restore_;
  std::map<std::pair<std::string, int32_t>, VictimTrack> victims_;
  std::map<std::string, ToolUsage> tools_;
  std::map<std::string, int64_t> tool_hosts_;
  DriveStats drive_;
  double assemble_s_ = 0;
  int64_t sigdump_calls_ = 0;
  int64_t rest_proc_calls_ = 0;
  int64_t verify_calls_ = 0;
  std::unique_ptr<testbed::Testbed> world_;  // last: destroyed first
};

}  // namespace pmig::perfbench

#endif  // PMIG_PERFBENCH_PROBE_H_
