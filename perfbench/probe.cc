#include "perfbench/probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/core/dump_format.h"
#include "src/core/rest_proc.h"
#include "src/core/sigdump.h"
#include "src/core/test_programs.h"

namespace pmig::perfbench {
namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> t_open_spans;

// The value of `flag` in a tool's argument list ("" when absent).
std::string ArgValue(const std::vector<std::string>& args, std::string_view flag) {
  for (size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return "";
}

sim::Nanos ProcCpu(const kernel::Proc& p) { return p.utime + p.stime; }

}  // namespace

double WallNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuNow() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return Seconds(ru.ru_utime) + Seconds(ru.ru_stime);
}

ProcessUsage ReadProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcessUsage u;
  u.cpu_s = Seconds(ru.ru_utime) + Seconds(ru.ru_stime);
  u.vol_ctx_switches = ru.ru_nvcsw;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  return u;
}

// ---------------------------------------------------------------- HostSpans

int64_t HostSpans::Begin(std::string name, int64_t op, bool drive) {
  Record r;
  r.name = std::move(name);
  r.op = op;
  r.parent = !t_open_spans.empty() ? t_open_spans.back() : open_drive_;
  r.start = WallNow();
  const auto id = static_cast<int64_t>(records_.size());
  records_.push_back(std::move(r));
  t_open_spans.push_back(id);
  if (drive) open_drive_ = id;
  return id;
}

void HostSpans::End(int64_t id) {
  records_[static_cast<size_t>(id)].end = WallNow();
  if (!t_open_spans.empty() && t_open_spans.back() == id) t_open_spans.pop_back();
  if (open_drive_ == id) open_drive_ = -1;
}

std::map<std::string, HostSpans::Totals> HostSpans::Summarize() const {
  // A native task's span can outlive the drive span it started under (the
  // task parks and resumes across many RunUntil calls), and concurrent tasks'
  // spans overlap, so each parent's covered time is the union of its
  // children's intervals clipped to the parent's own.
  std::vector<std::vector<std::pair<double, double>>> children(records_.size());
  for (const Record& r : records_) {
    if (r.parent < 0 || r.end < 0) continue;
    const Record& parent = records_[static_cast<size_t>(r.parent)];
    const double begin = std::max(r.start, parent.start);
    const double end = parent.end >= 0 ? std::min(r.end, parent.end) : r.end;
    if (end > begin) children[static_cast<size_t>(r.parent)].emplace_back(begin, end);
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end < 0) continue;
    std::vector<std::pair<double, double>>& spans = children[i];
    std::sort(spans.begin(), spans.end());
    double covered = 0;
    double reach = r.start;
    for (const auto& [begin, end] : spans) {
      if (end <= reach) continue;
      covered += end - std::max(begin, reach);
      reach = end;
    }
    Totals& t = out[r.name];
    ++t.count;
    t.total_s += r.end - r.start;
    t.self_s += (r.end - r.start) - covered;
  }
  return out;
}

bool HostSpans::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const double t0 = records_.empty() ? 0.0 : records_.front().start;
  char buf[256];
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"parent\":%lld,\"op\":%lld}\n",
                  i, r.name.c_str(), (r.start - t0) * 1e6, (r.end - t0) * 1e6,
                  static_cast<long long>(r.parent), static_cast<long long>(r.op));
    out << buf;
  }
  return static_cast<bool>(out);
}

// -------------------------------------------------------------------- Probe

Probe::Probe(testbed::TestbedOptions options, bool traced)
    : spans_(traced ? &span_log_ : nullptr) {
  const double wall0 = WallNow();
  world_ = std::make_unique<testbed::Testbed>(std::move(options));
  boot_s_ = WallNow() - wall0;

  // The same three functions core::InstallMigration installs, each wrapped.
  kernel::MigrationHooks hooks;
  hooks.sigdump = [this](kernel::Kernel& k, kernel::Proc& p) {
    OnSigdump(k, p);
    const int64_t span = spans_ != nullptr ? spans_->Begin("core.BuildSigdump", p.pid) : -1;
    Result<kernel::PreparedDump> dump = core::BuildSigdump(k, p);
    if (span >= 0) spans_->End(span);
    return dump;
  };
  hooks.rest_proc = [this](kernel::Kernel& k, kernel::Proc& p, const std::string& aout,
                           const std::string& stack) {
    ++rest_proc_calls_;
    const int64_t span = spans_ != nullptr ? spans_->Begin("core.RestProcImpl", p.pid) : -1;
    const Status st = core::RestProcImpl(k, p, aout, stack);
    if (span >= 0) spans_->End(span);
    if (st.ok()) OnRestored(k, p);
    return st;
  };
  hooks.verify_dump = [this](const std::vector<std::pair<std::string, std::string>>& files) {
    ++verify_calls_;
    const int64_t span = spans_ != nullptr ? spans_->Begin("core.VerifyDumpBytes", 0) : -1;
    const bool ok = core::VerifyDumpBytes(files);
    if (span >= 0) spans_->End(span);
    return ok;
  };
  for (const auto& host : world_->cluster().hosts()) host->set_migration_hooks(hooks);

  // Every registered program, timed from a scope guard so the BecameVm and
  // ExitRequest unwinds that end restart and exit()ing tools are counted too.
  for (auto& [name, entry] : world_->cluster().programs()) {
    entry = [this, program = name, inner = std::move(entry)](
                kernel::SyscallApi& api, const std::vector<std::string>& args) {
      NoteTool(api, program, args);
      struct Guard {
        Probe* probe;
        const std::string& program;
        double cpu0;
        int64_t span;
        ~Guard() {
          if (probe->spans_ == nullptr) return;
          probe->tools_[program].cpu_s += ThreadCpuNow() - cpu0;
          probe->spans_->End(span);
        }
      };
      int64_t op = 0;
      if (const std::string pid = ArgValue(args, "-p"); !pid.empty()) {
        op = std::strtoll(pid.c_str(), nullptr, 10);
      }
      Guard guard{this, program, spans_ != nullptr ? ThreadCpuNow() : 0.0,
                  spans_ != nullptr ? spans_->Begin("tool." + program, op) : -1};
      return inner(api, args);
    };
  }
}

void Probe::NoteTool(kernel::SyscallApi& api, const std::string& program,
                     const std::vector<std::string>& args) {
  const std::string pid = ArgValue(args, "-p");
  if (pid.empty()) return;
  kernel::Kernel& here = api.kernel();
  ++tool_hosts_[here.hostname()];
  // The victim lives on -f (migrate) or -h (restart) when given, else here.
  std::string host = ArgValue(args, program == "migrate" ? "-f" : "-h");
  if (host.empty()) host = here.hostname();
  const auto victim = static_cast<int32_t>(std::strtol(pid.c_str(), nullptr, 10));
  VictimTrack& track = victims_[{host, victim}];
  if (track.first_tool_at < 0) track.first_tool_at = here.clock().now();
  track.tools.push_back(&api.proc());
}

void Probe::OnSigdump(kernel::Kernel& k, kernel::Proc& p) {
  ++sigdump_calls_;
  VictimTrack& track = victims_[{k.hostname(), p.pid}];
  track.dump_started = k.clock().now();
  track.dumped = &p;
  track.dumped_cpu0 = ProcCpu(p);
}

void Probe::OnRestored(kernel::Kernel& k, kernel::Proc& p) {
  VictimTrack& track = victims_[{p.old_host, p.old_pid}];
  ++track.restores;
  track.restored = &p;
  track.restored_on = &k;
  track.restored_at = k.clock().now();
  track.restored_cpu = ProcCpu(p);
  if (on_restore_) on_restore_(k, p, track);
}

VictimTrack* Probe::Find(const std::string& host, int32_t pid) {
  auto it = victims_.find({host, pid});
  return it != victims_.end() ? &it->second : nullptr;
}

sim::Nanos Probe::MigrationCpu(const VictimTrack& track) {
  sim::Nanos total = 0;
  for (const kernel::Proc* tool : track.tools) {
    total += tool == track.restored ? track.restored_cpu : ProcCpu(*tool);
  }
  if (track.dumped != nullptr) total += ProcCpu(*track.dumped) - track.dumped_cpu0;
  return total;
}

bool Probe::RunUntil(const std::function<bool()>& cond, sim::Nanos limit) {
  const int64_t span = spans_ != nullptr ? spans_->Begin("cluster.RunUntil", 0, true) : -1;
  const double wall0 = WallNow();
  const double cpu0 = ThreadCpuNow();
  int64_t steps = 0;
  const bool ok = world_->cluster().RunUntil(
      [&cond, &steps] {
        ++steps;
        return cond();
      },
      limit);
  drive_.steps += steps;
  drive_.cpu_s += ThreadCpuNow() - cpu0;
  drive_.wall_s += WallNow() - wall0;
  if (span >= 0) spans_->End(span);
  return ok;
}

void Probe::InstallProgram(kernel::Kernel& host, const std::string& path,
                           std::string_view source) {
  const int64_t span = spans_ != nullptr ? spans_->Begin("core.InstallProgram", 0) : -1;
  const double wall0 = WallNow();
  core::InstallProgram(host, path, source);
  assemble_s_ += WallNow() - wall0;
  if (span >= 0) spans_->End(span);
}

Probe::EntryScope::EntryScope(Probe* probe, std::string name)
    : probe_(probe),
      name_(std::move(name)),
      cpu0_(ThreadCpuNow()),
      span_(probe->spans_ != nullptr ? probe->spans_->Begin(name_, 0) : -1) {}

Probe::EntryScope::~EntryScope() {
  probe_->tools_[name_].cpu_s += ThreadCpuNow() - cpu0_;
  if (span_ >= 0) probe_->spans_->End(span_);
}

}  // namespace pmig::perfbench
