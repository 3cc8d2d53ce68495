// interactive_migrate: the paper's own case (Sections 4.2 and 6.2, Figure 4)
// at full duty cycle. Four users on the paper's four machines keep migrating
// eight resident counters, each typing migrate on the destination machine's
// terminal for that counter, as Section 4.2 recommends, and then typing a line
// to the counter on its new machine to see it answer.

#include <cstdio>

#include "perfbench/workloads.h"
#include "src/core/test_programs.h"

namespace pmig::perfbench {
namespace {

constexpr int kVictims = 8;
constexpr int kUsers = 4;
constexpr int kOps = 400;  // migrations per repetition
const char* const kHosts[] = {"brick", "schooner", "brador", "classic"};
constexpr const char* kServer = "classic";  // file server for /u/user

struct Victim {
  std::string host;
  kernel::Proc* proc = nullptr;
  int64_t counter = 0;  // value all three counters printed at the last prompt
  bool busy = false;
  bool lost = false;
  std::string tty;      // terminal name, one per victim on every host
  std::string outfile;  // its counter.out, on the file server's disk
};

struct User {
  enum class State { kIdle, kMigrating, kChecking } state = State::kIdle;
  int victim = -1;
  std::string src;
  int32_t pid = 0;
  kernel::Proc* migrate = nullptr;
  kernel::Proc* counter = nullptr;  // the restored counter being checked
  kernel::Tty* tty = nullptr;
  sim::Nanos started = 0;
  std::string typed;
  size_t file_size = 0;
};

bool BlockedAtPrompt(const kernel::Proc* p) {
  if (p->state != kernel::ProcState::kBlocked) return false;
  return p->controlling_tty == nullptr || !p->controlling_tty->InputReady();
}

}  // namespace

RunResult RunInteractiveMigrate(const RunConfig& config) {
  RunResult result;
  const double setup0 = WallNow();
  testbed::TestbedOptions options;
  options.num_hosts = 4;
  options.file_server_home = true;
  options.daemons = true;
  options.metrics = true;  // bytes moved; observation-only
  if (config.traced) EnableAllInstrumentation(&options);
  Probe probe(std::move(options), config.traced);
  testbed::Testbed& world = probe.world();

  const std::string padded = core::WithPadding(core::CounterProgramSource(), 1400, 5600);
  for (const auto& host : world.cluster().hosts()) {
    probe.InstallProgram(*host, "/bin/bigcounter", padded);
  }
  std::vector<Victim> victims(kVictims);
  for (int i = 0; i < kVictims; ++i) {
    Victim& v = victims[static_cast<size_t>(i)];
    const std::string dir = "v" + std::to_string(i);
    world.host(kServer).vfs().SetupMkdirAll("/u2/user/" + dir)->uid = testbed::kUserUid;
    v.tty = "tv" + std::to_string(i);
    v.outfile = "/u2/user/" + dir + "/counter.out";
    for (const auto& host : world.cluster().hosts()) host->CreateTty(v.tty);
    v.host = kHosts[i % 4];
    const int32_t pid = world.StartVm(v.host, "/bin/bigcounter", {}, "/u/user/" + dir,
                                      world.tty(v.host, v.tty));
    v.proc = world.host(v.host).FindProc(pid);
    // Feed one line so all three counters are nonzero, and leave it blocked at
    // its second prompt, as the figure benches do.
    probe.RunUntil([&v] { return BlockedAtPrompt(v.proc); }, sim::Seconds(120));
    world.tty(v.host, v.tty)->Type("x\n");
    probe.RunUntil([&v] { return BlockedAtPrompt(v.proc); }, sim::Seconds(120));
    world.tty(v.host, v.tty)->ClearOutput();
    v.counter = 2;
  }
  result.setup_s = WallNow() - setup0;
  if (config.setup_only) return result;

  // One testbed for the whole run, never rebuilt between migrations: the
  // simulator's host cost per migration grows as the cluster ages (process
  // tables keep every reaped process), and rebuilding would hide exactly that
  // slowdown from the host-time metrics and the traced run's aging tenths.
  std::mt19937_64 rng(config.seed);
  Window window(world, probe, &result);
  std::vector<User> users(kUsers);
  int started = 0;
  int finished = 0;

  const auto finish_op = [&](User& u, Victim& v, bool ok) {
    if (!ok) v.lost = true;
    v.busy = false;
    u.state = User::State::kIdle;
    ++finished;
  };

  const auto start_op = [&](User& u) {
    std::vector<int> idle;
    for (int i = 0; i < kVictims; ++i) {
      if (!victims[static_cast<size_t>(i)].busy && !victims[static_cast<size_t>(i)].lost) {
        idle.push_back(i);
      }
    }
    if (idle.empty()) return;
    u.victim = idle[rng() % idle.size()];
    Victim& v = victims[static_cast<size_t>(u.victim)];
    std::vector<std::string> others;
    for (const char* h : kHosts) {
      if (v.host != h) others.emplace_back(h);
    }
    const std::string dst = others[rng() % others.size()];
    u.src = v.host;
    u.pid = v.proc->pid;
    std::vector<std::string> args = {"-p", std::to_string(u.pid), "-f", u.src, "-t", dst};
    if (started % 2 == 1) args.push_back("--daemon");  // half rsh, half daemon
    ++started;
    ++result.attempted;
    v.busy = true;
    v.host = dst;
    u.tty = world.tty(dst, v.tty);
    u.tty->ClearOutput();
    u.started = world.cluster().clock().now();
    const int32_t mig = world.StartTool(dst, "migrate", args, testbed::kUserUid, u.tty);
    u.migrate = world.host(dst).FindProc(mig);
    u.state = User::State::kMigrating;
    if (u.migrate == nullptr) {
      result.Fail("migrate did not start on " + dst);
      finish_op(u, v, false);
    }
  };

  while (finished < kOps) {
    for (User& u : users) {
      if (u.state == User::State::kIdle && started < kOps) start_op(u);
    }
    const bool progressed = probe.RunUntil(
        [&users] {
          for (const User& u : users) {
            if (u.state == User::State::kMigrating && !u.migrate->Alive()) return true;
            if (u.state == User::State::kChecking &&
                (BlockedAtPrompt(u.counter) || !u.counter->Alive())) {
              return true;
            }
          }
          return false;
        },
        sim::Seconds(600));
    if (!progressed) {
      result.Fail("no migration finished within 600 virtual seconds");
      break;
    }
    const sim::Nanos now = world.cluster().clock().now();
    for (User& u : users) {
      if (u.state == User::State::kIdle) continue;
      Victim& v = victims[static_cast<size_t>(u.victim)];
      if (u.state == User::State::kMigrating) {
        if (u.migrate->Alive()) continue;
        const kernel::ExitInfo& exit = u.migrate->exit_info;
        const VictimTrack* track = probe.Find(u.src, u.pid);
        if (exit.exit_code != 0 || exit.killed_by_signal != 0 || track == nullptr ||
            track->restored == nullptr || track->restored_on != &world.host(v.host)) {
          result.Fail("migrate -p " + std::to_string(u.pid) + " -f " + u.src + " -t " +
                      v.host + " exited " + std::to_string(exit.exit_code));
          finish_op(u, v, false);
          continue;
        }
        result.migrate_vms.push_back(sim::ToMillis(now - u.started));
        result.downtime_vms.push_back(sim::ToMillis(track->restored_at - track->dump_started));
        result.vcpu_ms.push_back(sim::ToMillis(Probe::MigrationCpu(*track)));
        ++result.migrations;
        window.NoteOp();
        v.proc = track->restored;
        u.counter = v.proc;
        // Output check: one more line must reach the counter on its new host.
        u.typed = "m" + std::to_string(finished) + "\n";
        u.file_size = world.FileContents(kServer, v.outfile).size();
        u.tty->Type(u.typed);
        u.state = User::State::kChecking;
      } else if (BlockedAtPrompt(v.proc) || !v.proc->Alive()) {
        const std::string expect = "r=" + std::to_string(v.counter + 1) +
                                   " s=" + std::to_string(v.counter + 1) +
                                   " k=" + std::to_string(v.counter + 1) + "\n";
        const std::string file = world.FileContents(kServer, v.outfile);
        const bool printed = u.tty->PlainOutput().find(expect) != std::string::npos;
        const bool appended = file.size() == u.file_size + u.typed.size() &&
                              file.compare(u.file_size, u.typed.size(), u.typed) == 0;
        if (!v.proc->Alive() || !printed || !appended) {
          result.Fail("counter " + std::to_string(v.proc->pid) + " on " + v.host +
                      (v.proc->Alive() ? "" : " exited") + (printed ? "" : " did not print " +
                      expect.substr(0, expect.size() - 1)) +
                      (appended ? "" : " did not append to " + v.outfile));
          finish_op(u, v, false);
          continue;
        }
        ++v.counter;
        result.turnaround_vs.push_back(sim::ToSeconds(now - u.started));
        finish_op(u, v, true);
      }
    }
  }
  window.Finish(config);
  return result;
}

}  // namespace pmig::perfbench
