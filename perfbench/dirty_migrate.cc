// dirty_migrate: the same migration core used the way a compute job would
// use it. Eight /bin/dirtier processes keep running and writing memory while a
// closed-loop operator moves them with migrate --daemon --cached (delta dumps
// plus the segment cache), typing migrate on the source, the destination or a
// seeded third machine in turn, so Figure 4's L->R, R->L and R->R placements
// all occur.

#include <algorithm>

#include "perfbench/workloads.h"

namespace pmig::perfbench {
namespace {

constexpr int kVictims = 8;
constexpr int kOps = 110;  // migrations per repetition
const char* const kHosts[] = {"brick", "schooner", "brador", "classic"};

struct Victim {
  std::string host;
  kernel::Proc* proc = nullptr;
};

}  // namespace

RunResult RunDirtyMigrate(const RunConfig& config) {
  RunResult result;
  std::mt19937_64 rng(config.seed);
  const double setup0 = WallNow();
  testbed::TestbedOptions options;
  options.num_hosts = 4;
  options.file_server_home = true;
  options.daemons = true;
  options.metrics = true;
  options.dirty_tracking = true;  // delta dumps for --cached
  if (config.traced) EnableAllInstrumentation(&options);
  Probe probe(std::move(options), config.traced);
  testbed::Testbed& world = probe.world();

  // Dirtying rates: the eight powers of two from 16 B to 2 KB per cycle, dealt
  // to the victims in seeded order with a seeded +-10% jitter, so every seed
  // covers the whole range.
  std::vector<int> rates;
  for (int i = 0; i < kVictims; ++i) rates.push_back(16 << i);
  for (size_t i = rates.size() - 1; i > 0; --i) std::swap(rates[i], rates[rng() % (i + 1)]);
  std::vector<Victim> victims(kVictims);
  for (int i = 0; i < kVictims; ++i) {
    Victim& v = victims[static_cast<size_t>(i)];
    const double jitter = 0.9 + 0.2 * static_cast<double>(rng() % 1001) / 1000.0;
    const int rate = std::clamp(static_cast<int>(rates[static_cast<size_t>(i)] * jitter), 16,
                                2048);
    v.host = kHosts[i % 4];
    const int32_t pid = world.StartVm(v.host, "/bin/dirtier", {"dirtier", std::to_string(rate)});
    v.proc = world.host(v.host).FindProc(pid);
  }
  probe.RunUntil([] { return false; }, sim::Seconds(1));  // every victim has dirtied pages
  result.setup_s = WallNow() - setup0;
  if (config.setup_only) return result;

  // One long-lived testbed for the whole run (see interactive_migrate.cc).
  Window window(world, probe, &result);
  for (int op = 0; op < kOps; ++op) {
    Victim& v = victims[rng() % victims.size()];
    // The destination is the least-populated other host (seeded among ties),
    // so every CPU keeps running dirtiers and each virtual second costs the
    // host the same work whatever the seed.
    std::map<std::string, int> population;
    for (const Victim& other : victims) ++population[other.host];
    std::vector<std::string> others;
    int fewest = kVictims + 1;
    for (const char* h : kHosts) {
      if (v.host == h) continue;
      if (population[h] < fewest) {
        fewest = population[h];
        others.clear();
      }
      if (population[h] == fewest) others.emplace_back(h);
    }
    const std::string src = v.host;
    const std::string dst = others[rng() % others.size()];
    // Where migrate is typed rotates through Figure 4's placements relative to
    // that machine -- L->R (the source), R->L (the destination) and R->R (a
    // seeded third host) -- so every seed runs each a third of the time.
    std::string typed_on = op % 3 == 0 ? src : dst;
    if (op % 3 == 2) {
      std::vector<std::string> thirds;
      for (const char* h : kHosts) {
        if (h != src && h != dst) thirds.emplace_back(h);
      }
      typed_on = thirds[rng() % thirds.size()];
    }
    const int32_t pid = v.proc->pid;
    ++result.attempted;
    const sim::Nanos started = world.cluster().clock().now();
    const int32_t mig = world.StartTool(
        typed_on, "migrate", {"-p", std::to_string(pid), "-f", src, "-t", dst, "--daemon",
                              "--cached"});
    kernel::Proc* migrate = world.host(typed_on).FindProc(mig);
    if (migrate == nullptr) {
      result.Fail("migrate did not start on " + typed_on);
      break;
    }
    probe.RunUntil([migrate] { return !migrate->Alive(); }, sim::Seconds(600));
    const sim::Nanos done = world.cluster().clock().now();
    world.tty(typed_on, "ttyp0")->ClearOutput();
    const VictimTrack* track = probe.Find(src, pid);
    kernel::Proc* restored = track != nullptr ? track->restored : nullptr;
    if (migrate->Alive() || migrate->exit_info.exit_code != 0 || restored == nullptr ||
        track->restored_on != &world.host(dst)) {
      result.Fail("migrate -p " + std::to_string(pid) + " -f " + src + " -t " + dst +
                  " exited " + std::to_string(migrate->exit_info.exit_code));
      if (restored == nullptr) break;  // the victim is gone; stop rather than guess
      v.proc = restored;
      v.host = track->restored_on->hostname();
      continue;
    }
    // Output check: alive on the destination as the migrated incarnation of
    // the victim, and still executing instructions there.
    const sim::Nanos cpu0 = restored->utime;
    probe.RunUntil([restored, cpu0] { return !restored->Alive() || restored->utime > cpu0; },
                   sim::Seconds(10));
    if (!restored->Alive() || restored->utime <= cpu0 || !restored->migrated ||
        restored->old_pid != pid || restored->old_host != src) {
      result.Fail("dirtier " + std::to_string(pid) + " is not running on " + dst +
                  " as its migrated incarnation");
    } else {
      result.turnaround_vs.push_back(sim::ToSeconds(world.cluster().clock().now() - started));
    }
    result.migrate_vms.push_back(sim::ToMillis(done - started));
    result.downtime_vms.push_back(sim::ToMillis(track->restored_at - track->dump_started));
    result.vcpu_ms.push_back(sim::ToMillis(Probe::MigrationCpu(*track)));
    ++result.migrations;
    window.NoteOp();
    v.proc = restored;
    v.host = dst;
  }
  window.Finish(config);
  return result;
}

}  // namespace pmig::perfbench
