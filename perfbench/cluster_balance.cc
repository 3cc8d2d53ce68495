// cluster_balance: the placement control plane at scale. CPU jobs arrive
// open-loop at four login machines of a 256-host cluster faster than those four
// can run them; the event-driven, indexed, fault-aware balancer on brick
// spreads them over the cluster while two hosts are down and eight are cut off
// from the coordinator for the whole run.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "perfbench/workloads.h"
#include "src/apps/load_balancer.h"
#include "src/core/test_programs.h"

namespace pmig::perfbench {
namespace {

constexpr int kHosts = 256;
const char* const kLogins[] = {"brick", "schooner", "brador", "classic"};
const char* const kDown[] = {"host200", "host201"};
constexpr int kPartitionFirst = 248;  // host248..host255: cut off from the rest, never healed
constexpr sim::Nanos kArrivalWindow = sim::Seconds(400);
constexpr int kJobs = 560;  // one every 0.71 virtual seconds
// Job lengths, as hog iterations of 4 us of virtual CPU each: four in five
// jobs are short (0.4 s to 1.6 s), one in five is long (8 s to 16 s) -- the
// Section 8 premise that a process which has run a while will keep running,
// which makes the oldest process the one worth moving. The offered load is
// about 4.5 CPU-seconds per second against the 4 login CPUs.
constexpr int64_t kShortIterations[] = {100'000, 400'000};
constexpr int64_t kLongIterations[] = {2'000'000, 4'000'000};
constexpr int kLongEvery = 5;

struct Job {
  sim::Nanos due = 0;
  std::string login;
  int64_t iterations = 0;
  kernel::Proc* proc = nullptr;  // current incarnation
  bool done = false;
};

}  // namespace

RunResult RunClusterBalance(const RunConfig& config) {
  RunResult result;
  std::mt19937_64 rng(config.seed);
  const sim::Nanos quantum = sim::CostModel{}.quantum;

  // Arrivals: open-loop and periodic, one job every slot, on a quantum
  // boundary so the bench's clock driving lands on it. A Poisson schedule
  // would be the textbook choice, but its bursts moved the turnaround
  // percentiles by up to a fifth from seed to seed. Every fifth job is long.
  // The seed deals the lengths (every four consecutive jobs of a class take
  // one length from each quarter of the class's range) and sends each run of
  // four jobs to the four login hosts in seeded order, so every seed offers
  // the same work to the same hosts at the same rate.
  const auto shuffle = [&rng](auto& v) {
    for (size_t i = v.size() - 1; i > 0; --i) std::swap(v[i], v[rng() % (i + 1)]);
  };
  // One class's lengths, spread evenly over its range and dealt as above.
  const auto deal = [&rng, &shuffle](const int64_t* range, int n) {
    std::vector<std::vector<int64_t>> quarters(4);
    for (int i = 0; i < n; ++i) {
      const int64_t length = range[0] + (range[1] - range[0]) * i / (n - 1);
      quarters[static_cast<size_t>(i * 4 / n)].push_back(length);
    }
    std::vector<int64_t> out;
    std::vector<size_t> order = {0, 1, 2, 3};
    for (int i = 0; i < n; ++i) {
      if (i % 4 == 0) shuffle(order);
      std::vector<int64_t>& q = quarters[order[static_cast<size_t>(i % 4)]];
      const size_t pick = rng() % q.size();
      out.push_back(q[pick]);
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    return out;
  };
  const std::vector<int64_t> long_lengths = deal(kLongIterations, kJobs / kLongEvery);
  const std::vector<int64_t> short_lengths = deal(kShortIterations, kJobs - kJobs / kLongEvery);
  const int64_t slot_quanta = kArrivalWindow / quantum / kJobs;
  std::vector<int> logins = {0, 1, 2, 3};
  std::vector<Job> jobs(kJobs);
  size_t next_short = 0;
  for (int i = 0; i < kJobs; ++i) {
    Job& j = jobs[static_cast<size_t>(i)];
    j.due = i * slot_quanta * quantum;
    j.iterations = i % kLongEvery == 0 ? long_lengths[static_cast<size_t>(i / kLongEvery)]
                                       : short_lengths[next_short++];
    if (i % 4 == 0) shuffle(logins);
    j.login = kLogins[logins[static_cast<size_t>(i % 4)]];
  }

  const double setup0 = WallNow();
  testbed::TestbedOptions options;
  options.num_hosts = kHosts;
  options.daemons = true;
  options.metrics = true;
  options.sample_period = sim::Millis(500);  // the balancer wakes on samples
  options.faults.enabled = true;  // the partition only; no random fault rates
  sim::PartitionFault cut;
  for (int i = kPartitionFirst; i < kHosts; ++i) cut.group_a.push_back("host" + std::to_string(i));
  cut.begin = 0;
  cut.heal = -1;
  options.faults.partitions.push_back(cut);
  if (config.traced) EnableAllInstrumentation(&options);
  Probe probe(std::move(options), config.traced);
  testbed::Testbed& world = probe.world();
  for (const char* host : kDown) world.cluster().SetHostDown(host, true);
  // A 1987-sized compiled job: the hog loop plus library text and data, so
  // every balancer migration moves a realistic image. Only the login hosts
  // need the file; restarts rebuild the image from the dump.
  const std::string job_source = core::WithPadding(core::CpuHogProgramSource(), 1400, 5600);
  for (const char* host : kLogins) probe.InstallProgram(world.host(host), "/bin/job", job_source);
  result.setup_s = WallNow() - setup0;
  if (config.setup_only) return result;

  // Follow each job through its migrations: restores name the incarnation
  // they replace by (old_host, old_pid).
  std::map<std::pair<std::string, int32_t>, size_t> incarnations;
  Window window(world, probe, &result);
  probe.set_restore_listener([&](kernel::Kernel& k, kernel::Proc& p, VictimTrack& track) {
    auto it = incarnations.find({p.old_host, p.old_pid});
    if (it == incarnations.end()) {
      result.Fail("restored pid " + std::to_string(p.pid) + " on " + k.hostname() +
                  " is not a job");
      return;
    }
    if (track.restores > 1) {
      result.Fail("job incarnation " + p.old_host + ":" + std::to_string(p.old_pid) +
                  " restored twice");
    }
    jobs[it->second].proc = &p;
    incarnations[{k.hostname(), p.pid}] = it->second;
    result.migrate_vms.push_back(sim::ToMillis(track.restored_at - track.first_tool_at));
    result.downtime_vms.push_back(sim::ToMillis(track.restored_at - track.dump_started));
    result.vcpu_ms.push_back(sim::ToMillis(Probe::MigrationCpu(track)));
    if (k.hostname() != p.old_host) ++result.migrations;
    window.NoteOp();
  });

  // Job exits, polled from the drive predicate. A dumped incarnation is in
  // flight, not finished: its restore hands the job a new process.
  std::vector<size_t> live;
  const auto poll = [&] {
    const sim::Nanos now = world.cluster().clock().now();
    for (size_t i = 0; i < live.size();) {
      Job& j = jobs[live[i]];
      const kernel::Proc* p = j.proc;
      if (p->Alive() || p->exit_info.migration_dumped) {
        ++i;
        continue;
      }
      j.done = true;
      if (p->exit_info.exit_code != 0 || p->exit_info.killed_by_signal != 0) {
        result.Fail("job " + std::to_string(live[i]) + " exited " +
                    std::to_string(p->exit_info.exit_code) + " signal " +
                    std::to_string(p->exit_info.killed_by_signal));
      } else {
        result.turnaround_vs.push_back(sim::ToSeconds(now - j.due));
      }
      live[i] = live.back();
      live.pop_back();
    }
    return false;
  };

  // The balancer exits as soon as its survey sees a cluster with no VM work
  // at all, so it is (re)started whenever it is not running and some job has
  // been running for at least a quantum, with the rest of the common budget:
  // the arrival window plus 30 s.
  std::vector<std::shared_ptr<apps::LoadBalancerStats>> stats;
  kernel::Proc* balancer_proc = nullptr;
  sim::Nanos balance_until = 0;
  const auto start_balancer = [&] {
    net::Network* net = &world.cluster().network();
    auto out = std::make_shared<apps::LoadBalancerStats>();
    stats.push_back(out);
    const sim::Nanos budget = balance_until - world.cluster().clock().now();
    const int32_t balancer = world.host("brick").SpawnNative(
        "balancer",
        [&probe, net, out, budget](kernel::SyscallApi& api) {
          Probe::EntryScope scope(&probe, "apps.RunLoadBalancer");
          apps::LoadBalancerOptions lb;
          lb.min_age = sim::Seconds(1);
          lb.max_rounds = 1'000'000;  // run_for ends it
          lb.policy = apps::PlacementPolicy::kFaultAware;
          lb.migrate = core::MigrateOptions::Robust();
          lb.use_index = true;
          lb.index_ttl = sim::Seconds(600);
          lb.batch_per_round = 4;
          lb.event_driven = true;
          lb.run_for = budget;
          *out = apps::RunLoadBalancer(api, *net, lb);
          return 0;
        },
        kernel::SpawnOptions{});
    balancer_proc = world.host("brick").FindProc(balancer);
  };

  const sim::Nanos t0 = world.cluster().clock().now();
  balance_until = t0 + kArrivalWindow + sim::Seconds(30);
  for (size_t i = 0; i < jobs.size(); ++i) {
    Job& j = jobs[i];
    j.due += t0;
    const sim::Nanos now = world.cluster().clock().now();
    if (j.due > now) probe.RunUntil(poll, j.due - now);
    const sim::Nanos at = world.cluster().clock().now();
    result.generator_late_vns =
        std::max(result.generator_late_vns, static_cast<double>(at - j.due));
    if ((balancer_proc == nullptr || !balancer_proc->Alive()) && !live.empty() &&
        jobs[live.front()].due < at) {
      start_balancer();
    }
    ++result.attempted;
    const int32_t pid =
        world.StartVm(j.login, "/bin/job", {"job", std::to_string(j.iterations)});
    j.proc = world.host(j.login).FindProc(pid);
    if (j.proc == nullptr) {
      result.Fail("job " + std::to_string(i) + " did not start on " + j.login);
      continue;
    }
    incarnations[{j.login, pid}] = i;
    live.push_back(i);
  }
  // Drain: every job finishes and the balancer reaches its run_for budget and
  // exits. Destroying the testbed under a running indexed balancer is unsafe
  // (see README.md), so teardown always waits for it.
  probe.RunUntil(
      [&] {
        poll();
        return live.empty() && (balancer_proc == nullptr || !balancer_proc->Alive());
      },
      sim::Seconds(1200));
  window.Finish(config);

  for (size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i].done) result.Fail("job " + std::to_string(i) + " never finished");
  }
  if (balancer_proc == nullptr || balancer_proc->Alive()) {
    result.Fail("balancer did not start or is still running at teardown");
  }
  int64_t decisions = 0;
  for (const auto& run : stats) {
    if (run->attempts_to_down != 0 || run->attempts_to_unreachable != 0) {
      result.Fail("balancer aimed " + std::to_string(run->attempts_to_down) +
                  " legs at down hosts and " + std::to_string(run->attempts_to_unreachable) +
                  " at unreachable ones");
    }
    for (char c : run->decisions) decisions += c == ';' ? 1 : 0;
  }
  for (const auto& [host, legs] : probe.tool_hosts()) {
    const int index = host.rfind("host", 0) == 0 ? std::atoi(host.c_str() + 4) : 0;
    if (index >= kPartitionFirst || host == kDown[0] || host == kDown[1]) {
      result.Fail(std::to_string(legs) + " migration legs ran on " + host);
    }
  }
  if (config.traced) {
    result.layers["apps.decisions"] = static_cast<double>(decisions);
    result.layers["apps.balancer_launches"] = static_cast<double>(stats.size());
  }
  if (balancer_proc != nullptr && balancer_proc->Alive()) {
    // Never tear down under a live balancer; leaking the world is the lesser
    // harm, and the failure above already marks the run incorrect.
    std::fprintf(stderr, "perfbench: balancer did not exit\n");
    std::fflush(stderr);
    std::_Exit(1);
  }
  return result;
}

}  // namespace pmig::perfbench
