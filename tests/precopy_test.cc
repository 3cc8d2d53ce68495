// Pre-copy migration (the V-System-style alternative transport).

#include "src/core/precopy.h"

#include <gtest/gtest.h>

#include "src/core/test_programs.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using core::PrecopyMigrate;
using core::PrecopyOptions;
using core::PrecopyStats;
using kernel::SyscallApi;
using test::kUserUid;
using test::World;

// Runs PrecopyMigrate from a root manager on brick; returns its stats.
Result<PrecopyStats> RunPrecopy(World& world, int32_t pid, kernel::Tty* target_tty) {
  auto out = std::make_shared<Result<PrecopyStats>>(Errno::kAgain);
  net::Network* net = &world.cluster().network();
  kernel::SpawnOptions opts;  // root
  const int32_t mgr = world.host("brick").SpawnNative(
      "precopy-mgr",
      [out, net, pid, target_tty](SyscallApi& api) {
        PrecopyOptions options;
        options.target_tty = target_tty;
        *out = PrecopyMigrate(api, *net, pid, "schooner", options);
        return out->ok() ? 0 : 1;
      },
      opts);
  world.RunUntilExited("brick", mgr, sim::Seconds(600));
  return *out;
}

TEST(Precopy, CounterSurvivesPrecopyMigration) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  world.console("brick")->Type("pre\n");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  const Result<PrecopyStats> stats = RunPrecopy(world, pid, world.console("schooner"));
  ASSERT_TRUE(stats.ok()) << ErrnoName(stats.error());
  EXPECT_GT(stats->new_pid, 0);
  EXPECT_GE(stats->rounds, 1);
  EXPECT_GT(stats->bytes_precopied, 0);
  EXPECT_LT(stats->freeze_time, stats->total_time);

  // The source process is gone; the continuation runs on schooner.
  kernel::Proc* old_proc = world.host("brick").FindProc(pid);
  ASSERT_NE(old_proc, nullptr);
  EXPECT_FALSE(old_proc->Alive());
  EXPECT_TRUE(old_proc->exit_info.migration_dumped);

  ASSERT_TRUE(world.RunUntilBlocked("schooner", stats->new_pid));
  world.console("schooner")->Type("post\n");
  ASSERT_TRUE(world.cluster().RunUntil([&] {
    return world.console("schooner")->PlainOutput().find("r=3 s=3 k=3") != std::string::npos;
  }));
  EXPECT_EQ(world.FileContents("brick", "/u/user/counter.out"), "pre\npost\n");
}

TEST(Precopy, BlockedProcessConvergesInOneRound) {
  // A process blocked at its prompt dirties nothing: the first full copy is the
  // only pre-copy round, and the frozen set is tiny.
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  const Result<PrecopyStats> stats = RunPrecopy(world, pid, world.console("schooner"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rounds, 1);
  EXPECT_LE(stats->bytes_frozen, 2048);
}

TEST(Precopy, RunningDirtierNeedsMoreRoundsAndBytes) {
  World world;
  const int32_t quiet = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", quiet));
  const Result<PrecopyStats> quiet_stats =
      RunPrecopy(world, quiet, world.console("schooner"));
  ASSERT_TRUE(quiet_stats.ok());

  World world2;
  const int32_t busy = world2.StartVm("brick", "/bin/dirtier", {"dirtier", "512"});
  world2.cluster().RunFor(sim::Millis(300));
  const Result<PrecopyStats> busy_stats = RunPrecopy(world2, busy, nullptr);
  ASSERT_TRUE(busy_stats.ok());
  EXPECT_GT(busy_stats->rounds, quiet_stats->rounds);
  EXPECT_GT(busy_stats->bytes_precopied, quiet_stats->bytes_precopied);
  // Kill the (immortal) migrated dirtier so the world can wind down.
  const Status st =
      world2.host("schooner").PostSignal(busy_stats->new_pid, vm::abi::kSigKill, nullptr);
  EXPECT_TRUE(st.ok());
  world2.RunUntilExited("schooner", busy_stats->new_pid);
}

TEST(Precopy, FreezeTimeBeatsFreezeEverythingMigration) {
  // The whole point of pre-copying: the frozen window is much shorter than the
  // paper's dump-then-restart, which freezes for the entire transfer.
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/dirtier", {"dirtier", "64"});
  world.cluster().RunFor(sim::Millis(300));

  // Baseline freeze: SIGDUMP -> dump files -> restart on schooner -> running.
  World baseline;
  const int32_t bpid = baseline.StartVm("brick", "/bin/dirtier", {"dirtier", "64"});
  baseline.cluster().RunFor(sim::Millis(300));
  const sim::Nanos f0 = baseline.cluster().clock().now();
  ASSERT_TRUE(baseline.host("brick").PostSignal(bpid, vm::abi::kSigDump, nullptr).ok());
  ASSERT_TRUE(baseline.RunUntilExited("brick", bpid));
  const int32_t rs = baseline.StartTool("schooner", "restart",
                                        {"-p", std::to_string(bpid), "-h", "brick"});
  ASSERT_TRUE(baseline.cluster().RunUntil([&] {
    const kernel::Proc* p = baseline.host("schooner").FindProc(rs);
    return p != nullptr && p->kind == kernel::ProcKind::kVm &&
           p->state == kernel::ProcState::kRunnable;
  }));
  const sim::Nanos baseline_freeze = baseline.cluster().clock().now() - f0;

  const Result<PrecopyStats> stats = RunPrecopy(world, pid, nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats->freeze_time, baseline_freeze / 2);

  const Status st =
      world.host("schooner").PostSignal(stats->new_pid, vm::abi::kSigKill, nullptr);
  EXPECT_TRUE(st.ok());
}

TEST(Precopy, RequiresRoot) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  auto err = std::make_shared<Errno>(Errno::kOk);
  net::Network* net = &world.cluster().network();
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  const int32_t mgr = world.host("brick").SpawnNative(
      "precopy-user",
      [err, net, pid](SyscallApi& api) {
        *err = PrecopyMigrate(api, *net, pid, "schooner", {}).error();
        return 0;
      },
      opts);
  world.RunUntilExited("brick", mgr);
  EXPECT_EQ(*err, Errno::kPerm);
}

TEST(Precopy, UnknownHostAndPid) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  auto errs = std::make_shared<std::pair<Errno, Errno>>();
  net::Network* net = &world.cluster().network();
  kernel::SpawnOptions opts;  // root
  const int32_t mgr = world.host("brick").SpawnNative(
      "precopy-err",
      [errs, net, pid](SyscallApi& api) {
        errs->first = PrecopyMigrate(api, *net, pid, "atlantis", {}).error();
        errs->second = PrecopyMigrate(api, *net, 987654, "schooner", {}).error();
        return 0;
      },
      opts);
  world.RunUntilExited("brick", mgr);
  EXPECT_EQ(errs->first, Errno::kHostUnreach);
  EXPECT_EQ(errs->second, Errno::kSrch);
}

// Holds fd 4 open on a data file at offset 5 with fd 3 closed beneath it, then
// waits at the terminal: the fd-table shape the reconstruction must preserve.
constexpr std::string_view kFdHolderSource = R"(
        .text
start:  movi r0, dname
        movi r1, O_RDONLY
        movi r2, 0
        sys  SYS_open           ; fd 3, closed below
        movi r0, dname
        movi r1, O_RDONLY
        movi r2, 0
        sys  SYS_open           ; fd 4
        mov  r6, r0
        movi r0, 3
        sys  SYS_close
        mov  r0, r6
        movi r1, buf
        movi r2, 5
        sys  SYS_read           ; fd 4 now sits at offset 5
loop:   movi r0, 0
        movi r1, buf
        movi r2, 64
        sys  SYS_read
        movi r3, 0
        beq  r0, r3, done
        jmp  loop
done:   movi r0, 0
        sys  SYS_exit
        .data
dname:  .asciiz "data"
buf:    .space 64
)";

TEST(Precopy, FdTableRebuildKeepsSlotsAndOffsets) {
  World world;
  kernel::Kernel& brick = world.host("brick");
  core::InstallProgram(brick, "/bin/fdholder", kFdHolderSource);
  brick.vfs().SetupCreateFile("/u/user/data", "0123456789", kUserUid, 0644);
  const int32_t pid = world.StartVm("brick", "/bin/fdholder");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  const kernel::Proc* src = brick.FindProc(pid);
  ASSERT_NE(src, nullptr);
  ASSERT_EQ(src->fds[3], nullptr);
  ASSERT_NE(src->fds[4], nullptr);
  ASSERT_EQ(src->fds[4]->offset, 5);
  const vfs::InodePtr data = src->fds[4]->inode;

  const Result<PrecopyStats> stats = RunPrecopy(world, pid, world.console("schooner"));
  ASSERT_TRUE(stats.ok()) << ErrnoName(stats.error());
  ASSERT_TRUE(world.RunUntilBlocked("schooner", stats->new_pid));
  const kernel::Proc* moved = world.host("schooner").FindProc(stats->new_pid);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->fds[3], nullptr);
  ASSERT_NE(moved->fds[4], nullptr);
  EXPECT_EQ(moved->fds[4]->inode, data);
  EXPECT_EQ(moved->fds[4]->offset, 5);
}

}  // namespace
}  // namespace pmig
