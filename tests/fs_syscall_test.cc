// Directory-manipulation syscalls (native API side) and the rdsp instruction.

#include <gtest/gtest.h>

#include "src/vm/assembler.h"
#include "src/vm/cpu.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using kernel::SyscallApi;
using test::kUserUid;
using test::World;

int RunUser(World& world, kernel::NativeTask::Entry fn) {
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  opts.cwd = "/u/user";
  const int32_t pid = world.host("brick").SpawnNative("fs", std::move(fn), opts);
  world.RunUntilExited("brick", pid);
  return world.ExitInfoOf("brick", pid).exit_code;
}

TEST(FsSyscalls, MkdirCreatesOwnedDirectory) {
  World world;
  const int code = RunUser(world, [](SyscallApi& api) {
    if (!api.Mkdir("newdir", 0755).ok()) return 1;
    if (api.Mkdir("newdir", 0755).error() != Errno::kExist) return 2;
    if (!api.Chdir("newdir").ok()) return 3;
    const Result<int> fd = api.Creat("inside", 0644);  // owned dir: writable
    return fd.ok() ? 0 : 4;
  });
  EXPECT_EQ(code, 0);
  EXPECT_TRUE(world.FileExists("brick", "/u/user/newdir/inside"));
}

TEST(FsSyscalls, MkdirPermissionDenied) {
  World world;
  const int code = RunUser(world, [](SyscallApi& api) {
    return api.Mkdir("/etc/nope", 0755).error() == Errno::kAcces ? 0 : 1;
  });
  EXPECT_EQ(code, 0);
}

TEST(FsSyscalls, RmdirSemantics) {
  World world;
  const int code = RunUser(world, [](SyscallApi& api) {
    if (!api.Mkdir("d", 0755).ok()) return 1;
    const Result<int> fd = api.Creat("d/f", 0644);
    if (!fd.ok()) return 2;
    if (api.Rmdir("d").error() != Errno::kExist) return 3;  // not empty
    if (!api.Unlink("d/f").ok()) return 4;
    if (!api.Rmdir("d").ok()) return 5;
    if (api.Rmdir("d").error() != Errno::kNoEnt) return 6;
    // rmdir on a file is ENOTDIR; unlink on a dir is EISDIR.
    const Result<int> f2 = api.Creat("plain", 0644);
    if (!f2.ok()) return 7;
    if (api.Rmdir("plain").error() != Errno::kNotDir) return 8;
    if (!api.Mkdir("d2", 0755).ok()) return 9;
    if (api.Unlink("d2").error() != Errno::kIsDir) return 10;
    return 0;
  });
  EXPECT_EQ(code, 0);
}

TEST(FsSyscalls, RmdirRefusesMountPoint) {
  World world;
  kernel::SpawnOptions opts;  // root
  auto err = std::make_shared<Errno>(Errno::kOk);
  const int32_t pid = world.host("brick").SpawnNative(
      "rm",
      [err](SyscallApi& api) {
        *err = api.Rmdir("/n/schooner").error();
        return 0;
      },
      opts);
  world.RunUntilExited("brick", pid);
  EXPECT_EQ(*err, Errno::kPerm);
}

TEST(FsSyscalls, RenameMovesAndReplaces) {
  World world;
  const int code = RunUser(world, [](SyscallApi& api) {
    const Result<int> a = api.Creat("a", 0644);
    if (!a.ok() || !api.Write(*a, "AAA").ok()) return 1;
    const Status ca = api.Close(*a);
    (void)ca;
    if (!api.Rename("a", "b").ok()) return 2;
    if (api.Stat("a").error() != Errno::kNoEnt) return 3;
    // Replace an existing target.
    const Result<int> c = api.Creat("c", 0644);
    if (!c.ok() || !api.Write(*c, "CCC").ok()) return 4;
    const Status cc = api.Close(*c);
    (void)cc;
    if (!api.Rename("b", "c").ok()) return 5;
    const Result<int> rd = api.Open("c", vm::abi::kORdOnly);
    if (!rd.ok()) return 6;
    const Result<std::string> data = api.ReadAll(*rd);
    if (!data.ok() || *data != "AAA") return 7;
    // Rename onto itself is a no-op.
    if (!api.Rename("c", "c").ok()) return 8;
    // Missing source.
    if (api.Rename("ghost", "x").error() != Errno::kNoEnt) return 9;
    return 0;
  });
  EXPECT_EQ(code, 0);
}

TEST(FsSyscalls, RenameDirectoryRules) {
  World world;
  const int code = RunUser(world, [](SyscallApi& api) {
    if (!api.Mkdir("src", 0755).ok()) return 1;
    if (!api.Mkdir("dst", 0755).ok()) return 2;
    // dir over empty dir: fine.
    if (!api.Rename("src", "dst").ok()) return 3;
    if (api.Stat("src").error() != Errno::kNoEnt) return 4;
    // file over dir / dir over file: refused.
    const Result<int> f = api.Creat("file", 0644);
    if (!f.ok()) return 5;
    if (api.Rename("file", "dst").error() != Errno::kIsDir) return 6;
    if (api.Rename("dst", "file").error() != Errno::kNotDir) return 7;
    return 0;
  });
  EXPECT_EQ(code, 0);
}

// A non-empty directory moves with its contents; only the new name reaches it.
TEST(FsSyscalls, RenameMovesANonEmptyDirectory) {
  World world;
  const int code = RunUser(world, [](SyscallApi& api) {
    if (!api.Mkdir("/tmp/a").ok()) return 1;
    if (!api.Mkdir("/tmp/a/b").ok()) return 2;
    if (!api.Rename("/tmp/a", "/tmp/z").ok()) return 3;
    if (api.Stat("/tmp/a").error() != Errno::kNoEnt) return 4;
    if (!api.Stat("/tmp/z/b").ok()) return 5;
    return 0;
  });
  EXPECT_EQ(code, 0);
}

// A directory cannot move into itself or below itself (4.3BSD's EINVAL), and
// the refused rename leaves the namespace as it was: no cycle.
TEST(FsSyscalls, RenameDirectoryBelowItselfIsEinval) {
  World world;
  const int code = RunUser(world, [](SyscallApi& api) {
    if (!api.Mkdir("/tmp/a").ok()) return 1;
    if (!api.Mkdir("/tmp/a/b").ok()) return 2;
    if (api.Rename("/tmp/a", "/tmp/a/b/c").error() != Errno::kInval) return 3;
    if (api.Rename("/tmp/a", "/tmp/a/c").error() != Errno::kInval) return 4;
    if (api.Stat("/tmp/a/b/c").error() != Errno::kNoEnt) return 5;
    if (api.Stat("/tmp/a/c").error() != Errno::kNoEnt) return 6;
    if (!api.Stat("/tmp/a/b").ok()) return 7;
    return 0;
  });
  EXPECT_EQ(code, 0);
}

TEST(FsSyscalls, RenameAcrossMachinesIsExdev) {
  World world;
  const int code = RunUser(world, [](SyscallApi& api) {
    const Result<int> f = api.Creat("local", 0644);
    if (!f.ok()) return 1;
    return api.Rename("local", "/n/schooner/tmp/there").error() == Errno::kXDev ? 0 : 2;
  });
  EXPECT_EQ(code, 0);
}

TEST(Rdsp, ReadsStackPointer) {
  vm::VmContext ctx;
  ctx.LoadImage(vm::MustAssemble(R"(
start:  rdsp r1                 ; empty stack: sp == STACK_TOP
        push r1
        rdsp r2                 ; one push lower
        sys  0
)"));
  vm::Cpu cpu(vm::IsaLevel::kIsa10);  // base-ISA instruction
  ASSERT_EQ(cpu.Run(ctx, 100), vm::StopReason::kSyscall);
  EXPECT_EQ(ctx.cpu.regs[1], vm::kStackTop);
  EXPECT_EQ(ctx.cpu.regs[2], vm::kStackTop - 8);
}

TEST(Rdsp, CounterStackCellSurvivesArgvAndMigration) {
  // The regression that motivated rdsp: a counter exec'ed WITH arguments (argv on
  // the stack) must still keep a correct stack counter, including across a move.
  World world;
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  opts.tty = world.console("brick");
  opts.cwd = "/u/user";
  const Result<int32_t> pid =
      world.host("brick").SpawnVm("/bin/counter", {"counter", "ignored", "args"}, opts);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(world.RunUntilBlocked("brick", *pid));
  EXPECT_NE(world.console("brick")->PlainOutput().find("r=1 s=1 k=1"), std::string::npos);

  const int32_t mig = world.StartTool(
      "schooner", "migrate", {"-p", std::to_string(*pid), "-f", "brick", "-t", "schooner"},
      kUserUid, world.console("schooner"));
  ASSERT_TRUE(world.RunUntilExited("schooner", mig, sim::Seconds(300)));
  const int32_t moved = world.FindPidByCommand("schooner", "migrated");
  ASSERT_GT(moved, 0);
  world.console("schooner")->Type("x\n");
  ASSERT_TRUE(world.cluster().RunUntil([&] {
    return world.console("schooner")->PlainOutput().find("r=2 s=2 k=2") != std::string::npos;
  }));
}

}  // namespace
}  // namespace pmig
