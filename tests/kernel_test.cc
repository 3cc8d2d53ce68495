// Kernel tests: processes, scheduling, fd tables, file syscalls, pipes, sockets,
// terminals, signals, wait semantics, and the Section 5.1 name tracking.

#include "src/kernel/kernel.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "tests/test_util.h"

namespace pmig {
namespace {

using kernel::Credentials;
using kernel::ExitInfo;
using kernel::kNoFile;
using kernel::Proc;
using kernel::ProcKind;
using kernel::ProcState;
using kernel::SpawnOptions;
using kernel::SyscallApi;
using kernel::WaitResult;
using test::kUserUid;
using test::World;
using test::WorldOptions;
using vm::abi::OpenFlags;

SpawnOptions UserOpts(World& world, std::string_view host = "brick") {
  SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  opts.tty = world.console(host);
  opts.cwd = "/u/user";
  return opts;
}

// Runs `body` as a native process on brick to completion; returns its exit code.
int RunNative(World& world, kernel::NativeTask::Entry body) {
  kernel::Kernel& k = world.host("brick");
  const int32_t pid = k.SpawnNative("test-native", std::move(body), UserOpts(world));
  world.RunUntilExited("brick", pid);
  return world.ExitInfoOf("brick", pid).exit_code;
}

TEST(KernelProc, SpawnNativeRunsToCompletion) {
  World world;
  bool ran = false;
  const int code = RunNative(world, [&ran](SyscallApi&) {
    ran = true;
    return 7;
  });
  EXPECT_TRUE(ran);
  EXPECT_EQ(code, 7);
}

TEST(KernelProc, ExitThrowUnwinds) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    api.Exit(42);
    return 0;  // not reached; Exit() unwinds
  });
  EXPECT_EQ(code, 42);
}

TEST(KernelProc, PidsAreUniqueAndHostDisjoint) {
  World world;
  kernel::Kernel& a = world.host("brick");
  kernel::Kernel& b = world.host("schooner");
  const int32_t p1 = a.SpawnNative("x", [](SyscallApi&) { return 0; }, UserOpts(world));
  const int32_t p2 = a.SpawnNative("y", [](SyscallApi&) { return 0; }, UserOpts(world));
  const int32_t p3 =
      b.SpawnNative("z", [](SyscallApi&) { return 0; }, UserOpts(world, "schooner"));
  EXPECT_NE(p1, p2);
  EXPECT_NE(p1, p3);
  EXPECT_NE(p2, p3);
}

TEST(KernelProc, StdioAttachedToTty) {
  World world;
  RunNative(world, [](SyscallApi& api) {
    const Result<int64_t> n = api.Write(1, "to stdout\n");
    return n.ok() ? 0 : 1;
  });
  EXPECT_NE(world.console("brick")->PlainOutput().find("to stdout"), std::string::npos);
}

TEST(KernelProc, TimesAccumulate) {
  World world;
  kernel::Kernel& k = world.host("brick");
  const int32_t pid = k.SpawnNative("t",
                                    [](SyscallApi& api) {
                                      for (int i = 0; i < 10; ++i) {
                                        const auto r = api.Open("/", OpenFlags::kORdOnly);
                                        if (r.ok()) {
                                          const Status st = api.Close(*r);
                                          (void)st;
                                        }
                                      }
                                      return 0;
                                    },
                                    UserOpts(world));
  world.RunUntilExited("brick", pid);
  const Proc* p = k.FindProc(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_GT(p->stime, 0);
  EXPECT_GT(p->utime, 0);
}

// Native tasks are fibers: their code runs on the thread that drives the
// simulation, before and after a blocking syscall switches away.
TEST(KernelProc, NativeTasksRunOnTheCallingThread) {
  World world;
  std::thread::id before_sleep;
  std::thread::id after_sleep;
  const int code = RunNative(world, [&before_sleep, &after_sleep](SyscallApi& api) {
    before_sleep = std::this_thread::get_id();
    api.Sleep(sim::Millis(10));
    after_sleep = std::this_thread::get_id();
    return 0;
  });
  EXPECT_EQ(code, 0);
  EXPECT_EQ(before_sleep, std::this_thread::get_id());
  EXPECT_EQ(after_sleep, std::this_thread::get_id());
}

// Counts how many times an object on a native task's stack was destroyed.
struct UnwindGuard {
  int* destroyed;
  ~UnwindGuard() { ++*destroyed; }
};

// A task that is killed, or whose kernel goes away while it is blocked, unwinds
// its own stack: destructors of objects on it run.
TEST(KernelProc, KilledOrTornDownTaskUnwindsItsStack) {
  int destroyed = 0;
  {
    World world;
    kernel::Kernel& k = world.host("brick");
    const int32_t pid = k.SpawnNative("sleeper",
                                      [&destroyed](SyscallApi& api) {
                                        UnwindGuard guard{&destroyed};
                                        api.Sleep(sim::Seconds(3600));
                                        return 0;
                                      },
                                      UserOpts(world));
    ASSERT_TRUE(world.cluster().RunUntil([&k, pid] {
      const Proc* p = k.FindProc(pid);
      return p != nullptr && p->state == ProcState::kSleeping;
    }));
    EXPECT_EQ(destroyed, 0);
    ASSERT_TRUE(k.PostSignal(pid, vm::abi::kSigTerm, nullptr).ok());
    ASSERT_TRUE(world.RunUntilExited("brick", pid));
    EXPECT_EQ(world.ExitInfoOf("brick", pid).killed_by_signal, vm::abi::kSigTerm);
    EXPECT_EQ(destroyed, 1);
  }

  auto world = std::make_unique<World>();
  const int32_t pid = world->host("brick").SpawnNative("reader",
                                                       [&destroyed](SyscallApi& api) {
                                                         UnwindGuard guard{&destroyed};
                                                         const auto r = api.Read(0, 1);
                                                         return r.ok() ? 0 : 1;
                                                       },
                                                       UserOpts(*world));
  ASSERT_TRUE(world->RunUntilBlocked("brick", pid));
  EXPECT_EQ(destroyed, 1);
  world.reset();
  EXPECT_EQ(destroyed, 2);
}

// --- File descriptors and file syscalls ---

TEST(KernelFiles, CreatWriteReadBack) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    const Result<int> fd = api.Creat("notes.txt", 0644);
    if (!fd.ok()) return 1;
    if (!api.Write(*fd, "hello kernel").ok()) return 2;
    if (!api.Close(*fd).ok()) return 3;
    const Result<int> rd = api.Open("notes.txt", OpenFlags::kORdOnly);
    if (!rd.ok()) return 4;
    const Result<std::string> data = api.ReadAll(*rd);
    if (!data.ok() || *data != "hello kernel") return 5;
    return 0;
  });
  EXPECT_EQ(code, 0);
  EXPECT_EQ(world.FileContents("brick", "/u/user/notes.txt"), "hello kernel");
}

TEST(KernelFiles, FdsAllocatedLowestFirst) {
  World world;
  RunNative(world, [](SyscallApi& api) {
    // 0,1,2 are the tty; the next opens must be 3, 4, then reuse 3 after close.
    const Result<int> a = api.Creat("a", 0644);
    const Result<int> b = api.Creat("b", 0644);
    if (!a.ok() || !b.ok()) return 1;
    if (*a != 3 || *b != 4) return 2;
    const Status st = api.Close(*a);
    (void)st;
    const Result<int> c = api.Creat("c", 0644);
    return (c.ok() && *c == 3) ? 0 : 3;
  });
}

TEST(KernelFiles, FdTableIsFixedSize) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    for (int i = 3; i < kNoFile; ++i) {
      const std::string name = std::string("f").append(std::to_string(i));
      const Result<int> fd = api.Creat(name, 0644);
      if (!fd.ok()) return 1;
    }
    const Result<int> overflow = api.Creat("one-too-many", 0644);
    return overflow.error() == Errno::kMFile ? 0 : 2;
  });
  EXPECT_EQ(code, 0);
}

TEST(KernelFiles, OpenFlagsSemantics) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    // O_CREAT|O_EXCL on an existing file fails.
    const Result<int> a = api.Creat("f", 0644);
    if (!a.ok()) return 1;
    if (!api.Write(*a, "0123456789").ok()) return 2;
    const Status st = api.Close(*a);
    (void)st;
    if (api.Open("f", OpenFlags::kOWrOnly | OpenFlags::kOCreat | OpenFlags::kOExcl).error() !=
        Errno::kExist) {
      return 3;
    }
    // O_TRUNC empties it.
    const Result<int> b = api.Open("f", OpenFlags::kOWrOnly | OpenFlags::kOTrunc);
    if (!b.ok()) return 4;
    const Result<kernel::StatInfo> info = api.Stat("f");
    if (!info.ok() || info->size != 0) return 5;
    // Missing file without O_CREAT is ENOENT.
    if (api.Open("missing", OpenFlags::kORdOnly).error() != Errno::kNoEnt) return 6;
    return 0;
  });
  EXPECT_EQ(code, 0);
}

TEST(KernelFiles, AppendModeSeeksToEndOnWrite) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    const Result<int> a = api.Creat("log", 0644);
    if (!a.ok() || !api.Write(*a, "one").ok()) return 1;
    const Status st = api.Close(*a);
    (void)st;
    const Result<int> b = api.Open("log", OpenFlags::kOWrOnly | OpenFlags::kOAppend);
    if (!b.ok()) return 2;
    const Result<int64_t> seek = api.Lseek(*b, 0, vm::abi::kSeekSet);
    if (!seek.ok()) return 3;
    if (!api.Write(*b, "+two").ok()) return 4;  // must land at EOF despite the seek
    return 0;
  });
  EXPECT_EQ(code, 0);
  EXPECT_EQ(world.FileContents("brick", "/u/user/log"), "one+two");
}

TEST(KernelFiles, LseekWhenceVariants) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    const Result<int> fd = api.Creat("f", 0644);
    if (!fd.ok() || !api.Write(*fd, "abcdefgh").ok()) return 1;
    if (api.Lseek(*fd, 2, vm::abi::kSeekSet).value_or(-1) != 2) return 2;
    if (api.Lseek(*fd, 3, vm::abi::kSeekCur).value_or(-1) != 5) return 3;
    if (api.Lseek(*fd, -1, vm::abi::kSeekEnd).value_or(-1) != 7) return 4;
    if (api.Lseek(*fd, -100, vm::abi::kSeekSet).error() != Errno::kInval) return 5;
    if (api.Lseek(*fd, 0, 9).error() != Errno::kInval) return 6;
    return 0;
  });
  EXPECT_EQ(code, 0);
}

TEST(KernelFiles, DupSharesOffset) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    const Result<int> fd = api.Creat("f", 0644);
    if (!fd.ok() || !api.Write(*fd, "abcdef").ok()) return 1;
    const Result<int> dup = api.Dup(*fd);
    if (!dup.ok()) return 2;
    if (!api.Lseek(*fd, 1, vm::abi::kSeekSet).ok()) return 3;
    // The dup'ed descriptor sees the moved offset (shared file-table entry).
    const Result<int64_t> pos = api.Lseek(*dup, 0, vm::abi::kSeekCur);
    return (pos.ok() && *pos == 1) ? 0 : 4;
  });
  EXPECT_EQ(code, 0);
}

TEST(KernelFiles, BadFdErrors) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    if (api.Close(17).error() != Errno::kBadF) return 1;
    if (api.Read(99, 10).error() != Errno::kBadF) return 2;
    if (api.Write(-1, "x").error() != Errno::kBadF) return 3;
    return 0;
  });
  EXPECT_EQ(code, 0);
}

TEST(KernelFiles, PermissionChecks) {
  World world;
  world.host("brick").vfs().SetupCreateFile("/secret", "root only", 0, 0600);
  const int code = RunNative(world, [](SyscallApi& api) {
    if (api.Open("/secret", OpenFlags::kORdOnly).error() != Errno::kAcces) return 1;
    // Creating in a root-owned 0755 directory fails for a normal user.
    if (api.Creat("/etc/hacked", 0644).error() != Errno::kAcces) return 2;
    return 0;
  });
  EXPECT_EQ(code, 0);
}

TEST(KernelFiles, UnlinkAndLink) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    const Result<int> fd = api.Creat("f", 0644);
    if (!fd.ok() || !api.Write(*fd, "data").ok()) return 1;
    const Status st = api.Close(*fd);
    (void)st;
    if (!api.Link("f", "g").ok()) return 2;
    if (!api.Unlink("f").ok()) return 3;
    const Result<int> g = api.Open("g", OpenFlags::kORdOnly);
    if (!g.ok()) return 4;
    const Result<std::string> data = api.ReadAll(*g);
    if (!data.ok() || *data != "data") return 5;
    if (api.Unlink("f").error() != Errno::kNoEnt) return 6;
    return 0;
  });
  EXPECT_EQ(code, 0);
}

TEST(KernelFiles, CrossMachineLinkIsExdev) {
  World world;
  world.host("schooner").vfs().SetupCreateFile("/tmp/r", "x");
  const int code = RunNative(world, [](SyscallApi& api) {
    return api.Link("/n/schooner/tmp/r", "/tmp/local").error() == Errno::kXDev ? 0 : 1;
  });
  EXPECT_EQ(code, 0);
}

// --- Pipes and sockets ---

TEST(KernelChannels, PipeCarriesBytesAndEof) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    kernel::Kernel& k = api.kernel();
    const auto fds = k.SysPipe(api.proc());
    if (!fds.ok()) return 1;
    if (!api.Write(fds->second, "through the pipe").ok()) return 2;
    const Result<std::string> out = api.Read(fds->first, 100);
    if (!out.ok() || *out != "through the pipe") return 3;
    const Status st = api.Close(fds->second);  // close write end -> EOF
    (void)st;
    const Result<std::string> eof = api.Read(fds->first, 100);
    return (eof.ok() && eof->empty()) ? 0 : 4;
  });
  EXPECT_EQ(code, 0);
}

TEST(KernelChannels, WriteToClosedPipeIsEpipe) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    kernel::Kernel& k = api.kernel();
    const auto fds = k.SysPipe(api.proc());
    if (!fds.ok()) return 1;
    const Status st = api.Close(fds->first);
    (void)st;
    return api.Write(fds->second, "x").error() == Errno::kPipe ? 0 : 2;
  });
  EXPECT_EQ(code, 0);
}

TEST(KernelChannels, SocketPairConnected) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    kernel::Kernel& k = api.kernel();
    const auto fds = k.SysSocket(api.proc());
    if (!fds.ok()) return 1;
    const Proc& p = api.proc();
    if (p.fds[static_cast<size_t>(fds->first)]->kind != kernel::FileKind::kSocket) return 2;
    if (!api.Write(fds->second, "ping").ok()) return 3;
    const Result<std::string> out = api.Read(fds->first, 10);
    return (out.ok() && *out == "ping") ? 0 : 4;
  });
  EXPECT_EQ(code, 0);
}

TEST(KernelChannels, LseekOnPipeIsEspipe) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    const auto fds = api.kernel().SysPipe(api.proc());
    if (!fds.ok()) return 1;
    return api.Lseek(fds->first, 0, vm::abi::kSeekSet).error() == Errno::kSPipe ? 0 : 2;
  });
  EXPECT_EQ(code, 0);
}

// --- Terminals ---

TEST(KernelTty, CookedModeDeliversLines) {
  World world;
  kernel::Tty* tty = world.console("brick");
  tty->Type("partial");
  EXPECT_FALSE(tty->InputReady());  // no newline yet in cooked mode
  tty->Type(" line\nmore\n");
  EXPECT_TRUE(tty->InputReady());
  EXPECT_EQ(tty->ConsumeInput(100), "partial line\n");
  EXPECT_EQ(tty->ConsumeInput(100), "more\n");
}

TEST(KernelTty, RawModeDeliversBytes) {
  World world;
  kernel::Tty* tty = world.console("brick");
  tty->set_flags(vm::abi::kTtyRaw);
  tty->Type("a");
  EXPECT_TRUE(tty->InputReady());
  EXPECT_EQ(tty->ConsumeInput(100), "a");
}

TEST(KernelTty, EchoAppearsInOutput) {
  World world;
  kernel::Tty* tty = world.console("brick");
  tty->Type("echoed\n");
  EXPECT_NE(tty->PlainOutput().find("echoed"), std::string::npos);
  tty->ClearOutput();
  tty->set_flags(vm::abi::kTtyRaw);  // raw implies no echo here
  tty->Type("silent");
  EXPECT_EQ(tty->PlainOutput().find("silent"), std::string::npos);
}

TEST(KernelTty, ReadBlocksUntilTyped) {
  World world;
  kernel::Kernel& k = world.host("brick");
  auto got = std::make_shared<std::string>();
  const int32_t pid = k.SpawnNative("reader",
                                    [got](SyscallApi& api) {
                                      const Result<std::string> line = api.Read(0, 100);
                                      if (line.ok()) *got = *line;
                                      return 0;
                                    },
                                    UserOpts(world));
  world.cluster().RunFor(sim::Seconds(1));
  EXPECT_TRUE(got->empty());  // still blocked
  world.console("brick")->Type("wake up\n");
  world.RunUntilExited("brick", pid);
  EXPECT_EQ(*got, "wake up\n");
}

TEST(KernelTty, IoctlGetSetFlags) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    const Result<uint16_t> flags = api.TtyGetFlags(0);
    if (!flags.ok()) return 1;
    if (!api.TtySetFlags(0, vm::abi::kTtyRaw).ok()) return 2;
    const Result<uint16_t> raw = api.TtyGetFlags(0);
    if (!raw.ok() || *raw != vm::abi::kTtyRaw) return 3;
    // ioctl on a non-tty is ENOTTY.
    const Result<int> fd = api.Creat("f", 0644);
    if (!fd.ok()) return 4;
    return api.TtyGetFlags(*fd).error() == Errno::kNoTty ? 0 : 5;
  });
  EXPECT_EQ(code, 0);
}

TEST(KernelTty, DevTtyOpensControllingTerminal) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    const Result<int> fd = api.Open("/dev/tty", OpenFlags::kORdWr);
    if (!fd.ok()) return 1;
    return api.Write(*fd, "via /dev/tty\n").ok() ? 0 : 2;
  });
  EXPECT_EQ(code, 0);
  EXPECT_NE(world.console("brick")->PlainOutput().find("via /dev/tty"), std::string::npos);
}

TEST(KernelTty, DevTtyWithoutControllingTerminalFails) {
  World world;
  kernel::Kernel& k = world.host("brick");
  auto err = std::make_shared<Errno>(Errno::kOk);
  SpawnOptions opts;  // no tty: a daemon
  opts.creds = {kUserUid, 10, kUserUid, 10};
  const int32_t pid = k.SpawnNative("notty",
                                    [err](SyscallApi& api) {
                                      *err = api.Open("/dev/tty", OpenFlags::kORdWr).error();
                                      return 0;
                                    },
                                    opts);
  world.RunUntilExited("brick", pid);
  EXPECT_EQ(*err, Errno::kNoDev);
}

TEST(KernelTty, DevNullReadsEofSwallowsWrites) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    const Result<int> fd = api.Open("/dev/null", OpenFlags::kORdWr);
    if (!fd.ok()) return 1;
    if (api.Write(*fd, "vanishes").value_or(-1) != 8) return 2;
    const Result<std::string> data = api.Read(*fd, 10);
    return (data.ok() && data->empty()) ? 0 : 3;
  });
  EXPECT_EQ(code, 0);
}

// --- Name tracking (Section 5.1) ---

TEST(NameTracking, OpenRecordsAbsoluteName) {
  World world;
  kernel::Kernel& k = world.host("brick");
  auto name = std::make_shared<std::string>();
  const int32_t pid = k.SpawnNative("nt",
                                    [name](SyscallApi& api) {
                                      const Result<int> fd = api.Creat("rel.txt", 0644);
                                      if (!fd.ok()) return 1;
                                      const auto& file =
                                          api.proc().fds[static_cast<size_t>(*fd)];
                                      if (file->name.has_value()) *name = *file->name;
                                      return 0;
                                    },
                                    UserOpts(world));
  world.RunUntilExited("brick", pid);
  EXPECT_EQ(*name, "/u/user/rel.txt");
}

TEST(NameTracking, DisabledKernelRecordsNothing) {
  WorldOptions options;
  options.track_names = false;
  World world(options);
  kernel::Kernel& k = world.host("brick");
  auto has_name = std::make_shared<bool>(true);
  const int32_t pid = k.SpawnNative("nt",
                                    [has_name](SyscallApi& api) {
                                      const Result<int> fd = api.Creat("rel.txt", 0644);
                                      if (!fd.ok()) return 1;
                                      *has_name = api.proc()
                                                      .fds[static_cast<size_t>(*fd)]
                                                      ->name.has_value();
                                      return 0;
                                    },
                                    UserOpts(world));
  world.RunUntilExited("brick", pid);
  EXPECT_FALSE(*has_name);
  EXPECT_EQ(k.stats().name_allocs, 0);
}

TEST(NameTracking, ChdirUpdatesUserStructPath) {
  World world;
  kernel::Kernel& k = world.host("brick");
  auto log = std::make_shared<std::vector<std::string>>();
  const int32_t pid = k.SpawnNative(
      "cd",
      [log](SyscallApi& api) {
        auto snap = [&] { log->push_back(api.proc().u_cwd_path); };
        if (!api.Chdir("/usr/tmp").ok()) return 1;
        snap();
        if (!api.Chdir("..").ok()) return 2;
        snap();
        if (!api.Chdir(".").ok()) return 3;
        snap();
        if (!api.Chdir("tmp").ok()) return 4;
        snap();
        return 0;
      },
      UserOpts(world));
  world.RunUntilExited("brick", pid);
  ASSERT_EQ(log->size(), 4u);
  EXPECT_EQ((*log)[0], "/usr/tmp");
  EXPECT_EQ((*log)[1], "/usr");
  EXPECT_EQ((*log)[2], "/usr");
  EXPECT_EQ((*log)[3], "/usr/tmp");
}

TEST(NameTracking, UninitializedCwdSkipsRelativeUpdates) {
  // "the updating procedure being skipped if the field has not been yet
  // initialised" — and initialised by the first absolute chdir().
  World world;
  kernel::Kernel& k = world.host("brick");
  const int32_t pid = k.SpawnNative("u",
                                    [](SyscallApi& api) {
                                      api.proc().u_cwd_path.clear();  // pre-init state
                                      const Status a = api.Chdir(".");
                                      if (!a.ok()) return 1;
                                      if (!api.proc().u_cwd_path.empty()) return 2;
                                      const Status b = api.Chdir("/usr");
                                      if (!b.ok()) return 3;
                                      return api.proc().u_cwd_path == "/usr" ? 0 : 4;
                                    },
                                    UserOpts(world));
  world.RunUntilExited("brick", pid);
  EXPECT_EQ(world.ExitInfoOf("brick", pid).exit_code, 0);
}

TEST(NameTracking, StatsTrackAllocations) {
  World world;
  kernel::Kernel& k = world.host("brick");
  const int32_t pid = k.SpawnNative("s",
                                    [](SyscallApi& api) {
                                      const Result<int> fd = api.Creat("x", 0644);
                                      if (!fd.ok()) return 1;
                                      const Status st = api.Close(*fd);
                                      return st.ok() ? 0 : 2;
                                    },
                                    UserOpts(world));
  const int64_t before = k.stats().name_bytes_current;
  world.RunUntilExited("brick", pid);
  EXPECT_GT(k.stats().name_allocs, 0);
  EXPECT_GT(k.stats().name_bytes_peak, 0);
  // All closed (tty fds shared entry released at exit): back to the baseline.
  EXPECT_LE(k.stats().name_bytes_current, before + 1);
}

TEST(NameTracking, GetCwdOnlyOnModifiedKernel) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    const Result<std::string> cwd = api.GetCwd();
    return (cwd.ok() && *cwd == "/u/user") ? 0 : 1;
  });
  EXPECT_EQ(code, 0);

  WorldOptions options;
  options.track_names = false;
  World stock(options);
  const int code2 = RunNative(stock, [](SyscallApi& api) {
    return api.GetCwd().error() == Errno::kInval ? 0 : 1;
  });
  EXPECT_EQ(code2, 0);
}

// --- Signals ---

TEST(KernelSignals, KillPermissions) {
  World world;
  kernel::Kernel& k = world.host("brick");
  // A long-lived root-owned process.
  SpawnOptions root_opts;
  root_opts.creds = {0, 0, 0, 0};
  root_opts.tty = world.console("brick");
  const int32_t victim = k.SpawnNative("victim",
                                       [](SyscallApi& api) {
                                         api.Sleep(sim::Seconds(100));
                                         return 0;
                                       },
                                       root_opts);
  auto err = std::make_shared<Errno>(Errno::kOk);
  const int32_t attacker = k.SpawnNative("attacker",
                                         [victim, err](SyscallApi& api) {
                                           *err = api.Kill(victim, vm::abi::kSigTerm).error();
                                           return 0;
                                         },
                                         UserOpts(world));
  world.RunUntilExited("brick", attacker);
  EXPECT_EQ(*err, Errno::kPerm);
  kernel::Proc* v = k.FindProc(victim);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->Alive());
}

TEST(KernelSignals, KillUnknownPidIsEsrch) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    return api.Kill(99999, vm::abi::kSigTerm).error() == Errno::kSrch ? 0 : 1;
  });
  EXPECT_EQ(code, 0);
}

TEST(KernelSignals, SigTermKillsNativeProc) {
  World world;
  kernel::Kernel& k = world.host("brick");
  const int32_t sleeper = k.SpawnNative("sleeper",
                                        [](SyscallApi& api) {
                                          api.Sleep(sim::Seconds(1000));
                                          return 0;
                                        },
                                        UserOpts(world));
  world.cluster().RunFor(sim::Seconds(1));
  ASSERT_TRUE(k.PostSignal(sleeper, vm::abi::kSigTerm, nullptr).ok());
  ASSERT_TRUE(world.RunUntilExited("brick", sleeper, sim::Seconds(10)));
  EXPECT_EQ(world.ExitInfoOf("brick", sleeper).killed_by_signal, vm::abi::kSigTerm);
}

TEST(KernelSignals, SigQuitDumpsCoreForVmProc) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  ASSERT_TRUE(world.host("brick").PostSignal(pid, vm::abi::kSigQuit, nullptr).ok());
  ASSERT_TRUE(world.RunUntilExited("brick", pid));
  const ExitInfo info = world.ExitInfoOf("brick", pid);
  EXPECT_EQ(info.killed_by_signal, vm::abi::kSigQuit);
  EXPECT_TRUE(info.core_dumped);
  EXPECT_TRUE(world.FileExists("brick", "/u/user/core"));
}

// The core is written where the cwd lives. A cwd on a file server that has
// crashed gets no core: the process still dies by the signal, core_dumped stays
// false, and nothing lands on the server's disk once it is back.
TEST(KernelSignals, NoCoreOnACrashedFileServer) {
  WorldOptions options;
  options.file_server_home = true;  // /u/user -> /n/schooner/u2/user
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  world.cluster().SetHostDown("schooner", true);
  ASSERT_TRUE(world.host("brick").PostSignal(pid, vm::abi::kSigQuit, nullptr).ok());
  ASSERT_TRUE(world.RunUntilExited("brick", pid));
  const ExitInfo info = world.ExitInfoOf("brick", pid);
  EXPECT_EQ(info.killed_by_signal, vm::abi::kSigQuit);
  EXPECT_FALSE(info.core_dumped);
  world.cluster().SetHostDown("schooner", false);
  EXPECT_FALSE(world.FileExists("schooner", "/u2/user/core"));
}

// Inside a disk-full window the core write fails like any other write.
TEST(KernelSignals, NoCoreOnAFullDisk) {
  WorldOptions options;
  options.faults.enabled = true;
  options.faults.disk_full.push_back({"brick", 0, sim::Seconds(600)});
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  ASSERT_TRUE(world.host("brick").PostSignal(pid, vm::abi::kSigQuit, nullptr).ok());
  ASSERT_TRUE(world.RunUntilExited("brick", pid));
  const ExitInfo info = world.ExitInfoOf("brick", pid);
  EXPECT_EQ(info.killed_by_signal, vm::abi::kSigQuit);
  EXPECT_FALSE(info.core_dumped);
  EXPECT_FALSE(world.FileExists("brick", "/u/user/core"));
}

TEST(KernelSignals, IgnoredSignalDoesNothing) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/handler");  // ignores SIGINT
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  ASSERT_TRUE(world.host("brick").PostSignal(pid, vm::abi::kSigInt, nullptr).ok());
  world.cluster().RunFor(sim::Seconds(1));
  kernel::Proc* p = world.host("brick").FindProc(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->Alive());
}

TEST(KernelSignals, CaughtSignalRunsVmHandler) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/handler");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  world.console("brick")->ClearOutput();
  ASSERT_TRUE(world.host("brick").PostSignal(pid, vm::abi::kSigUsr1, nullptr).ok());
  world.cluster().RunFor(sim::Millis(200));
  world.console("brick")->Type("\n");  // next loop iteration prints the hit count
  ASSERT_TRUE(world.cluster().RunUntil([&] {
    return world.console("brick")->PlainOutput().find("1\n") != std::string::npos;
  }));
}

TEST(KernelSignals, SigKillCannotBeCaught) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    kernel::SignalDisposition d;
    d.action = kernel::SignalDisposition::Action::kIgnore;
    if (api.kernel().SysSignal(api.proc(), vm::abi::kSigKill, d).error() != Errno::kInval) {
      return 1;
    }
    if (api.kernel().SysSignal(api.proc(), vm::abi::kSigDump, d).error() != Errno::kInval) {
      return 2;
    }
    return 0;
  });
  EXPECT_EQ(code, 0);
}

// --- Wait and process trees ---

TEST(KernelWait, ParentReapsChild) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    const Result<int32_t> child = api.SpawnProgram("undump", {});  // bad usage: exits 2
    if (!child.ok()) return 1;
    const Result<WaitResult> wr = api.Wait();
    if (!wr.ok()) return 2;
    if (wr->pid != *child) return 3;
    return wr->info.exit_code == 2 ? 0 : 4;
  });
  EXPECT_EQ(code, 0);
}

TEST(KernelWait, NoChildrenIsEchild) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    return api.Wait().error() == Errno::kChild ? 0 : 1;
  });
  EXPECT_EQ(code, 0);
}

TEST(KernelWait, OrphansAreAutoReaped) {
  World world;
  kernel::Kernel& k = world.host("brick");
  // Parent spawns a child then exits without waiting.
  auto child_pid = std::make_shared<int32_t>(0);
  const int32_t parent = k.SpawnNative("parent",
                                       [child_pid](SyscallApi& api) {
                                         const Result<int32_t> c =
                                             api.SpawnProgram("undump", {});
                                         if (c.ok()) *child_pid = *c;
                                         return 0;
                                       },
                                       UserOpts(world));
  world.RunUntilExited("brick", parent);
  ASSERT_GT(*child_pid, 0);
  ASSERT_TRUE(world.RunUntilExited("brick", *child_pid));
  kernel::Proc* c = k.FindProc(*child_pid);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->state, ProcState::kDead);  // reaped by the kernel, not a lingering zombie
}

// Reaped processes leave every scan but stay findable: FindProc still returns
// each one (kDead, exit status intact), ListProcs shows only the live, and
// pids the kernel never handed out find nothing.
TEST(KernelProc, ReapedProcsStayFindableAndLeaveTheScans) {
  World world;
  kernel::Kernel& k = world.host("brick");
  auto release = std::make_shared<bool>(false);
  const int32_t resident = k.SpawnNative("resident",
                                         [release](SyscallApi& api) {
                                           api.BlockUntil([release] { return *release; });
                                           return 0;
                                         },
                                         UserOpts(world));
  constexpr int kShortLived = 300;
  std::vector<int32_t> pids;
  for (int i = 0; i < kShortLived; ++i) {
    const int32_t pid =
        k.SpawnNative("short", [i](SyscallApi&) { return i % 100; }, UserOpts(world));
    ASSERT_TRUE(world.RunUntilExited("brick", pid));
    pids.push_back(pid);
  }
  for (int i = 0; i < kShortLived; ++i) {
    const Proc* p = k.FindProc(pids[static_cast<size_t>(i)]);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->state, ProcState::kDead);
    EXPECT_EQ(p->exit_info.exit_code, i % 100);
  }
  EXPECT_EQ(k.FindProc(resident - 1), nullptr);  // below the first pid handed out
  EXPECT_EQ(k.FindProc(pids.back() + 1), nullptr);  // the next pid, not yet handed out
  const std::vector<Proc*> live = k.ListProcs();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0]->pid, resident);
  *release = true;
  ASSERT_TRUE(world.RunUntilExited("brick", resident));
  EXPECT_TRUE(k.ListProcs().empty());
}

// wait() sees zombie and overlaid children, skips reaped ones, and reports
// ECHILD once none is left.
TEST(KernelWait, WaitSeesZombieOverlaidAndSkipsReapedChildren) {
  World world;
  kernel::Kernel& k = world.host("brick");
  auto release = std::make_shared<bool>(false);
  auto blocker = [release](SyscallApi& api) {
    api.BlockUntil([release] { return *release; });
    return 0;
  };
  const int32_t parent_pid = k.SpawnNative("parent", blocker, UserOpts(world));
  ASSERT_TRUE(world.RunUntilBlocked("brick", parent_pid));
  Proc& parent = *k.FindProc(parent_pid);
  SpawnOptions child_opts = UserOpts(world);
  child_opts.ppid = parent_pid;

  EXPECT_TRUE(k.WaitReady(parent_pid));  // no children: wait() returns at once
  EXPECT_EQ(k.TryWait(parent).error(), Errno::kChild);

  // A zombie child is reaped once, then skipped.
  const int32_t zombie = k.SpawnNative("zombie", [](SyscallApi&) { return 5; }, child_opts);
  ASSERT_TRUE(world.RunUntilExited("brick", zombie));
  EXPECT_EQ(k.FindProc(zombie)->state, ProcState::kZombie);
  EXPECT_TRUE(k.WaitReady(parent_pid));
  Result<WaitResult> wr = k.TryWait(parent);
  ASSERT_TRUE(wr.ok());
  EXPECT_EQ(wr->pid, zombie);
  EXPECT_EQ(wr->info.exit_code, 5);
  EXPECT_FALSE(wr->overlaid);
  EXPECT_EQ(k.FindProc(zombie)->state, ProcState::kDead);
  EXPECT_EQ(k.TryWait(parent).error(), Errno::kChild);

  // A running child makes wait() block; once overlaid it completes the wait
  // and leaves the parent's children.
  const int32_t running = k.SpawnNative("running", blocker, child_opts);
  ASSERT_TRUE(world.RunUntilBlocked("brick", running));
  EXPECT_FALSE(k.WaitReady(parent_pid));
  EXPECT_EQ(k.TryWait(parent).error(), Errno::kAgain);
  k.FindProc(running)->overlaid = true;
  EXPECT_TRUE(k.WaitReady(parent_pid));
  wr = k.TryWait(parent);
  ASSERT_TRUE(wr.ok());
  EXPECT_EQ(wr->pid, running);
  EXPECT_TRUE(wr->overlaid);
  EXPECT_EQ(k.FindProc(running)->ppid, 0);
  EXPECT_TRUE(k.FindProc(running)->Alive());
  EXPECT_TRUE(k.WaitReady(parent_pid));
  EXPECT_EQ(k.TryWait(parent).error(), Errno::kChild);

  // A later zombie is found past the reaped one.
  const int32_t second = k.SpawnNative("zombie2", [](SyscallApi&) { return 6; }, child_opts);
  ASSERT_TRUE(world.RunUntilExited("brick", second));
  wr = k.TryWait(parent);
  ASSERT_TRUE(wr.ok());
  EXPECT_EQ(wr->pid, second);
  EXPECT_EQ(wr->info.exit_code, 6);
  *release = true;
}

TEST(KernelVm, ForkReturnsTwiceWithSharedFiles) {
  World world;
  // forkwait: parent waits; child blocks reading the tty, then exits 7.
  const int32_t pid = world.StartVm("brick", "/bin/forkwait");
  kernel::Kernel& k = world.host("brick");
  ASSERT_TRUE(world.cluster().RunUntil([&] {
    int blocked = 0;
    for (kernel::Proc* p : k.ListProcs()) {
      if (p->kind == ProcKind::kVm && p->state == ProcState::kBlocked) ++blocked;
    }
    return blocked >= 2;  // parent in wait(), child in read()
  }));
  world.console("brick")->Type("go\n");
  ASSERT_TRUE(world.RunUntilExited("brick", pid));
  EXPECT_EQ(world.ExitInfoOf("brick", pid).exit_code, 0);  // wait() succeeded
}

TEST(KernelVm, ExecveRejectsNonExecutable) {
  World world;
  world.host("brick").vfs().SetupCreateFile("/bin/garbage", "not an a.out", 0, 0755);
  kernel::SpawnOptions opts = UserOpts(world);
  const Result<int32_t> pid = world.host("brick").SpawnVm("/bin/garbage", {}, opts);
  EXPECT_EQ(pid.error(), Errno::kNoExec);
}

TEST(KernelVm, ExecveRejectsIsaMismatch) {
  WorldOptions options;
  options.isa = {vm::IsaLevel::kIsa10};  // brick is a Sun-2
  World world(options);
  kernel::SpawnOptions opts = UserOpts(world);
  const Result<int32_t> pid = world.host("brick").SpawnVm("/bin/isa20", {}, opts);
  EXPECT_EQ(pid.error(), Errno::kNoExec);
}

TEST(KernelSched, RoundRobinSharesCpu) {
  World world;
  kernel::Kernel& k = world.host("brick");
  const int32_t a = world.StartVm("brick", "/bin/hog", {"hog", "400000"});
  const int32_t b = world.StartVm("brick", "/bin/hog", {"hog", "400000"});
  world.cluster().RunFor(sim::Seconds(2));
  kernel::Proc* pa = k.FindProc(a);
  kernel::Proc* pb = k.FindProc(b);
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  EXPECT_GT(pa->utime, 0);
  EXPECT_GT(pb->utime, 0);
  // Fair to within one quantum's worth of skew.
  const double ratio = static_cast<double>(pa->utime) / static_cast<double>(pb->utime);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
  EXPECT_GT(k.stats().context_switches, 10);
}

// Round robin runs in spawn order and moves past the last pick; after the most
// recently spawned process it wraps to the start. A process spawned right
// after that wrap therefore waits for a full round.
TEST(KernelSched, RoundRobinWrapsBeforeALaterSpawn) {
  World world;
  kernel::Kernel& k = world.host("brick");
  std::vector<int32_t> hogs;
  for (int i = 0; i < 3; ++i) hogs.push_back(world.StartVm("brick", "/bin/hog", {"hog", "400000"}));
  // The pid that ran in one quantum: the one whose CPU time moved.
  auto step = [&] {
    std::vector<sim::Nanos> before;
    for (int32_t pid : hogs) before.push_back(k.FindProc(pid)->utime + k.FindProc(pid)->stime);
    world.cluster().RunFor(world.cluster().costs().quantum);
    int32_t ran = -1;
    for (size_t i = 0; i < hogs.size(); ++i) {
      const Proc* p = k.FindProc(hogs[i]);
      if (p->utime + p->stime != before[i]) {
        EXPECT_EQ(ran, -1) << "two processes ran in one quantum";
        ran = hogs[i];
      }
    }
    return ran;
  };
  EXPECT_EQ(step(), hogs[0]);
  EXPECT_EQ(step(), hogs[1]);
  EXPECT_EQ(step(), hogs[2]);  // the most recently spawned: the cursor wraps
  hogs.push_back(world.StartVm("brick", "/bin/hog", {"hog", "400000"}));
  std::vector<int32_t> order;
  for (int i = 0; i < 6; ++i) order.push_back(step());
  EXPECT_EQ(order, (std::vector<int32_t>{hogs[0], hogs[1], hogs[2], hogs[3], hogs[0], hogs[1]}));
}

TEST(KernelSched, SetReUidRules) {
  World world;
  const int code = RunNative(world, [](SyscallApi& api) {
    // Non-root can set to own uids only.
    if (!api.SetReUid(kUserUid, kUserUid).ok()) return 1;
    if (api.SetReUid(0, 0).error() != Errno::kPerm) return 2;
    if (!api.SetReUid(-1, kUserUid).ok()) return 3;
    return 0;
  });
  EXPECT_EQ(code, 0);
}

}  // namespace
}  // namespace pmig
