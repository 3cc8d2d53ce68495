// Property-based tests.
//
// The central invariant of process migration: for a well-behaved program, an
// execution interrupted at ANY point by dump+restart (same or different machine)
// is indistinguishable from an uninterrupted one — same terminal output, same file
// contents, same final state. We check it for interactive programs across every
// input split point, and for a batch program across randomised dump times.
//
// Also here: randomised path-resolution equivalence (physical walks match the
// lexical model when no symlinks are involved) and fd-table allocation invariants
// under random open/close/dup sequences.

#include <gtest/gtest.h>

#include <map>

#include "src/core/test_programs.h"
#include "src/sim/rng.h"
#include "src/vm/assembler.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using kernel::SyscallApi;
using test::kUserUid;
using test::World;

// A batch worker: appends "<i>\n" for i = 1..300 to worker.out, then exits.
constexpr std::string_view kWorkerSource = R"(
        .text
start:  movi r7, 300
        movi r0, wname
        movi r1, O_WRONLY+O_CREAT+O_APPEND
        movi r2, 420
        sys  SYS_open
        mov  r6, r0
wl:     addi r5, r5, 1
        mov  r0, r5
        call fnum
        movi r3, 10
        movi r4, nlbuf
        stb  r3, r4, 0
        mov  r0, r6
        movi r1, nlbuf
        movi r2, 1
        sys  SYS_write
        blt  r5, r7, wl
        movi r0, 0
        sys  SYS_exit
fnum:                           ; writes r0 in decimal to fd r6; clobbers r0-r4
        movi r3, numbuf+24
        movi r4, 10
fn1:    addi r3, r3, -1
        mod  r1, r0, r4
        addi r1, r1, 48
        stb  r1, r3, 0
        div  r0, r0, r4
        movi r1, 0
        bne  r0, r1, fn1
        movi r0, numbuf+24
        sub  r2, r0, r3
        mov  r1, r3
        mov  r0, r6
        sys  SYS_write
        ret
        .data
wname:  .asciiz "worker.out"
numbuf: .space 24
nlbuf:  .space 2
)";

// Expected worker.out after a full run.
std::string ExpectedWorkerOutput() {
  std::string out;
  for (int i = 1; i <= 300; ++i) out += std::to_string(i) + "\n";
  return out;
}

// --- Interactive equivalence across all split points ---

const std::vector<std::string> kScript = {"alpha\n", "bravo\n", "charlie\n", "delta\n"};

struct InteractiveRun {
  std::string tty_output;   // concatenated across hosts
  std::string file_output;  // counter.out contents
};

InteractiveRun RunUninterrupted() {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  EXPECT_TRUE(world.RunUntilBlocked("brick", pid));
  for (const std::string& line : kScript) {
    world.console("brick")->Type(line);
    EXPECT_TRUE(world.RunUntilBlocked("brick", pid));
  }
  return {world.console("brick")->PlainOutput(),
          world.FileContents("brick", "/u/user/counter.out")};
}

InteractiveRun RunWithMigrationAfter(size_t split) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  EXPECT_TRUE(world.RunUntilBlocked("brick", pid));
  for (size_t i = 0; i < split; ++i) {
    world.console("brick")->Type(kScript[i]);
    EXPECT_TRUE(world.RunUntilBlocked("brick", pid));
  }
  // migrate typed on schooner; per Section 4.1 the process is "restarted on the
  // terminal (or window) on which the command was typed" — so the rest of the
  // session continues on that terminal.
  kernel::Tty* session = world.tty("schooner", "ttyp0");
  const int32_t mig = world.StartTool(
      "schooner", "migrate",
      {"-p", std::to_string(pid), "-f", "brick", "-t", "schooner"}, kUserUid, session);
  EXPECT_TRUE(world.RunUntilExited("schooner", mig, sim::Seconds(300)));
  EXPECT_EQ(world.ExitInfoOf("schooner", mig).exit_code, 0);
  const int32_t new_pid = world.FindPidByCommand("schooner", "migrated");
  EXPECT_GT(new_pid, 0);
  EXPECT_TRUE(world.RunUntilBlocked("schooner", new_pid));
  for (size_t i = split; i < kScript.size(); ++i) {
    session->Type(kScript[i]);
    EXPECT_TRUE(world.RunUntilBlocked("schooner", new_pid));
  }
  return {world.console("brick")->PlainOutput() + session->PlainOutput(),
          world.FileContents("brick", "/u/user/counter.out")};
}

class SplitPointTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SplitPointTest, MigratedRunIndistinguishableFromStraightRun) {
  const InteractiveRun straight = RunUninterrupted();
  const InteractiveRun migrated = RunWithMigrationAfter(GetParam());
  EXPECT_EQ(straight.tty_output, migrated.tty_output);
  EXPECT_EQ(straight.file_output, migrated.file_output);
  EXPECT_EQ(straight.file_output, "alpha\nbravo\ncharlie\ndelta\n");
}

INSTANTIATE_TEST_SUITE_P(EverySplit, SplitPointTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u));

// --- Batch equivalence across random dump times ---

class RandomDumpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomDumpTest, WorkerOutputIdenticalAfterMidComputeMigration) {
  sim::Rng rng(static_cast<uint64_t>(GetParam()));
  World world;
  core::InstallProgram(world.host("brick"), "/bin/worker", kWorkerSource);
  const int32_t pid = world.StartVm("brick", "/bin/worker", {}, "/u/user");
  ASSERT_GT(pid, 0);

  // Let it run a random amount (the worker needs ~several hundred ms total),
  // then dump it mid-compute.
  world.cluster().RunFor(sim::Millis(rng.Range(5, 400)));
  kernel::Proc* p = world.host("brick").FindProc(pid);
  if (p != nullptr && p->Alive()) {
    const int32_t dp = world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid)});
    ASSERT_TRUE(world.RunUntilExited("brick", dp));
    if (world.ExitInfoOf("brick", dp).exit_code == 0) {
      const int32_t rs = world.StartTool("schooner", "restart",
                                         {"-p", std::to_string(pid), "-h", "brick"},
                                         kUserUid, world.console("schooner"));
      ASSERT_TRUE(world.RunUntilExited("schooner", rs, sim::Seconds(600)));
    }
    // else: the worker finished before SIGDUMP landed; fine.
  }
  ASSERT_TRUE(world.cluster().RunUntilIdle(sim::Seconds(600)));
  EXPECT_EQ(world.FileContents("brick", "/u/user/worker.out"), ExpectedWorkerOutput());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDumpTest, ::testing::Range(1, 13));

// --- Randomised path-resolution equivalence ---

TEST(PathProperty, PhysicalWalkMatchesLexicalModelWithoutSymlinks) {
  sim::Rng rng(20260704);
  sim::CostModel costs;
  for (int round = 0; round < 20; ++round) {
    vfs::Filesystem fs("prop");
    vfs::Vfs v(&fs, &costs);
    // Random directory tree.
    std::vector<std::string> dirs = {"/"};
    std::map<std::string, bool> is_file;
    for (int i = 0; i < 30; ++i) {
      const std::string parent = rng.Pick(dirs);
      const std::string name = rng.Ident(3);
      const std::string path = (parent == "/" ? "" : parent) + "/" + name;
      if (is_file.count(path) != 0 ||
          std::find(dirs.begin(), dirs.end(), path) != dirs.end()) {
        continue;
      }
      if (rng.Chance(0.5)) {
        v.SetupMkdirAll(path);
        dirs.push_back(path);
      } else {
        v.SetupCreateFile(path, "x");
        is_file[path] = true;
      }
    }
    // Random path strings with ./.. noise, resolved from random cwds.
    for (int q = 0; q < 50; ++q) {
      const std::string cwd = rng.Pick(dirs);
      std::string rel;
      for (int c = 0; c < static_cast<int>(rng.Below(5)) + 1; ++c) {
        const double dice = rng.Double();
        if (dice < 0.2) {
          rel += "../";
        } else if (dice < 0.4) {
          rel += "./";
        } else {
          rel += rng.Ident(3) + "/";
        }
      }
      rel.pop_back();  // drop trailing slash
      const std::string combined = vfs::Combine(cwd, rel);

      auto cwd_state = v.Resolve(v.RootState(), cwd, vfs::Follow::kAll, nullptr);
      ASSERT_TRUE(cwd_state.ok());
      const auto via_rel = v.Resolve(cwd_state->state, rel, vfs::Follow::kAll, nullptr);
      const auto via_abs = v.Resolve(v.RootState(), combined, vfs::Follow::kAll, nullptr);
      // Whenever the physical walk succeeds, the lexically combined absolute
      // name names the same object. (This is exactly why the paper's textual
      // cwd/file-name tracking is sound for names the process successfully
      // used. The converse does not hold: "a/.." normalises lexically even
      // when "a" does not exist — and symlinks would break it further.)
      if (via_rel.ok()) {
        ASSERT_TRUE(via_abs.ok()) << cwd << " + " << rel;
        EXPECT_EQ(via_rel->inode, via_abs->inode) << cwd << " + " << rel;
      }
    }
  }
}

// --- fd-table invariants under random operations ---

TEST(FdProperty, LowestFreeAllocationUnderRandomOpenCloseDup) {
  World world;
  kernel::Kernel& k = world.host("brick");
  auto failures = std::make_shared<int>(0);
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  opts.cwd = "/tmp";
  const int32_t pid = k.SpawnNative(
      "fdfuzz",
      [failures](SyscallApi& api) {
        sim::Rng rng(777);
        std::map<int, bool> open_fds;  // model
        for (int step = 0; step < 300; ++step) {
          const double dice = rng.Double();
          if (dice < 0.5) {
            const Result<int> fd =
                api.Creat(std::string("f").append(std::to_string(rng.Below(10))),
                          0644);
            if (static_cast<int>(open_fds.size()) >= kernel::kNoFile) {
              if (fd.error() != Errno::kMFile) ++*failures;
              continue;
            }
            if (!fd.ok()) {
              ++*failures;
              continue;
            }
            // Lowest-free invariant.
            for (int i = 0; i < *fd; ++i) {
              if (open_fds.count(i) == 0) ++*failures;
            }
            if (open_fds.count(*fd) != 0) ++*failures;
            open_fds[*fd] = true;
          } else if (dice < 0.8) {
            if (open_fds.empty()) continue;
            auto it = open_fds.begin();
            std::advance(it, static_cast<long>(rng.Below(open_fds.size())));
            if (!api.Close(it->first).ok()) ++*failures;
            open_fds.erase(it);
          } else {
            if (open_fds.empty()) continue;
            auto it = open_fds.begin();
            std::advance(it, static_cast<long>(rng.Below(open_fds.size())));
            const Result<int> dup = api.Dup(it->first);
            if (static_cast<int>(open_fds.size()) >= kernel::kNoFile) {
              if (dup.error() != Errno::kMFile) ++*failures;
              continue;
            }
            if (!dup.ok() || open_fds.count(*dup) != 0) {
              ++*failures;
              continue;
            }
            open_fds[*dup] = true;
          }
        }
        return 0;
      },
      opts);
  world.RunUntilExited("brick", pid, sim::Seconds(600));
  EXPECT_EQ(*failures, 0);
}

// --- Migration idempotence: migrating twice is as good as once ---

TEST(MigrationProperty, DoubleMigrationStillEquivalent) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  world.console("brick")->Type("one\n");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  // brick -> schooner.
  int32_t mig = world.StartTool("schooner", "migrate",
                                {"-p", std::to_string(pid), "-f", "brick", "-t", "schooner"},
                                kUserUid, world.tty("schooner", "ttyp0"));
  ASSERT_TRUE(world.RunUntilExited("schooner", mig, sim::Seconds(300)));
  int32_t cur = world.FindPidByCommand("schooner", "migrated");
  ASSERT_GT(cur, 0);
  ASSERT_TRUE(world.RunUntilBlocked("schooner", cur));
  world.tty("schooner", "ttyp0")->Type("two\n");
  ASSERT_TRUE(world.RunUntilBlocked("schooner", cur));

  // schooner -> brick, back home.
  mig = world.StartTool("brick", "migrate",
                        {"-p", std::to_string(cur), "-f", "schooner", "-t", "brick"},
                        kUserUid, world.tty("brick", "ttyp0"));
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  cur = world.FindPidByCommand("brick", "migrated");
  ASSERT_GT(cur, 0);
  ASSERT_TRUE(world.RunUntilBlocked("brick", cur));
  world.tty("brick", "ttyp0")->Type("three\n");
  ASSERT_TRUE(world.cluster().RunUntil([&] {
    return world.tty("brick", "ttyp0")->PlainOutput().find("r=4 s=4 k=4") !=
           std::string::npos;
  }));
  EXPECT_EQ(world.FileContents("brick", "/u/user/counter.out"), "one\ntwo\nthree\n");
}

}  // namespace
}  // namespace pmig
