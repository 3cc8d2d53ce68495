// The VM-side syscall ABI, exercised by real machine programs: every trap the
// dispatcher implements, including its error returns into r0.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/test_programs.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using test::kUserUid;
using test::World;

// Runs an assembly program on brick to completion; returns its exit code.
// The program is installed at /bin/t and started with no tty (batch).
int RunAsm(World& world, const std::string& source, bool with_tty = false,
           const std::string& cwd = "/u/user") {
  core::InstallProgram(world.host("brick"), "/bin/t", source);
  kernel::Kernel& k = world.host("brick");
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  if (with_tty) opts.tty = world.console("brick");
  opts.cwd = cwd;
  const Result<int32_t> pid = k.SpawnVm("/bin/t", {}, opts);
  EXPECT_TRUE(pid.ok());
  if (!pid.ok()) return -1;
  EXPECT_TRUE(world.RunUntilExited("brick", *pid, sim::Seconds(120)));
  return world.ExitInfoOf("brick", *pid).exit_code;
}

// Convention in these programs: exit(0) = success, exit(N) = step N failed.

TEST(VmSyscall, TimeAdvances) {
  World world;
  world.cluster().RunFor(sim::Seconds(3));
  const int code = RunAsm(world, R"(
start:  sys  SYS_time           ; r0 = seconds since boot
        movi r1, 3
        blt  r0, r1, bad
        movi r0, 0
        sys  SYS_exit
bad:    movi r0, 1
        sys  SYS_exit
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, SleepWaitsTheRequestedSeconds) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, 2
        sys  SYS_sleep
        movi r1, 0
        bne  r0, r1, bad1       ; sleep returns 0
        sys  SYS_time           ; started at boot: at least 2 s have passed
        movi r1, 2
        blt  r0, r1, bad2
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
)");
  EXPECT_EQ(code, 0);
}

// A negative duration sleeps 0 s; a huge one is capped instead of overflowing
// the virtual clock, so the process is still asleep a minute later.
TEST(VmSyscall, SleepDurationIsClamped) {
  World world;
  EXPECT_EQ(RunAsm(world, R"(
start:  movi r0, -5
        sys  SYS_sleep
        sys  SYS_time
        sys  SYS_exit           ; exit code = seconds since boot
)"),
            0);
  core::InstallProgram(world.host("brick"), "/bin/long", R"(
start:  movi r0, 1
        movi r1, 62
        shl  r0, r0, r1
        sys  SYS_sleep
        movi r0, 0
        sys  SYS_exit
)");
  const int32_t pid = world.StartVm("brick", "/bin/long");
  ASSERT_GT(pid, 0);
  world.cluster().RunFor(sim::Seconds(60));
  const kernel::Proc* p = world.host("brick").FindProc(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->state, kernel::ProcState::kSleeping);
}

TEST(VmSyscall, GetUidAndPpid) {
  World world;
  const int code = RunAsm(world, R"(
start:  sys  SYS_getuid
        movi r1, 100
        bne  r0, r1, bad1
        sys  SYS_getppid        ; spawned by the kernel: ppid 0
        movi r1, 0
        bne  r0, r1, bad2
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, MkdirChdirGetcwdRmdir) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, dname
        movi r1, 493            ; 0755
        sys  SYS_mkdir
        movi r1, 0
        bne  r0, r1, bad1
        movi r0, dname
        sys  SYS_chdir
        movi r1, 0
        bne  r0, r1, bad2
        movi r0, cwdbuf
        movi r1, 64
        sys  SYS_getcwd
        movi r1, 0
        bne  r0, r1, bad3
        ; verify cwd ends with "subdir": check first byte is '/'
        movi r3, cwdbuf
        ldb  r4, r3, 0
        movi r5, 47             ; '/'
        bne  r4, r5, bad4
        ; back out and remove
        movi r0, dotdot
        sys  SYS_chdir
        movi r0, dname
        sys  SYS_rmdir
        movi r1, 0
        bne  r0, r1, bad5
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
bad4:   movi r0, 4
        sys  SYS_exit
bad5:   movi r0, 5
        sys  SYS_exit
        .data
dname:  .asciiz "subdir"
dotdot: .asciiz ".."
cwdbuf: .space 64
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, RenameAndStat) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, oldn
        movi r1, 420
        sys  SYS_creat
        movi r7, 0
        blt  r0, r7, bad1
        mov  r6, r0
        mov  r0, r6
        movi r1, msg
        movi r2, 5
        sys  SYS_write
        mov  r0, r6
        sys  SYS_close
        movi r0, oldn
        movi r1, newn
        sys  SYS_rename
        movi r1, 0
        bne  r0, r1, bad2
        ; stat the new name: size must be 5, type regular (0)
        movi r0, newn
        movi r1, stbuf
        sys  SYS_stat
        movi r1, 0
        bne  r0, r1, bad3
        movi r3, stbuf
        ld   r4, r3, 0          ; type
        movi r5, 0
        bne  r4, r5, bad4
        ld   r4, r3, 8          ; size
        movi r5, 5
        bne  r4, r5, bad5
        ; the old name is gone
        movi r0, oldn
        movi r1, stbuf
        sys  SYS_stat
        movi r1, -2             ; -ENOENT
        bne  r0, r1, bad6
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
bad4:   movi r0, 4
        sys  SYS_exit
bad5:   movi r0, 5
        sys  SYS_exit
bad6:   movi r0, 6
        sys  SYS_exit
        .data
oldn:   .asciiz "before.txt"
newn:   .asciiz "after.txt"
msg:    .asciiz "12345"
stbuf:  .space 32
)");
  EXPECT_EQ(code, 0);
  EXPECT_TRUE(world.FileExists("brick", "/u/user/after.txt"));
  EXPECT_FALSE(world.FileExists("brick", "/u/user/before.txt"));
}

TEST(VmSyscall, PipeBetweenForkedProcesses) {
  World world;
  const int code = RunAsm(world, R"(
; parent writes through a pipe to the child; child exits with the byte it read.
start:  sys  SYS_pipe           ; r0 = read end, r1 = write end
        mov  r6, r0
        mov  r7, r1
        sys  SYS_fork
        movi r1, 0
        beq  r0, r1, child
        ; parent: write one byte, wait for the child, exit with its code
        movi r3, pbuf
        movi r4, 42
        stb  r4, r3, 0
        mov  r0, r7
        movi r1, pbuf
        movi r2, 1
        sys  SYS_write
        sys  SYS_wait           ; r0 = pid, r1 = status (code | sig<<8)
        movi r2, 0
        blt  r0, r2, badw
        mov  r0, r1
        sys  SYS_exit
badw:   movi r0, 99
        sys  SYS_exit
child:  mov  r0, r6
        movi r1, cbuf
        movi r2, 1
        sys  SYS_read
        movi r3, cbuf
        ldb  r0, r3, 0          ; the byte (42)
        sys  SYS_exit
        .data
pbuf:   .space 4
cbuf:   .space 4
)");
  EXPECT_EQ(code, 42);
}

TEST(VmSyscall, DupSharesOffsetInVm) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, fname
        movi r1, 420
        sys  SYS_creat
        mov  r6, r0
        mov  r0, r6
        movi r1, data8
        movi r2, 8
        sys  SYS_write
        mov  r0, r6
        sys  SYS_dup            ; r0 = dup fd
        mov  r7, r0
        ; lseek(dup, 0, CUR) must be 8
        mov  r0, r7
        movi r1, 0
        movi r2, SEEK_CUR
        sys  SYS_lseek
        movi r1, 8
        bne  r0, r1, bad
        movi r0, 0
        sys  SYS_exit
bad:    movi r0, 1
        sys  SYS_exit
        .data
fname:  .asciiz "dup.dat"
data8:  .ascii "ABCDEFGH"
        .byte 0
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, LinkUnlinkFromVm) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, fname
        movi r1, 420
        sys  SYS_creat
        mov  r0, r0
        sys  SYS_close
        movi r0, fname
        movi r1, lname
        sys  SYS_link
        movi r1, 0
        bne  r0, r1, bad1
        movi r0, fname
        sys  SYS_unlink
        movi r1, 0
        bne  r0, r1, bad2
        ; the hard link still resolves
        movi r0, lname
        movi r1, stbuf
        sys  SYS_stat
        movi r1, 0
        bne  r0, r1, bad3
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
        .data
fname:  .asciiz "orig"
lname:  .asciiz "alias"
stbuf:  .space 32
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, ReadlinkFromVm) {
  World world;
  world.host("brick").vfs().SetupSymlink("/u/user/sl", "/etc");
  const int code = RunAsm(world, R"(
start:  movi r0, sl
        movi r1, buf
        movi r2, 32
        sys  SYS_readlink       ; r0 = bytes
        movi r1, 4
        bne  r0, r1, bad1
        movi r3, buf
        ldb  r4, r3, 0
        movi r5, '/'
        bne  r4, r5, bad2
        ldb  r4, r3, 1
        movi r5, 'e'
        bne  r4, r5, bad3
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
        .data
sl:     .asciiz "sl"
buf:    .space 32
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, GethostnameBoundsChecked) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, buf
        movi r1, 64
        sys  SYS_gethostname
        movi r1, 0
        bne  r0, r1, bad1
        movi r3, buf
        ldb  r4, r3, 0
        movi r5, 'b'            ; "brick"
        bne  r4, r5, bad2
        ; too-small buffer fails
        movi r0, buf
        movi r1, 2
        sys  SYS_gethostname
        movi r1, 0
        beq  r0, r1, bad3
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
        .data
buf:    .space 64
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, ExecveReplacesImage) {
  World world;
  // The replacement program exits 7 immediately.
  core::InstallProgram(world.host("brick"), "/bin/seven", R"(
start:  movi r0, 7
        sys  SYS_exit
)");
  const int code = RunAsm(world, R"(
start:  movi r0, path
        sys  SYS_execve
        movi r0, 1              ; only reached if execve failed
        sys  SYS_exit
        .data
path:   .asciiz "/bin/seven"
)");
  EXPECT_EQ(code, 7);
}

TEST(VmSyscall, ExecveFailureReturnsToCaller) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, path
        sys  SYS_execve
        movi r1, -2             ; -ENOENT
        bne  r0, r1, bad
        movi r0, 0
        sys  SYS_exit
bad:    movi r0, 1
        sys  SYS_exit
        .data
path:   .asciiz "/bin/does-not-exist"
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, ErrnosArriveAsNegativeValues) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, 57             ; read from an unopened fd
        movi r1, buf
        movi r2, 4
        sys  SYS_read
        movi r1, -9             ; -EBADF
        bne  r0, r1, bad1
        movi r0, nope
        movi r1, O_RDONLY
        movi r2, 0
        sys  SYS_open
        movi r1, -2             ; -ENOENT
        bne  r0, r1, bad2
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
        .data
buf:    .space 4
nope:   .asciiz "/no/such/file"
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, UnknownSyscallIsEinval) {
  World world;
  const int code = RunAsm(world, R"(
start:  sys  999
        movi r1, -22            ; -EINVAL
        bne  r0, r1, bad
        movi r0, 0
        sys  SYS_exit
bad:    movi r0, 1
        sys  SYS_exit
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, BadPointerIsEfault) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, 1              ; pointer into text: not readable as a string
        movi r1, O_RDONLY
        movi r2, 0
        sys  SYS_open
        movi r1, -14            ; -EFAULT
        bne  r0, r1, bad
        movi r0, 0
        sys  SYS_exit
bad:    movi r0, 1
        sys  SYS_exit
)");
  EXPECT_EQ(code, 0);
}

// A write length no segment can hold is a bad pointer, refused before the kernel
// allocates a buffer for it: a user program must not be able to exhaust host
// memory.
TEST(VmSyscall, WriteLengthBeyondEverySegmentIsEfault) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r2, 1
        movi r3, 62
        shl  r2, r2, r3
        movi r0, 1
        movi r1, buf
        sys  SYS_write
        movi r1, -14            ; -EFAULT
        bne  r0, r1, bad
        movi r0, 0
        sys  SYS_exit
bad:    movi r0, 1
        sys  SYS_exit
        .data
buf:    .space 8
)");
  EXPECT_EQ(code, 0);
}

// A write whose end would pass the maximum file size is EFBIG, refused before
// the file grows: seeking far past the end and writing one byte must not make
// the host allocate the gap.
TEST(VmSyscall, WriteFarPastEndOfFileIsEfbig) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, fname
        movi r1, 420
        sys  SYS_creat
        mov  r6, r0
        movi r1, 1
        movi r3, 62
        shl  r1, r1, r3         ; offset 2^62
        mov  r0, r6
        movi r2, SEEK_SET
        sys  SYS_lseek
        mov  r0, r6
        movi r1, buf
        movi r2, 1
        sys  SYS_write
        movi r1, -27            ; -EFBIG
        bne  r0, r1, bad
        movi r0, 0
        sys  SYS_exit
bad:    movi r0, 1
        sys  SYS_exit
        .data
fname:  .asciiz "far.dat"
buf:    .space 8
)");
  EXPECT_EQ(code, 0);
  EXPECT_EQ(world.FileContents("brick", "/u/user/far.dat"), "");
}

// lseek() to a position past INT64_MAX is EINVAL, not a wrapped offset.
TEST(VmSyscall, LseekOverflowIsEinval) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, fname
        movi r1, 420
        sys  SYS_creat
        mov  r6, r0
        mov  r0, r6
        movi r1, buf
        movi r2, 8
        sys  SYS_write          ; the file is 8 bytes long
        movi r1, -1
        movi r3, 1
        shr  r1, r1, r3         ; offset INT64_MAX
        mov  r0, r6
        movi r2, SEEK_END
        sys  SYS_lseek
        movi r1, -22            ; -EINVAL
        bne  r0, r1, bad1
        mov  r0, r6
        movi r1, 0
        movi r2, SEEK_CUR
        sys  SYS_lseek          ; the offset did not move
        movi r1, 8
        bne  r0, r1, bad2
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
        .data
fname:  .asciiz "end.dat"
buf:    .space 8
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, KillSelfWithSigTerm) {
  World world;
  core::InstallProgram(world.host("brick"), "/bin/t", R"(
start:  sys  SYS_getpid
        mov  r5, r0
        mov  r0, r5
        movi r1, SIGTERM
        sys  SYS_kill
loop:   jmp  loop               ; the signal arrives at the next quantum
)");
  kernel::Kernel& k = world.host("brick");
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  const Result<int32_t> pid = k.SpawnVm("/bin/t", {}, opts);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(world.RunUntilExited("brick", *pid, sim::Seconds(10)));
  EXPECT_EQ(world.ExitInfoOf("brick", *pid).killed_by_signal, vm::abi::kSigTerm);
}

TEST(VmSyscall, SbrkGrowsAndShrinksTheHeap) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, 4096
        sys  SYS_brk            ; r0 = old break (end of static data)
        movi r1, 0
        blt  r0, r1, bad1
        mov  r6, r0             ; heap base
        ; write a pattern across the new heap
        movi r2, 0
fill:   add  r3, r6, r2
        mov  r4, r2
        stb  r4, r3, 0
        addi r2, r2, 1
        movi r5, 4096
        blt  r2, r5, fill
        ; read one back
        ldb  r4, r6, 100
        movi r5, 100
        bne  r4, r5, bad2
        ; shrink below zero is ENOMEM
        movi r0, -1000000
        sys  SYS_brk
        movi r1, -12            ; -ENOMEM
        bne  r0, r1, bad3
        ; shrink legitimately; access past the new break faults... so just exit
        movi r0, -4096
        sys  SYS_brk
        movi r1, 0
        blt  r0, r1, bad4
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
bad4:   movi r0, 4
        sys  SYS_exit
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, GrownHeapSurvivesMigration) {
  // An sbrk'd heap is part of the data segment: the dump carries it whole.
  World world;
  core::InstallProgram(world.host("brick"), "/bin/heapy", R"(
start:  movi r0, 8192
        sys  SYS_brk
        mov  r6, r0             ; heap base
        ; stamp a recognisable value deep in the heap
        movi r4, 77
        stb  r4, r6, 8000
        ; prompt and wait (the dump point)
        movi r0, 1
        movi r1, pr
        movi r2, 2
        sys  SYS_write
        movi r0, 0
        movi r1, buf
        movi r2, 16
        sys  SYS_read
        ; after migration: verify the heap byte, print verdict
        ldb  r4, r6, 8000
        movi r5, 77
        bne  r4, r5, lost
        movi r0, 1
        movi r1, okmsg
        movi r2, 8
        sys  SYS_write
        movi r0, 0
        sys  SYS_exit
lost:   movi r0, 1
        movi r1, badmsg
        movi r2, 9
        sys  SYS_write
        movi r0, 1
        sys  SYS_exit
        .data
pr:     .asciiz "? "
okmsg:  .ascii "heap ok\n"
badmsg: .ascii "heap bad\n"
buf:    .space 16
)");
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  opts.tty = world.console("brick");
  opts.cwd = "/u/user";
  const Result<int32_t> pid = world.host("brick").SpawnVm("/bin/heapy", {}, opts);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(world.RunUntilBlocked("brick", *pid));

  const int32_t mig = world.StartTool(
      "schooner", "migrate", {"-p", std::to_string(*pid), "-f", "brick", "-t", "schooner"},
      kUserUid, world.console("schooner"));
  ASSERT_TRUE(world.RunUntilExited("schooner", mig, sim::Seconds(300)));
  ASSERT_EQ(world.ExitInfoOf("schooner", mig).exit_code, 0);
  const int32_t moved = world.FindPidByCommand("schooner", "migrated");
  ASSERT_GT(moved, 0);
  world.console("schooner")->Type("go\n");
  ASSERT_TRUE(world.RunUntilExited("schooner", moved, sim::Seconds(60)));
  EXPECT_EQ(world.ExitInfoOf("schooner", moved).exit_code, 0);
  EXPECT_NE(world.console("schooner")->PlainOutput().find("heap ok"), std::string::npos);
}


// --- Trap sweep ---------------------------------------------------------------------
// Every trap number 0..140 runs once with valid arguments and once more for each
// pointer argument, with that pointer aimed between the data segment and the
// stack (mapped by no segment). Each run records what the caller sees after the
// trap: r0, r1, pc, its state, its exit code and its system time. The expected
// lines are a recording of the trap ABI, so the test fails on any change to an
// errno, a copy-in or copy-out, the order of charges, or the restart rewind.

// One trap invocation. args[i] goes into register i: "r5" (the caller's pid) and
// "r6" (an fd open O_RDWR on /u/user/f) are copied with mov, anything else is a
// movi operand. Bit i of pointer_args marks args[i] as an address the kernel
// dereferences.
struct TrapCase {
  int32_t number;
  std::array<const char*, 3> args;
  unsigned pointer_args;
};

std::vector<TrapCase> TrapCases() {
  using namespace vm::abi;
  const std::vector<TrapCase> known = {
      {kSysExit, {"7", "0", "0"}, 0},
      {kSysFork, {"0", "0", "0"}, 0},
      {kSysRead, {"r6", "buf", "8"}, 0b010},
      {kSysRead, {"0", "buf", "8"}, 0},  // an empty tty: blocks, restartable
      {kSysWrite, {"r6", "file", "5"}, 0b010},
      {kSysOpen, {"file", "O_RDONLY", "0"}, 0b001},
      {kSysClose, {"r6", "0", "0"}, 0},
      {kSysWait, {"0", "0", "0"}, 0},
      {kSysCreat, {"other", "420", "0"}, 0b001},
      {kSysLink, {"file", "other", "0"}, 0b011},
      {kSysUnlink, {"file", "0", "0"}, 0b001},
      {kSysChdir, {"dir", "0", "0"}, 0b001},
      {kSysTime, {"0", "0", "0"}, 0},
      {kSysBrk, {"64", "0", "0"}, 0},
      {kSysLseek, {"r6", "4", "SEEK_SET"}, 0},
      {kSysGetPid, {"0", "0", "0"}, 0},
      {kSysKill, {"r5", "SIGCHLD", "0"}, 0},
      {kSysStat, {"file", "buf", "0"}, 0b011},
      {kSysDup, {"r6", "0", "0"}, 0},
      {kSysPipe, {"0", "0", "0"}, 0},
      {kSysSignal, {"SIGUSR1", "done", "0"}, 0},
      {kSysIoctl, {"0", "TIOCGETP", "buf"}, 0b100},
      {kSysIoctl, {"0", "TIOCSETP", "buf"}, 0b100},
      {kSysIoctl, {"0", "99", "buf"}, 0},
      {kSysReadlink, {"link", "buf", "64"}, 0b011},
      {kSysExecve, {"prog", "0", "0"}, 0b001},
      {kSysGetHostname, {"buf", "64", "0"}, 0b001},
      {kSysGetHostname, {"buf", "3", "0"}, 0},  // too small for "brick"
      {kSysSetReUid, {"100", "100", "0"}, 0},
      {kSysGetUid, {"0", "0", "0"}, 0},
      {kSysGetPpid, {"0", "0", "0"}, 0},
      {kSysSleep, {"1", "0", "0"}, 0},
      {kSysSocket, {"0", "0", "0"}, 0},
      {kSysGetCwd, {"buf", "64", "0"}, 0b001},
      {kSysRestProc, {"file", "other", "0"}, 0b011},
      {kSysGetPidReal, {"0", "0", "0"}, 0},
      {kSysGetHostnameReal, {"buf", "64", "0"}, 0b001},
      {kSysRename, {"file", "other", "0"}, 0b011},
      {kSysMkdir, {"other", "493", "0"}, 0b001},
      {kSysRmdir, {"dir", "0", "0"}, 0b001},
  };
  std::vector<TrapCase> cases;
  for (int32_t n = 0; n <= 140; ++n) {
    bool listed = false;
    for (const TrapCase& c : known) {
      if (c.number != n) continue;
      listed = true;
      cases.push_back(c);
      for (int i = 0; i < 3; ++i) {
        if ((c.pointer_args & (1u << i)) == 0) continue;
        TrapCase bad = c;
        bad.args[static_cast<size_t>(i)] = "0x400000";
        bad.pointer_args = 0;
        cases.push_back(bad);
      }
    }
    if (!listed) cases.push_back({n, {"file", "buf", "8"}, 0});
  }
  return cases;
}

std::string RunTrapCase(const TrapCase& c) {
  World world;
  kernel::Kernel& k = world.host("brick");
  k.vfs().SetupCreateFile("/u/user/f", "0123456789abcdef", kUserUid);
  k.vfs().SetupMkdirAll("/u/user/d")->uid = kUserUid;
  k.vfs().SetupSymlink("/u/user/l", "/u/user/f");
  core::InstallProgram(k, "/bin/spin", "spin:   jmp  spin\n");
  std::ostringstream src;
  src << "start:  sys  SYS_getpid\n"
         "        mov  r5, r0\n"
         "        movi r0, file\n"
         "        movi r1, O_RDWR\n"
         "        movi r2, 0\n"
         "        sys  SYS_open\n"
         "        mov  r6, r0\n";
  for (int i = 0; i < 3; ++i) {
    const std::string arg = c.args[static_cast<size_t>(i)];
    src << "        " << (arg[0] == 'r' ? "mov " : "movi") << " r" << i << ", " << arg << "\n";
  }
  src << "        sys  " << c.number << "\n"
      << "done:   jmp  done\n"
         "        .data\n"
         "file:   .asciiz \"/u/user/f\"\n"
         "other:  .asciiz \"/u/user/g\"\n"
         "dir:    .asciiz \"/u/user/d\"\n"
         "link:   .asciiz \"/u/user/l\"\n"
         "prog:   .asciiz \"/bin/spin\"\n"
         "buf:    .space 64\n";
  core::InstallProgram(k, "/bin/t", src.str());
  const int32_t pid = world.StartVm("brick", "/bin/t");
  world.cluster().RunFor(sim::Seconds(2));

  const kernel::Proc* p = k.FindProc(pid);
  char line[256];
  if (p == nullptr) {
    std::snprintf(line, sizeof line, "sys %d %s,%s,%s: no proc", c.number, c.args[0], c.args[1],
                  c.args[2]);
    return line;
  }
  const bool has_vm = p->vm != nullptr;
  std::snprintf(line, sizeof line,
                "sys %d %s,%s,%s: r0=%lld r1=%lld pc=%u state=%d exit=%d stime=%lld", c.number,
                c.args[0], c.args[1], c.args[2],
                has_vm ? static_cast<long long>(p->vm->cpu.regs[0]) : 0LL,
                has_vm ? static_cast<long long>(p->vm->cpu.regs[1]) : 0LL,
                has_vm ? p->vm->cpu.pc : 0u, static_cast<int>(p->state), p->exit_info.exit_code,
                static_cast<long long>(p->stime));
  return line;
}

constexpr const char* kTrapSweepExpected[] = {
    "sys 0 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 1 7,0,0: r0=0 r1=0 pc=0 state=4 exit=7 stime=19485000",
    "sys 2 0,0,0: r0=101 r1=0 pc=88 state=0 exit=0 stime=77404000",
    "sys 3 r6,buf,8: r0=8 r1=1048626 pc=88 state=0 exit=0 stime=24367400",
    "sys 3 r6,0x400000,8: r0=-14 r1=4194304 pc=88 state=0 exit=0 stime=24367400",
    "sys 3 0,buf,8: r0=0 r1=1048626 pc=80 state=2 exit=0 stime=19365000",
    "sys 4 r6,file,5: r0=5 r1=1048576 pc=88 state=0 exit=0 stime=24366500",
    "sys 4 r6,0x400000,5: r0=-14 r1=4194304 pc=88 state=0 exit=0 stime=19365000",
    "sys 5 file,O_RDONLY,0: r0=4 r1=0 pc=88 state=0 exit=0 stime=20398000",
    "sys 5 0x400000,O_RDONLY,0: r0=-14 r1=0 pc=88 state=0 exit=0 stime=19365000",
    "sys 6 r6,0,0: r0=0 r1=0 pc=88 state=0 exit=0 stime=19425000",
    "sys 7 0,0,0: r0=-10 r1=0 pc=88 state=0 exit=0 stime=19365000",
    "sys 8 other,420,0: r0=4 r1=420 pc=88 state=0 exit=0 stime=20578000",
    "sys 8 0x400000,420,0: r0=-14 r1=420 pc=88 state=0 exit=0 stime=19365000",
    "sys 9 file,other,0: r0=0 r1=1048586 pc=88 state=0 exit=0 stime=20781000",
    "sys 9 0x400000,other,0: r0=-14 r1=1048586 pc=88 state=0 exit=0 stime=19365000",
    "sys 9 file,0x400000,0: r0=-14 r1=4194304 pc=88 state=0 exit=0 stime=19368000",
    "sys 10 file,0,0: r0=0 r1=0 pc=88 state=0 exit=0 stime=20118000",
    "sys 10 0x400000,0,0: r0=-14 r1=0 pc=88 state=0 exit=0 stime=19365000",
    "sys 11 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 12 dir,0,0: r0=0 r1=0 pc=88 state=0 exit=0 stime=20078000",
    "sys 12 0x400000,0,0: r0=-14 r1=0 pc=88 state=0 exit=0 stime=19365000",
    "sys 13 0,0,0: r0=0 r1=0 pc=88 state=0 exit=0 stime=19365000",
    "sys 14 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 15 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 16 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 17 64,0,0: r0=1048690 r1=0 pc=88 state=0 exit=0 stime=19368200",
    "sys 18 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 19 r6,4,SEEK_SET: r0=4 r1=4 pc=88 state=0 exit=0 stime=19365000",
    "sys 20 0,0,0: r0=100 r1=0 pc=88 state=0 exit=0 stime=19365000",
    "sys 21 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 22 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 23 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 24 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 25 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 26 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 27 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 28 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 29 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 30 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 31 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 32 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 33 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 34 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 35 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 36 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 37 r5,SIGCHLD,0: r0=0 r1=20 pc=88 state=0 exit=0 stime=19615000",
    "sys 38 file,buf,0: r0=0 r1=1048626 pc=88 state=0 exit=0 stime=20028000",
    "sys 38 0x400000,buf,0: r0=-14 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 38 file,0x400000,0: r0=-14 r1=4194304 pc=88 state=0 exit=0 stime=20028000",
    "sys 39 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 40 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 41 r6,0,0: r0=4 r1=0 pc=88 state=0 exit=0 stime=19455000",
    "sys 42 0,0,0: r0=4 r1=5 pc=88 state=0 exit=0 stime=19545000",
    "sys 43 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 44 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 45 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 46 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 47 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 48 SIGUSR1,done,0: r0=0 r1=88 pc=88 state=0 exit=0 stime=19365000",
    "sys 49 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 50 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 51 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 52 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 53 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 54 0,TIOCGETP,buf: r0=0 r1=1 pc=88 state=0 exit=0 stime=19665000",
    "sys 54 0,TIOCGETP,0x400000: r0=-14 r1=1 pc=88 state=0 exit=0 stime=19665000",
    "sys 54 0,TIOCSETP,buf: r0=0 r1=2 pc=88 state=0 exit=0 stime=19665000",
    "sys 54 0,TIOCSETP,0x400000: r0=-14 r1=2 pc=88 state=0 exit=0 stime=19365000",
    "sys 54 0,99,buf: r0=-22 r1=99 pc=88 state=0 exit=0 stime=19365000",
    "sys 55 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 56 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 57 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 58 link,buf,64: r0=9 r1=1048626 pc=88 state=0 exit=0 stime=20378000",
    "sys 58 0x400000,buf,64: r0=-14 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 58 link,0x400000,64: r0=-14 r1=4194304 pc=88 state=0 exit=0 stime=20378000",
    "sys 59 prog,0,0: r0=0 r1=8388600 pc=0 state=0 exit=0 stime=36818800",
    "sys 59 0x400000,0,0: r0=-14 r1=0 pc=88 state=0 exit=0 stime=19365000",
    "sys 60 buf,64,0: r0=0 r1=64 pc=88 state=0 exit=0 stime=19365000",
    "sys 60 0x400000,64,0: r0=-14 r1=64 pc=88 state=0 exit=0 stime=19365000",
    "sys 60 buf,3,0: r0=-14 r1=3 pc=88 state=0 exit=0 stime=19365000",
    "sys 61 100,100,0: r0=0 r1=100 pc=88 state=0 exit=0 stime=19365000",
    "sys 62 0,0,0: r0=100 r1=0 pc=88 state=0 exit=0 stime=19365000",
    "sys 63 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 64 0,0,0: r0=0 r1=0 pc=88 state=0 exit=0 stime=19365000",
    "sys 65 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 66 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 67 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 68 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 69 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 70 1,0,0: r0=0 r1=0 pc=88 state=0 exit=0 stime=19365000",
    "sys 71 0,0,0: r0=4 r1=5 pc=88 state=0 exit=0 stime=19545000",
    "sys 72 buf,64,0: r0=0 r1=64 pc=88 state=0 exit=0 stime=19367400",
    "sys 72 0x400000,64,0: r0=-14 r1=64 pc=88 state=0 exit=0 stime=19367400",
    "sys 73 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 74 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 75 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 76 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 77 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 78 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 79 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 80 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 81 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 82 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 83 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 84 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 85 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 86 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 87 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 88 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 89 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 90 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 91 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 92 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 93 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 94 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 95 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 96 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 97 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 98 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 99 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 100 file,other,0: r0=-2 r1=1048586 pc=88 state=0 exit=0 stime=20031000",
    "sys 100 0x400000,other,0: r0=-14 r1=1048586 pc=88 state=0 exit=0 stime=19365000",
    "sys 100 file,0x400000,0: r0=-14 r1=4194304 pc=88 state=0 exit=0 stime=19368000",
    "sys 101 0,0,0: r0=100 r1=0 pc=88 state=0 exit=0 stime=19365000",
    "sys 102 buf,64,0: r0=0 r1=64 pc=88 state=0 exit=0 stime=19365000",
    "sys 102 0x400000,64,0: r0=-14 r1=64 pc=88 state=0 exit=0 stime=19365000",
    "sys 103 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 104 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 105 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 106 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 107 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 108 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 109 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 110 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 111 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 112 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 113 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 114 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 115 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 116 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 117 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 118 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 119 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 120 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 121 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 122 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 123 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 124 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 125 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 126 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 127 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 128 file,other,0: r0=0 r1=1048586 pc=88 state=0 exit=0 stime=20871000",
    "sys 128 0x400000,other,0: r0=-14 r1=1048586 pc=88 state=0 exit=0 stime=19365000",
    "sys 128 file,0x400000,0: r0=-14 r1=4194304 pc=88 state=0 exit=0 stime=19368000",
    "sys 129 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 130 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 131 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 132 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 133 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 134 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 135 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 136 other,493,0: r0=0 r1=493 pc=88 state=0 exit=0 stime=20118000",
    "sys 136 0x400000,493,0: r0=-14 r1=493 pc=88 state=0 exit=0 stime=19365000",
    "sys 137 dir,0,0: r0=0 r1=0 pc=88 state=0 exit=0 stime=20118000",
    "sys 137 0x400000,0,0: r0=-14 r1=0 pc=88 state=0 exit=0 stime=19365000",
    "sys 138 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 139 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
    "sys 140 file,buf,8: r0=-22 r1=1048626 pc=88 state=0 exit=0 stime=19365000",
};

TEST(VmSyscall, TrapSweepMatchesRecordedAbi) {
  const std::vector<TrapCase> cases = TrapCases();
  std::vector<std::string> got;
  for (const TrapCase& c : cases) got.push_back(RunTrapCase(c));
  ASSERT_EQ(got.size(), std::size(kTrapSweepExpected));
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], kTrapSweepExpected[i]);
}

}  // namespace
}  // namespace pmig
