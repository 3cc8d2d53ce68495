// The machine/kernel ABI: system-call numbers, open flags, seek modes, ioctl
// requests, and signal numbers as seen by programs running on the simulated CPU.
//
// Numbers follow 4.2BSD where the call existed there; the paper's additions
// (SIGDUMP, rest_proc(), and the Section 7 "real identity" calls) take numbers past
// the historical ones. The assembler predefines every symbolic name in this header
// (a system call as SYS_<name> from kSysNames) so test programs read like real Unix
// assembly.

#ifndef PMIG_SRC_VM_ABI_H_
#define PMIG_SRC_VM_ABI_H_

#include <cstdint>
#include <string_view>

namespace pmig::vm::abi {

// System-call numbers (trap immediate).
enum Sys : int32_t {
  kSysExit = 1,
  kSysFork = 2,
  kSysRead = 3,
  kSysWrite = 4,
  kSysOpen = 5,
  kSysClose = 6,
  kSysWait = 7,
  kSysCreat = 8,
  kSysLink = 9,
  kSysUnlink = 10,
  kSysChdir = 12,
  kSysTime = 13,       // seconds of virtual time since cluster boot
  kSysBrk = 17,        // sbrk: r0 = signed increment in bytes; returns the OLD
                       // break address (end of data), or -ENOMEM
  kSysLseek = 19,
  kSysGetPid = 20,
  kSysKill = 37,
  kSysDup = 41,
  kSysPipe = 42,
  kSysSignal = 48,     // set signal disposition: r0 = signo, r1 = handler addr / 0 / 1
  kSysIoctl = 54,
  kSysReadlink = 58,
  kSysExecve = 59,
  kSysGetHostname = 60,  // r0 = buf, r1 = len
  kSysSetReUid = 61,     // r0 = ruid, r1 = euid
  kSysGetUid = 62,
  kSysGetPpid = 64,
  kSysSleep = 70,        // r0 = seconds (real Unix uses alarm()+pause(); one call here)
  kSysSocket = 71,       // degenerate local socket, enough to exercise the limitation
  kSysGetCwd = 72,       // r0 = buf, r1 = len (the 4.3BSD getwd() goes via /bin/pwd;
                         // our kernel can answer directly thanks to the 5.1 tracking)
  kSysRename = 128,      // r0 = from path, r1 = to path (4.3BSD number)
  kSysMkdir = 136,       // r0 = path, r1 = mode
  kSysRmdir = 137,       // r0 = path
  kSysStat = 38,         // r0 = path, r1 = buf (writes {type,size,uid,mode} as 4 quads)
  // --- the paper's additions ---
  kSysRestProc = 100,    // r0 = a.out path, r1 = stack-file path
  kSysGetPidReal = 101,      // Section 7 proposal: true pid regardless of migration
  kSysGetHostnameReal = 102, // Section 7 proposal: true hostname
};

// Every system call's name, once: the assembler's SYS_<name> symbols come from
// here, and the kernel's trap table covers exactly these numbers.
struct SysName {
  Sys number;
  std::string_view name;
};
inline constexpr SysName kSysNames[] = {
    {kSysExit, "exit"},
    {kSysFork, "fork"},
    {kSysRead, "read"},
    {kSysWrite, "write"},
    {kSysOpen, "open"},
    {kSysClose, "close"},
    {kSysWait, "wait"},
    {kSysCreat, "creat"},
    {kSysLink, "link"},
    {kSysUnlink, "unlink"},
    {kSysChdir, "chdir"},
    {kSysTime, "time"},
    {kSysBrk, "brk"},
    {kSysLseek, "lseek"},
    {kSysGetPid, "getpid"},
    {kSysKill, "kill"},
    {kSysDup, "dup"},
    {kSysPipe, "pipe"},
    {kSysSignal, "signal"},
    {kSysIoctl, "ioctl"},
    {kSysReadlink, "readlink"},
    {kSysExecve, "execve"},
    {kSysGetHostname, "gethostname"},
    {kSysSetReUid, "setreuid"},
    {kSysGetUid, "getuid"},
    {kSysGetPpid, "getppid"},
    {kSysSleep, "sleep"},
    {kSysSocket, "socket"},
    {kSysGetCwd, "getcwd"},
    {kSysRename, "rename"},
    {kSysMkdir, "mkdir"},
    {kSysRmdir, "rmdir"},
    {kSysStat, "stat"},
    {kSysRestProc, "rest_proc"},
    {kSysGetPidReal, "getpid_real"},
    {kSysGetHostnameReal, "gethostname_real"},
};

// open() flags (4.2BSD values, octal).
enum OpenFlags : int32_t {
  kORdOnly = 0,
  kOWrOnly = 1,
  kORdWr = 2,
  kOAppend = 00010,
  kOCreat = 01000,
  kOTrunc = 02000,
  kOExcl = 04000,
};
constexpr int32_t kAccMode = 3;  // mask selecting the access mode from flags

// lseek() whence.
enum Whence : int32_t { kSeekSet = 0, kSeekCur = 1, kSeekEnd = 2 };

// ioctl() requests for the tty line discipline (modelled on TIOCGETP/TIOCSETP).
enum Ioctl : int32_t {
  kTiocGetP = 1,  // read tty flags into mem16[r2]
  kTiocSetP = 2,  // set tty flags from mem16[r2]
};

// Tty mode flag bits (a condensed sgttyb sg_flags).
enum TtyFlags : uint16_t {
  kTtyEcho = 0x0008,   // echo input characters
  kTtyCbreak = 0x0002, // deliver characters without waiting for newline
  kTtyRaw = 0x0020,    // no input/output processing at all
  kTtyCrMod = 0x0010,  // map \r to \n on input, emit \r\n for \n
};
constexpr uint16_t kTtyDefaultFlags = kTtyEcho | kTtyCrMod;  // "cooked" mode

// Signal numbers.
enum Sig : int32_t {
  kSigHup = 1,
  kSigInt = 2,
  kSigQuit = 3,   // terminates with a core dump; SIGDUMP is modelled on its code path
  kSigIll = 4,
  kSigFpe = 8,
  kSigKill = 9,
  kSigSegv = 11,
  kSigPipe = 13,
  kSigAlrm = 14,
  kSigTerm = 15,
  kSigChld = 20,
  kSigUsr1 = 30,
  kSigUsr2 = 31,
  kSigDump = 32,  // the paper's new signal
};
constexpr int32_t kNSig = 33;

// Signal dispositions passed to kSysSignal as the handler argument.
constexpr int64_t kSigDfl = 0;
constexpr int64_t kSigIgn = 1;

}  // namespace pmig::vm::abi

#endif  // PMIG_SRC_VM_ABI_H_
