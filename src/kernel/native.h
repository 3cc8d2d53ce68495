// Native-process execution: C++ callables run as simulated processes.
//
// The migration tools (dumpproc, restart, migrate), shells, and daemons are native
// programs: ordinary C++ functions that talk to the kernel through SyscallApi. Each
// runs as a fiber: a user-level context with its own stack, switched to and from on
// the one OS thread that runs the whole simulation. Resume() switches from the
// caller (the scheduler, or another task whose syscall tears this one down) into
// the task; Yield() (called from blocking syscalls) switches back. Only one context
// runs at a time by construction, so no kernel data is ever touched concurrently.
//
// A native task ends in one of four ways, all by unwinding its own stack:
//   * its entry function returns an exit code;
//   * it calls SyscallApi::Exit (ExitRequest unwinds to the trampoline);
//   * it is killed (RequestKill; KilledSignal unwinds at the next yield point);
//   * it calls rest_proc() successfully: the *process* lives on as a VM process,
//     only the C++ call stack unwinds (BecameVm).

#ifndef PMIG_SRC_KERNEL_NATIVE_H_
#define PMIG_SRC_KERNEL_NATIVE_H_

#include <ucontext.h>

#include <cstddef>
#include <functional>

namespace pmig::kernel {

class SyscallApi;

// Unwind tokens. These deliberately do not derive from std::exception: nothing may
// catch them except the trampoline.
struct ExitRequest {
  int code;
};
struct KilledSignal {};
struct BecameVm {};

class NativeTask {
 public:
  using Entry = std::function<int(SyscallApi&)>;

  NativeTask() = default;
  ~NativeTask();

  NativeTask(const NativeTask&) = delete;
  NativeTask& operator=(const NativeTask&) = delete;

  // Allocates the task's stack; the entry function does not run until the first
  // Resume().
  void Start(Entry entry, SyscallApi* api);

  // Caller side: switches into the task; returns when the task yields or finishes.
  // A no-op once finished(). Must not be called from the task itself.
  void Resume();

  // Task side (only from within syscalls): switches back to the caller of Resume();
  // returns when resumed. Throws KilledSignal if a kill was requested meanwhile.
  void Yield();

  // Caller side: arranges for the task to unwind at its next resume.
  void RequestKill() { kill_requested_ = true; }

  bool finished() const { return finished_; }
  bool became_vm() const { return became_vm_; }
  bool was_killed() const { return was_killed_; }
  int exit_code() const { return exit_code_; }

 private:
  static void Trampoline(unsigned hi, unsigned lo);
  void Run();
  // Task side: saves the task's context and switches to the caller's. `final` marks
  // the last switch out, after which the task's stack is never entered again.
  void SwitchToCaller(bool final);
  void FinishSwitchIntoTask();

  Entry entry_;
  SyscallApi* api_ = nullptr;
  char* stack_ = nullptr;  // mmap'ed; the lowest page is the guard
  ucontext_t task_context_{};
  ucontext_t caller_context_{};
#if defined(__SANITIZE_ADDRESS__)
  void* task_fake_stack_ = nullptr;
  void* caller_fake_stack_ = nullptr;
  const void* caller_stack_bottom_ = nullptr;
  size_t caller_stack_size_ = 0;
#endif

  bool kill_requested_ = false;
  bool finished_ = false;
  bool became_vm_ = false;
  bool was_killed_ = false;
  int exit_code_ = 0;
};

}  // namespace pmig::kernel

#endif  // PMIG_SRC_KERNEL_NATIVE_H_
