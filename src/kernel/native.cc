#include "src/kernel/native.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

namespace pmig::kernel {
namespace {

// Every task's stack, guard page included.
constexpr size_t kStackBytes = 256 * 1024;

size_t GuardBytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

NativeTask::~NativeTask() {
  if (stack_ == nullptr) return;
  if (!finished_) {
    RequestKill();
    while (!finished_) {
      Resume();
    }
  }
  munmap(stack_, kStackBytes);
}

void NativeTask::Start(Entry entry, SyscallApi* api) {
  entry_ = std::move(entry);
  api_ = api;
  void* stack = mmap(nullptr, kStackBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (stack == MAP_FAILED) throw std::bad_alloc();
  // An overflow faults on the guard page instead of overwriting other memory.
  if (mprotect(stack, GuardBytes(), PROT_NONE) != 0) {
    munmap(stack, kStackBytes);
    throw std::bad_alloc();
  }
  stack_ = static_cast<char*>(stack);
  getcontext(&task_context_);
  task_context_.uc_stack.ss_sp = stack_ + GuardBytes();
  task_context_.uc_stack.ss_size = kStackBytes - GuardBytes();
  task_context_.uc_link = nullptr;  // Run() never returns
  // makecontext passes only int arguments: the task pointer goes in two halves.
  const auto self = reinterpret_cast<uintptr_t>(this);
  makecontext(&task_context_, reinterpret_cast<void (*)()>(&Trampoline), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
}

void NativeTask::Resume() {
  if (finished_) return;
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(&caller_fake_stack_, stack_ + GuardBytes(),
                                 kStackBytes - GuardBytes());
#endif
  swapcontext(&caller_context_, &task_context_);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(caller_fake_stack_, nullptr, nullptr);
#endif
}

void NativeTask::Yield() {
  SwitchToCaller(/*final=*/false);
  if (kill_requested_) throw KilledSignal{};
}

void NativeTask::Trampoline(unsigned hi, unsigned lo) {
  reinterpret_cast<NativeTask*>((uintptr_t{hi} << 32) | lo)->Run();
}

void NativeTask::Run() {
  FinishSwitchIntoTask();
  int code = 0;
  try {
    if (kill_requested_) throw KilledSignal{};
    code = entry_(*api_);
  } catch (const ExitRequest& e) {
    code = e.code;
  } catch (const KilledSignal&) {
    was_killed_ = true;
  } catch (const BecameVm&) {
    became_vm_ = true;
  }
  entry_ = nullptr;  // the entry's captures die with the task, not with the Proc
  exit_code_ = code;
  finished_ = true;
  SwitchToCaller(/*final=*/true);
}

void NativeTask::SwitchToCaller(bool final) {
#if defined(__SANITIZE_ADDRESS__)
  // A null slot on the final switch frees the task's fake stack.
  __sanitizer_start_switch_fiber(final ? nullptr : &task_fake_stack_, caller_stack_bottom_,
                                 caller_stack_size_);
#else
  (void)final;
#endif
  swapcontext(&task_context_, &caller_context_);
  FinishSwitchIntoTask();
}

void NativeTask::FinishSwitchIntoTask() {
#if defined(__SANITIZE_ADDRESS__)
  // The caller may be a different stack each time: the scheduler's, or another
  // task's whose syscall destroyed this one.
  __sanitizer_finish_switch_fiber(task_fake_stack_, &caller_stack_bottom_, &caller_stack_size_);
#endif
}

}  // namespace pmig::kernel
