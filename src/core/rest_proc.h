// The rest_proc() system call (Section 5.2), installed as
// MigrationHooks::rest_proc. Overlays the calling process with the process
// described by a dumped a.outXXXXX / stackXXXXX pair.

#ifndef PMIG_SRC_CORE_REST_PROC_H_
#define PMIG_SRC_CORE_REST_PROC_H_

#include <string>

#include "src/kernel/kernel.h"

namespace pmig::core {

// On success the caller has become the restored program (a VM process resuming at
// the dumped pc) and this returns Ok; native callers must then unwind their stack
// (SyscallApi::RestProc throws BecameVm). On failure the caller is untouched —
// "if the system call does return, ... something was wrong with the two files".
Status RestProcImpl(kernel::Kernel& k, kernel::Proc& p, const std::string& aout_path,
                    const std::string& stack_path);

}  // namespace pmig::core

#endif  // PMIG_SRC_CORE_REST_PROC_H_
