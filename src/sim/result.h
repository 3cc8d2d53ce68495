// Result<T>: the error-handling vocabulary for the whole library.
//
// Fallible operations return Result<T>, which carries either a value or a Unix-style
// errno. This mirrors the syscall interface of the simulated kernel: a simulated
// system call that fails with ENOENT surfaces as Result carrying Errno::kNoEnt.
// Exceptions are reserved for unwinding killed native-process stacks (see
// kernel/native.h); everything else is explicit.

#ifndef PMIG_SRC_SIM_RESULT_H_
#define PMIG_SRC_SIM_RESULT_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <variant>

namespace pmig {

// Unix errno values used by the simulated kernel. Numeric values match historical
// 4.2BSD so that dump files and traces read like the real thing.
enum class Errno : int32_t {
  kOk = 0,
  kPerm = 1,       // EPERM: operation not permitted
  kNoEnt = 2,      // ENOENT: no such file or directory
  kSrch = 3,       // ESRCH: no such process
  kIntr = 4,       // EINTR: interrupted system call
  kIo = 5,         // EIO: i/o error
  kNoExec = 8,     // ENOEXEC: exec format error
  kBadF = 9,       // EBADF: bad file number
  kChild = 10,     // ECHILD: no children
  kAgain = 11,     // EAGAIN: no more processes
  kNoMem = 12,     // ENOMEM: not enough memory
  kAcces = 13,     // EACCES: permission denied
  kFault = 14,     // EFAULT: bad address
  kExist = 17,     // EEXIST: file exists
  kXDev = 18,      // EXDEV: cross-device link
  kNoDev = 19,     // ENODEV: no such device
  kNotDir = 20,    // ENOTDIR: not a directory
  kIsDir = 21,     // EISDIR: is a directory
  kInval = 22,     // EINVAL: invalid argument
  kNFile = 23,     // ENFILE: system file table overflow
  kMFile = 24,     // EMFILE: too many open files
  kNoTty = 25,     // ENOTTY: not a typewriter
  kFBig = 27,      // EFBIG: file too large
  kNoSpc = 28,     // ENOSPC: no space left on device
  kSPipe = 29,     // ESPIPE: illegal seek
  kRoFs = 30,      // EROFS: read-only file system
  kPipe = 32,      // EPIPE: broken pipe
  kNameTooLong = 63,  // ENAMETOOLONG
  kLoop = 62,         // ELOOP: too many levels of symbolic links
  kNotSock = 38,      // ENOTSOCK
  kHostUnreach = 65,  // EHOSTUNREACH
  kTimedOut = 60,     // ETIMEDOUT
};

// Short symbolic name ("ENOENT") for traces and error messages.
std::string_view ErrnoName(Errno e);

// A value-or-errno sum type, in the spirit of std::expected (which libstdc++ 12 does
// not ship). Only what the library needs: construction, queries, value access.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Implicit construction from a value or from an errno keeps call sites terse:
  //   return fd;                 // success
  //   return Errno::kBadF;       // failure
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Errno error) : repr_(error) {          // NOLINT(google-explicit-constructor)
    assert(error != Errno::kOk && "Result error must not be kOk");
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }
  explicit operator bool() const { return ok(); }

  Errno error() const { return ok() ? Errno::kOk : std::get<Errno>(repr_); }

  T& value() & {
    assert(ok());
    return std::get<T>(repr_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(repr_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(repr_));
  }

  T value_or(T fallback) const {
    return ok() ? std::get<T>(repr_) : std::move(fallback);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Errno> repr_;
};

// Result<void> analogue: success or errno.
class [[nodiscard]] Status {
 public:
  Status() : error_(Errno::kOk) {}
  Status(Errno error) : error_(error) {}  // NOLINT(google-explicit-constructor)

  static Status Ok() { return Status(); }

  bool ok() const { return error_ == Errno::kOk; }
  explicit operator bool() const { return ok(); }
  Errno error() const { return error_; }

 private:
  Errno error_;
};

// Propagate an error from an expression producing Result<T>/Status.
//
//   PMIG_TRY(auto fd, vfs.Open(path));      // declares fd on success
//   PMIG_RETURN_IF_ERROR(vfs.Unlink(path));
#define PMIG_INTERNAL_CONCAT_INNER(a, b) a##b
#define PMIG_INTERNAL_CONCAT(a, b) PMIG_INTERNAL_CONCAT_INNER(a, b)

#define PMIG_TRY_IMPL(decl, expr, tmp) \
  auto tmp = (expr);                   \
  if (!tmp.ok()) {                     \
    return tmp.error();                \
  }                                    \
  decl = std::move(tmp).value()

#define PMIG_TRY(decl, expr) \
  PMIG_TRY_IMPL(decl, expr, PMIG_INTERNAL_CONCAT(pmig_try_tmp_, __COUNTER__))

#define PMIG_RETURN_IF_ERROR(expr)          \
  do {                                      \
    auto pmig_status_ = (expr);             \
    if (!pmig_status_.ok()) {               \
      return pmig_status_.error();          \
    }                                       \
  } while (false)

}  // namespace pmig

#endif  // PMIG_SRC_SIM_RESULT_H_
