// System-call implementations, the VM trap dispatcher, and the native SyscallApi.
//
// Layout: Kernel::Sys*() hold the semantics and cost charging, shared by both
// process kinds. The VM trap table (kVmSyscalls) maps each trap number to its
// Kernel::Sys* call, and VmTrap holds the trap register convention every entry
// shares (copy-in, copy-out, errno encoding, the restartable-call rewind, the
// epilogue). SyscallApi wraps the same calls for native (tool) processes, adding
// the yield/block handshake.

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <limits>

#include "src/kernel/kernel.h"
#include "src/vfs/path.h"

namespace pmig::kernel {

namespace {

using vm::abi::OpenFlags;
using vm::abi::Sys;

Tty* AsTty(const vfs::Inode& inode) {
  if (!inode.IsDevice()) return nullptr;
  return dynamic_cast<Tty*>(inode.device);
}

bool IsNullDevice(const vfs::Inode& inode) {
  return inode.IsDevice() && dynamic_cast<NullDevice*>(inode.device) != nullptr;
}

// True when `dir` is the directory `top` or lies anywhere below it.
bool InSubtree(const vfs::Inode& top, const vfs::Inode* dir) {
  if (&top == dir) return true;
  for (const auto& [name, child] : top.entries) {
    if (child->IsDir() && InSubtree(*child, dir)) return true;
  }
  return false;
}

}  // namespace

// --- Name tracking (Section 5.1) -------------------------------------------------

void Kernel::TrackOpenName(Proc& p, OpenFile& file, std::string_view user_path) {
  if (!config_.track_names || file.kind != FileKind::kInode) return;
  std::string abs;
  if (vfs::IsAbsolute(user_path)) {
    abs = vfs::NormalizeAbsolute(user_path);
  } else {
    // "If the file name is a relative path name, its name is combined with the
    // name of the current working directory in the user structure."
    const std::string& cwd = p.u_cwd_path.empty() ? "/" : p.u_cwd_path;
    abs = vfs::Combine(cwd, user_path);
    ChargeCpu(p, costs_->name_combine);
  }
  ChargeCpu(p, costs_->kmem_alloc);
  ChargeCpu(p, static_cast<sim::Nanos>(abs.size() + 1) * costs_->name_copy_per_byte);
  metrics_.Inc("kernel.kmem_allocs");
  metrics_.Inc("vfs.name_bytes_copied", static_cast<int64_t>(abs.size()) + 1);
  const int64_t held = config_.name_storage == KernelConfig::NameStorage::kFixed
                           ? config_.fixed_name_bytes
                           : static_cast<int64_t>(abs.size()) + 1;
  if (config_.name_storage == KernelConfig::NameStorage::kFixed &&
      static_cast<int>(abs.size()) >= config_.fixed_name_bytes) {
    abs.resize(static_cast<size_t>(config_.fixed_name_bytes - 1));  // truncated!
  }
  file.name = std::move(abs);
  ++stats_.name_allocs;
  stats_.name_bytes_current += held;
  stats_.name_bytes_peak = std::max(stats_.name_bytes_peak, stats_.name_bytes_current);
}

void Kernel::ReleaseOpenName(Proc& p, OpenFile& file) {
  if (!file.name.has_value()) return;
  if (config_.track_names) ChargeCpu(p, costs_->kmem_free);
  const int64_t held = config_.name_storage == KernelConfig::NameStorage::kFixed
                           ? config_.fixed_name_bytes
                           : static_cast<int64_t>(file.name->size()) + 1;
  stats_.name_bytes_current -= held;
  file.name.reset();
}

void Kernel::TrackChdirName(Proc& p, std::string_view user_path) {
  if (!config_.track_names) return;
  if (vfs::IsAbsolute(user_path)) {
    // "if the argument ... is an absolute path name, it is simply copied" (with
    // "." / ".." references resolved when path names are constructed).
    p.u_cwd_path = vfs::NormalizeAbsolute(user_path);
    ChargeCpu(p, static_cast<sim::Nanos>(user_path.size() + 1) * costs_->name_copy_per_byte);
    return;
  }
  // "the updating procedure being skipped if the field has not been yet
  // initialised" — initialisation happens via the first absolute chdir() at boot.
  if (p.u_cwd_path.empty()) return;
  p.u_cwd_path = vfs::Combine(p.u_cwd_path, user_path);
  ChargeCpu(p, costs_->name_combine);
  ChargeCpu(p, static_cast<sim::Nanos>(p.u_cwd_path.size() + 1) * costs_->name_copy_per_byte);
  metrics_.Inc("vfs.name_bytes_copied", static_cast<int64_t>(p.u_cwd_path.size()) + 1);
}

// --- File syscalls ----------------------------------------------------------------

Result<int> Kernel::SysOpen(Proc& p, std::string_view path, int32_t flags, uint16_t mode) {
  SyscallApi* sink = p.api.get();
  const int fd = p.FreeFdSlot();
  if (fd < 0) return Errno::kMFile;

  // "/dev/tty" names the controlling terminal of the caller.
  if (path == "/dev/tty") {
    if (p.controlling_tty == nullptr) return Errno::kNoDev;
    auto file = std::make_shared<OpenFile>();
    file->kind = FileKind::kInode;
    file->inode = tty_nodes_.at(p.controlling_tty);
    file->flags = flags;
    ChargeCpu(p, costs_->file_table_slot);
    TrackOpenName(p, *file, path);
    InstallFd(p, fd, file);
    return fd;
  }

  vfs::InodePtr inode;
  if ((flags & OpenFlags::kOCreat) != 0) {
    PMIG_TRY(vfs::Vfs::ResolvedParent rp, vfs_->ResolveParent(p.cwd, path, sink));
    if (rp.existing != nullptr && !rp.existing->IsSymlink()) {
      if ((flags & OpenFlags::kOExcl) != 0) return Errno::kExist;
      inode = rp.existing;
    } else if (rp.existing != nullptr) {
      // Existing symlink: open its target (creating it if absent is not
      // supported; follow and require existence like 4.2BSD namei did).
      PMIG_TRY(vfs::Vfs::Resolved r, vfs_->Resolve(p.cwd, path, vfs::Follow::kAll, sink));
      inode = r.inode;
    } else {
      if (!vfs::CheckAccess(*rp.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
      PMIG_RETURN_IF_ERROR(vfs_->InjectedIoFault(*rp.dir, /*write=*/true));
      vfs::Filesystem* owner = rp.dir->fs;
      inode = owner->NewRegular(p.creds.euid, mode);
      PMIG_RETURN_IF_ERROR(owner->Link(rp.dir, rp.name, inode));
      ChargeCpu(p, costs_->file_table_slot);
    }
  } else {
    PMIG_TRY(vfs::Vfs::Resolved r, vfs_->Resolve(p.cwd, path, vfs::Follow::kAll, sink));
    inode = r.inode;
  }

  auto file = std::make_shared<OpenFile>();
  file->kind = FileKind::kInode;
  file->inode = inode;
  file->flags = flags;

  if (inode->IsDir() && file->writable()) return Errno::kIsDir;
  if (file->readable() && !vfs::CheckAccess(*inode, p.creds.euid, vfs::kWantRead)) {
    return Errno::kAcces;
  }
  if (file->writable() && !vfs::CheckAccess(*inode, p.creds.euid, vfs::kWantWrite)) {
    return Errno::kAcces;
  }
  if ((flags & OpenFlags::kOTrunc) != 0 && inode->IsRegular() && file->writable()) {
    PMIG_RETURN_IF_ERROR(vfs_->Truncate(*inode, 0, sink));
  }
  ChargeCpu(p, costs_->file_table_slot);
  // Cold in-core inode fetch: a disk read locally, an NFS RPC remotely. (No
  // inode cache is modelled; every successful open pays.)
  ChargeWait(p, vfs_->InodeIsRemote(*inode) ? costs_->nfs_rpc : costs_->inode_fetch);
  TrackOpenName(p, *file, path);
  InstallFd(p, fd, std::move(file));
  return fd;
}

Result<int> Kernel::SysCreat(Proc& p, std::string_view path, uint16_t mode) {
  // "the creat() system call simply calls the same internal routine that open()
  // calls, with slightly different arguments" (Section 6.1).
  return SysOpen(p, path, OpenFlags::kOWrOnly | OpenFlags::kOCreat | OpenFlags::kOTrunc, mode);
}

Status Kernel::SysClose(Proc& p, int fd) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  p.fds[static_cast<size_t>(fd)] = nullptr;
  if (--file->refcount == 0) {
    ReleaseOpenName(p, *file);
    if (file->channel != nullptr) {
      if (file->write_end) {
        file->channel->write_open = false;
      } else {
        file->channel->read_open = false;
      }
    }
  }
  return Status::Ok();
}

Result<std::string> Kernel::SysRead(Proc& p, int fd, int64_t max) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  if (!file->readable()) return Errno::kBadF;

  if (file->kind == FileKind::kPipe || file->kind == FileKind::kSocket) {
    Channel& ch = *file->channel;
    if (ch.buffer.empty()) {
      if (ch.write_open) return Errno::kAgain;  // caller blocks
      return std::string();                     // EOF
    }
    const int64_t n = std::min<int64_t>(max, static_cast<int64_t>(ch.buffer.size()));
    std::string out = ch.buffer.substr(0, static_cast<size_t>(n));
    ch.buffer.erase(0, static_cast<size_t>(n));
    ChargeCpu(p, n * costs_->buffer_copy_per_byte);
    return out;
  }

  vfs::Inode& inode = *file->inode;
  if (inode.IsDir()) return Errno::kIsDir;
  if (inode.IsRegular()) {
    if (vfs_->FsUnreachable(inode.fs)) return Errno::kHostUnreach;  // its server is down
    PMIG_RETURN_IF_ERROR(vfs_->InjectedIoFault(inode, /*write=*/false));
    std::string out;
    const int64_t n = vfs_->ReadAt(inode, file->offset, max, &out, p.api.get());
    file->offset += n;
    return out;
  }
  if (IsNullDevice(inode)) return std::string();  // EOF
  if (Tty* tty = AsTty(inode); tty != nullptr) {
    if (!tty->InputReady()) return Errno::kAgain;  // caller blocks
    std::string out = tty->ConsumeInput(max);
    ChargeCpu(p, static_cast<sim::Nanos>(out.size()) * costs_->buffer_copy_per_byte);
    return out;
  }
  return Errno::kIo;
}

Result<int64_t> Kernel::SysWrite(Proc& p, int fd, std::string_view data) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  if (!file->writable()) return Errno::kBadF;

  if (file->kind == FileKind::kPipe || file->kind == FileKind::kSocket) {
    Channel& ch = *file->channel;
    if (!ch.read_open) {
      const Status st = PostSignal(p.pid, vm::abi::kSigPipe, &p);
      (void)st;
      return Errno::kPipe;
    }
    ch.buffer.append(data);
    ChargeCpu(p, static_cast<sim::Nanos>(data.size()) * costs_->buffer_copy_per_byte);
    return static_cast<int64_t>(data.size());
  }

  vfs::Inode& inode = *file->inode;
  if (inode.IsDir()) return Errno::kIsDir;
  if (inode.IsRegular()) {
    if (vfs_->FsUnreachable(inode.fs)) return Errno::kHostUnreach;  // its server is down
    PMIG_RETURN_IF_ERROR(vfs_->InjectedIoFault(inode, /*write=*/true));
    if ((file->flags & OpenFlags::kOAppend) != 0) file->offset = inode.size();
    if (file->offset > vfs::Vfs::kMaxFileBytes - static_cast<int64_t>(data.size())) {
      return Errno::kFBig;  // refused before the file's bytes are allocated
    }
    const int64_t n = vfs_->WriteAt(inode, file->offset, data, p.api.get());
    file->offset += n;
    return n;
  }
  if (IsNullDevice(inode)) return static_cast<int64_t>(data.size());
  if (Tty* tty = AsTty(inode); tty != nullptr) {
    tty->AppendOutput(data);
    ChargeCpu(p, static_cast<sim::Nanos>(data.size()) * costs_->buffer_copy_per_byte);
    return static_cast<int64_t>(data.size());
  }
  return Errno::kIo;
}

Result<int64_t> Kernel::SysLseek(Proc& p, int fd, int64_t offset, int whence) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  if (file->kind != FileKind::kInode || !file->inode->IsRegular()) return Errno::kSPipe;
  int64_t base = 0;
  switch (whence) {
    case vm::abi::kSeekSet:
      base = 0;
      break;
    case vm::abi::kSeekCur:
      base = file->offset;
      break;
    case vm::abi::kSeekEnd:
      base = file->inode->size();
      break;
    default:
      return Errno::kInval;
  }
  // base >= 0, so only a positive offset can overflow.
  if (offset > std::numeric_limits<int64_t>::max() - base) return Errno::kInval;
  const int64_t pos = base + offset;
  if (pos < 0) return Errno::kInval;
  file->offset = pos;
  return pos;
}

Result<int> Kernel::SysDup(Proc& p, int fd) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  const int nfd = p.FreeFdSlot();
  if (nfd < 0) return Errno::kMFile;
  ChargeCpu(p, costs_->file_table_slot);
  InstallFd(p, nfd, std::move(file));
  return nfd;
}

Result<std::pair<int, int>> Kernel::SysPipe(Proc& p) {
  auto channel = std::make_shared<Channel>();
  const int rfd = p.FreeFdSlot();
  if (rfd < 0) return Errno::kMFile;
  InstallFd(p, rfd, MakeChannelFile(channel, /*write_end=*/false, FileKind::kPipe));
  const int wfd = p.FreeFdSlot();
  if (wfd < 0) {
    const Status st = SysClose(p, rfd);
    (void)st;
    return Errno::kMFile;
  }
  InstallFd(p, wfd, MakeChannelFile(channel, /*write_end=*/true, FileKind::kPipe));
  ChargeCpu(p, 2 * costs_->file_table_slot);
  return std::make_pair(rfd, wfd);
}

Result<std::pair<int, int>> Kernel::SysSocket(Proc& p) {
  // A connected local socket pair — just enough for a process to *have* sockets in
  // its open-file table, which is what the migration limitation is about.
  auto channel = std::make_shared<Channel>();
  const int afd = p.FreeFdSlot();
  if (afd < 0) return Errno::kMFile;
  InstallFd(p, afd, MakeChannelFile(channel, /*write_end=*/false, FileKind::kSocket));
  const int bfd = p.FreeFdSlot();
  if (bfd < 0) {
    const Status st = SysClose(p, afd);
    (void)st;
    return Errno::kMFile;
  }
  InstallFd(p, bfd, MakeChannelFile(channel, /*write_end=*/true, FileKind::kSocket));
  ChargeCpu(p, 2 * costs_->file_table_slot);
  return std::make_pair(afd, bfd);
}

// --- Directory / name syscalls ---------------------------------------------------

Status Kernel::SysChdir(Proc& p, std::string_view path) {
  PMIG_TRY(vfs::Vfs::Resolved r, vfs_->Resolve(p.cwd, path, vfs::Follow::kAll, p.api.get()));
  if (!r.inode->IsDir()) return Errno::kNotDir;
  if (!vfs::CheckAccess(*r.inode, p.creds.euid, vfs::kWantExec)) return Errno::kAcces;
  p.cwd = r.state;
  TrackChdirName(p, path);
  return Status::Ok();
}

Result<std::string> Kernel::SysGetCwd(Proc& p) {
  // Only the modified kernel can answer this directly (Section 5.1); the stock
  // kernel's getwd() was a user-level library crawl we do not model.
  if (!config_.track_names) return Errno::kInval;
  ChargeCpu(p, static_cast<sim::Nanos>(p.u_cwd_path.size() + 1) * costs_->buffer_copy_per_byte);
  return p.u_cwd_path.empty() ? std::string("/") : p.u_cwd_path;
}

Result<std::string> Kernel::SysReadlink(Proc& p, std::string_view path) {
  return vfs_->Readlink(p.cwd, path, p.api.get());
}

Result<StatInfo> Kernel::SysStat(Proc& p, std::string_view path, bool follow) {
  PMIG_TRY(vfs::Vfs::Resolved r,
           vfs_->Resolve(p.cwd, path, follow ? vfs::Follow::kAll : vfs::Follow::kNotLast,
                         p.api.get()));
  StatInfo info;
  info.type = r.inode->type;
  info.ino = r.inode->ino;
  info.uid = r.inode->uid;
  info.mode = r.inode->mode;
  info.size = r.inode->size();
  info.is_tty = AsTty(*r.inode) != nullptr;
  info.remote = vfs_->InodeIsRemote(*r.inode);
  return info;
}

Result<std::vector<std::string>> Kernel::SysReadDir(Proc& p,
                                                    std::string_view path) {
  PMIG_TRY(vfs::Vfs::Resolved r,
           vfs_->Resolve(p.cwd, path, vfs::Follow::kAll, p.api.get()));
  if (!r.inode->IsDir()) return Errno::kNotDir;
  if (!vfs::CheckAccess(*r.inode, p.creds.euid, vfs::kWantRead)) {
    return Errno::kAcces;
  }
  std::vector<std::string> names;
  names.reserve(r.inode->entries.size());
  size_t bytes = 0;
  for (const auto& [name, child] : r.inode->entries) {
    names.push_back(name);
    bytes += name.size() + 1;
  }
  ChargeCpu(p, static_cast<sim::Nanos>(bytes) * costs_->buffer_copy_per_byte);
  return names;
}

Status Kernel::SysUnlink(Proc& p, std::string_view path) {
  PMIG_TRY(vfs::Vfs::ResolvedParent rp, vfs_->ResolveParent(p.cwd, path, p.api.get()));
  if (rp.existing == nullptr) return Errno::kNoEnt;
  if (rp.existing->IsDir()) return Errno::kIsDir;  // directories go through rmdir()
  if (!vfs::CheckAccess(*rp.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
  ChargeCpu(p, costs_->file_table_slot);
  return rp.dir->fs->Unlink(rp.dir, rp.name);
}

Status Kernel::SysLink(Proc& p, std::string_view oldpath, std::string_view newpath) {
  SyscallApi* sink = p.api.get();
  PMIG_TRY(vfs::Vfs::Resolved old, vfs_->Resolve(p.cwd, oldpath, vfs::Follow::kAll, sink));
  if (old.inode->IsDir()) return Errno::kIsDir;
  PMIG_TRY(vfs::Vfs::ResolvedParent rp, vfs_->ResolveParent(p.cwd, newpath, sink));
  if (rp.existing != nullptr) return Errno::kExist;
  if (!vfs::CheckAccess(*rp.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
  if (old.inode->fs != rp.dir->fs) return Errno::kXDev;  // NFS: no cross-machine links
  ChargeCpu(p, costs_->file_table_slot);
  return rp.dir->fs->Link(rp.dir, rp.name, old.inode);
}

Status Kernel::SysMkdir(Proc& p, std::string_view path, uint16_t mode) {
  PMIG_TRY(vfs::Vfs::ResolvedParent rp, vfs_->ResolveParent(p.cwd, path, p.api.get()));
  if (rp.existing != nullptr) return Errno::kExist;
  if (!vfs::CheckAccess(*rp.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
  vfs::Filesystem* owner = rp.dir->fs;
  vfs::InodePtr dir = owner->NewDirectory(p.creds.euid, mode);
  ChargeCpu(p, costs_->file_table_slot);
  return owner->Link(rp.dir, rp.name, dir);
}

Status Kernel::SysRmdir(Proc& p, std::string_view path) {
  PMIG_TRY(vfs::Vfs::ResolvedParent rp, vfs_->ResolveParent(p.cwd, path, p.api.get()));
  if (rp.existing == nullptr) return Errno::kNoEnt;
  // Mount points must be tested on the covering (local) inode — `existing` has
  // already been substituted with the mounted-on root.
  if (auto raw = rp.dir->entries.find(rp.name);
      raw != rp.dir->entries.end() && vfs_->IsMountPoint(*raw->second)) {
    return Errno::kPerm;
  }
  if (!rp.existing->IsDir()) return Errno::kNotDir;
  if (!rp.existing->entries.empty()) return Errno::kExist;  // 4.3BSD: ENOTEMPTY≈EEXIST
  if (!vfs::CheckAccess(*rp.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
  ChargeCpu(p, costs_->file_table_slot);
  return rp.dir->fs->Unlink(rp.dir, rp.name);
}

Status Kernel::SysRename(Proc& p, std::string_view oldpath, std::string_view newpath) {
  SyscallApi* sink = p.api.get();
  PMIG_TRY(vfs::Vfs::ResolvedParent from, vfs_->ResolveParent(p.cwd, oldpath, sink));
  if (from.existing == nullptr) return Errno::kNoEnt;
  PMIG_TRY(vfs::Vfs::ResolvedParent to, vfs_->ResolveParent(p.cwd, newpath, sink));
  if (!vfs::CheckAccess(*from.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
  if (!vfs::CheckAccess(*to.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
  if (from.dir->fs != to.dir->fs) return Errno::kXDev;
  if (to.existing == from.existing) return Status::Ok();
  // 4.3BSD: a directory cannot move into itself or below itself.
  if (from.existing->IsDir() && InSubtree(*from.existing, to.dir.get())) return Errno::kInval;
  if (to.existing != nullptr) {
    // Replace: the target must be removable (directories only over empty dirs).
    if (to.existing->IsDir() && !from.existing->IsDir()) return Errno::kIsDir;
    if (!to.existing->IsDir() && from.existing->IsDir()) return Errno::kNotDir;
    if (to.existing->IsDir() && !to.existing->entries.empty()) return Errno::kExist;
  }
  // Every check is done: the move itself cannot fail half way.
  ChargeCpu(p, 2 * costs_->file_table_slot);
  to.dir->fs->Move(from.dir, from.name, to.dir, to.name);
  return Status::Ok();
}

// --- Process syscalls ------------------------------------------------------------

Status Kernel::SysKill(Proc& p, int32_t pid, int signo) {
  Proc* target = FindProc(pid);
  if (target == nullptr || !target->Alive()) return Errno::kSrch;
  // "only the superuser or the owner of the process" may signal it.
  if (!p.creds.IsSuperuser() && p.creds.uid != target->creds.uid &&
      p.creds.euid != target->creds.uid) {
    return Errno::kPerm;
  }
  ChargeCpu(p, costs_->signal_post);
  return PostSignal(pid, signo, &p);
}

Status Kernel::SysSetDumpMode(Proc& p, int32_t pid, bool incremental) {
  Proc* target = FindProc(pid);
  if (target == nullptr || !target->Alive()) return Errno::kSrch;
  // Same rule as kill(): only the superuser or the owner may change dump mode.
  if (!p.creds.IsSuperuser() && p.creds.uid != target->creds.uid &&
      p.creds.euid != target->creds.uid) {
    return Errno::kPerm;
  }
  if (incremental) {
    // An incremental dump needs the dirty bitmaps armed at exec time.
    if (target->kind != ProcKind::kVm || target->vm == nullptr ||
        !target->vm->dirty.armed) {
      return Errno::kNoExec;
    }
  }
  target->dump_incremental = incremental;
  return Status::Ok();
}

Result<bool> Kernel::SysDumpFailed(Proc& p, int32_t pid) {
  Proc* target = FindProc(pid);
  if (target == nullptr || !target->Alive()) return Errno::kSrch;
  // Same visibility rule as setdumpmode(): superuser or owner only.
  if (!p.creds.IsSuperuser() && p.creds.uid != target->creds.uid &&
      p.creds.euid != target->creds.uid) {
    return Errno::kPerm;
  }
  return target->dump_failed;
}

Status Kernel::SysSetReUid(Proc& p, int32_t ruid, int32_t euid) {
  if (!p.creds.IsSuperuser()) {
    const bool ruid_ok = ruid == -1 || ruid == p.creds.uid || ruid == p.creds.euid;
    const bool euid_ok = euid == -1 || euid == p.creds.uid || euid == p.creds.euid;
    if (!ruid_ok || !euid_ok) return Errno::kPerm;
  }
  if (ruid != -1) p.creds.uid = ruid;
  if (euid != -1) p.creds.euid = euid;
  return Status::Ok();
}

Status Kernel::SysSignal(Proc& p, int signo, SignalDisposition disposition) {
  if (signo <= 0 || signo >= vm::abi::kNSig) return Errno::kInval;
  if (signo == vm::abi::kSigKill || signo == vm::abi::kSigDump) return Errno::kInval;
  p.sig_dispositions[static_cast<size_t>(signo)] = disposition;
  return Status::Ok();
}

Result<uint16_t> Kernel::SysTtyGet(Proc& p, int fd) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  if (file->kind != FileKind::kInode) return Errno::kNoTty;
  Tty* tty = AsTty(*file->inode);
  if (tty == nullptr) return Errno::kNoTty;
  ChargeCpu(p, costs_->tty_ioctl);
  return tty->flags();
}

Status Kernel::SysTtySet(Proc& p, int fd, uint16_t flags) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  if (file->kind != FileKind::kInode) return Errno::kNoTty;
  Tty* tty = AsTty(*file->inode);
  if (tty == nullptr) return Errno::kNoTty;
  ChargeCpu(p, costs_->tty_ioctl);
  tty->set_flags(flags);
  return Status::Ok();
}

Result<int32_t> Kernel::SysFork(Proc& p) {
  if (p.kind != ProcKind::kVm) return Errno::kInval;  // tools spawn, they don't fork
  SpawnOptions opts;
  opts.creds = p.creds;
  opts.tty = p.controlling_tty;
  opts.ppid = p.pid;
  opts.stdio_on_tty = false;  // fds are copied from the parent below
  Proc& child = NewProc(p.command, ProcKind::kVm, opts);
  child.cwd = p.cwd;
  child.u_cwd_path = p.u_cwd_path;
  child.sig_dispositions = p.sig_dispositions;
  for (int fd = 0; fd < kNoFile; ++fd) {
    OpenFilePtr file = p.fds[static_cast<size_t>(fd)];
    if (file != nullptr) InstallFd(child, fd, file);
  }
  child.vm = std::make_unique<vm::VmContext>(*p.vm);
  child.vm->cpu.regs[0] = 0;  // fork() returns 0 in the child

  ChargeCpu(p, costs_->fork_overhead);
  ChargeCpu(p, static_cast<sim::Nanos>(p.vm->data.size() + p.vm->StackSize()) *
            costs_->buffer_copy_per_byte);
  return child.pid;
}

Status Kernel::SysExecve(Proc& p, std::string_view path, const std::vector<std::string>& args) {
  if (p.kind != ProcKind::kVm) return Errno::kInval;
  const sim::Nanos cpu0 = p.stime + p.utime;
  const sim::Nanos wait0 = p.pending_wait;

  PMIG_TRY(vfs::Vfs::Resolved r, vfs_->Resolve(p.cwd, path, vfs::Follow::kAll, p.api.get()));
  if (!r.inode->IsRegular()) return Errno::kAcces;
  if (!vfs::CheckAccess(*r.inode, p.creds.euid, vfs::kWantRead)) return Errno::kAcces;
  // exec() demand-pages the image: only the header + first pages are read
  // synchronously; the rest faults in as the program runs (not modelled as cost).
  std::string bytes;
  vfs_->ReadAt(*r.inode, 0, r.inode->size(), &bytes, nullptr);
  const int64_t prefetch = std::min<int64_t>(r.inode->size(), costs_->exec_prefetch_bytes);
  const auto io = vfs_->InodeIsRemote(*r.inode) ? costs_->NetIo(prefetch)
                                                : costs_->DiskIo(prefetch);
  ChargeCpu(p, io.cpu);
  ChargeWait(p, io.wait + (vfs_->InodeIsRemote(*r.inode) ? costs_->nfs_rpc
                                                            : costs_->inode_fetch));
  PMIG_TRY(vm::AoutImage image,
           vm::AoutImage::Parse(std::vector<uint8_t>(bytes.begin(), bytes.end())));
  PMIG_RETURN_IF_ERROR(OverlayVmImage(p, image, args));
  p.command = vfs::Basename(path);

  timers_.execve.cpu = (p.stime + p.utime) - cpu0;
  timers_.execve.real = timers_.execve.cpu + (p.pending_wait - wait0);
  timers_.execve.valid = true;
  Trace(sim::TraceCategory::kSyscall, p.pid, "execve " + std::string(path));
  return Status::Ok();
}

Status Kernel::SysRestProc(Proc& p, std::string_view aout_path, std::string_view stack_path) {
  if (!hooks_.rest_proc) return Errno::kInval;
  const sim::Nanos cpu0 = p.stime + p.utime;
  const sim::Nanos wait0 = p.pending_wait;
  const Status st = hooks_.rest_proc(*this, p, std::string(aout_path), std::string(stack_path));
  if (st.ok()) {
    timers_.rest_proc.cpu = (p.stime + p.utime) - cpu0;
    timers_.rest_proc.real = timers_.rest_proc.cpu + (p.pending_wait - wait0);
    timers_.rest_proc.valid = true;
    metrics_.Inc("migration.restarts");
    metrics_.Observe("migration.restart_ns", timers_.rest_proc.real);
    if (health_monitor_ != nullptr && health_monitor_->enabled()) {
      health_monitor_->Observe(hostname_, "migration.restart_ns",
                               static_cast<double>(timers_.rest_proc.real));
    }
    Trace(sim::TraceCategory::kMigration, p.pid,
          "rest_proc restored image from " + std::string(aout_path));
    // Let the I/O wait of reading the dump files elapse before the restored
    // program runs.
    SettlePendingWait(p);
  }
  return st;
}

Result<int64_t> Kernel::SysBrk(Proc& p, int64_t increment) {
  // sbrk(): grow or shrink the data segment. The dump formats carry the whole
  // (possibly grown) segment, so heap state migrates like everything else.
  constexpr int64_t kMaxData = 1 << 20;  // the segment's 1 MB window
  vm::VmContext& ctx = *p.vm;
  const int64_t old_size = static_cast<int64_t>(ctx.data.size());
  if (increment < -old_size || increment > kMaxData - old_size) return Errno::kNoMem;
  const int64_t new_size = old_size + increment;
  ctx.data.resize(static_cast<size_t>(new_size), 0);
  ctx.NoteDataResize(static_cast<size_t>(old_size), static_cast<size_t>(new_size));
  if (increment > 0) ChargeCpu(p, increment * 50);  // page zeroing
  return vm::kDataBase + old_size;
}

// --- Wait / reaping ---------------------------------------------------------------

Result<WaitResult> Kernel::TryWait(Proc& p) {
  bool any_child = false;
  for (Proc* q : live_) {
    if (q->ppid != p.pid || q->state == ProcState::kDead) continue;
    if (q->state == ProcState::kZombie) {
      q->state = ProcState::kDead;
      WaitResult wr;
      wr.pid = q->pid;
      wr.info = q->exit_info;
      return wr;
    }
    if (q->overlaid) {
      // rest_proc() overlaid this child; for the waiting parent it "completed".
      q->ppid = 0;
      q->overlaid = false;
      WaitResult wr;
      wr.pid = q->pid;
      wr.overlaid = true;
      return wr;
    }
    any_child = true;
  }
  if (!any_child) return Errno::kChild;
  return Errno::kAgain;
}

std::function<bool()> Kernel::MakeReadCheck(Proc& p, int fd) {
  auto file_or = FdGet(p, fd);
  if (!file_or.ok()) {
    return [] { return true; };
  }
  OpenFilePtr file = *file_or;
  if (file->kind == FileKind::kPipe || file->kind == FileKind::kSocket) {
    std::shared_ptr<Channel> ch = file->channel;
    return [ch] { return !ch->buffer.empty() || !ch->write_open; };
  }
  if (file->kind == FileKind::kInode) {
    if (Tty* tty = AsTty(*file->inode); tty != nullptr) {
      return [tty] { return tty->InputReady(); };
    }
  }
  return [] { return true; };
}

// --- VM trap dispatch --------------------------------------------------------------

void Kernel::RunVmProc(Proc& p) {
  while (p.state == ProcState::kRunnable && quantum_left_ > 0) {
    // Deliver pending caught signals to the user handler: push the resume pc and
    // jump. The handler returns with RET.
    if (p.sig_pending != 0) {
      for (int signo = 1; signo < vm::abi::kNSig; ++signo) {
        const uint64_t bit = uint64_t{1} << signo;
        if ((p.sig_pending & bit) == 0) continue;
        const SignalDisposition& d = p.sig_dispositions[static_cast<size_t>(signo)];
        if (d.action != SignalDisposition::Action::kCatch) continue;
        p.sig_pending &= ~bit;
        vm::CpuState& cpu = p.vm->cpu;
        if (cpu.sp < vm::kStackBase + 8) {
          VmFault(p, vm::Fault::kStackOverflow);
          return;
        }
        cpu.sp -= 8;
        if (!p.vm->WriteU64(cpu.sp, cpu.pc)) {
          VmFault(p, vm::Fault::kBadAddress);
          return;
        }
        cpu.pc = d.handler;
        ChargeCpu(p, costs_->signal_post);
      }
    }
    const int64_t steps = quantum_left_ / costs_->instruction;
    if (steps <= 0) break;
    vm::Cpu cpu(config_.isa);
    const vm::StopReason reason = cpu.Run(*p.vm, steps);
    const sim::Nanos used = cpu.steps_executed() * costs_->instruction;
    p.utime += used;
    quantum_left_ -= used;
    instructions_metric_.Inc(cpu.steps_executed());
    if (reason == vm::StopReason::kSyscall) {
      ++stats_.syscalls;
      if (metrics_.enabled()) {
        const int32_t n = cpu.last_syscall();
        auto [it, first_use] = vm_syscall_metrics_.try_emplace(n);
        if (first_use) it->second = metrics_.MakeCounter("kernel.syscall." + std::to_string(n));
        it->second.Inc();
      }
      ChargeCpu(p, costs_->syscall_entry);
      if (!DispatchVmSyscall(p, cpu.last_syscall())) break;
    } else if (reason == vm::StopReason::kFault) {
      VmFault(p, cpu.last_fault());
      break;
    }
  }
}

// The trap ABI, written once. A program traps with the call number in the SYS
// immediate and its arguments in r0..r2. VmTrap below is the whole convention:
// before the handler runs, each argument its table entry marks is copied in, in
// register order (a path as a NUL-terminated string of at most 1024 bytes, charged
// per byte to the caller; an input buffer as the bytes at one register's address
// for the next register's length). A bad pointer fails the call with EFAULT and the
// handler never runs. The handler leaves a value or -errno in r0. A call that
// cannot complete yet rewinds the pc onto its SYS instruction and blocks, so it
// re-executes from the top when woken — the 4.2BSD restartable-syscall behaviour
// that lets SIGDUMP hit a process blocked at its input prompt and still produce a
// restartable image. Last, the epilogue turns I/O waits the call accumulated into a
// sleep and tells the run loop whether the process keeps the CPU.

namespace {

enum class Arg : uint8_t {
  kValue,  // used as is
  kPath,   // NUL-terminated path name, copied in and charged
  kBytes,  // input buffer: the address here, the length in the next register
};

class VmTrap {
 public:
  VmTrap(Kernel& kernel, Proc& proc)
      : k(kernel), p(proc), vm(*proc.vm), r(proc.vm->cpu.regs) {}

  Kernel& k;
  Proc& p;
  vm::VmContext& vm;
  int64_t* r;

  // Copies in every argument `kinds` marks; false (EFAULT in r0) at the first bad
  // pointer, after charging the paths before it.
  bool CopyInArgs(const std::array<Arg, 3>& kinds) {
    for (size_t i = 0; i < kinds.size(); ++i) {
      std::string& out = in_[i];
      if (kinds[i] == Arg::kPath) {
        if (!vm.ReadCString(static_cast<uint32_t>(r[i]), 1024, &out)) return Fault();
        k.ChargeCpu(p, static_cast<sim::Nanos>(out.size() + 1) * k.costs().buffer_copy_per_byte);
      } else if (kinds[i] == Arg::kBytes) {
        // No segment is longer than the larger of data and stack: refuse longer
        // lengths before allocating for them.
        const int64_t len = std::max<int64_t>(r[i + 1], 0);
        if (len > std::max<int64_t>(static_cast<int64_t>(vm.data.size()), vm::kStackMax)) {
          return Fault();
        }
        out.resize(static_cast<size_t>(len));
        if (!CopyIn(static_cast<int>(i), out.data(), static_cast<uint32_t>(len))) return false;
      }
    }
    return true;
  }
  // The argument copied in from register `i`.
  std::string_view in(int i) const { return in_[static_cast<size_t>(i)]; }

  // Moves `len` bytes between the caller's memory at the address in register `reg`
  // and the kernel; false (EFAULT in r0) when the range is not mapped.
  bool CopyIn(int reg, void* out, uint32_t len) {
    return vm.ReadBytes(static_cast<uint32_t>(r[reg]), len, static_cast<uint8_t*>(out)) ||
           Fault();
  }
  bool CopyOut(int reg, const void* bytes, uint32_t len) {
    return vm.WriteBytes(static_cast<uint32_t>(r[reg]), len,
                         static_cast<const uint8_t*>(bytes)) ||
           Fault();
  }
  // Copies `s` and its NUL into the buffer at register `reg`, whose size is in
  // register reg + 1; a buffer too small is a fault.
  bool CopyOutString(int reg, const std::string& s) {
    return (static_cast<int64_t>(s.size()) + 1 <= r[reg + 1] &&
            vm.WriteCString(static_cast<uint32_t>(r[reg]), s)) ||
           Fault();
  }

  void Return(int64_t value) { r[0] = value; }
  void Fail(Errno e) { Return(-static_cast<int64_t>(e)); }
  // True when `res` (a Status or a Result) succeeded; otherwise puts -errno in r0.
  template <typename R>
  bool Ok(const R& res) {
    if (!res.ok()) Fail(res.error());
    return res.ok();
  }
  void Return(const Status& st) {
    if (Ok(st)) Return(0);
  }
  template <typename T>
  void Return(const Result<T>& res) {
    if (Ok(res)) Return(static_cast<int64_t>(*res));
  }
  // pipe() and socket(): the two descriptors in r0 and r1.
  void Return(const Result<std::pair<int, int>>& fds) {
    if (!Ok(fds)) return;
    r[0] = fds->first;
    r[1] = fds->second;
  }

  // The call cannot complete yet: block until `check` passes, then re-execute it.
  void Restart(std::function<bool()> check) {
    vm.cpu.pc -= vm::kInstrBytes;
    k.BlockProc(p, std::move(check));
    Stop();
  }
  // The process left the CPU (exited, slept or blocked); skip the epilogue.
  void Stop() { stopped_ = true; }

  // The epilogue: true when the process keeps running this quantum.
  bool Finish() {
    if (stopped_ || k.SettlePendingWait(p)) return false;
    return p.state == ProcState::kRunnable;
  }

 private:
  bool Fault() {
    Fail(Errno::kFault);
    return false;
  }

  std::array<std::string, 3> in_;
  bool stopped_ = false;
};

// One system call: its trap number, which registers carry arguments to copy in, and
// the handler that makes the Kernel::Sys* call.
struct VmSyscall {
  Sys number;
  std::array<Arg, 3> args;
  void (*handler)(VmTrap&);
};

int Fd(const VmTrap& t, int reg) { return static_cast<int>(t.r[reg]); }
uint16_t Mode(const VmTrap& t, int reg) { return static_cast<uint16_t>(t.r[reg]); }

// gethostname(): a migrated process sees its original host when identity is
// virtualised; gethostname_real() always sees the truth.
void ReturnHostname(VmTrap& t, bool real) {
  const bool virtualized = !real && t.k.config().virtualize_identity && t.p.migrated;
  if (t.CopyOutString(0, virtualized ? t.p.old_host : t.k.hostname())) t.Return(0);
}

using enum Arg;

constexpr VmSyscall kVmSyscalls[] = {
    {Sys::kSysExit, {},
     [](VmTrap& t) {
       ExitInfo info;
       info.exit_code = static_cast<int>(t.r[0]);
       t.k.TerminateProc(t.p, info);
       t.Stop();
     }},
    {Sys::kSysFork, {}, [](VmTrap& t) { t.Return(t.k.SysFork(t.p)); }},
    {Sys::kSysRead, {},
     [](VmTrap& t) {
       const Result<std::string> out = t.k.SysRead(t.p, Fd(t, 0), t.r[2]);
       if (out.error() == Errno::kAgain) return t.Restart(t.k.MakeReadCheck(t.p, Fd(t, 0)));
       if (t.Ok(out) && t.CopyOut(1, out->data(), static_cast<uint32_t>(out->size()))) {
         t.Return(static_cast<int64_t>(out->size()));
       }
     }},
    {Sys::kSysWrite, {kValue, kBytes},
     [](VmTrap& t) { t.Return(t.k.SysWrite(t.p, Fd(t, 0), t.in(1))); }},
    {Sys::kSysOpen, {kPath},
     [](VmTrap& t) {
       t.Return(t.k.SysOpen(t.p, t.in(0), static_cast<int32_t>(t.r[1]), Mode(t, 2)));
     }},
    {Sys::kSysClose, {}, [](VmTrap& t) { t.Return(t.k.SysClose(t.p, Fd(t, 0))); }},
    {Sys::kSysWait, {},
     [](VmTrap& t) {
       const Result<WaitResult> wr = t.k.TryWait(t.p);
       if (wr.error() == Errno::kAgain) {
         Kernel* k = &t.k;
         return t.Restart([k, pid = t.p.pid] { return k->WaitReady(pid); });
       }
       if (!t.Ok(wr)) return;
       t.Return(wr->pid);
       t.r[1] = wr->overlaid ? 0
                             : (wr->info.exit_code | (wr->info.killed_by_signal << 8) |
                                (wr->info.core_dumped ? 1 << 16 : 0));
     }},
    {Sys::kSysCreat, {kPath},
     [](VmTrap& t) { t.Return(t.k.SysCreat(t.p, t.in(0), Mode(t, 1))); }},
    {Sys::kSysLink, {kPath, kPath},
     [](VmTrap& t) { t.Return(t.k.SysLink(t.p, t.in(0), t.in(1))); }},
    {Sys::kSysUnlink, {kPath}, [](VmTrap& t) { t.Return(t.k.SysUnlink(t.p, t.in(0))); }},
    {Sys::kSysChdir, {kPath}, [](VmTrap& t) { t.Return(t.k.SysChdir(t.p, t.in(0))); }},
    {Sys::kSysTime, {}, [](VmTrap& t) { t.Return(t.k.clock().now() / sim::kSecond); }},
    {Sys::kSysBrk, {}, [](VmTrap& t) { t.Return(t.k.SysBrk(t.p, t.r[0])); }},
    {Sys::kSysLseek, {},
     [](VmTrap& t) {
       t.Return(t.k.SysLseek(t.p, Fd(t, 0), t.r[1], static_cast<int>(t.r[2])));
     }},
    {Sys::kSysGetPid, {},
     [](VmTrap& t) {
       const bool virtualized = t.k.config().virtualize_identity && t.p.migrated;
       t.Return(virtualized ? t.p.old_pid : t.p.pid);
     }},
    {Sys::kSysKill, {},
     [](VmTrap& t) {
       t.Return(t.k.SysKill(t.p, static_cast<int32_t>(t.r[0]), static_cast<int>(t.r[1])));
     }},
    {Sys::kSysStat, {kPath},
     [](VmTrap& t) {
       const Result<StatInfo> info = t.k.SysStat(t.p, t.in(0), /*follow=*/true);
       if (!t.Ok(info)) return;
       const int64_t quads[4] = {static_cast<int64_t>(info->type), info->size, info->uid,
                                 info->mode};
       if (t.CopyOut(1, quads, sizeof quads)) t.Return(0);
     }},
    {Sys::kSysDup, {}, [](VmTrap& t) { t.Return(t.k.SysDup(t.p, Fd(t, 0))); }},
    {Sys::kSysPipe, {}, [](VmTrap& t) { t.Return(t.k.SysPipe(t.p)); }},
    {Sys::kSysSignal, {},
     [](VmTrap& t) {
       SignalDisposition d;
       if (t.r[1] == vm::abi::kSigDfl) {
         d.action = SignalDisposition::Action::kDefault;
       } else if (t.r[1] == vm::abi::kSigIgn) {
         d.action = SignalDisposition::Action::kIgnore;
       } else {
         d.action = SignalDisposition::Action::kCatch;
         d.handler = static_cast<uint32_t>(t.r[1]);
       }
       t.Return(t.k.SysSignal(t.p, static_cast<int>(t.r[0]), d));
     }},
    {Sys::kSysIoctl, {},
     [](VmTrap& t) {
       uint16_t flags = 0;
       if (t.r[1] == vm::abi::kTiocGetP) {
         const Result<uint16_t> got = t.k.SysTtyGet(t.p, Fd(t, 0));
         if (t.Ok(got) && t.CopyOut(2, &*got, sizeof flags)) t.Return(0);
       } else if (t.r[1] == vm::abi::kTiocSetP) {
         if (t.CopyIn(2, &flags, sizeof flags)) t.Return(t.k.SysTtySet(t.p, Fd(t, 0), flags));
       } else {
         t.Fail(Errno::kInval);
       }
     }},
    {Sys::kSysReadlink, {kPath},
     [](VmTrap& t) {
       const Result<std::string> target = t.k.SysReadlink(t.p, t.in(0));
       if (!t.Ok(target)) return;
       const int64_t n = std::min<int64_t>(static_cast<int64_t>(target->size()), t.r[2]);
       if (t.CopyOut(1, target->data(), static_cast<uint32_t>(n))) t.Return(n);
     }},
    // On success the registers belong to the new image: r0 is not touched.
    {Sys::kSysExecve, {kPath}, [](VmTrap& t) { t.Ok(t.k.SysExecve(t.p, t.in(0), {})); }},
    {Sys::kSysGetHostname, {}, [](VmTrap& t) { ReturnHostname(t, /*real=*/false); }},
    {Sys::kSysSetReUid, {},
     [](VmTrap& t) {
       t.Return(t.k.SysSetReUid(t.p, static_cast<int32_t>(t.r[0]), static_cast<int32_t>(t.r[1])));
     }},
    {Sys::kSysGetUid, {}, [](VmTrap& t) { t.Return(t.p.creds.uid); }},
    {Sys::kSysGetPpid, {}, [](VmTrap& t) { t.Return(t.p.ppid); }},
    // The duration is read from r0 before the 0 result overwrites it. Like
    // sleep(3)'s unsigned int it is at most 2^32-1 seconds; negative sleeps 0.
    {Sys::kSysSleep, {},
     [](VmTrap& t) {
       const int64_t seconds = std::clamp<int64_t>(t.r[0], 0, UINT32_MAX);
       t.k.SleepProc(t.p, seconds * sim::kSecond);
       t.Return(0);
       t.Stop();
     }},
    {Sys::kSysSocket, {}, [](VmTrap& t) { t.Return(t.k.SysSocket(t.p)); }},
    {Sys::kSysGetCwd, {},
     [](VmTrap& t) {
       const Result<std::string> cwd = t.k.SysGetCwd(t.p);
       if (t.Ok(cwd) && t.CopyOutString(0, *cwd)) t.Return(0);
     }},
    // On success the process is the restored program, registers and all; it may be
    // asleep covering the dump-file I/O.
    {Sys::kSysRestProc, {kPath, kPath},
     [](VmTrap& t) { t.Ok(t.k.SysRestProc(t.p, t.in(0), t.in(1))); }},
    {Sys::kSysGetPidReal, {}, [](VmTrap& t) { t.Return(t.p.pid); }},
    {Sys::kSysGetHostnameReal, {}, [](VmTrap& t) { ReturnHostname(t, /*real=*/true); }},
    {Sys::kSysRename, {kPath, kPath},
     [](VmTrap& t) { t.Return(t.k.SysRename(t.p, t.in(0), t.in(1))); }},
    {Sys::kSysMkdir, {kPath},
     [](VmTrap& t) { t.Return(t.k.SysMkdir(t.p, t.in(0), Mode(t, 1))); }},
    {Sys::kSysRmdir, {kPath}, [](VmTrap& t) { t.Return(t.k.SysRmdir(t.p, t.in(0))); }},
};

static_assert(std::size(kVmSyscalls) == std::size(vm::abi::kSysNames),
              "every system call in vm/abi.h needs a trap table entry");

// kVmSyscalls indexed by trap number.
constexpr size_t kVmSyscallSlots = [] {
  int32_t max = 0;
  for (const VmSyscall& s : kVmSyscalls) max = std::max<int32_t>(max, s.number);
  return static_cast<size_t>(max) + 1;
}();
constexpr auto kVmSyscallByNumber = [] {
  std::array<const VmSyscall*, kVmSyscallSlots> index{};
  for (const VmSyscall& s : kVmSyscalls) index[static_cast<size_t>(s.number)] = &s;
  return index;
}();

}  // namespace

bool Kernel::DispatchVmSyscall(Proc& p, int32_t number) {
  VmTrap trap(*this, p);
  const VmSyscall* call =
      number >= 0 && static_cast<size_t>(number) < kVmSyscallByNumber.size()
          ? kVmSyscallByNumber[static_cast<size_t>(number)]
          : nullptr;
  if (call == nullptr) {
    trap.Fail(Errno::kInval);
  } else if (trap.CopyInArgs(call->args)) {
    call->handler(trap);
  }
  return trap.Finish();
}

// --- SyscallApi (native processes) -------------------------------------------------

Proc& SyscallApi::proc() {
  assert(proc_->state != ProcState::kDead && "syscall from a reaped process");
  return *proc_;
}

void SyscallApi::ChargeCpu(sim::Nanos amount) { kernel_->ChargeCpu(proc(), amount); }
void SyscallApi::ChargeWait(sim::Nanos amount) { kernel_->ChargeWait(proc(), amount); }

sim::Nanos SyscallApi::Now() const { return kernel_->clock().now(); }

void SyscallApi::EnterSyscall() {
  Proc& p = proc();
  ++kernel_->stats_.syscalls;
  kernel_->native_syscall_metric_.Inc();
  kernel_->ChargeCpu(p, kernel_->costs_->syscall_entry);
  kernel_->ChargeUser(p, kernel_->costs_->native_user_work);
  YieldIfPreempted();
}

void SyscallApi::YieldIfPreempted() {
  Proc& p = proc();
  if (kernel_->quantum_left_ <= 0 && p.native != nullptr) {
    p.native->Yield();  // stays runnable; rescheduled next quantum
  }
}

void SyscallApi::FinishSyscall() {
  Proc& p = proc();
  if (kernel_->SettlePendingWait(p) && p.native != nullptr) {
    p.native->Yield();
  }
}

void SyscallApi::BlockUntil(std::function<bool()> check) {
  Proc& p = proc();
  while (!check()) {
    kernel_->BlockProc(p, check);
    p.native->Yield();
  }
}

bool SyscallApi::BlockUntilFor(std::function<bool()> check, sim::Nanos timeout) {
  if (timeout <= 0) {
    BlockUntil(std::move(check));
    return true;
  }
  Proc& p = proc();
  sim::VirtualClock& clock = kernel_->clock();
  const sim::Nanos deadline = clock.now() + timeout;
  auto expired = [&clock, deadline] { return clock.now() >= deadline; };
  while (!check() && !expired()) {
    // A wake-up timer so the blocked-proc poll runs when the deadline passes
    // even if nothing else is happening. CancelTimer must not run after the
    // timer fired (it would corrupt the clock's live-timer count), hence the
    // shared flag; a timer left live after the proc dies degenerates to a
    // no-op, as a dead proc is not blocked.
    auto fired = std::make_shared<bool>(false);
    const uint64_t timer = clock.CallAt(deadline, [bp = &p, fired] {
      *fired = true;
      if (bp->state == ProcState::kBlocked) {
        bp->state = ProcState::kRunnable;
        bp->unblock_check = nullptr;
      }
    });
    kernel_->BlockProc(p, [check, expired] { return check() || expired(); });
    p.native->Yield();
    if (!*fired) clock.CancelTimer(timer);
  }
  return check();
}

Result<int> SyscallApi::Open(std::string_view path, int32_t flags, uint16_t mode) {
  return Syscall([&](Proc& p) { return kernel_->SysOpen(p, path, flags, mode); });
}

Result<int> SyscallApi::Creat(std::string_view path, uint16_t mode) {
  return Syscall([&](Proc& p) { return kernel_->SysCreat(p, path, mode); });
}

Status SyscallApi::Close(int fd) {
  return Syscall([&](Proc& p) { return kernel_->SysClose(p, fd); });
}

Result<std::string> SyscallApi::Read(int fd, int64_t max) {
  EnterSyscall();
  for (;;) {
    Proc& p = proc();
    const Result<std::string> out = kernel_->SysRead(p, fd, max);
    if (out.error() == Errno::kAgain) {
      kernel_->BlockProc(p, kernel_->MakeReadCheck(p, fd));
      p.native->Yield();
      continue;
    }
    FinishSyscall();
    return out;
  }
}

Result<std::string> SyscallApi::ReadLine(int fd) {
  // Stdio-style line input: read a chunk, seek back past the unconsumed tail for
  // seekable files. Terminals in cooked mode already return exactly one line.
  Result<std::string> chunk = Read(fd, 256);
  if (!chunk.ok()) return chunk;
  std::string& s = *chunk;
  const size_t nl = s.find('\n');
  if (nl == std::string::npos || nl + 1 == s.size()) return chunk;
  const int64_t extra = static_cast<int64_t>(s.size() - (nl + 1));
  const Result<int64_t> pos = Lseek(fd, -extra, vm::abi::kSeekCur);
  if (pos.ok()) {
    s.resize(nl + 1);
  }
  return chunk;
}

Result<std::string> SyscallApi::ReadAll(int fd) {
  std::string all;
  for (;;) {
    Result<std::string> chunk = Read(fd, 4096);
    if (!chunk.ok()) return chunk;
    if (chunk->empty()) return all;
    all += *chunk;
  }
}

Result<std::string> SyscallApi::ReadFile(std::string_view path) {
  PMIG_TRY(int fd, Open(path, OpenFlags::kORdOnly));
  Result<std::string> bytes = ReadAll(fd);
  const Status closed = Close(fd);
  (void)closed;
  return bytes;
}

Status SyscallApi::WriteFile(std::string_view path, std::string_view contents,
                             uint16_t mode) {
  PMIG_TRY(int fd, Creat(path, mode));
  const Result<int64_t> n = Write(fd, contents);
  const Status closed = Close(fd);
  (void)closed;
  if (!n.ok()) return n.error();
  return Status::Ok();
}

Result<int64_t> SyscallApi::Write(int fd, std::string_view data) {
  return Syscall([&](Proc& p) { return kernel_->SysWrite(p, fd, data); });
}

Result<int64_t> SyscallApi::Lseek(int fd, int64_t offset, int whence) {
  return Syscall([&](Proc& p) { return kernel_->SysLseek(p, fd, offset, whence); });
}

Result<int> SyscallApi::Dup(int fd) {
  return Syscall([&](Proc& p) { return kernel_->SysDup(p, fd); });
}

Status SyscallApi::Chdir(std::string_view path) {
  return Syscall([&](Proc& p) { return kernel_->SysChdir(p, path); });
}

Result<std::string> SyscallApi::GetCwd() {
  return Syscall([&](Proc& p) { return kernel_->SysGetCwd(p); });
}

Result<std::string> SyscallApi::Readlink(std::string_view path) {
  return Syscall([&](Proc& p) { return kernel_->SysReadlink(p, path); });
}

Result<StatInfo> SyscallApi::Stat(std::string_view path) {
  return Syscall([&](Proc& p) { return kernel_->SysStat(p, path, /*follow=*/true); });
}

Result<StatInfo> SyscallApi::LStat(std::string_view path) {
  return Syscall([&](Proc& p) { return kernel_->SysStat(p, path, /*follow=*/false); });
}

Result<std::vector<std::string>> SyscallApi::ReadDir(std::string_view path) {
  return Syscall([&](Proc& p) { return kernel_->SysReadDir(p, path); });
}

Status SyscallApi::Unlink(std::string_view path) {
  return Syscall([&](Proc& p) { return kernel_->SysUnlink(p, path); });
}

Status SyscallApi::Link(std::string_view oldpath, std::string_view newpath) {
  return Syscall([&](Proc& p) { return kernel_->SysLink(p, oldpath, newpath); });
}

Status SyscallApi::Mkdir(std::string_view path, uint16_t mode) {
  return Syscall([&](Proc& p) { return kernel_->SysMkdir(p, path, mode); });
}

Status SyscallApi::Rmdir(std::string_view path) {
  return Syscall([&](Proc& p) { return kernel_->SysRmdir(p, path); });
}

Status SyscallApi::Rename(std::string_view oldpath, std::string_view newpath) {
  return Syscall([&](Proc& p) { return kernel_->SysRename(p, oldpath, newpath); });
}

Status SyscallApi::Kill(int32_t target_pid, int signo) {
  return Syscall([&](Proc& p) { return kernel_->SysKill(p, target_pid, signo); });
}

Status SyscallApi::SetDumpMode(int32_t target_pid, bool incremental) {
  return Syscall(
      [&](Proc& p) { return kernel_->SysSetDumpMode(p, target_pid, incremental); });
}

Result<bool> SyscallApi::DumpFailed(int32_t target_pid) {
  return Syscall([&](Proc& p) { return kernel_->SysDumpFailed(p, target_pid); });
}

Status SyscallApi::SetReUid(int32_t ruid, int32_t euid) {
  return Syscall([&](Proc& p) { return kernel_->SysSetReUid(p, ruid, euid); });
}

int32_t SyscallApi::GetPid() {
  Proc& p = proc();
  if (kernel_->config_.virtualize_identity && p.migrated) return p.old_pid;
  return p.pid;
}

int32_t SyscallApi::GetUid() { return proc().creds.uid; }
int32_t SyscallApi::GetEuid() { return proc().creds.euid; }

std::string SyscallApi::GetHostname() {
  Proc& p = proc();
  if (kernel_->config_.virtualize_identity && p.migrated) return p.old_host;
  return kernel_->hostname_;
}

Result<uint16_t> SyscallApi::TtyGetFlags(int fd) {
  return Syscall([&](Proc& p) { return kernel_->SysTtyGet(p, fd); });
}

Status SyscallApi::TtySetFlags(int fd, uint16_t flags) {
  return Syscall([&](Proc& p) { return kernel_->SysTtySet(p, fd, flags); });
}

void SyscallApi::Sleep(sim::Nanos duration) {
  EnterSyscall();
  Proc& p = proc();
  kernel_->SleepProc(p, duration);
  p.native->Yield();
}

Result<WaitResult> SyscallApi::Wait() {
  EnterSyscall();
  for (;;) {
    Proc& p = proc();
    const Result<WaitResult> wr = kernel_->TryWait(p);
    if (wr.error() != Errno::kAgain) {
      FinishSyscall();
      return wr;
    }
    kernel_->BlockProc(p, [k = kernel_, pid = p.pid] { return k->WaitReady(pid); });
    p.native->Yield();
  }
}

Result<int32_t> SyscallApi::SpawnProgram(const std::string& program,
                                         std::vector<std::string> args) {
  EnterSyscall();
  Proc& p = proc();
  SpawnOptions opts;
  opts.creds = p.creds;
  opts.tty = p.controlling_tty;
  opts.cwd = p.u_cwd_path.empty() ? "/" : p.u_cwd_path;
  opts.ppid = p.pid;
  kernel_->ChargeCpu(p, kernel_->costs_->fork_overhead + kernel_->costs_->exec_overhead);
  const Result<int32_t> pid = kernel_->SpawnProgram(program, std::move(args), opts);
  FinishSyscall();
  return pid;
}

Result<int32_t> SyscallApi::SpawnVm(const std::string& aout_path,
                                    std::vector<std::string> args) {
  EnterSyscall();
  Proc& p = proc();
  SpawnOptions opts;
  opts.creds = p.creds;
  opts.tty = p.controlling_tty;
  opts.cwd = p.u_cwd_path.empty() ? "/" : p.u_cwd_path;
  opts.ppid = p.pid;
  kernel_->ChargeCpu(p, kernel_->costs_->fork_overhead);
  const Result<int32_t> pid = kernel_->SpawnVm(aout_path, std::move(args), opts);
  FinishSyscall();
  return pid;
}

Status SyscallApi::RestProc(std::string_view aout_path, std::string_view stack_path) {
  EnterSyscall();
  Proc& p = proc();
  const Status st = kernel_->SysRestProc(p, aout_path, stack_path);
  if (st.ok()) {
    // "Normally, there is no return from this system call." The process has been
    // overlaid; unwind the native task's stack while the (VM) process lives on.
    p.overlaid = true;
    throw BecameVm{};
  }
  FinishSyscall();
  return st;
}

void SyscallApi::Exit(int code) { throw ExitRequest{code}; }

}  // namespace pmig::kernel
