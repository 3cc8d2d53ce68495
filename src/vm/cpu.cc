#include "src/vm/cpu.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/sim/hash.h"

namespace pmig::vm {

std::string_view FaultName(Fault f) {
  switch (f) {
    case Fault::kNone:
      return "none";
    case Fault::kIllegalInstruction:
      return "illegal instruction";
    case Fault::kIsaViolation:
      return "isa violation";
    case Fault::kBadAddress:
      return "bad address";
    case Fault::kDivideByZero:
      return "divide by zero";
    case Fault::kStackOverflow:
      return "stack overflow";
  }
  return "?";
}

namespace {

// Flags the dirty pages covering [offset, offset + len) of one segment, len > 0.
// The data bitmap was sized at arm time; sbrk() may have grown the segment since,
// so pages past the bitmap are untrackable. That is safe: a dump whose data size
// differs from the base falls back to a full dump (BuildSigdump).
void MarkPages(std::vector<bool>& pages, uint32_t offset, uint32_t len) {
  const size_t first = offset / kDirtyPageBytes;
  const size_t last = (offset + len - 1) / kDirtyPageBytes;
  if (first == last) {  // the common case: a word or byte store
    if (first < pages.size()) pages[first] = true;
    return;
  }
  for (size_t page = first; page <= last && page < pages.size(); ++page) {
    pages[page] = true;
  }
}

}  // namespace

void VmContext::LoadImage(const AoutImage& image) {
  text = image.text;
  data = image.data;
  stack.assign(kStackMax, 0);
  cpu = CpuState{};
  cpu.pc = image.header.entry;
  cpu.sp = kStackTop;
  dirty = DirtyTracking{};  // a fresh image disarms tracking; the kernel re-arms
}

int64_t DirtyTracking::CountDataDirty() const {
  return std::count(data_dirty.begin(), data_dirty.end(), true);
}

int64_t DirtyTracking::CountStackDirty() const {
  return std::count(stack_dirty.begin(), stack_dirty.end(), true);
}

void VmContext::ArmDirtyTracking() {
  dirty.armed = true;
  dirty.text_digest = sim::HashBytes(text.bytes());
  dirty.base = data;
  dirty.base_digest = sim::HashBytes(dirty.base);
  dirty.data_dirty.assign((data.size() + kDirtyPageBytes - 1) / kDirtyPageBytes, false);
  dirty.stack_dirty.assign(kStackMax / kDirtyPageBytes, false);
}

bool VmContext::ArmDirtyTrackingWithBase(std::vector<uint8_t> base,
                                         const std::vector<uint32_t>& dirty_pages) {
  if (base.size() != data.size()) return false;
  ArmDirtyTracking();
  dirty.base = std::move(base);
  dirty.base_digest = sim::HashBytes(dirty.base);
  for (const uint32_t page : dirty_pages) {
    if (page < dirty.data_dirty.size()) dirty.data_dirty[page] = true;
  }
  return true;
}

void VmContext::MarkDirty(uint32_t addr, uint32_t len) {
  const uint64_t end = uint64_t{addr} + len;  // len > 0 checked by the caller
  if (addr >= kDataBase && end <= kDataBase + data.size()) {
    MarkPages(dirty.data_dirty, addr - kDataBase, len);
  } else if (addr >= kStackBase && end <= kStackTop) {
    MarkPages(dirty.stack_dirty, addr - kStackBase, len);
  }
}

void VmContext::NoteDataResize(size_t old_size, size_t new_size) {
  if (!dirty.armed || old_size == new_size || dirty.data_dirty.empty()) return;
  // A resize changes bytes without going through WriteBytes: everything from the
  // low-water mark up is discarded on shrink and zero-filled on a later regrow.
  // Mark those pages dirty so a delta taken once the size is back at the base's
  // still reconstructs bit-exactly. Pages past the bitmap need no marking — with
  // the size off the base's, the dump falls back to full anyway.
  const size_t lo = std::min(old_size, new_size);
  const size_t hi = std::max(old_size, new_size);
  const size_t last = std::min((hi - 1) / kDirtyPageBytes, dirty.data_dirty.size() - 1);
  for (size_t page = lo / kDirtyPageBytes; page <= last; ++page) {
    dirty.data_dirty[page] = true;
  }
}

std::vector<uint8_t> VmContext::StackContents() const {
  const uint32_t size = StackSize();
  std::vector<uint8_t> out(size);
  if (size > 0) {
    std::memcpy(out.data(), stack.data() + (cpu.sp - kStackBase), size);
  }
  return out;
}

bool VmContext::SetStackContents(const std::vector<uint8_t>& contents) {
  if (contents.size() > kStackMax) return false;
  stack.assign(kStackMax, 0);
  cpu.sp = kStackTop - static_cast<uint32_t>(contents.size());
  if (!contents.empty()) {
    std::memcpy(stack.data() + (cpu.sp - kStackBase), contents.data(), contents.size());
  }
  return true;
}

namespace {

// The data and stack segments' backing stores and bounds. Text is excluded: it is
// execute-only, as on a real split-I/D machine. (Built from a const context too,
// for the readers; only writers holding a mutable one write through it.)
struct Segments {
  explicit Segments(const VmContext& ctx)
      : data(const_cast<uint8_t*>(ctx.data.data())),
        data_end(kDataBase + uint64_t{ctx.data.size()}),
        stack(const_cast<uint8_t*>(ctx.stack.data())) {}

  // The backing pointer for [addr, addr + len), len > 0, inside one segment (data
  // first), or nullptr.
  uint8_t* Resolve(uint32_t addr, uint32_t len) const {
    const uint64_t end = uint64_t{addr} + len;
    if (addr >= kDataBase && end <= data_end) return data + (addr - kDataBase);
    if (addr >= kStackBase && end <= kStackTop) return stack + (addr - kStackBase);
    return nullptr;
  }

  uint8_t* data;
  uint64_t data_end;
  uint8_t* stack;
};

}  // namespace

bool VmContext::ReadBytes(uint32_t addr, uint32_t len, uint8_t* out) const {
  if (len == 0) return true;
  const uint8_t* p = Segments(*this).Resolve(addr, len);
  if (p == nullptr) return false;
  std::memcpy(out, p, len);
  return true;
}

bool VmContext::WriteBytes(uint32_t addr, uint32_t len, const uint8_t* in) {
  if (len == 0) return true;
  uint8_t* p = Segments(*this).Resolve(addr, len);
  if (p == nullptr) return false;
  std::memcpy(p, in, len);
  if (dirty.armed) MarkDirty(addr, len);
  return true;
}

// Memory words are little-endian; the host's native order is copied as is.
static_assert(std::endian::native == std::endian::little,
              "memcpy word access needs a little-endian host");

bool VmContext::ReadU64(uint32_t addr, int64_t* out) const {
  return ReadBytes(addr, 8, reinterpret_cast<uint8_t*>(out));
}

bool VmContext::WriteU64(uint32_t addr, int64_t value) {
  return WriteBytes(addr, 8, reinterpret_cast<const uint8_t*>(&value));
}

bool VmContext::ReadU16(uint32_t addr, uint16_t* out) const {
  uint8_t buf[2];
  if (!ReadBytes(addr, 2, buf)) return false;
  *out = static_cast<uint16_t>(buf[0] | (buf[1] << 8));
  return true;
}

bool VmContext::WriteU16(uint32_t addr, uint16_t value) {
  uint8_t buf[2] = {static_cast<uint8_t>(value & 0xFF), static_cast<uint8_t>(value >> 8)};
  return WriteBytes(addr, 2, buf);
}

bool VmContext::ReadCString(uint32_t addr, uint32_t max_len, std::string* out) const {
  out->clear();
  for (uint32_t i = 0; i <= max_len; ++i) {
    uint8_t c;
    if (!ReadBytes(addr + i, 1, &c)) return false;
    if (c == 0) return true;
    out->push_back(static_cast<char>(c));
  }
  return false;  // unterminated within max_len
}

bool VmContext::WriteCString(uint32_t addr, const std::string& s) {
  if (!WriteBytes(addr, static_cast<uint32_t>(s.size()),
                  reinterpret_cast<const uint8_t*>(s.data()))) {
    return false;
  }
  const uint8_t nul = 0;
  return WriteBytes(addr + static_cast<uint32_t>(s.size()), 1, &nul);
}

// --- The execution engine ---------------------------------------------------------
//
// Text is decoded once per text and machine level into a stream of DecodedInstr
// (TextSegment::Decoded), with every check that depends only on the instruction
// word baked in: an undefined opcode, kHalt or a bad register field decodes to
// kOpIllegal, a kIsa20 opcode on a kIsa10 machine to kOpIsaViolation. The stream
// ends in one kOpBadFetch sentinel, which sequential fallthrough runs into and which
// stands for any unaligned or out-of-range target. The run loop is then one load
// and one dispatch per step; only a taken branch, jmp, call or ret checks its
// target, and the check is 64-bit so no pc wraps.

namespace {

constexpr uint8_t Op(Opcode op) { return static_cast<uint8_t>(op); }

// Decoded op numbers past the real opcodes.
enum PseudoOp : uint8_t {
  kOpIllegal = Op(Opcode::kNumOpcodes),  // faults kIllegalInstruction
  kOpIsaViolation,                       // faults kIsaViolation
  kOpBadFetch,                           // faults kBadAddress
};

DecodedInstr DecodeInstr(const uint8_t* bytes, IsaLevel machine_level) {
  using Shape = OpcodeInfo::Shape;
  const Instruction in = Instruction::Decode(bytes);
  const OpcodeInfo& info = GetOpcodeInfo(in.op);
  DecodedInstr d{Op(in.op), in.ra, in.rb, in.rc, in.imm};
  if (in.op >= Opcode::kNumOpcodes) {
    d.op = kOpIllegal;
  } else if (!IsaCompatible(info.level, machine_level)) {
    d.op = kOpIsaViolation;
  } else if ((in.ra >= kNumRegs && info.shape != Shape::kNone && info.shape != Shape::kImm) ||
             in.rb >= kNumRegs || in.rc >= kNumRegs || in.op == Opcode::kHalt) {
    d.op = kOpIllegal;
  }
  return d;
}

// Register arithmetic wraps in two's complement, as the registers are 64 bits wide.
int64_t Wrap(uint64_t v) { return static_cast<int64_t>(v); }
uint64_t U(int64_t v) { return static_cast<uint64_t>(v); }

// The effective address of `base + imm`: its low 32 bits.
uint32_t Addr(int64_t base, int32_t imm) {
  return static_cast<uint32_t>(base) + static_cast<uint32_t>(imm);
}

}  // namespace

const DecodedInstr* TextSegment::Decoded(IsaLevel level) {
  if (decoded_.empty() || decoded_level_ != level) {
    const size_t n = bytes_.size() / kInstrBytes;
    decoded_.clear();
    decoded_.reserve(n + 2);
    for (size_t i = 0; i < n; ++i) {
      decoded_.push_back(DecodeInstr(bytes_.data() + i * kInstrBytes, level));
    }
    decoded_.push_back({kOpBadFetch});
    decoded_level_ = level;
  }
  return decoded_.data();
}

// The dispatch loop's host speed depends on where it falls relative to cache
// lines: unaligned, an unrelated change elsewhere in the binary can move it by
// 10% or more. A fixed alignment keeps its speed independent of link layout.
__attribute__((aligned(64))) StopReason Cpu::Run(VmContext& ctx, int64_t max_steps) {
  const DecodedInstr* const code = ctx.text.Decoded(machine_level_);
  const uint64_t fetch_end = ctx.text.size() / kInstrBytes * kInstrBytes;
  const DecodedInstr* const bad_fetch = code + fetch_end / kInstrBytes;
  // The pc the sentinel stands for: the end of text, or the unfetchable target
  // that sent ip there. Either way the run stops at the next step, so it never
  // stands for two pcs in one run.
  uint32_t bad_pc = static_cast<uint32_t>(fetch_end);
  auto fetch = [&](uint32_t pc) {
    if (pc % kInstrBytes == 0 && pc < fetch_end) return code + pc / kInstrBytes;
    bad_pc = pc;
    return bad_fetch;
  };

  // Segment bounds are fixed for the run: the data segment only resizes in sbrk(),
  // a syscall, which ends it.
  const Segments segments(ctx);
  const bool track = ctx.dirty.armed;
  auto load = [&]<typename T>(uint32_t addr, T* out) {
    const uint8_t* p = segments.Resolve(addr, sizeof(T));
    if (p != nullptr) std::memcpy(out, p, sizeof(T));
    return p != nullptr;
  };
  auto store = [&]<typename T>(uint32_t addr, T value) {
    uint8_t* p = segments.Resolve(addr, sizeof(T));
    if (p == nullptr) return false;
    std::memcpy(p, &value, sizeof(T));
    if (track) ctx.MarkDirty(addr, sizeof(T));
    return true;
  };

  int64_t r[kNumRegs] = {};
  std::memcpy(r, ctx.cpu.regs, sizeof(r));
  uint32_t sp = ctx.cpu.sp;
  const DecodedInstr* ip = fetch(ctx.cpu.pc);
  int64_t steps = 0;
  StopReason reason = StopReason::kSteps;
  Fault fault = Fault::kNone;

  while (steps < max_steps) {
    const DecodedInstr in = *ip++;  // fall through by default; branches overwrite
    ++steps;
    switch (in.op) {
      case Op(Opcode::kNop):
        break;
      case Op(Opcode::kMovI):
        r[in.ra] = in.imm;
        break;
      case Op(Opcode::kMov):
        r[in.ra] = r[in.rb];
        break;
      case Op(Opcode::kAdd):
        r[in.ra] = Wrap(U(r[in.rb]) + U(r[in.rc]));
        break;
      case Op(Opcode::kSub):
        r[in.ra] = Wrap(U(r[in.rb]) - U(r[in.rc]));
        break;
      case Op(Opcode::kMul):
      case Op(Opcode::kLMul):
        r[in.ra] = Wrap(U(r[in.rb]) * U(r[in.rc]));
        break;
      case Op(Opcode::kDiv):
        if (r[in.rc] == 0) { fault = Fault::kDivideByZero; goto faulted; }
        // INT64_MIN / -1 wraps to INT64_MIN instead of trapping the host.
        r[in.ra] = r[in.rc] == -1 ? Wrap(0 - U(r[in.rb])) : r[in.rb] / r[in.rc];
        break;
      case Op(Opcode::kMod):
        if (r[in.rc] == 0) { fault = Fault::kDivideByZero; goto faulted; }
        r[in.ra] = r[in.rc] == -1 ? 0 : r[in.rb] % r[in.rc];
        break;
      case Op(Opcode::kAnd):
        r[in.ra] = r[in.rb] & r[in.rc];
        break;
      case Op(Opcode::kOr):
        r[in.ra] = r[in.rb] | r[in.rc];
        break;
      case Op(Opcode::kXor):
        r[in.ra] = r[in.rb] ^ r[in.rc];
        break;
      case Op(Opcode::kShl):
        r[in.ra] = Wrap(U(r[in.rb]) << (r[in.rc] & 63));
        break;
      case Op(Opcode::kShr):
        r[in.ra] = Wrap(U(r[in.rb]) >> (r[in.rc] & 63));
        break;
      case Op(Opcode::kAddI):
        r[in.ra] = Wrap(U(r[in.rb]) + U(in.imm));
        break;
      case Op(Opcode::kLd):
        if (!load(Addr(r[in.rb], in.imm), &r[in.ra])) { fault = Fault::kBadAddress; goto faulted; }
        break;
      case Op(Opcode::kLdB): {
        uint8_t v = 0;
        if (!load(Addr(r[in.rb], in.imm), &v)) { fault = Fault::kBadAddress; goto faulted; }
        r[in.ra] = v;
        break;
      }
      case Op(Opcode::kSt):
        if (!store(Addr(r[in.rb], in.imm), r[in.ra])) { fault = Fault::kBadAddress; goto faulted; }
        break;
      case Op(Opcode::kStB):
        if (!store(Addr(r[in.rb], in.imm), static_cast<uint8_t>(r[in.ra] & 0xFF))) {
          fault = Fault::kBadAddress;
          goto faulted;
        }
        break;
      case Op(Opcode::kPush):
        if (sp < kStackBase + 8) { fault = Fault::kStackOverflow; goto faulted; }
        sp -= 8;  // stays decremented if the write faults
        if (!store(sp, r[in.ra])) { fault = Fault::kBadAddress; goto faulted; }
        break;
      case Op(Opcode::kPop):
        if (uint64_t{sp} + 8 > kStackTop || !load(sp, &r[in.ra])) {
          fault = Fault::kBadAddress;
          goto faulted;
        }
        sp += 8;
        break;
      case Op(Opcode::kJmp):
        ip = fetch(static_cast<uint32_t>(in.imm));
        break;
      case Op(Opcode::kCall):
        if (sp < kStackBase + 8) { fault = Fault::kStackOverflow; goto faulted; }
        sp -= 8;
        if (!store(sp, static_cast<int64_t>((ip - code) * kInstrBytes))) {
          fault = Fault::kBadAddress;
          goto faulted;
        }
        ip = fetch(static_cast<uint32_t>(in.imm));
        break;
      case Op(Opcode::kRet): {
        int64_t v = 0;
        if (uint64_t{sp} + 8 > kStackTop || !load(sp, &v)) {
          fault = Fault::kBadAddress;
          goto faulted;
        }
        sp += 8;
        ip = fetch(static_cast<uint32_t>(v));
        break;
      }
      case Op(Opcode::kBeq):
        if (r[in.ra] == r[in.rb]) ip = fetch(static_cast<uint32_t>(in.imm));
        break;
      case Op(Opcode::kBne):
        if (r[in.ra] != r[in.rb]) ip = fetch(static_cast<uint32_t>(in.imm));
        break;
      case Op(Opcode::kBlt):
        if (r[in.ra] < r[in.rb]) ip = fetch(static_cast<uint32_t>(in.imm));
        break;
      case Op(Opcode::kBge):
        if (r[in.ra] >= r[in.rb]) ip = fetch(static_cast<uint32_t>(in.imm));
        break;
      case Op(Opcode::kBfExt): {
        // Shift counts are taken mod 64, as for shl and shr.
        const int shift = in.imm & 63;
        const int width = (in.imm >> 8) & 0xFF;
        const uint64_t mask = width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
        r[in.ra] = Wrap((U(r[in.rb]) >> shift) & mask);
        break;
      }
      case Op(Opcode::kRdSp):
        r[in.ra] = sp;
        break;
      case Op(Opcode::kSys):
        last_syscall_ = in.imm;
        reason = StopReason::kSyscall;
        goto stopped;
      case kOpIllegal:
        fault = Fault::kIllegalInstruction;
        goto faulted;
      case kOpIsaViolation:
        fault = Fault::kIsaViolation;
        goto faulted;
      case kOpBadFetch:
        fault = Fault::kBadAddress;
        goto faulted;
      default:
        __builtin_unreachable();  // kHalt decodes to kOpIllegal; nothing else exists
    }
  }
  goto stopped;

faulted:
  --ip;  // leave pc on the faulting instruction
  reason = StopReason::kFault;
stopped:
  std::memcpy(ctx.cpu.regs, r, sizeof(r));
  ctx.cpu.sp = sp;
  ctx.cpu.pc = ip == bad_fetch ? bad_pc : static_cast<uint32_t>((ip - code) * kInstrBytes);
  steps_executed_ = steps;
  last_fault_ = fault;
  return reason;
}

}  // namespace pmig::vm
