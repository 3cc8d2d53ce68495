// A reference single-stepper for the VM: decode, validate and execute one
// instruction per step straight from the text bytes, with byte-at-a-time word
// access and a page-by-page dirty mark of its own. It is the semantics the
// predecoded engine in src/vm/cpu.cc must reproduce exactly, kept deliberately
// naive so that it is easy to check by eye.
//
// It differs from a literal per-step interpreter in three places only, each one an
// input on which such an interpreter had no defined result:
//   * the fetch check is 64-bit, so a pc near 2^32 faults instead of wrapping;
//   * add/sub/mul/addi and address arithmetic wrap in two's complement, and
//     INT64_MIN / -1 gives INT64_MIN (remainder 0) instead of trapping the host;
//   * the bfext shift count is taken mod 64, as for shl and shr.

#ifndef PMIG_TESTS_REFERENCE_CPU_H_
#define PMIG_TESTS_REFERENCE_CPU_H_

#include <cstdint>

#include "src/vm/cpu.h"
#include "src/vm/isa.h"

namespace pmig::vm::testing {

class ReferenceCpu {
 public:
  explicit ReferenceCpu(IsaLevel machine_level) : machine_level_(machine_level) {}

  StopReason Run(VmContext& ctx, int64_t max_steps) {
    steps_executed_ = 0;
    last_fault_ = Fault::kNone;
    while (steps_executed_ < max_steps) {
      const StopReason reason = StepOnce(ctx);
      ++steps_executed_;
      if (reason != StopReason::kSteps) return reason;
    }
    return StopReason::kSteps;
  }

  int64_t steps_executed() const { return steps_executed_; }
  int32_t last_syscall() const { return last_syscall_; }
  Fault last_fault() const { return last_fault_; }

 private:
  static int64_t Wrap(uint64_t v) { return static_cast<int64_t>(v); }
  static uint64_t U(int64_t v) { return static_cast<uint64_t>(v); }
  static uint32_t Addr(int64_t base, int32_t imm) {
    return static_cast<uint32_t>(base) + static_cast<uint32_t>(imm);
  }

  static bool ReadU64(const VmContext& ctx, uint32_t addr, int64_t* out) {
    uint8_t buf[8];
    if (!ctx.ReadBytes(addr, 8, buf)) return false;
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | buf[i];
    *out = static_cast<int64_t>(v);
    return true;
  }

  static bool WriteU64(VmContext& ctx, uint32_t addr, int64_t value) {
    uint8_t buf[8];
    const auto u = static_cast<uint64_t>(value);
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<uint8_t>((u >> (8 * i)) & 0xFF);
    return WriteBytes(ctx, addr, 8, buf);
  }

  // Writes with VmContext's own tracking held off, then marks the pages here.
  static bool WriteBytes(VmContext& ctx, uint32_t addr, uint32_t len, const uint8_t* in) {
    const bool armed = ctx.dirty.armed;
    ctx.dirty.armed = false;
    const bool ok = ctx.WriteBytes(addr, len, in);
    ctx.dirty.armed = armed;
    if (ok && armed) MarkDirty(ctx, addr, len);
    return ok;
  }

  static void MarkDirty(VmContext& ctx, uint32_t addr, uint32_t len) {
    const uint32_t last = addr + len - 1;
    if (addr >= kDataBase && last < kDataBase + ctx.data.size()) {
      const uint32_t tracked = static_cast<uint32_t>(ctx.dirty.data_dirty.size());
      for (uint32_t page = (addr - kDataBase) / kDirtyPageBytes;
           page <= (last - kDataBase) / kDirtyPageBytes && page < tracked; ++page) {
        ctx.dirty.data_dirty[page] = true;
      }
    } else if (addr >= kStackBase && last < kStackTop) {
      for (uint32_t page = (addr - kStackBase) / kDirtyPageBytes;
           page <= (last - kStackBase) / kDirtyPageBytes; ++page) {
        ctx.dirty.stack_dirty[page] = true;
      }
    }
  }

  StopReason StepOnce(VmContext& ctx) {
    CpuState& cpu = ctx.cpu;
    if (uint64_t{cpu.pc} + kInstrBytes > ctx.text.size() || cpu.pc % kInstrBytes != 0) {
      last_fault_ = Fault::kBadAddress;
      return StopReason::kFault;
    }
    const Instruction in = Instruction::Decode(ctx.text.data() + cpu.pc);
    const OpcodeInfo& info = GetOpcodeInfo(in.op);
    if (in.op >= Opcode::kNumOpcodes) {
      last_fault_ = Fault::kIllegalInstruction;
      return StopReason::kFault;
    }
    if (!IsaCompatible(info.level, machine_level_)) {
      last_fault_ = Fault::kIsaViolation;
      return StopReason::kFault;
    }
    if ((in.ra >= kNumRegs && info.shape != OpcodeInfo::Shape::kNone &&
         info.shape != OpcodeInfo::Shape::kImm) ||
        in.rb >= kNumRegs || in.rc >= kNumRegs) {
      last_fault_ = Fault::kIllegalInstruction;
      return StopReason::kFault;
    }
    cpu.pc += kInstrBytes;  // default: fall through; branches overwrite

    auto fault = [&](Fault f) {
      cpu.pc -= kInstrBytes;  // leave pc at the faulting instruction
      last_fault_ = f;
      return StopReason::kFault;
    };

    int64_t* r = cpu.regs;
    switch (in.op) {
      case Opcode::kNop:
        break;
      case Opcode::kMovI:
        r[in.ra] = in.imm;
        break;
      case Opcode::kMov:
        r[in.ra] = r[in.rb];
        break;
      case Opcode::kAdd:
        r[in.ra] = Wrap(U(r[in.rb]) + U(r[in.rc]));
        break;
      case Opcode::kSub:
        r[in.ra] = Wrap(U(r[in.rb]) - U(r[in.rc]));
        break;
      case Opcode::kMul:
      case Opcode::kLMul:
        r[in.ra] = Wrap(U(r[in.rb]) * U(r[in.rc]));
        break;
      case Opcode::kDiv:
        if (r[in.rc] == 0) return fault(Fault::kDivideByZero);
        r[in.ra] = r[in.rc] == -1 ? Wrap(0 - U(r[in.rb])) : r[in.rb] / r[in.rc];
        break;
      case Opcode::kMod:
        if (r[in.rc] == 0) return fault(Fault::kDivideByZero);
        r[in.ra] = r[in.rc] == -1 ? 0 : r[in.rb] % r[in.rc];
        break;
      case Opcode::kAnd:
        r[in.ra] = r[in.rb] & r[in.rc];
        break;
      case Opcode::kOr:
        r[in.ra] = r[in.rb] | r[in.rc];
        break;
      case Opcode::kXor:
        r[in.ra] = r[in.rb] ^ r[in.rc];
        break;
      case Opcode::kShl:
        r[in.ra] = Wrap(U(r[in.rb]) << (r[in.rc] & 63));
        break;
      case Opcode::kShr:
        r[in.ra] = static_cast<int64_t>(static_cast<uint64_t>(r[in.rb]) >> (r[in.rc] & 63));
        break;
      case Opcode::kAddI:
        r[in.ra] = Wrap(U(r[in.rb]) + U(in.imm));
        break;
      case Opcode::kLd: {
        int64_t v;
        if (!ReadU64(ctx, Addr(r[in.rb], in.imm), &v)) {
          return fault(Fault::kBadAddress);
        }
        r[in.ra] = v;
        break;
      }
      case Opcode::kLdB: {
        uint8_t v;
        if (!ctx.ReadBytes(Addr(r[in.rb], in.imm), 1, &v)) {
          return fault(Fault::kBadAddress);
        }
        r[in.ra] = v;
        break;
      }
      case Opcode::kSt:
        if (!WriteU64(ctx, Addr(r[in.rb], in.imm), r[in.ra])) {
          return fault(Fault::kBadAddress);
        }
        break;
      case Opcode::kStB: {
        const uint8_t v = static_cast<uint8_t>(r[in.ra] & 0xFF);
        if (!WriteBytes(ctx, Addr(r[in.rb], in.imm), 1, &v)) {
          return fault(Fault::kBadAddress);
        }
        break;
      }
      case Opcode::kPush:
        if (cpu.sp < kStackBase + 8) return fault(Fault::kStackOverflow);
        cpu.sp -= 8;
        if (!WriteU64(ctx, cpu.sp, r[in.ra])) return fault(Fault::kBadAddress);
        break;
      case Opcode::kPop: {
        int64_t v;
        if (cpu.sp + 8 > kStackTop) return fault(Fault::kBadAddress);
        if (!ReadU64(ctx, cpu.sp, &v)) return fault(Fault::kBadAddress);
        cpu.sp += 8;
        r[in.ra] = v;
        break;
      }
      case Opcode::kJmp:
        cpu.pc = static_cast<uint32_t>(in.imm);
        break;
      case Opcode::kCall:
        if (cpu.sp < kStackBase + 8) return fault(Fault::kStackOverflow);
        cpu.sp -= 8;
        if (!WriteU64(ctx, cpu.sp, cpu.pc)) return fault(Fault::kBadAddress);
        cpu.pc = static_cast<uint32_t>(in.imm);
        break;
      case Opcode::kRet: {
        int64_t v;
        if (cpu.sp + 8 > kStackTop) return fault(Fault::kBadAddress);
        if (!ReadU64(ctx, cpu.sp, &v)) return fault(Fault::kBadAddress);
        cpu.sp += 8;
        cpu.pc = static_cast<uint32_t>(v);
        break;
      }
      case Opcode::kBeq:
        if (r[in.ra] == r[in.rb]) cpu.pc = static_cast<uint32_t>(in.imm);
        break;
      case Opcode::kBne:
        if (r[in.ra] != r[in.rb]) cpu.pc = static_cast<uint32_t>(in.imm);
        break;
      case Opcode::kBlt:
        if (r[in.ra] < r[in.rb]) cpu.pc = static_cast<uint32_t>(in.imm);
        break;
      case Opcode::kBge:
        if (r[in.ra] >= r[in.rb]) cpu.pc = static_cast<uint32_t>(in.imm);
        break;
      case Opcode::kBfExt: {
        const int shift = in.imm & 63;
        const int width = (in.imm >> 8) & 0xFF;
        const uint64_t mask = width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
        r[in.ra] = static_cast<int64_t>((static_cast<uint64_t>(r[in.rb]) >> shift) & mask);
        break;
      }
      case Opcode::kRdSp:
        r[in.ra] = cpu.sp;
        break;
      case Opcode::kSys:
        last_syscall_ = in.imm;
        return StopReason::kSyscall;
      case Opcode::kHalt:
        return fault(Fault::kIllegalInstruction);
      case Opcode::kNumOpcodes:
        return fault(Fault::kIllegalInstruction);
    }
    return StopReason::kSteps;
  }

  IsaLevel machine_level_;
  int64_t steps_executed_ = 0;
  int32_t last_syscall_ = 0;
  Fault last_fault_ = Fault::kNone;
};

}  // namespace pmig::vm::testing

#endif  // PMIG_TESTS_REFERENCE_CPU_H_
