// Differential test of the predecoded execution engine (vm::Cpu) against the
// reference single-stepper in reference_cpu.h, on seeded random programs: every
// opcode, undefined opcodes and bad register fields, kIsa20 ops on a kIsa10 CPU,
// misaligned and out-of-range branch/jump/ret targets, division by zero, stack
// overflow and underflow, and data/stack stores with dirty tracking armed. Each
// program runs once in one budget and once with the budget split into random
// chunks; all three runs must agree on every observable.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "src/sim/rng.h"
#include "src/vm/cpu.h"
#include "tests/reference_cpu.h"

namespace pmig::vm {
namespace {

constexpr int kCases = 3000;
constexpr int64_t kBudget = 4000;
constexpr uint32_t kDataBytes = 3 * kDirtyPageBytes + 512;

// Values that steer memory operations at interesting places: inside data, across a
// page boundary, off either end of data, inside and off the ends of the stack, in
// text, and near 2^32.
int64_t InterestingValue(sim::Rng& rng) {
  switch (rng.Below(12)) {
    case 0: return kDataBase + rng.Below(kDataBytes);
    case 1: return kDataBase + kDirtyPageBytes * rng.Range(1, 3) - rng.Range(1, 7);
    case 2: return kDataBase + kDataBytes - rng.Range(0, 8);
    case 3: return kDataBase - rng.Range(1, 8);
    case 4: return kStackTop - rng.Range(1, 4096);
    case 5: return kStackBase + rng.Range(-8, 64);
    case 6: return kStackTop - rng.Range(0, 8) + 8;
    case 7: return rng.Range(0, 256);
    case 8: return 0xFFFFFFF8;
    case 9: return -1;
    case 10: return 0;
    default: return static_cast<int64_t>(rng.Next());
  }
}

uint8_t RandomReg(sim::Rng& rng) {
  // Mostly a real register; sometimes a bad register field.
  return rng.Chance(0.01) ? static_cast<uint8_t>(rng.Range(kNumRegs, 255))
                          : static_cast<uint8_t>(rng.Below(kNumRegs));
}

// A branch/jump/call immediate: mostly an instruction in the text, sometimes one
// past its end, misaligned, or wrapped near 2^32.
int32_t RandomTarget(sim::Rng& rng, int n) {
  const int64_t roll = static_cast<int64_t>(rng.Below(100));
  if (roll < 88) return static_cast<int32_t>(rng.Below(static_cast<uint64_t>(n)) * kInstrBytes);
  if (roll < 92) return n * kInstrBytes;
  if (roll < 95) return static_cast<int32_t>(rng.Below(static_cast<uint64_t>(n)) * kInstrBytes + 4);
  if (roll < 98) return -kInstrBytes;
  return static_cast<int32_t>(rng.Next());
}

std::vector<uint8_t> RandomText(sim::Rng& rng) {
  const int n = static_cast<int>(rng.Range(4, 48));
  std::vector<uint8_t> text;
  for (int i = 0; i < n; ++i) {
    Instruction in;
    const uint64_t roll = rng.Below(1000);
    if (roll < 4) {
      in.op = static_cast<Opcode>(rng.Range(static_cast<int64_t>(Opcode::kNumOpcodes), 255));
    } else if (roll < 8) {
      in.op = Opcode::kHalt;
    } else if (roll < 18) {
      in.op = Opcode::kSys;
    } else {
      do {
        in.op = static_cast<Opcode>(rng.Below(static_cast<uint64_t>(Opcode::kNumOpcodes)));
      } while (in.op == Opcode::kHalt || in.op == Opcode::kSys);
    }
    in.ra = RandomReg(rng);
    in.rb = RandomReg(rng);
    in.rc = RandomReg(rng);
    switch (in.op) {
      case Opcode::kJmp:
      case Opcode::kCall:
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
        in.imm = RandomTarget(rng, n);
        break;
      case Opcode::kLd:
      case Opcode::kLdB:
      case Opcode::kSt:
      case Opcode::kStB:
        in.imm = rng.Chance(0.9) ? static_cast<int32_t>(rng.Range(-16, 64))
                                 : static_cast<int32_t>(InterestingValue(rng));
        break;
      case Opcode::kMovI:
      case Opcode::kAddI:
        in.imm = static_cast<int32_t>(InterestingValue(rng));
        break;
      default:
        in.imm = static_cast<int32_t>(rng.Range(-300, 300));
        break;
    }
    const auto bytes = in.Encode();
    text.insert(text.end(), bytes.begin(), bytes.end());
  }
  // Occasionally a ragged tail: a partial instruction is never fetchable.
  if (rng.Chance(0.05)) text.resize(text.size() + rng.Range(1, kInstrBytes - 1), 0);
  return text;
}

struct Case {
  VmContext ctx;
  IsaLevel level = IsaLevel::kIsa20;
};

Case RandomCase(uint64_t seed) {
  sim::Rng rng(seed);
  Case c;
  c.level = rng.Chance(0.5) ? IsaLevel::kIsa10 : IsaLevel::kIsa20;
  c.ctx.text = RandomText(rng);
  c.ctx.data.resize(kDataBytes);
  for (uint8_t& b : c.ctx.data) b = static_cast<uint8_t>(rng.Next());
  for (int64_t& reg : c.ctx.cpu.regs) reg = InterestingValue(rng);
  c.ctx.cpu.pc = rng.Chance(0.95) ? 0 : static_cast<uint32_t>(InterestingValue(rng));
  switch (rng.Below(6)) {
    case 0: c.ctx.cpu.sp = kStackBase + 8 * static_cast<uint32_t>(rng.Range(0, 6)); break;
    case 1: c.ctx.cpu.sp = kStackTop - 8 * static_cast<uint32_t>(rng.Range(0, 3)); break;
    case 2: c.ctx.cpu.sp = kStackTop + 8; break;
    default: c.ctx.cpu.sp = kStackTop - 8 * static_cast<uint32_t>(rng.Range(0, 64)); break;
  }
  for (size_t i = 0; i < 4096; ++i) {
    c.ctx.stack[kStackMax - 1 - i] = static_cast<uint8_t>(rng.Next());
  }
  if (rng.Chance(0.6)) {
    c.ctx.ArmDirtyTracking();
    if (rng.Chance(0.3)) {
      // sbrk() growth past the armed bitmap: stores there stay untracked.
      const size_t old_size = c.ctx.data.size();
      c.ctx.data.resize(old_size + 2 * kDirtyPageBytes, 0);
      c.ctx.NoteDataResize(old_size, c.ctx.data.size());
    }
  }
  return c;
}

// One stop of the CPU as the kernel would see it.
struct Stop {
  StopReason reason;
  Fault fault;
  int32_t syscall;
  int64_t steps;  // cumulative over the whole drive

  bool operator==(const Stop&) const = default;
};

// Runs `budget` steps the way RunVmProc does, continuing past syscalls. With a
// chunk generator, every Run gets a random slice of what is left instead.
template <typename CpuT>
std::vector<Stop> Drive(CpuT& cpu, VmContext& ctx, int64_t budget, sim::Rng* chunks) {
  std::vector<Stop> stops;
  int64_t used = 0;
  while (used < budget) {
    const int64_t left = budget - used;
    const int64_t slice = chunks == nullptr ? left : std::min<int64_t>(left, chunks->Range(0, 40));
    const StopReason reason = cpu.Run(ctx, slice);
    used += cpu.steps_executed();
    if (reason == StopReason::kSteps) {
      EXPECT_EQ(cpu.steps_executed(), slice);
      continue;
    }
    stops.push_back({reason, cpu.last_fault(), cpu.last_syscall(), used});
    if (reason == StopReason::kFault) break;
  }
  stops.push_back({StopReason::kSteps, cpu.last_fault(), cpu.last_syscall(), used});
  return stops;
}

void ExpectSameMachine(const VmContext& want, const VmContext& got) {
  EXPECT_EQ(want.cpu, got.cpu);
  EXPECT_EQ(want.data, got.data);
  EXPECT_EQ(want.stack, got.stack);
  EXPECT_EQ(want.dirty.data_dirty, got.dirty.data_dirty);
  EXPECT_EQ(want.dirty.stack_dirty, got.dirty.stack_dirty);
}

TEST(CpuDifferential, RandomProgramsMatchReferenceInOneRunAndInChunks) {
  std::array<int, 6> faults{};  // indexed by Fault
  int syscalls = 0;
  int dirty_marks = 0;
  for (uint64_t seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const Case c = RandomCase(seed);

    VmContext ref_ctx = c.ctx;
    testing::ReferenceCpu ref(c.level);
    const std::vector<Stop> want = Drive(ref, ref_ctx, kBudget, nullptr);

    VmContext one_ctx = c.ctx;
    Cpu one(c.level);
    EXPECT_EQ(Drive(one, one_ctx, kBudget, nullptr), want);
    ExpectSameMachine(ref_ctx, one_ctx);

    VmContext split_ctx = c.ctx;
    Cpu split(c.level);
    sim::Rng chunks(seed * 7919);
    EXPECT_EQ(Drive(split, split_ctx, kBudget, &chunks), want);
    ExpectSameMachine(ref_ctx, split_ctx);

    if (::testing::Test::HasFailure()) return;  // one divergent seed is enough to report
    for (const Stop& s : want) {
      if (s.reason == StopReason::kFault) ++faults[static_cast<size_t>(s.fault)];
      if (s.reason == StopReason::kSyscall) ++syscalls;
    }
    dirty_marks +=
        static_cast<int>(ref_ctx.dirty.CountDataDirty() + ref_ctx.dirty.CountStackDirty());
  }
  // The generator must actually reach every behaviour the header promises.
  EXPECT_GT(faults[static_cast<size_t>(Fault::kIllegalInstruction)], 0);
  EXPECT_GT(faults[static_cast<size_t>(Fault::kIsaViolation)], 0);
  EXPECT_GT(faults[static_cast<size_t>(Fault::kBadAddress)], 0);
  EXPECT_GT(faults[static_cast<size_t>(Fault::kDivideByZero)], 0);
  EXPECT_GT(faults[static_cast<size_t>(Fault::kStackOverflow)], 0);
  EXPECT_GT(syscalls, 0);
  EXPECT_GT(dirty_marks, 0);
}

}  // namespace
}  // namespace pmig::vm
