// VM dispatch throughput: host-time Minstr/s of vm::Cpu::Run on three loops.
//
//   hog      the padded CPU hog the cluster_balance workload runs (addi/blt, with
//            1400 nops of padded text), reloaded whenever it exits;
//   dirtier  the pre-copy dirtier (compute loop, then ldb/stb across a 16 KB
//            buffer) with dirty-page tracking armed;
//   callret  a call/ret loop whose callee does ld/st on data and push/pop.
//
// Every Run gets a fixed quantum of steps, as the kernel's run loop hands out.
// This is a profiling aid, not a gate: the throughput depends on the host.
//
// Before benchmarking, each loop runs a fixed step count and its final machine
// state is hashed; a count or hash other than the recorded one means the engine's
// semantics changed, and the binary exits 1. `--check` runs only that assertion.
//
// Usage: vm_dispatch [--check] [google-benchmark flags]

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/test_programs.h"
#include "src/sim/hash.h"
#include "src/vm/assembler.h"
#include "src/vm/cpu.h"

namespace pmig::bench {
namespace {

constexpr int64_t kQuantum = 10000;       // steps per Cpu::Run call
constexpr int64_t kCheckSteps = 3000000;  // steps of the determinism run

constexpr std::string_view kCallRet = R"(
start:  movi r6, 0
loop:   call bump
        addi r6, r6, 1
        jmp  loop
bump:   movi r1, cell
        ld   r0, r1, 0
        addi r0, r0, 1
        st   r0, r1, 0
        push r0
        pop  r2
        ret
        .data
cell:   .quad 0
)";

struct Loop {
  const char* name;
  std::string source;
  bool track_dirty;
  // After kCheckSteps: how often the program exited and was reloaded, and the
  // hash of its final machine state.
  int64_t expected_restarts;
  uint64_t expected_hash;
};

const Loop* Loops() {
  static const Loop loops[] = {
      {"hog", core::WithPadding(core::CpuHogProgramSource(), 1400, 5600), false, 7,
       0x3cf05ad3689a283fULL},
      {"dirtier", std::string(core::DirtierProgramSource()), true, 0, 0x84aebec460b1af91ULL},
      {"callret", std::string(kCallRet), false, 0, 0x95cb2fd60099cbdbULL},
  };
  return loops;
}
constexpr int kNumLoops = 3;

// A loaded program that runs in fixed quanta and restarts whenever it exits.
class Runner {
 public:
  explicit Runner(const Loop& loop) : loop_(loop), image_(vm::MustAssemble(loop.source)) {
    Load();
  }

  // Runs exactly `steps` instructions; returns the number of restarts.
  int64_t Run(int64_t steps) {
    int64_t restarts = 0;
    while (steps > 0) {
      const vm::StopReason reason = cpu_.Run(ctx_, std::min(steps, kQuantum));
      steps -= cpu_.steps_executed();
      if (reason != vm::StopReason::kSteps) {
        Load();  // the hog's exit (no loop here faults)
        ++restarts;
      }
    }
    return restarts;
  }

  uint64_t StateHash() const {
    uint64_t h = sim::HashBytes(reinterpret_cast<const uint8_t*>(&ctx_.cpu), sizeof(ctx_.cpu));
    h = sim::HashBytes(ctx_.data, h);
    h = sim::HashBytes(ctx_.StackContents(), h);
    std::vector<uint8_t> pages(ctx_.dirty.data_dirty.begin(), ctx_.dirty.data_dirty.end());
    pages.insert(pages.end(), ctx_.dirty.stack_dirty.begin(), ctx_.dirty.stack_dirty.end());
    return sim::HashBytes(pages, h);
  }

 private:
  void Load() {
    ctx_.LoadImage(image_);
    if (loop_.track_dirty) ctx_.ArmDirtyTracking();
  }

  const Loop& loop_;
  vm::AoutImage image_;
  vm::VmContext ctx_;
  vm::Cpu cpu_{vm::IsaLevel::kIsa20};
};

// The determinism assertion: fixed step counts must end in the recorded states.
bool CheckDeterminism() {
  bool ok = true;
  for (int i = 0; i < kNumLoops; ++i) {
    const Loop& loop = Loops()[i];
    Runner runner(loop);
    const int64_t restarts = runner.Run(kCheckSteps);
    const uint64_t hash = runner.StateHash();
    const bool match = restarts == loop.expected_restarts && hash == loop.expected_hash;
    std::printf("vm_dispatch check %-8s steps=%" PRId64 " restarts=%" PRId64
                " state=0x%016" PRIx64 " %s\n",
                loop.name, kCheckSteps, restarts, hash, match ? "ok" : "MISMATCH");
    ok = ok && match;
  }
  return ok;
}

void BM_Dispatch(benchmark::State& state, const Loop* loop) {
  Runner runner(*loop);
  constexpr int64_t kStepsPerIteration = 1000000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.Run(kStepsPerIteration));
  }
  state.counters["Minstr/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kStepsPerIteration / 1e6,
      benchmark::Counter::kIsRate);
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  bool check_only = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check_only = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!pmig::bench::CheckDeterminism()) return 1;
  if (check_only) return 0;

  for (int i = 0; i < pmig::bench::kNumLoops; ++i) {
    const pmig::bench::Loop* loop = &pmig::bench::Loops()[i];
    benchmark::RegisterBenchmark((std::string("vm_dispatch/") + loop->name).c_str(),
                                 pmig::bench::BM_Dispatch, loop)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
