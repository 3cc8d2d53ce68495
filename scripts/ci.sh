#!/bin/sh
# The full verification pipeline, one command: tier-1 build (warnings are
# errors) + ctest, Release and perfbench -Werror compiles, the ASan and UBSan
# builds + ctest, the fig4 phase-drift gate, the bench_all baseline comparison
# and the remaining bench gates. Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== tier-1 build =="
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j

echo "== tier-1 ctest =="
(cd build && ctest --output-on-failure --timeout 300 -j)

echo "== Release build (compile only) =="
# -O3 inlines more than the tier-1 RelWithDebInfo build, and GCC's
# flow-sensitive warnings (-Wrestrict, -Wmaybe-uninitialized) see more with it.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-release -j

echo "== perfbench build (compile only) =="
# The repository benchmark builds src/ on its own: a src/ change can break it
# while tier-1 and bench_all stay green.
cmake -S perfbench -B build-perfbench -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-perfbench -j

echo "== ASan build =="
cmake -B build-asan -S . -DPMIG_SANITIZE=address >/dev/null
cmake --build build-asan -j

echo "== ASan ctest =="
# Fake stacks make every native-task fiber switch carry stack-use-after-return
# state across stacks; run with them on so a missed switch annotation shows.
(cd build-asan && ASAN_OPTIONS=detect_stack_use_after_return=1 \
    ctest --output-on-failure --timeout 300 -j)

echo "== UBSan build =="
cmake -B build-ubsan -S . -DPMIG_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j

echo "== UBSan ctest =="
(cd build-ubsan && UBSAN_OPTIONS=halt_on_error=1 ctest --output-on-failure --timeout 300 -j)

echo "== phase-drift gate =="
./build/bench/check_phases --fig4 ./build/bench/fig4_migrate \
    --baseline bench/phase_baseline.txt

echo "== placement gate =="
./build/bench/ablation_placement --check

echo "== observability bit-identical gates =="
./build/bench/fig2_dump --check
./build/bench/fig4_migrate --check

echo "== health-monitor gate =="
./build/bench/ablation_health --check

echo "== partition gate =="
./build/bench/ablation_partition --check

echo "== scale gate =="
./build/bench/ablation_scale --check

echo "== event-driven balancer gate =="
./build/bench/ablation_event --check

echo "== decision-diff gate =="
(cd build/bench && ./decision_diff --check)

echo "== bench_all byte-identity gate =="
# Every figure/ablation's BENCH_<name>.json must equal its committed baseline
# byte for byte: a refactor that shifts any virtual-time result fails here.
cmake --build build --target bench_all >/dev/null
for f in bench/baselines/BENCH_*.json; do
  cmp "$f" "build/bench/$(basename "$f")"
done

echo "== bench JSON schema gate =="
./build/bench/check_bench_json bench/baselines

echo "== report-line schema gate =="
./build/bench/check_bench_json --report build/bench/REPORT_decision_diff.jsonl

echo "ci: all green"
