#!/bin/sh
set -x

# ./run_all.sh tsan — ThreadSanitizer sweep of the concurrent code paths
# (parallel branch-and-bound workers, host runtime PE threads, scenario
# batch runner): separate instrumented build tree, then the unit +
# property labels under TSan.
if [ "$1" = "tsan" ]; then
  cmake -B build-tsan -S . -DCELLSTREAM_TSAN=ON || exit 1
  cmake --build build-tsan -j "$(nproc)" || exit 1
  TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS}" \
    ctest --test-dir build-tsan -L 'unit|property' --output-on-failure \
    2>&1 | tee /root/repo/tsan_output.txt
  exit $?
fi

# ./run_all.sh werror — warning-clean build: a separate build tree with
# -DCELLSTREAM_WERROR=ON, so any compiler warning fails the build.
if [ "$1" = "werror" ]; then
  cmake -B build-werror -S . -DCELLSTREAM_WERROR=ON || exit 1
  cmake --build build-werror -j "$(nproc)" || exit 1
  exit 0
fi

ctest --test-dir build 2>&1 | tee /root/repo/test_output.txt
ctest --test-dir build -L stats-smoke --output-on-failure 2>&1 \
  | tee /root/repo/stats_smoke_output.txt
ctest --test-dir build -L fault-smoke --output-on-failure 2>&1 \
  | tee /root/repo/fault_smoke_output.txt
ctest --test-dir build -L bench-smoke --output-on-failure 2>&1 \
  | tee /root/repo/bench_smoke_output.txt
build/examples/cellstream_fuzz --smoke 2>&1 | tee /root/repo/fuzz_output.txt
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  case "$b" in (*micro*) "$b" --benchmark_min_time=0.2 ;; (*) "$b" ;; esac
done 2>&1 | tee /root/repo/bench_output.txt
