#!/bin/sh
set -x

# Build trees and logs live next to this script, whatever the working
# directory it was started from.
HERE=$(cd "$(dirname "$0")" && pwd)
cd "$HERE" || exit 1

# run_logged <log> <command...>: run the command, show its output and copy
# it to $HERE/<log>, and return the command's own exit status (a plain
# `command | tee` would return tee's).
run_logged() {
  log="$HERE/$1"
  shift
  status_file=$(mktemp) || return 1
  { "$@" 2>&1; echo $? > "$status_file"; } | tee "$log"
  status=$(cat "$status_file")
  rm -f "$status_file"
  return "$status"
}

# ./run_all.sh tsan — ThreadSanitizer sweep of the concurrent code paths
# (parallel branch-and-bound workers, host runtime PE threads, scenario
# batch runner): separate instrumented build tree, then the unit +
# property labels under TSan.
if [ "$1" = "tsan" ]; then
  cmake -B build-tsan -S . -DCELLSTREAM_TSAN=ON || exit 1
  cmake --build build-tsan -j "$(nproc)" || exit 1
  export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS}"
  run_logged tsan_output.txt \
    ctest --test-dir build-tsan -L 'unit|property' --output-on-failure
  exit $?
fi

# ./run_all.sh asan — AddressSanitizer + UndefinedBehaviorSanitizer sweep
# (heap misuse such as a reference into a reallocated vector, signed
# overflow, misaligned access) plus libstdc++'s checked containers:
# separate instrumented build tree, then the unit + property labels.  The
# flags go in through the standard CMake variables, so no project option
# is involved.
if [ "$1" = "asan" ]; then
  flags="-fsanitize=address,undefined -fno-sanitize-recover=undefined"
  flags="$flags -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS"
  cmake -B build-asan -S . -DCMAKE_CXX_FLAGS="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" || exit 1
  cmake --build build-asan -j "$(nproc)" || exit 1
  run_logged asan_output.txt \
    ctest --test-dir build-asan -L 'unit|property' --output-on-failure
  exit $?
fi

# ./run_all.sh stress — race hunt on the lock-free host runtime: the
# HostRuntime and FailoverRuntime tests under TSan (same build-tsan tree),
# each repeated until it fails, at most 50 times.  A race shows up only
# on the interleaving that exposes it, so one clean pass proves little.
if [ "$1" = "stress" ]; then
  cmake -B build-tsan -S . -DCELLSTREAM_TSAN=ON || exit 1
  cmake --build build-tsan -j "$(nproc)" || exit 1
  export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS}"
  run_logged stress_output.txt \
    ctest --test-dir build-tsan -R 'HostRuntime|FailoverRuntime' \
    --repeat until-fail:50 -j "$(nproc)" --output-on-failure
  exit $?
fi

# ./run_all.sh werror — warning-clean builds: two separate build trees
# with -DCELLSTREAM_WERROR=ON, so any compiler warning fails the build.
# build-werror/ is the default RelWithDebInfo build; build-werror-release/
# is Release (-O3), whose inlining exposes warnings -O2 does not.
if [ "$1" = "werror" ]; then
  cmake -B build-werror -S . -DCELLSTREAM_WERROR=ON || exit 1
  cmake --build build-werror -j "$(nproc)" || exit 1
  cmake -B build-werror-release -S . -DCELLSTREAM_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Release || exit 1
  cmake --build build-werror-release -j "$(nproc)" || exit 1
  exit 0
fi

rc=0
run_logged test_output.txt ctest --test-dir build || rc=1
run_logged stats_smoke_output.txt \
  ctest --test-dir build -L stats-smoke --output-on-failure || rc=1
run_logged fault_smoke_output.txt \
  ctest --test-dir build -L fault-smoke --output-on-failure || rc=1
run_logged bench_smoke_output.txt \
  ctest --test-dir build -L bench-smoke --output-on-failure || rc=1
run_logged fuzz_output.txt build/examples/cellstream_fuzz --smoke || rc=1
# The bench programs are the targets bench/CMakeLists.txt declares with
# cellstream_add_bench(<name> ...); a stale binary left in build/bench by a
# removed target does not run.
bench_names() {
  sed -n 's/^cellstream_add_bench(\([A-Za-z0-9_]*\) .*/\1/p' \
    bench/CMakeLists.txt
}
run_benches() {
  benches_rc=0
  for name in $(bench_names); do
    b="build/bench/$name"
    if ! [ -x "$b" ]; then
      echo "run_all.sh: $b is not built" >&2
      benches_rc=1
      continue
    fi
    case "$b" in
      (*micro*) "$b" --benchmark_min_time=0.2 || benches_rc=1 ;;
      (*) "$b" || benches_rc=1 ;;
    esac
  done
  return "$benches_rc"
}
run_logged bench_output.txt run_benches || rc=1
exit "$rc"
