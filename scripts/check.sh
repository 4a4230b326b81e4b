#!/usr/bin/env bash
# CI-style gate (ISSUE 2, extended by ISSUEs 3 and 4): build, run the fast
# tier-1 test suite, then three extra configurations —
#  * AddressSanitizer + UndefinedBehaviorSanitizer over the memory-heavy
#    solver/mesh/IO tests (build-asan/),
#  * ThreadSanitizer over the concurrency-heavy tests (build-tsan/),
#  * a gcov coverage build (build-cov/) that reruns the tier-1 suite and
#    asserts line-coverage floors for src/mesh/, src/runtime/, src/perf/,
#    src/kernels/, src/io/, src/service/ and src/solver/ — the
#    directories the schedule/exchange, marching, durability and campaign
#    correctness arguments live in.
#
# Usage: scripts/check.sh [--no-tsan] [--no-asan] [--no-coverage]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
RUN_TSAN=1
RUN_ASAN=1
RUN_COV=1
for arg in "$@"; do
  case "${arg}" in
    --no-tsan) RUN_TSAN=0 ;;
    --no-asan) RUN_ASAN=0 ;;
    --no-coverage) RUN_COV=0 ;;
    *) echo "unknown flag: ${arg}" >&2; exit 2 ;;
  esac
done

echo "==> configure + build (build/)"
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"

echo "==> tier-1 tests (ctest -L tier1)"
ctest --test-dir build -L tier1 --output-on-failure -j "${JOBS}"

if [[ "${RUN_ASAN}" == "1" ]]; then
  ASAN_TESTS=(test_solver test_parallel_solver test_checkpoint test_metrics
              test_source_ownership test_point_location test_sphere
              test_exchanger test_io test_io_container test_kernels test_lts)
  echo "==> configure + build ASan+UBSan config (build-asan/)"
  cmake -B build-asan -S . -DSFG_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "${JOBS}" --target "${ASAN_TESTS[@]}"

  echo "==> memory/UB tests under ASan+UBSan"
  for t in "${ASAN_TESTS[@]}"; do
    echo "--> ${t}"
    ASAN_OPTIONS=detect_leaks=1 \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      ./build-asan/tests/"${t}"
  done
fi

if [[ "${RUN_TSAN}" == "1" ]]; then
  echo "==> configure + build ThreadSanitizer config (build-tsan/)"
  cmake -B build-tsan -S . -DSFG_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" \
    --target test_threaded_solver test_smpi test_fault_injection \
             test_service test_schedule_property test_lts \
             test_frontend test_loadgen_determinism

  echo "==> concurrency tests under TSan"
  for t in test_threaded_solver test_smpi test_fault_injection \
           test_service test_schedule_property test_lts \
           test_frontend test_loadgen_determinism; do
    echo "--> ${t}"
    ./build-tsan/tests/"${t}"
  done
fi

if [[ "${RUN_COV}" == "1" ]]; then
  # Line-coverage floors (percent) asserted over the .cpp files of each
  # directory. Last measured: mesh 93.2%, runtime 99.3%, perf 99.8%,
  # kernels 97.6%, io 96.4%, service 96.7%, solver 91.7% (of 1475 lines).
  COV_FLOOR_MESH=90
  COV_FLOOR_RUNTIME=90
  COV_FLOOR_PERF=90
  COV_FLOOR_KERNELS=90
  COV_FLOOR_IO=90
  COV_FLOOR_SERVICE=95
  COV_FLOOR_SOLVER=90

  echo "==> configure + build coverage config (build-cov/)"
  cmake -B build-cov -S . -DSFG_COVERAGE=ON >/dev/null
  cmake --build build-cov -j "${JOBS}"

  echo "==> tier-1 tests under coverage instrumentation"
  ctest --test-dir build-cov -L tier1 --output-on-failure -j "${JOBS}"

  echo "==> gcov line-coverage summary"
  # gcov-only aggregation (no lcov in the image): `gcov -n` prints one
  # "File .../ Lines executed:P% of N" pair per source; sum executed lines
  # per directory over the per-TU .gcda files.
  find build-cov/src -name '*.gcda' -print0 \
    | xargs -0 gcov -n 2>/dev/null \
    | awk -v floor_mesh="${COV_FLOOR_MESH}" \
          -v floor_runtime="${COV_FLOOR_RUNTIME}" \
          -v floor_perf="${COV_FLOOR_PERF}" \
          -v floor_kernels="${COV_FLOOR_KERNELS}" \
          -v floor_io="${COV_FLOOR_IO}" \
          -v floor_service="${COV_FLOOR_SERVICE}" \
          -v floor_solver="${COV_FLOOR_SOLVER}" '
      /^File /  { f = $2; gsub(/\x27/, "", f) }
      /^Lines executed:/ {
        # gcov ends with a grand-total "Lines executed" line that has no
        # File header; clearing f below keeps it out of every bucket.
        split($0, a, /[:% ]+/); pct = a[3]; n = a[5];
        if (f ~ /src\/mesh\/.*\.cpp$/)    { me += pct * n / 100; mt += n }
        if (f ~ /src\/runtime\/.*\.cpp$/) { re += pct * n / 100; rt += n }
        if (f ~ /src\/perf\/.*\.cpp$/)    { pe += pct * n / 100; pt += n }
        if (f ~ /src\/kernels\/.*\.cpp$/) { ke += pct * n / 100; kt += n }
        if (f ~ /src\/io\/.*\.cpp$/)      { ie += pct * n / 100; it += n }
        if (f ~ /src\/service\/.*\.cpp$/) { se += pct * n / 100; st += n }
        if (f ~ /src\/solver\/.*\.cpp$/)  { ve += pct * n / 100; vt += n }
        f = ""
      }
      END {
        mp = mt ? 100 * me / mt : 0; rp = rt ? 100 * re / rt : 0;
        pp = pt ? 100 * pe / pt : 0; kp = kt ? 100 * ke / kt : 0;
        ip = it ? 100 * ie / it : 0; sp = st ? 100 * se / st : 0;
        vp = vt ? 100 * ve / vt : 0;
        printf "    src/mesh    : %5.1f%% of %d lines (floor %d%%)\n", mp, mt, floor_mesh;
        printf "    src/runtime : %5.1f%% of %d lines (floor %d%%)\n", rp, rt, floor_runtime;
        printf "    src/perf    : %5.1f%% of %d lines (floor %d%%)\n", pp, pt, floor_perf;
        printf "    src/kernels : %5.1f%% of %d lines (floor %d%%)\n", kp, kt, floor_kernels;
        printf "    src/io      : %5.1f%% of %d lines (floor %d%%)\n", ip, it, floor_io;
        printf "    src/service : %5.1f%% of %d lines (floor %d%%)\n", sp, st, floor_service;
        printf "    src/solver  : %5.1f%% of %d lines (floor %d%%)\n", vp, vt, floor_solver;
        fail = 0;
        if (mt == 0 || rt == 0 || pt == 0 || kt == 0 || it == 0 || st == 0 || vt == 0) { print "FAIL: no coverage data found"; fail = 1 }
        if (mp < floor_mesh)    { printf "FAIL: src/mesh line coverage %.1f%% below floor %d%%\n", mp, floor_mesh; fail = 1 }
        if (rp < floor_runtime) { printf "FAIL: src/runtime line coverage %.1f%% below floor %d%%\n", rp, floor_runtime; fail = 1 }
        if (pp < floor_perf)    { printf "FAIL: src/perf line coverage %.1f%% below floor %d%%\n", pp, floor_perf; fail = 1 }
        if (kp < floor_kernels) { printf "FAIL: src/kernels line coverage %.1f%% below floor %d%%\n", kp, floor_kernels; fail = 1 }
        if (ip < floor_io)      { printf "FAIL: src/io line coverage %.1f%% below floor %d%%\n", ip, floor_io; fail = 1 }
        if (sp < floor_service) { printf "FAIL: src/service line coverage %.1f%% below floor %d%%\n", sp, floor_service; fail = 1 }
        if (vp < floor_solver)  { printf "FAIL: src/solver line coverage %.1f%% below floor %d%%\n", vp, floor_solver; fail = 1 }
        exit fail;
      }'
fi

echo "==> all checks passed"
