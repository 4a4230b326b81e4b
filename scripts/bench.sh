#!/usr/bin/env bash
# Benchmark runner (ISSUE 5, extended by ISSUE 6): builds and runs the
# machine-readable benches.
#
#   scripts/bench.sh [service_out.json] [kernels_out.json] [lts_out.json] \
#                    [io_out.json] [loadtest_out.json]
#
# Writes five JSON records in the repo root:
#  * BENCH_service.json  — campaign throughput (jobs/minute, cache hit
#    rate, retry overhead, checkpoint-recovery saving),
#  * BENCH_kernels.json  — per-variant force-kernel elements/s
#    (bench_sse_kernels) plus the solver's 1-thread per-step time under
#    the Sequential and Colored schedules (bench_threaded_solver). HARD
#    GATES: Batched >= Sse >= Reference elements/s; the script fails when
#    the bench reports gates_ok=false.
#  * BENCH_lts.json      — clustered local-time-stepping speedup vs global
#    dt (one cluster) plus interpolation overhead (bench_lts). HARD GATE:
#    multi-cluster speedup >= 1.5x.
#  * BENCH_io.json       — sfg_io container vs one-file-per-rank durable
#    write throughput, random-access read throughput and file counts
#    (bench_io_container). HARD GATES: container write throughput >= the
#    per-rank backend, and the container stays ONE file (the Figure 5
#    file-count axis).
#  * BENCH_loadtest.json — sharded front-end load test (bench_loadtest,
#    ISSUE 9): a seeded Poisson/zipfian workload replayed through a
#    1-shard baseline, a 4-shard fleet and a 4-shard fleet with one shard
#    killed mid-campaign. HARD GATES: bit-identical workload replay, zero
#    failed jobs in every scenario (shard death included), each distinct
#    content key computed exactly once, 4-shard cache hit rate >= the
#    1-shard baseline, p99 under a loose sanity bound.
# It also runs bench_mesher_singlepass, whose exit code gates the §4.4
# mesher merge: the legacy two-pass mesher must take more than 1.3x the
# single-pass geometry time at NEX=8.
# Human-readable narration streams to stderr while the benches run.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_service.json}"
KOUT="${2:-BENCH_kernels.json}"
LOUT="${3:-BENCH_lts.json}"
IOUT="${4:-BENCH_io.json}"
LTOUT="${5:-BENCH_loadtest.json}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==> build bench targets (build/)" >&2
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}" \
  --target bench_campaign bench_sse_kernels bench_threaded_solver \
           bench_lts bench_io_container bench_loadtest \
           bench_mesher_singlepass >/dev/null

echo "==> run campaign bench" >&2
./build/bench/bench_campaign > "${OUT}"

echo "==> wrote ${OUT}:" >&2
cat "${OUT}"

echo "==> run force-kernel variant bench" >&2
./build/bench/bench_sse_kernels --json /tmp/bench_kernels_frag.json >&2

echo "==> run end-to-end solver step bench" >&2
./build/bench/bench_threaded_solver --json /tmp/bench_solver_frag.json >&2

jq -n \
  --slurpfile k /tmp/bench_kernels_frag.json \
  --slurpfile s /tmp/bench_solver_frag.json \
  '{kernels: $k[0], solver_step: $s[0]}' > "${KOUT}"
rm -f /tmp/bench_kernels_frag.json /tmp/bench_solver_frag.json

echo "==> wrote ${KOUT}:" >&2
cat "${KOUT}"

if [[ "$(jq -r '.kernels.gates_ok' "${KOUT}")" != "true" ]]; then
  echo "FAIL: kernel perf gates violated (need batched >= sse >= reference elements/s)" >&2
  exit 1
fi
echo "==> kernel perf gates passed (batched >= sse >= reference)" >&2

echo "==> run clustered-LTS bench" >&2
./build/bench/bench_lts --json "${LOUT}" >&2

echo "==> wrote ${LOUT}:" >&2
cat "${LOUT}"

if [[ "$(jq -r '.gates_ok' "${LOUT}")" != "true" ]]; then
  echo "FAIL: LTS perf gate violated (need multi-cluster speedup >= 1.5x)" >&2
  exit 1
fi
echo "==> LTS perf gate passed (multi-cluster >= 1.5x)" >&2

echo "==> run single-pass mesher bench" >&2
if ! ./build/bench/bench_mesher_singlepass >&2; then
  echo "FAIL: mesher gate violated (need legacy two-pass > 1.3x single-pass at NEX=8)" >&2
  exit 1
fi
echo "==> mesher gate passed (legacy two-pass > 1.3x single-pass)" >&2

echo "==> run sfg_io container bench" >&2
./build/bench/bench_io_container --json "${IOUT}" >&2

echo "==> wrote ${IOUT}:" >&2
cat "${IOUT}"

if [[ "$(jq -r '.gates_ok' "${IOUT}")" != "true" ]]; then
  echo "FAIL: sfg_io perf gates violated (need container write MB/s >= per-rank files and container file count == 1)" >&2
  exit 1
fi
echo "==> sfg_io perf gates passed (container >= per-rank MB/s, O(1) files)" >&2

echo "==> run sharded front-end load-test bench" >&2
./build/bench/bench_loadtest > "${LTOUT}"

echo "==> wrote ${LTOUT}:" >&2
cat "${LTOUT}"

if [[ "$(jq -r '.gates_ok' "${LTOUT}")" != "true" ]]; then
  echo "FAIL: load-test gates violated (need deterministic workload, zero lost jobs incl. shard death, executed == distinct keys, sharded hit rate >= baseline, sane p99)" >&2
  exit 1
fi
echo "==> load-test gates passed (deterministic, zero lost jobs, sharded hit rate >= baseline)" >&2
