#!/usr/bin/env bash
# CI entry point: configure -> build -> ctest -> examples -> bench smoke-run
# -> end-to-end SQL check.
# Usage: scripts/ci.sh [build-dir] [sanitizer|scalar]
#   scripts/ci.sh build           # regular build + full test suite + the
#                                 # example programs + bench smoke +
#                                 # sqlbench correctness pass
#   scripts/ci.sh build-tsan thread
#                                 # ThreadSanitizer build; runs the
#                                 # concurrency-focused tests (the morsel-driven
#                                 # parallel executor) race-checked
#   scripts/ci.sh build-asan address,undefined
#                                 # ASan+UBSan build; runs the batch-engine,
#                                 # parity, and expression-kernel fuzz suites —
#                                 # selection-vector indexing in the columnar
#                                 # and fused kernels and the row-to-column
#                                 # decode are exactly where out-of-bounds
#                                 # reads would hide
#   scripts/ci.sh build-scalar scalar
#                                 # -DCALCITE_SIMD=OFF build; proves the scalar
#                                 # kernel path (the only one on non-x86 or
#                                 # old-toolchain hosts) still passes the
#                                 # differential fuzz and parity suites
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
SANITIZER="${2:-}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [[ "$SANITIZER" == "scalar" ]]; then
  echo "=== configure (CALCITE_SIMD=OFF) ==="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCALCITE_SIMD=OFF

  echo "=== build ==="
  cmake --build "$BUILD_DIR" -j "$JOBS"

  echo "=== test (kernel suites, scalar dispatch only) ==="
  # With CALCITE_SIMD=OFF every simd:: entry point compiles to the scalar
  # reference and ScopedDispatch(true) is a no-op, so the differential
  # suites prove the portable path alone produces the oracle results.
  ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
    -R 'simd_kernels_test|rex_kernel_fuzz_test|rex_fuse_test|batch_parity_test|columnar_parity_test|row_batch_test'

  echo "=== done (scalar) ==="
  exit 0
fi

if [[ -n "$SANITIZER" ]]; then
  echo "=== configure ($SANITIZER sanitizer) ==="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCALCITE_SANITIZE="$SANITIZER"

  echo "=== build ==="
  cmake --build "$BUILD_DIR" -j "$JOBS"

  echo "=== test (focused suites under $SANITIZER) ==="
  # Sanitizers multiply runtimes ~10x, so each job runs the suites aimed at
  # the bug class it detects rather than the whole battery.
  # - thread: the thread-count sweeps drive every parallel operator across
  #   thread x batch combinations, exactly the surface a race hides in.
  # - address/undefined: the batch-engine unit tests, the batch/row parity
  #   sweeps, and the randomized expression-kernel fuzz harness hammer
  #   selection-vector indexing in the columnar and fused kernels, exactly
  #   the surface an out-of-bounds access or overflow hides in.
  # --no-tests=error: a green sanitizer run that executed zero tests
  # (missing GTest, filter typo) must fail loudly, not pass silently.
  # The columnar differential suite runs under both: its parallel sweeps
  # ship arena-backed ColumnBatches across the exchange (TSan: the arena
  # recycling and zero-copy pin lifetimes), and its kernels index raw typed
  # columns through selection vectors (ASan/UBSan). The storage suite also
  # runs under both: buffer-pool pin/evict bookkeeping and paged parallel
  # scans share frames across morsel workers (TSan), and the slotted-page /
  # record-codec byte arithmetic plus B-tree node layouts are exactly where
  # an out-of-bounds page access hides (ASan/UBSan); the parity suites
  # additionally drive DiskTable scans end-to-end both ways. The stats suite
  # runs under both for the same reason: ANALYZE streams every page through
  # the pool and the stats catalog codec does raw record byte arithmetic
  # (ASan/UBSan), while cost-based scans race the last_scan_used_index
  # introspection (TSan). The SIMD kernels run under both too: the fuzz and
  # parity suites force every kernel through SIMD and scalar dispatch
  # (ASan/UBSan catch lane over-reads past the tail; TSan sees the runtime
  # dispatch flag crossing the parallel sweeps), and simd_kernels_test
  # diffs each intrinsic path against its scalar reference. The fused
  # bytecode interpreter (rex_fuse_test plus the fused-vs-per-row fuzz
  # differential) runs under both: its register scratch aliases input
  # batch storage block-by-block (ASan catches a stale alias or a
  # CompactSel write-ahead overrun), and the morsel-parallel sweeps build
  # per-worker FusedExpr state that must never share mutable scratch
  # (TSan). The fuzz differential itself runs under TSan as well — it is
  # single-threaded, but flipping the runtime dispatch flag while fused
  # programs cache compiled state is exactly where an unsynchronized
  # shared-program mutation would surface. alloc_count_test is excluded
  # everywhere: it overrides global
  # operator new, which fights the sanitizer allocators.
  if [[ "$SANITIZER" == *thread* ]]; then
    FILTER='parallel_exec_test|batch_parity_test|columnar_parity_test|rex_fuse_test|rex_kernel_fuzz_test|storage_test|stats_test'
  else
    FILTER='row_batch_test|rex_kernel_fuzz_test|rex_fuse_test|simd_kernels_test|batch_parity_test|parallel_exec_test|columnar_parity_test|storage_test|stats_test'
  fi
  ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
    -R "$FILTER"

  if [[ "$SANITIZER" != *thread* ]]; then
    echo "=== fuzz (raised iterations under $SANITIZER) ==="
    # The fused-vs-per-row differential gets a dedicated deep run: 5x the
    # default iteration budget, under the sanitizer that would catch the
    # out-of-bounds reads a lowering bug produces.
    REX_FUZZ_ITERS=5 ctest --test-dir "$BUILD_DIR" --output-on-failure \
      --no-tests=error -R 'rex_kernel_fuzz_test'
  fi

  echo "=== done ($SANITIZER) ==="
  exit 0
fi

echo "=== configure ==="
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo

echo "=== build ==="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "=== test ==="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "=== examples ==="
# Each example is an end-to-end program over the public API that exits
# non-zero on any error: federation drives the JDBC/Splunk/Spark plan race
# of Figure 2, semistructured_geo the Mongo adapter, streaming the stream
# tables, pig_builder the RelBuilder path and quickstart the basic
# parse/plan/execute loop.
for example in quickstart federation streaming semistructured_geo \
    pig_builder; do
  echo "--- example_$example"
  "$BUILD_DIR/example_$example" > /dev/null || {
    echo "example_$example failed"
    exit 1
  }
done

echo "=== fuzz (raised iterations) ==="
# Dedicated deep run of the fused-vs-per-row differential:
# 5x the default per-test iteration budget on the fast non-sanitized build.
REX_FUZZ_ITERS=5 ctest --test-dir "$BUILD_DIR" --output-on-failure \
  --no-tests=error -R 'rex_kernel_fuzz_test'

echo "=== bench smoke ==="
# Quick benchmarks exercise the batched execution engine end-to-end
# (parse -> plan -> vectorized pipeline) and the morsel-driven parallel
# executor (threaded scan/aggregate fragments, joins over them) without
# turning CI into a perf run.
if [[ -x "$BUILD_DIR/bench_architecture" ]]; then
  "$BUILD_DIR/bench_architecture" \
    --benchmark_filter='BM_BatchSizeSweep|BM_FilterPushdownSweep|BM_Stage5_Execute|BM_ParallelSweep|BM_IndexScanVsFullScan|BM_CostBasedAccessPath' \
    --benchmark_min_time=0.05
else
  echo "bench_architecture not built (google-benchmark not found); skipping"
fi
if [[ -x "$BUILD_DIR/bench_kernels" ]]; then
  "$BUILD_DIR/bench_kernels" --benchmark_min_time=0.05
else
  echo "bench_kernels not built (google-benchmark not found); skipping"
fi

echo "=== end-to-end SQL (sqlbench) ==="
# One short traced pass of the standing TPC-H-shaped suite: every query runs
# through the public Connection API and is checked against the serial
# per-row reference engine. olap_mem is the serial columnar engine over
# MemTables: the only workload whose Sort and set-op inputs are zero-copy
# table views those blocking operators hold across batches. olap_par drives
# the morsel-parallel executor, olap_disk the DiskTable leaves whose rows
# every Filter, Project and Aggregate decodes into columns, short_queries
# the parse/plan path. Fails on any wrong or failed query.
for workload in olap_mem olap_par olap_disk short_queries; do
  result="$(python3 sqlbench/run.py --workload "$workload" --seed 1 \
    --seconds 1 --trace 1 | tail -n 1)"
  echo "$workload: $result"
  python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' \
    "$result" || {
    echo "sqlbench $workload: incorrect or failed queries"
    exit 1
  }
done

echo "=== done ==="
