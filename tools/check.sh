#!/usr/bin/env bash
# SupMR correctness gate: plain tier-1 build + TSan + ASan+UBSan.
#
# Stages:
#   plain     — full build with warnings as errors (-DSUPMR_WERROR=ON),
#               full ctest (the tier-1 gate from ROADMAP.md)
#   flake     — the plain build's unit and stress tests, each rerun until
#               it fails, up to FLAKE_REPEATS times: a timing-sensitive
#               assertion fails in the change that adds it
#   tsan      — -DSUPMR_SANITIZE=thread,           ctest -L sanitizer
#   asan      — -DSUPMR_SANITIZE=address,undefined, ctest -L sanitizer
#   obs-smoke — run the quickstart with --metrics-json/--trace-out and
#               validate both emitted files; run a 2-node CLI wordcount
#               with --metrics-json and require cluster.shuffle_bytes in
#               its one metrics file; then compile-check the
#               -DSUPMR_OBS=OFF configuration (macros must vanish cleanly)
#   fault-smoke — quickstart under a seeded transient FaultPlan must
#               succeed with storage.retries > 0 in the metrics; under a
#               permanent plan it must exit non-zero with a clean JSON
#               error report on stdout; with --retry-attempts=3 --degrade
#               over a range inside one chunk it must read that chunk
#               exactly 3 times and skip it
#   coverage  — --coverage build, every .gcda of an earlier run cleared,
#               unit/stress-labeled ctest, then line
#               coverage for the merge (src/merge/), container
#               (src/containers/), cluster (src/cluster/), threading
#               (src/threading/) and ingest (src/ingest/) layers via gcovr
#               when installed, else tools/coverage_summary.py (plain
#               gcov). Fails if any layer drops below its floor
#               (COVERAGE_FLOOR_*)
#   harness   — e2e oracle-conformance harness (docs/testing.md): ctest -L
#               harness — the differential lattice, the metamorphic and
#               replay suites, and the CLI replays of the checked-in repro
#               specs, each clean and under its seeded SUPMR_TEST_MUTATION
#               (the harness_replay_*_smoke and harness_mutation_*_fires
#               entries), proving the differential harness can actually
#               catch an injected bug
#   harness-asan — the harness suite under ASan+UBSan
#   jobmix-smoke — the multi-tenant runtime's concurrent-jobs suites
#               (ctest -L jobmix: JobManager unit tests, the managed
#               conformance harness with racing tenants, the seeded
#               JobManager stress, and the `supmr serve` CLI smoke)
#               under ThreadSanitizer
#   graph-smoke — the chained-app JobGraph suites (ctest -L graph: DAG
#               validation + handoff unit tests, the sink golden tests,
#               the pmi/tfidf/msort differential lattice, and the
#               checked-in graph spec through the instrumented CLI, clean
#               and under the pway-comparator mutation) under
#               ThreadSanitizer
#   container-smoke — the hash container's fold suites (ctest -L
#               container: the differential/SchedFuzz property suite and
#               the checked-in container=combining spec through the
#               instrumented `supmr replay` CLI) under ThreadSanitizer
#   cluster-smoke — the sharded-shuffle suites (ctest -L cluster: the
#               shuffle protocol/property suite, the node-count ×
#               mode × merge differential lattice, and the checked-in
#               cluster specs through the instrumented `supmr cluster` CLI)
#               under ThreadSanitizer (N worker nodes run concurrently on
#               private pools)
#   perf-smoke — the benchmark (perfbench/, a CMake package of its own over
#               src/ that no other stage compiles): every workload runs for
#               one second and must exit 0 with "correct": true on its
#               result line; terasort, wordcount and pmi must each exit
#               1 under SUPMR_TEST_MUTATION=pway-comparator (the oracle
#               gate is live over TeraSort's merge, the keyed-app
#               skeleton's and the chain sink's), wordcount must exit 1 under
#               SUPMR_TEST_MUTATION=map-claim (the gate catches a map wave
#               that loses a slice), and cluster_sort must exit 1 under
#               SUPMR_TEST_MUTATION=partition-routing (the gate catches
#               wrong cluster routing); then the span-arithmetic unit test
#
# Usage:
#   tools/check.sh            # all stages
#   tools/check.sh tsan       # one stage
#   JOBS=8 tools/check.sh     # override parallelism
#
# Each stage uses its own build tree (build-check-<stage>), so repeat runs
# are incremental. Suppression files (empty by default) are wired from
# tools/sanitizers/; sanitizer reports fail the run.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
SUPP="${ROOT}/tools/sanitizers"
STAGES=("$@")
[ ${#STAGES[@]} -eq 0 ] &&
  STAGES=(plain flake tsan asan obs-smoke fault-smoke coverage harness
    harness-asan jobmix-smoke graph-smoke container-smoke cluster-smoke
    perf-smoke)

# Repeats per test in the flake stage. 50 repeats of `ctest -L
# 'unit|stress'` take 5 to 7 minutes on a 4-core machine and catch an
# assertion that fails one run in 20 with probability 1 - 0.95^50 = 0.92.
readonly FLAKE_REPEATS=50

# Branch-point line-coverage floors for the merge-critical layers and the
# concurrency layers under them (the coverage stage fails if a change lets
# these regress).
COVERAGE_FLOOR_MERGE="${COVERAGE_FLOOR_MERGE:-97.5}"
COVERAGE_FLOOR_CONTAINERS="${COVERAGE_FLOOR_CONTAINERS:-97.5}"
COVERAGE_FLOOR_CLUSTER="${COVERAGE_FLOOR_CLUSTER:-97.5}"
COVERAGE_FLOOR_THREADING="${COVERAGE_FLOOR_THREADING:-97.5}"
COVERAGE_FLOOR_INGEST="${COVERAGE_FLOOR_INGEST:-94.5}"

# Validate that a file exists and is exactly one JSON document, read by the
# runtime's own strict parse_json (through tests/cli_json_stdout, built in
# build-check-plain by every stage that calls this).
validate_json_file() {
  local f="$1"
  "${ROOT}/build-check-plain/tests/cli_json_stdout" cat "${f}" >/dev/null ||
    { echo "check: ${f} is not one JSON document" >&2; return 1; }
}

configure_and_build() {
  local dir="$1"; shift
  cmake -B "${dir}" -S "${ROOT}" "$@" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
}

# build-check-plain builds with warnings as errors. Every stage that shares
# the tree configures it this way, so no stage flips the flag and forces a
# full rebuild.
configure_plain() {
  configure_and_build "${ROOT}/build-check-plain" -DSUPMR_WERROR=ON
}

run_stage() {
  local stage="$1"
  echo "==> stage: ${stage}"
  case "${stage}" in
    plain)
      configure_plain
      (cd "${ROOT}/build-check-plain" && ctest --output-on-failure -j "${JOBS}")
      ;;
    flake)
      configure_plain
      (cd "${ROOT}/build-check-plain" &&
        ctest -L 'unit|stress' --repeat "until-fail:${FLAKE_REPEATS}" \
          --output-on-failure -j "${JOBS}")
      ;;
    tsan)
      configure_and_build "${ROOT}/build-check-tsan" \
        -DSUPMR_SANITIZE=thread -DSUPMR_BUILD_BENCH=OFF \
        -DSUPMR_BUILD_EXAMPLES=OFF
      (cd "${ROOT}/build-check-tsan" &&
        TSAN_OPTIONS="suppressions=${SUPP}/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
        ctest -L sanitizer --output-on-failure -j "${JOBS}")
      ;;
    asan)
      configure_and_build "${ROOT}/build-check-asan" \
        -DSUPMR_SANITIZE=address,undefined -DSUPMR_BUILD_BENCH=OFF \
        -DSUPMR_BUILD_EXAMPLES=OFF
      (cd "${ROOT}/build-check-asan" &&
        ASAN_OPTIONS="suppressions=${SUPP}/asan.supp detect_leaks=1" \
        LSAN_OPTIONS="suppressions=${SUPP}/lsan.supp" \
        UBSAN_OPTIONS="suppressions=${SUPP}/ubsan.supp print_stacktrace=1" \
        ctest -L sanitizer --output-on-failure -j "${JOBS}")
      ;;
    obs-smoke)
      # End-to-end: the quickstart must emit valid metrics + trace JSON, and
      # a cluster run's metrics file must hold the shuffle accounting.
      configure_plain
      local out="${ROOT}/build-check-plain/obs-smoke"
      mkdir -p "${out}"
      "${ROOT}/build-check-plain/examples/quickstart" \
        "--metrics-json=${out}/metrics.json" "--trace-out=${out}/trace.json"
      validate_json_file "${out}/metrics.json"
      validate_json_file "${out}/trace.json"
      grep -q '"traceEvents"' "${out}/trace.json" ||
        { echo "obs-smoke: trace.json lacks traceEvents" >&2; return 1; }
      grep -q '"counters"' "${out}/metrics.json" ||
        { echo "obs-smoke: metrics.json lacks counters" >&2; return 1; }
      # A cluster run: the CLI writes the metrics file once, after the
      # shuffle, so it holds the cluster's own metrics.
      "${ROOT}/build-check-plain/tools/supmr" generate text \
        "${out}/corpus.txt" --size=1MB >/dev/null
      "${ROOT}/build-check-plain/tools/supmr" wordcount "${out}/corpus.txt" \
        --nodes=2 --chunk=64KB "--metrics-json=${out}/cluster_metrics.json" \
        >/dev/null
      validate_json_file "${out}/cluster_metrics.json"
      grep -q '"cluster.shuffle_bytes"' "${out}/cluster_metrics.json" ||
        { echo "obs-smoke: cluster_metrics.json lacks cluster.shuffle_bytes" >&2
          return 1; }
      # The compiled-out configuration must still build everything.
      configure_and_build "${ROOT}/build-check-obs-off" -DSUPMR_OBS=OFF
      ;;
    fault-smoke)
      # End-to-end fault tolerance (docs/fault-tolerance.md). The fault
      # plan is seeded, so both runs are reproducible.
      configure_plain
      local out="${ROOT}/build-check-plain/fault-smoke"
      mkdir -p "${out}"
      # 1. Transient faults within the retry budget: the job must succeed
      #    and the retry layer must have actually fired.
      "${ROOT}/build-check-plain/examples/quickstart" \
        "--fault-plan=seed=7;transient=0.25" --retry-attempts=6 \
        "--metrics-json=${out}/metrics.json" > "${out}/transient.out"
      validate_json_file "${out}/metrics.json"
      grep -q '"storage.retries":[1-9]' "${out}/metrics.json" ||
        { echo "fault-smoke: no retries recorded in metrics.json" >&2
          return 1; }
      # 2. A permanent fault must fail the job: non-zero exit, and stdout
      #    carries a machine-readable error report.
      if "${ROOT}/build-check-plain/examples/quickstart" \
        --fault-plan=permanent=0-999999999 --retry-attempts=2 \
        > "${out}/permanent.json" 2>/dev/null; then
        echo "fault-smoke: permanent fault did not fail the job" >&2
        return 1
      fi
      validate_json_file "${out}/permanent.json"
      grep -q '"ok":false' "${out}/permanent.json" ||
        { echo "fault-smoke: error report lacks \"ok\":false" >&2; return 1; }
      # 3. One retry seam: a chunk whose read keeps failing is read
      #    --retry-attempts times by the RetryingDevice alone (not N x N),
      #    then degrade mode skips it. The range sits inside the first 1 MB
      #    chunk, away from every record-boundary probe.
      "${ROOT}/build-check-plain/examples/quickstart" \
        --fault-plan=permanent=1000-2000 --retry-attempts=3 --degrade \
        "--metrics-json=${out}/degrade.json" > "${out}/degrade.out"
      validate_json_file "${out}/degrade.json"
      grep -q '"fault.injected_permanent":3[,}]' "${out}/degrade.json" ||
        { echo "fault-smoke: the poisoned chunk was not read exactly 3" \
            "times" >&2; return 1; }
      grep -q '"ingest.chunks_skipped":1[,}]' "${out}/degrade.json" ||
        { echo "fault-smoke: degrade did not skip exactly one chunk" >&2
          return 1; }
      if grep -q '"ingest.chunk_retries"' "${out}/degrade.json"; then
        echo "fault-smoke: the pipeline still retries chunks" >&2
        return 1
      fi
      ;;
    coverage)
      # Line coverage for the merge-critical layers, the thread pool and
      # queue, and the ingest pipeline. gcovr when installed;
      # otherwise tools/coverage_summary.py aggregates plain `gcov
      # --json-format` output (header-only code is attributed to the header
      # across every TU that instantiated it).
      configure_and_build "${ROOT}/build-check-coverage" \
        -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage \
        -DSUPMR_BUILD_BENCH=OFF -DSUPMR_BUILD_EXAMPLES=OFF
      # Counts from an earlier run would outlive the objects that wrote
      # them: a deleted test's .gcda still attributes lines to the headers
      # it included. Every run starts from zero.
      find "${ROOT}/build-check-coverage" -name '*.gcda' -delete
      (cd "${ROOT}/build-check-coverage" &&
        ctest -L 'unit|stress' --output-on-failure -j "${JOBS}")
      if command -v gcovr >/dev/null 2>&1; then
        gcovr --root "${ROOT}" --object-directory "${ROOT}/build-check-coverage" \
          --filter 'src/merge/.*' \
          --fail-under-line "${COVERAGE_FLOOR_MERGE}"
        gcovr --root "${ROOT}" --object-directory "${ROOT}/build-check-coverage" \
          --filter 'src/containers/.*' \
          --fail-under-line "${COVERAGE_FLOOR_CONTAINERS}"
        gcovr --root "${ROOT}" --object-directory "${ROOT}/build-check-coverage" \
          --filter 'src/cluster/.*' \
          --fail-under-line "${COVERAGE_FLOOR_CLUSTER}"
        gcovr --root "${ROOT}" --object-directory "${ROOT}/build-check-coverage" \
          --filter 'src/threading/.*' \
          --fail-under-line "${COVERAGE_FLOOR_THREADING}"
        gcovr --root "${ROOT}" --object-directory "${ROOT}/build-check-coverage" \
          --filter 'src/ingest/.*' \
          --fail-under-line "${COVERAGE_FLOOR_INGEST}"
      else
        python3 "${ROOT}/tools/coverage_summary.py" \
          "${ROOT}/build-check-coverage" --filter src/merge \
          --fail-under "${COVERAGE_FLOOR_MERGE}"
        python3 "${ROOT}/tools/coverage_summary.py" \
          "${ROOT}/build-check-coverage" --filter src/containers \
          --fail-under "${COVERAGE_FLOOR_CONTAINERS}"
        python3 "${ROOT}/tools/coverage_summary.py" \
          "${ROOT}/build-check-coverage" --filter src/cluster \
          --fail-under "${COVERAGE_FLOOR_CLUSTER}"
        python3 "${ROOT}/tools/coverage_summary.py" \
          "${ROOT}/build-check-coverage" --filter src/threading \
          --fail-under "${COVERAGE_FLOOR_THREADING}"
        python3 "${ROOT}/tools/coverage_summary.py" \
          "${ROOT}/build-check-coverage" --filter src/ingest \
          --fail-under "${COVERAGE_FLOOR_INGEST}"
      fi
      ;;
    harness)
      configure_plain
      (cd "${ROOT}/build-check-plain" &&
        ctest -L harness --output-on-failure -j "${JOBS}")
      ;;
    harness-asan)
      configure_and_build "${ROOT}/build-check-asan" \
        -DSUPMR_SANITIZE=address,undefined -DSUPMR_BUILD_BENCH=OFF \
        -DSUPMR_BUILD_EXAMPLES=OFF
      (cd "${ROOT}/build-check-asan" &&
        ASAN_OPTIONS="suppressions=${SUPP}/asan.supp detect_leaks=1" \
        LSAN_OPTIONS="suppressions=${SUPP}/lsan.supp" \
        UBSAN_OPTIONS="suppressions=${SUPP}/ubsan.supp print_stacktrace=1" \
        ctest -L harness --output-on-failure -j "${JOBS}")
      ;;
    jobmix-smoke)
      # Multi-tenant runtime under TSan: many jobs racing through one
      # JobManager (shared pool, leases, chunk buffers) must stay
      # byte-identical to the sequential reference with no data races.
      # Reuses the tsan build tree; `jobmix` selects the concurrent-jobs
      # suites plus the `supmr serve` CLI smoke (docs/runtime.md).
      configure_and_build "${ROOT}/build-check-tsan" \
        -DSUPMR_SANITIZE=thread -DSUPMR_BUILD_BENCH=OFF \
        -DSUPMR_BUILD_EXAMPLES=OFF
      (cd "${ROOT}/build-check-tsan" &&
        TSAN_OPTIONS="suppressions=${SUPP}/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
        ctest -L jobmix --output-on-failure -j "${JOBS}")
      ;;
    graph-smoke)
      # Chained-app graphs under TSan: stage handoff (in-memory edges, file
      # spill) plus every graph lattice cell must be race-free and
      # byte-identical to ref::run_graph. Reuses the tsan build tree;
      # `graph` selects the JobGraph unit suite, the sink golden tests (the
      # parallel join), the graph differential lattice and the checked-in
      # spec through the instrumented CLI.
      configure_and_build "${ROOT}/build-check-tsan" \
        -DSUPMR_SANITIZE=thread -DSUPMR_BUILD_BENCH=OFF \
        -DSUPMR_BUILD_EXAMPLES=OFF
      (cd "${ROOT}/build-check-tsan" &&
        TSAN_OPTIONS="suppressions=${SUPP}/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
        ctest -L graph --output-on-failure -j "${JOBS}")
      ;;
    container-smoke)
      # The hash container's fold under TSan: single-writer stripe counters
      # must be race-free, and the checked-in spec that still names
      # container=combining must parse and replay conformant through the
      # instrumented CLI. Reuses the tsan build tree; `container` selects
      # the property suite and that replay (docs/containers.md).
      configure_and_build "${ROOT}/build-check-tsan" \
        -DSUPMR_SANITIZE=thread -DSUPMR_BUILD_BENCH=OFF \
        -DSUPMR_BUILD_EXAMPLES=OFF
      (cd "${ROOT}/build-check-tsan" &&
        TSAN_OPTIONS="suppressions=${SUPP}/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
        ctest -L container --output-on-failure -j "${JOBS}")
      ;;
    cluster-smoke)
      # Sharded shuffle under TSan: N worker nodes run whole MapReduceJobs
      # concurrently on private leased pools, each reading a borrowed view
      # of the one job input, then shuffle senders race across the fabric
      # RateLimiters and owner merges write disjoint windows of one output
      # string — all of it must be race-free and byte-identical to the
      # sequential oracle. Reuses the tsan build tree; `cluster` selects the
      # protocol/property suite, the node-count lattice (with its io=mmap
      # row) and the checked-in spec through the instrumented `supmr
      # cluster` CLI (docs/cluster.md).
      configure_and_build "${ROOT}/build-check-tsan" \
        -DSUPMR_SANITIZE=thread -DSUPMR_BUILD_BENCH=OFF \
        -DSUPMR_BUILD_EXAMPLES=OFF
      (cd "${ROOT}/build-check-tsan" &&
        TSAN_OPTIONS="suppressions=${SUPP}/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
        ctest -L cluster --output-on-failure -j "${JOBS}")
      ;;
    perf-smoke)
      # run.py builds .bench_build/perfbench (RelWithDebInfo) on first use.
      local bench="${ROOT}/perfbench/run.py" workload out status
      for workload in wordcount terasort pmi cluster_sort; do
        out="$(python3 "${bench}" --workload "${workload}" --seconds 1 \
          --trace 0)" ||
          { echo "perf-smoke: ${workload} failed" >&2; return 1; }
        tail -n1 <<<"${out}" | grep -q '"correct": true' ||
          { echo "perf-smoke: ${workload} is not correct" >&2; return 1; }
      done
      for workload in terasort wordcount pmi; do
        status=0
        SUPMR_TEST_MUTATION=pway-comparator python3 "${bench}" \
          --workload "${workload}" --seconds 1 --trace 0 >/dev/null 2>&1 ||
          status=$?
        [ "${status}" -eq 1 ] ||
          { echo "perf-smoke: pway-comparator mutation not caught on" \
              "${workload} (exit ${status}, want 1)" >&2; return 1; }
      done
      status=0
      SUPMR_TEST_MUTATION=map-claim python3 "${bench}" \
        --workload wordcount --seconds 1 --trace 0 >/dev/null 2>&1 ||
        status=$?
      [ "${status}" -eq 1 ] ||
        { echo "perf-smoke: map-claim mutation not caught on" \
            "wordcount (exit ${status}, want 1)" >&2; return 1; }
      status=0
      SUPMR_TEST_MUTATION=partition-routing python3 "${bench}" \
        --workload cluster_sort --seconds 1 --trace 0 >/dev/null 2>&1 ||
        status=$?
      [ "${status}" -eq 1 ] ||
        { echo "perf-smoke: partition-routing mutation not caught on" \
            "cluster_sort (exit ${status}, want 1)" >&2; return 1; }
      cmake --build "${ROOT}/.bench_build/perfbench" \
        --target perfbench_spans_test -j "${JOBS}"
      "${ROOT}/.bench_build/perfbench/perfbench_spans_test"
      ;;
    *)
      echo "unknown stage '${stage}' (want plain, flake, tsan, asan, obs-smoke, fault-smoke, coverage, harness, harness-asan, jobmix-smoke, graph-smoke, container-smoke, cluster-smoke, or perf-smoke)" >&2
      return 2
      ;;
  esac
  echo "==> stage ${stage}: OK"
}

for stage in "${STAGES[@]}"; do
  run_stage "${stage}"
done
echo "==> all stages passed"
