#!/usr/bin/env bash
# Full correctness gate: format check, clang-tidy, and the ctest suite
# under a plain Release build and under each sanitizer.
#
#   tools/check_all.sh                 # run every stage
#   tools/check_all.sh format tidy     # just the static stages
#   tools/check_all.sh address thread  # just those sanitizer suites
#
# Stages: format, tidy, release, obs-off, address, undefined, thread,
# tsa, serve, fuzz-smoke, bench-smoke.
# Stages whose tooling is unavailable (no clang-format / clang-tidy /
# clang++ on PATH) are reported as SKIPPED and do not fail the gate;
# sanitizer and test stages always run and must pass.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

jobs="$(nproc 2>/dev/null || echo 2)"
suppressions="$repo_root/tools/sanitizer-suppressions.txt"
# Every suite in tests/serve_test.cpp, the serving ports in
# tests/resilience_test.cpp and tests/determinism_test.cpp (whose split
# GEMM partials and per-sample layers write shared buffers from several
# threads), for builds where only those targets exist.
serve_tests='EncodingCache|ServeOptions|OnlineProtocol|Serving'
serve_tests+='|PredictionService|OnlineResult|BatchedPrediction'
serve_tests+='|ResilientOnline|ResilienceAcceptance|ThreadCountIndependence'
stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
  stages=(format tidy release obs-off address undefined thread tsa serve
          fuzz-smoke bench-smoke)
fi

declare -a results=()
note() { printf '\n== %s ==\n' "$*"; }
record() { results+=("$1"); }

run_suite() {  # run_suite <name> <sanitize-value>
  local name="$1" sanitize="$2"
  local build_dir="build-check-$name"
  note "configure+build+ctest: $name (PRIONN_SANITIZE=$sanitize)"
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DPRIONN_SANITIZE="$sanitize" >/dev/null
  cmake --build "$build_dir" -j "$jobs"
  # The suppressions file is the single ledger for tolerated findings;
  # halt_on_error keeps ASan/TSan failures from being reported-and-ignored.
  env \
    ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    UBSAN_OPTIONS="print_stacktrace=1" \
    LSAN_OPTIONS="suppressions=$suppressions" \
    TSAN_OPTIONS="halt_on_error=1:suppressions=$suppressions" \
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
  record "PASS  $name"
}

for stage in "${stages[@]}"; do
  case "$stage" in
    format)
      if command -v clang-format >/dev/null 2>&1; then
        note "clang-format --dry-run"
        git ls-files '*.cpp' '*.hpp' |
          xargs clang-format --dry-run --Werror
        record "PASS  format"
      else
        record "SKIP  format (clang-format not on PATH)"
      fi
      ;;
    tidy)
      if command -v clang-tidy >/dev/null 2>&1; then
        note "clang-tidy build (PRIONN_TIDY=ON)"
        cmake -B build-check-tidy -S . \
          -DCMAKE_BUILD_TYPE=Release -DPRIONN_TIDY=ON >/dev/null
        cmake --build build-check-tidy -j "$jobs"
        record "PASS  tidy"
      else
        record "SKIP  tidy (clang-tidy not on PATH)"
      fi
      ;;
    release)   run_suite release off ;;
    obs-off)
      # Telemetry compiled out: the obs classes still build and their
      # tests still pass, but every instrumentation call site is gone.
      note "configure+build+ctest: obs-off (PRIONN_OBS=OFF)"
      cmake -B build-check-obs-off -S . \
        -DCMAKE_BUILD_TYPE=Release \
        -DPRIONN_OBS=OFF >/dev/null
      cmake --build build-check-obs-off -j "$jobs"
      ctest --test-dir build-check-obs-off --output-on-failure -j "$jobs"
      record "PASS  obs-off"
      ;;
    address)   run_suite asan address ;;
    undefined) run_suite ubsan undefined ;;
    thread)    run_suite tsan thread ;;
    tsa)
      # Thread-safety analysis (clang capability attributes): compile-only
      # gate — a -Wthread-safety diagnostic is a locking bug.
      if command -v clang++ >/dev/null 2>&1; then
        note "thread-safety analysis build (PRIONN_TSA=ON, clang)"
        cmake -B build-check-tsa -S . \
          -DCMAKE_BUILD_TYPE=Release \
          -DCMAKE_CXX_COMPILER=clang++ \
          -DPRIONN_TSA=ON >/dev/null
        cmake --build build-check-tsa -j "$jobs"
        record "PASS  tsa"
      else
        record "SKIP  tsa (clang++ not on PATH)"
      fi
      ;;
    serve)
      # Serving subsystem gate, both halves: the PredictionService
      # concurrency and lane-width determinism tests under TSan
      # (submit/retrain/swap races, split-kernel writers), then
      # the unsanitized micro_serve binary whose exit status enforces
      # bit-exact replay, throughput >= sequential, and the 2x retrain
      # p99 ceiling. The 'thread' and 'release' stages cover these tests
      # too; this stage is the quick loop for serving-path changes.
      note "serve: PredictionService tests under TSan"
      cmake -B build-check-serve-tsan -S . \
        -DCMAKE_BUILD_TYPE=Release \
        -DPRIONN_SANITIZE=thread >/dev/null
      cmake --build build-check-serve-tsan -j "$jobs" \
        --target serve_test resilience_test determinism_test
      env TSAN_OPTIONS="halt_on_error=1:suppressions=$suppressions" \
        ctest --test-dir build-check-serve-tsan --output-on-failure \
          --no-tests=error -j "$jobs" -R "$serve_tests"
      note "serve: micro_serve gate (unsanitized)"
      cmake -B build-check-serve -S . \
        -DCMAKE_BUILD_TYPE=Release \
        -DPRIONN_SANITIZE=off >/dev/null
      cmake --build build-check-serve -j "$jobs" --target micro_serve
      ctest --test-dir build-check-serve --output-on-failure \
        --no-tests=error -R micro_serve
      record "PASS  serve"
      ;;
    fuzz-smoke)
      # Bounded coverage-guided run of every libFuzzer harness under
      # ASan+UBSan, seeded from the committed corpora. ~60s per harness:
      # a smoke pass that catches shallow regressions, not a campaign.
      if command -v clang++ >/dev/null 2>&1; then
        note "fuzz smoke (PRIONN_FUZZ=ON, clang, ${FUZZ_SMOKE_SECONDS:-60}s/harness)"
        cmake -B build-check-fuzz -S . \
          -DCMAKE_BUILD_TYPE=Release \
          -DCMAKE_CXX_COMPILER=clang++ \
          -DPRIONN_FUZZ=ON >/dev/null
        cmake --build build-check-fuzz -j "$jobs"
        mkdir -p build-check-fuzz/fuzz-artifacts
        for target in build-check-fuzz/fuzz/fuzz_*; do
          name="$(basename "$target")"
          [ "$name" = "fuzz_regression" ] && continue
          corpus="fuzz/corpus/${name#fuzz_}"
          # Scratch working corpus: libFuzzer writes new inputs into its
          # first corpus dir, and the committed seeds must stay pristine.
          scratch="build-check-fuzz/corpus-work/${name#fuzz_}"
          rm -rf "$scratch" && mkdir -p "$scratch"
          cp "$corpus"/* "$scratch"/
          note "fuzz smoke: $name"
          env ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
              UBSAN_OPTIONS="print_stacktrace=1" \
              LSAN_OPTIONS="suppressions=$suppressions" \
            "$target" -max_total_time="${FUZZ_SMOKE_SECONDS:-60}" \
              -dict=fuzz/prionn.dict -print_final_stats=1 \
              -artifact_prefix=build-check-fuzz/fuzz-artifacts/ \
              "$scratch"
        done
        record "PASS  fuzz-smoke"
      else
        record "SKIP  fuzz-smoke (clang++ not on PATH)"
      fi
      ;;
    bench-smoke)
      # The benchmark's own tests: every workload at smoke scale, built
      # from this checkout the way perfbench/run.py builds it.
      note "bench smoke (python3 perfbench/test_perfbench.py)"
      python3 perfbench/test_perfbench.py
      # The only non-test callers of the IO-aware admission path and the
      # snapshot-turnaround path, at a small scale; the timeout turns a
      # scheduler livelock into a failure. They run inside the build dir,
      # which keeps their phase-1 cache and telemetry files there.
      note "bench smoke: fig11_turnaround, tableD_io_aware_scheduler," \
        "fig07_accuracy_per_model, fig08_runtime_accuracy," \
        "fig09_io_accuracy, tableC_warm_vs_cold, table2_smith_replication"
      cmake -B build-check-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
      cmake --build build-check-bench -j "$jobs" \
        --target fig11_turnaround tableD_io_aware_scheduler \
        fig07_accuracy_per_model fig08_runtime_accuracy fig09_io_accuracy \
        tableC_warm_vs_cold table2_smith_replication
      (cd build-check-bench &&
        timeout 600 ./bench/fig11_turnaround --jobs=400 --epochs=1)
      # tableD fails unless its PRIONN-bandwidth row holds jobs, which it
      # does at this scale (at --epochs=1 it does not).
      (cd build-check-bench &&
        timeout 600 ./bench/tableD_io_aware_scheduler --jobs=1000 --epochs=3)
      # The only end-to-end run of the 1D-CNN in this gate.
      (cd build-check-bench &&
        timeout 300 ./bench/fig07_accuracy_per_model --jobs=300 --epochs=2)
      # The only end-to-end runs of the online RF baseline loop and (tableC)
      # of the cold-restart path in this gate.
      (cd build-check-bench &&
        timeout 300 ./bench/fig08_runtime_accuracy --jobs=400 --epochs=1 &&
        timeout 300 ./bench/fig09_io_accuracy --jobs=400 --epochs=1 &&
        timeout 300 ./bench/tableC_warm_vs_cold --jobs=400 --epochs=1 &&
        timeout 300 ./bench/table2_smith_replication)
      record "PASS  bench-smoke"
      ;;
    *)
      echo "unknown stage: $stage" >&2
      echo "stages: format tidy release obs-off address undefined thread" \
           "tsa serve fuzz-smoke bench-smoke" >&2
      exit 2
      ;;
  esac
done

note "summary"
printf '%s\n' "${results[@]}"
