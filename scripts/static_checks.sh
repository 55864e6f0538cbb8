#!/usr/bin/env bash
# Several gates in one script:
#
#  1. clang-tidy (config: .clang-tidy at the repo root) over every
#     translation unit in src/, failing on any warning, so new findings
#     cannot land silently. Without clang-tidy on PATH only this pass is
#     skipped: every other gate still runs, and the exit code says so.
#  2. A Release-build smoke: bench/bench_kernels --smoke runs the
#     blocked-vs-reference parity suite plus a ~3 second throughput pass, and
#     bench/bench_cla --smoke checks compressed-vs-dense and pooled-vs-serial
#     parity; both exit nonzero on any NaN or parity mismatch — catching
#     miscompiled or numerically broken kernels that an -O0 test run would
#     miss. bench/bench_pipeline --smoke gates the declarative pipeline
#     chooser: factorized picked (and faster) on the skewed star join,
#     materialization picked on the inverted workload, identical models
#     from both routes. bench/bench_factorized --smoke gates E1's parity:
#     the one batch-GD trainer bound to the factorized join and to the
#     materialized join must agree to 1e-9.
#  3. A mixed-representation parity gate: tests/laopt_repr_test (one laopt
#     plan executed under dense, sparse and compressed leaf bindings, plus
#     the GLM/k-means trainers over dense, CSR, CLA and factorized views of
#     one star join) built and run under TSan and under ASan+UBSan, each
#     plain and with DMML_INTER_NODE=1, so the representation-dispatch and
#     slot-reuse paths of the buffered executor are exercised with threads
#     under both sanitizers.
#     The TSan build additionally runs obs_test (concurrent endpoint scrapes
#     against the exposition server) and laopt_profile_test (profile writes
#     racing registry reads). Both sanitizer builds also run
#     laopt_verify_test, so the verifier, the lint rules, and the
#     liveness-driven buffer sharing are exercised under TSan and ASan+UBSan,
#     and modelsel_shared_test (the shared-scan rung engine's wide multi-root
#     plans), modelsel_test (grid search and batched training through that
#     engine) and factorized_test (the windowed factorized products), each
#     twice: default scheduling and DMML_INTER_NODE=1.
#     pipeline_frontend_test (table -> join -> train through both physical
#     routes) also runs under both sanitizers, plain and with
#     DMML_VERIFY=1 DMML_INTER_NODE=1. laopt_analysis_test (the analyzer,
#     and dense nonzero counts shared by concurrent first callers) and
#     la_kernels_parity_test (the kernel engine, including the GLM
#     residual kernel's vector exp/log1p and its padded partial vectors)
#     run under both sanitizers, plain and with DMML_INTER_NODE=1, and so
#     does laopt_fusion_test (fused elementwise nodes: the cell-program
#     kernel split across the pool, bit-equal to the unfused plan under
#     every binding and scheduling mode), and so do cla_parallel_parity_test
#     (the CLA windowed Gram among the pooled compressed ops), parser_test
#     and laopt_profile_test.
#  4. A plan-verifier gate: every laopt test binary (pipeline_test,
#     laopt_fusion_test and parser_test included, so the fusion step and the
#     parser's leaves run under it), the batch-GD engine's and windowed
#     Grams' suites (modelsel_shared_test, la_kernels_parity_test,
#     cla_parallel_parity_test, factorized_test) plus the laopt benches
#     re-run in the Release build with DMML_VERIFY=1 DMML_LINT=1. The verifier is on by default in every build (the
#     Release flags are -O2 without NDEBUG); setting it here keeps the gate
#     on if that default ever changes, and DMML_LINT=1 adds the lint rules.
#     Any diagnostic of severity error fails the plan and hence the binary.
#     The same suite then re-runs with DMML_INTER_NODE=1, forcing the
#     dependency-counter dataflow scheduler onto every pooled executor —
#     results must stay bit-identical and laopt.sched.buffer_conflicts zero.
#  5. A benchmark gate: dmbench's own CMake project (the one
#     dmbench/run.py builds) configured in Release, and dmbench_test run;
#     its tiny pass runs every workload's output checks.
#
# The Release smoke also covers the profiler: bench_laopt --smoke asserts
# that the profiler-disabled unified GLM epoch loop stays within
# DMML_SMOKE_PROFILER_BOUND (default 1.25, see bench_laopt.cpp) of the
# hand-coded baseline, and a
# curl pass starts bench_laopt with DMML_OBS_PORT=0, scrapes /metrics and
# /profiles from the advertised port, and validates the JSON (skipped
# gracefully when curl is absent).
#
# Usage:
#
#   scripts/static_checks.sh [build-dir]
#
# A compile_commands.json is generated into the build dir (default
# build-tidy) if not already present; the smoke uses a separate Release
# build dir (build-smoke). Exit codes: 0 clean, 1 findings or a failed
# gate, 2 every gate that ran passed but the clang-tidy pass could not run
# (no clang-tidy on PATH, or its configure failed).
set -u -o pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-tidy}"

status=0
tidy_skipped=0
tidy_bin="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$tidy_bin" >/dev/null 2>&1; then
  echo "static_checks: '$tidy_bin' not found on PATH; skipping the clang-tidy pass." >&2
  echo "Install clang-tidy (or set CLANG_TIDY) to run it. The other gates still run." >&2
  tidy_skipped=1
elif [ ! -f "$build_dir/compile_commands.json" ] \
    && ! cmake -B "$build_dir" -S "$repo_root" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null; then
  echo "static_checks: cmake configure failed; skipping the clang-tidy pass" >&2
  tidy_skipped=1
else
  mapfile -t sources < <(find "$repo_root/src" -name '*.cpp' | sort)
  echo "static_checks: running $tidy_bin over ${#sources[@]} files..."
  for f in "${sources[@]}"; do
    # --quiet suppresses the "N warnings generated" chatter; findings still
    # print. WarningsAsErrors in .clang-tidy makes any finding a failure.
    if ! "$tidy_bin" --quiet -p "$build_dir" "$f"; then
      status=1
    fi
  done

  if [ "$status" -ne 0 ]; then
    echo "static_checks: FAILED — fix the findings above (policy: .clang-tidy)" >&2
  else
    echo "static_checks: clang-tidy clean"
  fi
fi

# ---------------------------------------------------------------------------
# Release smoke: parity + NaN scan at full optimization.
# ---------------------------------------------------------------------------
smoke_dir="$repo_root/build-smoke"
echo "static_checks: building smoke benches (Release) in $smoke_dir..."
if cmake -B "$smoke_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >/dev/null \
    && cmake --build "$smoke_dir" --target bench_kernels --target bench_cla \
         --target bench_laopt --target bench_ablations --target bench_modelsel \
         --target bench_pipeline --target bench_factorized -j "$(nproc)" >/dev/null; then
  if "$smoke_dir/bench/bench_kernels" --smoke; then
    echo "static_checks: kernel smoke clean"
  else
    echo "static_checks: FAILED — bench_kernels smoke found parity/NaN errors" >&2
    status=1
  fi
  if "$smoke_dir/bench/bench_cla" --smoke >/dev/null; then
    echo "static_checks: cla smoke clean"
  else
    echo "static_checks: FAILED — bench_cla smoke found parity errors" >&2
    status=1
  fi
  # Profiler-disabled overhead gate: the unified GLM epoch loop with no
  # profile attached must stay within the bound of the hand-coded baseline
  # (the executor adds one pointer test per node when profiling is off).
  if "$smoke_dir/bench/bench_laopt" --smoke >/dev/null; then
    echo "static_checks: laopt profiler-overhead smoke clean"
  else
    echo "static_checks: FAILED — bench_laopt smoke (profiler overhead bound)" >&2
    status=1
  fi
  # The ablation, model-selection, pipeline and factorized benches exit
  # nonzero on any parity, training or route-choice failure; --smoke keeps
  # each to seconds.
  for b in bench_ablations bench_modelsel bench_pipeline bench_factorized; do
    if "$smoke_dir/bench/$b" --smoke >/dev/null; then
      echo "static_checks: $b smoke clean"
    else
      echo "static_checks: FAILED — $b --smoke" >&2
      status=1
    fi
  done

  # Exposition-endpoint smoke: run the bench with the obs server held open,
  # scrape /metrics and /profiles from the advertised ephemeral port, and
  # validate the JSON payload.
  if command -v curl >/dev/null 2>&1; then
    obs_log="$smoke_dir/obs_smoke.log"
    DMML_OBS_PORT=0 DMML_OBS_HOLD_SECS=20 \
      "$smoke_dir/bench/bench_laopt" --smoke >"$obs_log" 2>&1 &
    obs_pid=$!
    obs_port=""
    for _ in $(seq 1 100); do
      obs_port="$(sed -n 's/^#OBS-SERVER port=\([0-9][0-9]*\)$/\1/p' "$obs_log" | head -n1)"
      [ -n "$obs_port" ] && break
      kill -0 "$obs_pid" 2>/dev/null || break
      sleep 0.1
    done
    obs_ok=1
    if [ -z "$obs_port" ]; then
      echo "static_checks: FAILED — bench_laopt never advertised #OBS-SERVER port" >&2
      obs_ok=0
    else
      # The bench holds the server open for DMML_OBS_HOLD_SECS after its
      # last section, so the endpoints stay scrapeable here.
      if ! curl -fsS --max-time 10 "http://127.0.0.1:$obs_port/metrics" | grep -q '^counter '; then
        echo "static_checks: FAILED — /metrics scrape on port $obs_port" >&2
        obs_ok=0
      fi
      profiles_json="$(curl -fsS --max-time 10 "http://127.0.0.1:$obs_port/profiles")" || profiles_json=""
      case "$profiles_json" in
        '{"profiles":'*) : ;;
        *) echo "static_checks: FAILED — /profiles scrape on port $obs_port" >&2; obs_ok=0 ;;
      esac
      if [ "$obs_ok" -eq 1 ] && command -v python3 >/dev/null 2>&1; then
        if ! printf '%s' "$profiles_json" | python3 -c 'import json,sys; json.load(sys.stdin)'; then
          echo "static_checks: FAILED — /profiles payload is not valid JSON" >&2
          obs_ok=0
        fi
      fi
    fi
    kill "$obs_pid" 2>/dev/null
    wait "$obs_pid" 2>/dev/null
    if [ "$obs_ok" -eq 1 ]; then
      echo "static_checks: obs endpoint smoke clean (port $obs_port)"
    else
      status=1
    fi
  else
    echo "static_checks: skipping obs endpoint smoke (curl not found)"
  fi
else
  echo "static_checks: FAILED — could not build the smoke benches" >&2
  status=1
fi

# ---------------------------------------------------------------------------
# Plan-verifier gate: re-run every laopt test binary and the laopt benches in
# the Release build with the structural verifier and linter forced on (the
# verifier already defaults on — the Release flags do not define NDEBUG —
# so DMML_VERIFY=1 pins that and DMML_LINT=1 adds the lint rules). The
# verifier runs after every optimizer pass; a diagnostic of severity error
# turns into a failed Status, which every test and bench propagates as a
# nonzero exit.
# ---------------------------------------------------------------------------
verifier_tests="laopt_test laopt_cse_test laopt_analysis_test \
laopt_aggregates_test laopt_repr_test laopt_profile_test laopt_verify_test \
laopt_sched_test pipeline_test laopt_fusion_test parser_test \
modelsel_shared_test la_kernels_parity_test cla_parallel_parity_test \
factorized_test"
echo "static_checks: verifier gate — laopt tests + benches with DMML_VERIFY=1 DMML_LINT=1..."
# shellcheck disable=SC2086
if cmake --build "$smoke_dir" --target $verifier_tests -j "$(nproc)" >/dev/null; then
  for t in $verifier_tests; do
    if DMML_VERIFY=1 DMML_LINT=1 "$smoke_dir/tests/$t" >/dev/null; then
      echo "static_checks: $t clean under checked verifier"
    else
      echo "static_checks: FAILED — $t with DMML_VERIFY=1 DMML_LINT=1" >&2
      status=1
    fi
  done
  if DMML_VERIFY=1 DMML_LINT=1 "$smoke_dir/bench/bench_laopt" --smoke >/dev/null; then
    echo "static_checks: bench_laopt clean under checked verifier"
  else
    echo "static_checks: FAILED — bench_laopt --smoke with DMML_VERIFY=1 DMML_LINT=1" >&2
    status=1
  fi

  # Inter-node scheduler gate: the same laopt suite plus bench_laopt --smoke
  # with dataflow scheduling forced on, so every executor-driven test runs
  # its plans through dependency-counter dispatch (results must stay
  # bit-identical and the sched counters sane).
  echo "static_checks: inter-node gate — laopt tests + bench_laopt with DMML_INTER_NODE=1..."
  for t in $verifier_tests; do
    if DMML_INTER_NODE=1 "$smoke_dir/tests/$t" >/dev/null; then
      echo "static_checks: $t clean under forced inter-node scheduling"
    else
      echo "static_checks: FAILED — $t with DMML_INTER_NODE=1" >&2
      status=1
    fi
  done
  if DMML_INTER_NODE=1 "$smoke_dir/bench/bench_laopt" --smoke >/dev/null; then
    echo "static_checks: bench_laopt clean under forced inter-node scheduling"
  else
    echo "static_checks: FAILED — bench_laopt --smoke with DMML_INTER_NODE=1" >&2
    status=1
  fi
else
  echo "static_checks: FAILED — could not build laopt tests for the verifier gate" >&2
  status=1
fi

# ---------------------------------------------------------------------------
# Mixed-representation parity under sanitizers: the same laopt plan bound to
# dense, sparse and compressed leaves must agree, with the executor's
# slot-reuse and thread-pool paths clean under TSan and ASan+UBSan. The
# verifier suite rides along so the corrupt-DAG paths and liveness-driven
# buffer sharing are sanitizer-clean too.
# ---------------------------------------------------------------------------
run_sanitized_repr_gate() {
  local san="$1" dir="$2"
  echo "static_checks: building laopt_repr_test + laopt_verify_test + laopt_sched_test + laopt_analysis_test + modelsel_shared_test + modelsel_test + factorized_test + la_kernels_parity_test + laopt_fusion_test + cla_parallel_parity_test + parser_test + laopt_profile_test + pipeline_frontend_test (DMML_SANITIZE=$san) in $dir..."
  if cmake -B "$dir" -S "$repo_root" -DDMML_SANITIZE="$san" >/dev/null \
      && cmake --build "$dir" --target laopt_repr_test --target laopt_verify_test \
           --target laopt_sched_test --target laopt_analysis_test \
           --target modelsel_shared_test --target modelsel_test \
           --target factorized_test --target la_kernels_parity_test \
           --target laopt_fusion_test --target cla_parallel_parity_test \
           --target parser_test --target laopt_profile_test \
           --target pipeline_frontend_test -j "$(nproc)" >/dev/null; then
    if "$dir/tests/laopt_repr_test" >/dev/null \
        && DMML_INTER_NODE=1 "$dir/tests/laopt_repr_test" >/dev/null; then
      echo "static_checks: repr parity clean under $san"
    else
      echo "static_checks: FAILED — laopt_repr_test under $san" >&2
      status=1
    fi
    if "$dir/tests/laopt_verify_test" >/dev/null; then
      echo "static_checks: verifier + buffer sharing clean under $san"
    else
      echo "static_checks: FAILED — laopt_verify_test under $san" >&2
      status=1
    fi
    # The scheduler suite runs twice: dataflow default, then with inter-node
    # forced on for every executor in the binary (including the serial
    # baselines, which keep inter_node off via set_inter_node(false)).
    if "$dir/tests/laopt_sched_test" >/dev/null \
        && DMML_INTER_NODE=1 "$dir/tests/laopt_sched_test" >/dev/null; then
      echo "static_checks: inter-node scheduler clean under $san"
    else
      echo "static_checks: FAILED — laopt_sched_test under $san" >&2
      status=1
    fi
    # The analyzer suite, whose concurrent first Operand::Sparsity() calls
    # race on one shared nonzero-count cell, runs plain and inter-node.
    if "$dir/tests/laopt_analysis_test" >/dev/null \
        && DMML_INTER_NODE=1 "$dir/tests/laopt_analysis_test" >/dev/null; then
      echo "static_checks: analyzer clean under $san"
    else
      echo "static_checks: FAILED — laopt_analysis_test under $san" >&2
      status=1
    fi
    # The shared-scan rung engine also runs twice (default dataflow, then
    # inter-node forced on), so the wide multi-root plans and in-place leaf
    # mutation between executor runs are sanitizer-clean both ways.
    if "$dir/tests/modelsel_shared_test" >/dev/null \
        && DMML_INTER_NODE=1 "$dir/tests/modelsel_shared_test" >/dev/null; then
      echo "static_checks: shared-scan rung engine clean under $san"
    else
      echo "static_checks: FAILED — modelsel_shared_test under $san" >&2
      status=1
    fi
    # Every GLM caller trains through the rung engine's plans, the
    # factorized operand's ranged products feed its fold windows, the
    # residual kernel runs every epoch's middle, and fused elementwise nodes
    # run the cell-program kernel on the pool: the model-selection,
    # factorized, kernel and fused-node suites run plain and inter-node too.
    # So do the windowed Grams the statistics route's pass runs (dense, CSR,
    # CLA and factorized, serial and pooled), the parser's one leaf per
    # name, and the profiler over both batch-GD routes.
    for t in modelsel_test factorized_test la_kernels_parity_test laopt_fusion_test \
        cla_parallel_parity_test parser_test laopt_profile_test; do
      if "$dir/tests/$t" >/dev/null \
          && DMML_INTER_NODE=1 "$dir/tests/$t" >/dev/null; then
        echo "static_checks: $t clean under $san"
      else
        echo "static_checks: FAILED — $t under $san" >&2
        status=1
      fi
    done
    # The pipeline front-end drives relational execution, both physical
    # routes (materialized bindings and the factorized operand) and the
    # trainers end to end; run plain and with the verifier plus inter-node
    # scheduling forced on.
    if "$dir/tests/pipeline_frontend_test" >/dev/null \
        && DMML_VERIFY=1 DMML_INTER_NODE=1 "$dir/tests/pipeline_frontend_test" >/dev/null; then
      echo "static_checks: pipeline front-end clean under $san"
    else
      echo "static_checks: FAILED — pipeline_frontend_test under $san" >&2
      status=1
    fi
  else
    echo "static_checks: FAILED — could not build laopt tests under $san" >&2
    status=1
  fi
}

run_sanitized_repr_gate "thread" "$repo_root/build-tsan"
run_sanitized_repr_gate "address,undefined" "$repo_root/build-asan"

# Observability under TSan: concurrent endpoint scrapes against the
# exposition server (obs_test) and profile writes racing registry snapshot
# reads (laopt_profile_test) reuse the TSan build dir from the gate above.
tsan_dir="$repo_root/build-tsan"
for t in obs_test laopt_profile_test; do
  echo "static_checks: building $t (DMML_SANITIZE=thread)..."
  if cmake --build "$tsan_dir" --target "$t" -j "$(nproc)" >/dev/null \
      && "$tsan_dir/tests/$t" >/dev/null; then
    echo "static_checks: $t clean under thread sanitizer"
  else
    echo "static_checks: FAILED — $t under thread sanitizer" >&2
    status=1
  fi
done

# ---------------------------------------------------------------------------
# Benchmark gate: dmbench's own project, built in Release the way
# dmbench/run.py builds it, and its tests. The tiny pass over every workload
# runs each workload's output checks. Run from the build dir, which holds
# the tests' work directory.
# ---------------------------------------------------------------------------
dmbench_dir="$repo_root/build-dmbench"
echo "static_checks: building dmbench_test (dmbench project, Release) in $dmbench_dir..."
if cmake -B "$dmbench_dir" -S "$repo_root/dmbench" -DCMAKE_BUILD_TYPE=Release >/dev/null \
    && cmake --build "$dmbench_dir" --target dmbench_test -j "$(nproc)" >/dev/null; then
  if (cd "$dmbench_dir" && ./dmbench_test >/dev/null); then
    echo "static_checks: dmbench_test clean"
  else
    echo "static_checks: FAILED — dmbench_test" >&2
    status=1
  fi
else
  echo "static_checks: FAILED — could not build dmbench_test" >&2
  status=1
fi

if [ "$status" -ne 0 ]; then
  exit 1
fi
if [ "$tidy_skipped" -ne 0 ]; then
  echo "static_checks: every gate that ran passed; the clang-tidy pass did not run" >&2
  exit 2
fi
exit 0
