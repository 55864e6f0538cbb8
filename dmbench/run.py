#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

    python3 dmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It configures and builds the
repository's src/ libraries plus the dmbench executable (dmbench/CMakeLists.txt)
in Release mode under $CARGO_TARGET_DIR (default .bench_build); later runs
rebuild incrementally. It then runs dmbench, which prints progress on
stderr and one JSON result, with metrics by name only, as the last line of
stdout. run.py checks the names against BENCHMARK.json, adds the units from
there and prints the result. Exits non-zero without printing a result when
the build fails, dmbench prints none, or the result names a metric
BENCHMARK.json does not list (or lacks an end-to-end one); exits non-zero
after printing it when an output check failed.
"""
import argparse
import json
import os
import subprocess
import sys


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(source_dir, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", build_dir, "--target", "dmbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "dmbench")


def to_result(line, spec, trace):
    """dmbench's result line with each metric's unit from BENCHMARK.json.

    dmbench reports metrics by name only. An untraced run must report every
    end-to-end metric. A traced run reports the per-layer values it measured;
    a layer the workload never reaches reads 0. A name BENCHMARK.json does not
    list is an error either way.
    """
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line of the dmbench output is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    unknown = set(got) - {m["name"] for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if unknown or (missing and not trace):
        fail("metrics differ from BENCHMARK.json: " +
             ", ".join(sorted(unknown) + missing))
    result["metrics"] = {
        m["name"]: {"value": got.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(source_dir)
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    build_dir = os.path.join(os.path.abspath(build_root), "dmbench")
    binary = build(source_dir, build_dir)

    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--workdir", os.path.join(build_dir, "work")],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("dmbench exited with %d and printed no result" % run.returncode)
    print(json.dumps(to_result(lines[-1], spec, args.trace == "1")))
    # Non-zero when an output check failed; the result says which ops.
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
