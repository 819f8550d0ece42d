#!/usr/bin/env python3
"""Pipeline benchmark runner.

Builds perfbench/pipeline_bench from the sources of the checkout it sits in
(into .bench_build/, Release) and runs one workload:

    python3 perfbench/run.py --workload mine|serve|tenants --seed N \
        --seconds S --trace 0|1

The last line of standard output is the result JSON
({"correct", "attempted", "failed", "metrics"}). Build output and progress
go to standard error. The exit status is 0 only when the run succeeded and
every output check passed.

    python3 perfbench/run.py --self-test

runs every workload at tiny sizes, traced and untraced, checks that every
metric BENCHMARK.json names is printed with its unit (and nothing else),
and checks that a corrupted wire score and a skipped WAL record each fail
the run.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "pipeline_bench")
WORKLOADS = ("mine", "serve", "tenants")
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("library sources not found: %s is missing from %s"
                % (needed, ROOT))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD, "--target", "pipeline_bench",
                   "-j", "4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")


def run_bench(workload, seed, seconds, trace, scale="full", inject=""):
    """Runs the binary once; returns (exit status, parsed result or None)."""
    workdir = os.path.join(BUILD_ROOT, "run", "%s-%d" % (workload, os.getpid()))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir, "--scale", scale]
    if inject:
        cmd += ["--inject", inject]
    if trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 124, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def shape_errors(result, trace):
    """Differences between a result line and BENCHMARK.json."""
    if not isinstance(result, dict):
        return ["no result line"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys %s" % sorted(result))
        return errors
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    declared = declared_metrics(trace)
    for name, unit in declared.items():
        if name not in printed:
            errors.append("metric %s not printed" % name)
        elif printed[name] != unit:
            errors.append("metric %s printed in %s, declared in %s"
                          % (name, printed[name], unit))
    for name in printed:
        if name not in declared:
            errors.append("metric %s printed but not declared" % name)
    return errors


def self_test():
    build()
    failures = []

    def expect(label, ok):
        print("self-test: %-48s %s" % (label, "ok" if ok else "FAILED"),
              file=sys.stderr)
        if not ok:
            failures.append(label)

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_bench(workload, 7, 1, trace, scale="tiny")
            label = "%s trace=%d" % (workload, trace)
            errors = shape_errors(result, trace)
            for error in errors:
                print("self-test: %s: %s" % (label, error), file=sys.stderr)
            expect(label + " passes its checks",
                   code == 0 and result is not None and result["correct"])
            expect(label + " prints the declared metrics", not errors)
    for workload, inject in (("serve", "corrupt-score"),
                             ("tenants", "corrupt-score"),
                             ("tenants", "skip-wal"),
                             ("serve", "skip-wal")):
        code, result = run_bench(workload, 7, 1, 0, scale="tiny",
                                 inject=inject)
        tripped = (code != 0 and result is not None
                   and not result["correct"] and result["failed"] > 0)
        expect("%s --inject %s trips a check" % (workload, inject), tripped)
    print("self-test: %s" % ("FAILED: " + ", ".join(failures)
                             if failures else "all passed"), file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    build()
    code, result = run_bench(args.workload, args.seed, args.seconds,
                             args.trace)
    if result is None:
        die("pipeline_bench exited %d without a result line" % code)
    errors = shape_errors(result, args.trace)
    if errors:
        die("result does not match BENCHMARK.json: " + "; ".join(errors))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
