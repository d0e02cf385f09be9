#!/usr/bin/env python3
"""Hyper-Q benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload tpch_olap --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds the shipped server (bin/hyperq.exe) and the benchmark runner
(perfbench/hqbench.exe) from source with dune, then runs it. The
last line of standard output is the JSON result: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.
Exits non-zero without a result when the sources, the build, the run or the
result are missing or malformed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SERVER = os.path.join("_build", "default", "bin", "hyperq.exe")
RUNNER = os.path.join("_build", "default", "perfbench", "hqbench.exe")
RUN_TIMEOUT_S = 170

# Workloads driven over a single connection. Their runner and the server it
# spawns are pinned to one CPU: in a closed loop only one of the two works
# at a time, and a request or an answer then hands the CPU straight to the
# other process instead of waking an idle virtual CPU, whose wake-up time
# swings with the host.
ONE_CPU = {"tpch_olap", "etl_roundtrip"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a Hyper-Q checkout: %s is missing" % needed)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/hyperq.exe", "./perfbench/hqbench.exe"],
            cwd=ROOT, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed")


def shipped_env():
    """The environment without HYPERQ_* knobs, so server and in-process
    pipelines run with shipped defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("HYPERQ_")}


def pin_to_one_cpu():
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_bench(workload, args, timeout=RUN_TIMEOUT_S):
    """Run hqbench.exe in its own process group, so that on a timeout the
    runner and the server it spawned are killed together and waited for.
    Returns the runner's stdout lines and the parsed result."""
    proc = subprocess.Popen([RUNNER, "run", "--server", SERVER, "--workload", workload] + args,
                            cwd=ROOT, env=shipped_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=pin_to_one_cpu if workload in ONE_CPU else None)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for _ in range(100):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        fail("run timed out")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("runner exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line")
    return lines, result


def check_result(result, expected):
    """The result carries exactly the expected metrics, each with its unit."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys %s" % sorted(result)
    got = result["metrics"]
    if set(got) != set(expected):
        return "metrics differ: missing %s, extra %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected)))
    for name, unit in expected.items():
        v = got[name]
        if v.get("unit") != unit or not isinstance(v.get("value"), (int, float)):
            return "metric %s: %s (expected unit %s)" % (name, v, unit)
    if result["attempted"] < 1:
        return "nothing attempted"
    return None


def expected_metrics(trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec()[key]}


def selftest():
    """Runner self-tests, then a tiny run of every workload in both modes."""
    r = subprocess.run([RUNNER, "selftest"], cwd=ROOT, env=shipped_env())
    if r.returncode != 0:
        fail("runner self-tests failed")
    for w in [x["name"] for x in spec()["workloads"]]:
        for trace in (0, 1):
            lines, result = run_bench(
                w, ["--seed", "7", "--seconds", "1", "--trace", str(trace), "--min-rounds", "1"])
            problem = check_result(result, expected_metrics(trace))
            if problem or not result["correct"]:
                fail("%s trace %d: %s" % (w, trace, problem or "incorrect answers"))
            print("ok %s trace %d: %d metrics, %d statements" % (
                w, trace, len(result["metrics"]), result["attempted"]))
            for name, v in result["metrics"].items():
                print("    %-28s %14.6g %s" % (name, v["value"], v["unit"]))
    print("selftest passed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    build()
    if a.selftest:
        selftest()
        return
    if None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if a.workload not in [w["name"] for w in spec()["workloads"]]:
        fail("unknown workload %s" % a.workload)
    lines, result = run_bench(a.workload, ["--seed", str(a.seed), "--seconds", str(a.seconds),
                                           "--trace", str(a.trace)])
    problem = check_result(result, expected_metrics(a.trace))
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
