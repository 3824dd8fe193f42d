#!/usr/bin/env python3
"""Build the repository's benchmark driver from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper-figures, link-matrix, serve-mixed (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The exit code is nonzero,
and no result is printed, when the checkout cannot be built or any op
fails its correctness check.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ("paper-figures", "link-matrix", "serve-mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kwargs):
    """Run cmd to completion; on timeout kill it and wait for it."""
    with subprocess.Popen(cmd, cwd=ROOT, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail(f"{cmd[0]} did not finish within {timeout} s")
        return proc.returncode, out


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run this from the root of a full checkout")
    # the shared dune cache lives outside the checkout; build without it
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(
        ["dune", "build", "--root", ".", TARGET],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if code != 0:
        fail(f"dune build failed with exit code {code}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    code, out = run(
        [
            EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        RUN_TIMEOUT_S,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = out.splitlines()
    if code != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)
        fail(f"{args.workload} failed with exit code {code}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result line: {lines[-1]}")
    result["metrics"] = complete(args.workload, args.trace, result["metrics"])
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")


def complete(workload, trace, metrics):
    """The metrics BENCHMARK.json lists for this kind of run, in its order.

    A traced run reports only the per-layer metrics its workload measures;
    the others read 0 and are named on standard error.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in listed]
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        fail(f"{workload} reported metrics BENCHMARK.json does not list: {unknown}")
    missing = [n for n in names if n not in metrics]
    if missing and not trace:
        fail(f"{workload} did not report {missing}")
    if missing:
        print(f"perfbench: {workload} does not measure {', '.join(missing)};"
              " they read 0", file=sys.stderr)
    return {
        m["name"]: metrics.get(m["name"], {"value": 0, "unit": m["unit"]})
        for m in listed
    }


if __name__ == "__main__":
    main()
