#!/usr/bin/env python3
"""The benchmark's own tests.

Runs every workload twice, with different seeds, through perfbench/run.py
and checks that

- each run reports exactly the metrics BENCHMARK.json lists, with its units,
  and no op fails;
- the count metrics below are bit-identical across the two runs: they are
  deterministic counts, so any difference is a bug in the benchmark or the
  toolchain, never noise.

Usage, from the root of a checkout (about three minutes):

    python3 perfbench/test_exactness.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXACT = {
    "paper-figures": [
        "alloc_mw_per_op", "om_cycle_ratio", "machine.sim.minsns",
        "machine.blocks.built", "om.insns_after", "om.relax_iterations",
    ],
    "link-matrix": [
        "alloc_mw_per_op", "om_text_ratio", "om.insns_after",
        "om.relax_iterations",
    ],
    "serve-mixed": [],
}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def check_names(result, listed, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in listed}
    assert got == want, f"{what}: metrics {sorted(got.items())} != {sorted(want.items())}"
    assert result["correct"] and result["failed"] == 0, f"{what}: ops failed"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(EXACT)
    failures = 0
    for workload, exact in EXACT.items():
        check_names(run(workload, 1, 0), bench["end_to_end"], f"{workload} --trace 0")
        first, second = run(workload, 1, 1), run(workload, 2, 1)
        for result in (first, second):
            check_names(result, bench["per_layer"], f"{workload} --trace 1")
        for name in exact:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            status = "ok" if a == b and a != 0 else "FAIL"
            failures += status == "FAIL"
            print(f"{status} {workload} {name}: {a!r} vs {b!r}")
    if failures:
        sys.exit(f"{failures} count metrics did not repeat exactly")
    print("all count metrics repeat exactly")


if __name__ == "__main__":
    main()
