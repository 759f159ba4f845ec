#!/usr/bin/env python3
"""Smoke test of the benchmark on tiny inputs (about a minute).

    python3 tdpbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced at
--size tiny, and checks that each run succeeds with no failed operation
and emits every end-to-end (untraced) or per-layer (traced) metric of
BENCHMARK.json with its unit and a finite value, the traced run's
unaccounted_pct and obs.overhead_pct included. Exit 0 on success.
"""

import json
import math
import subprocess
import sys


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "tdpbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(workload, trace, expected):
    res = run(workload, trace)
    where = f"{workload} trace={trace}"
    assert res["correct"] is True, f"{where}: not correct"
    assert res["failed"] == 0, f"{where}: {res['failed']} failed ops"
    assert res["attempted"] >= 1, f"{where}: nothing attempted"
    got = res["metrics"]
    assert sorted(got) == sorted(expected), \
        f"{where}: metric names differ: {sorted(set(got) ^ set(expected))}"
    for name, unit in expected.items():
        value = got[name]["value"]
        assert got[name]["unit"] == unit, f"{where}: {name} unit {got[name]['unit']}"
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            f"{where}: {name} = {value!r}"
    print(f"ok {where}: {len(got)} metrics, {res['attempted']} ops")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert "unaccounted_pct" in layers and "obs.overhead_pct" in layers
    for w in bench["workloads"]:
        check(w["name"], 0, e2e)
        check(w["name"], 1, layers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
