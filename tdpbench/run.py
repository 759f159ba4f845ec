#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 tdpbench/run.py --workload W --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout. Builds the benchmark executable with
dune, generates the seed's inputs in a separate process (cached under
.tdpbench_work/), runs the measured process, and prints its JSON result
as the last line of standard output. Exits non-zero without a result
when any step fails. See tdpbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("tdp-suite", "gp-50k", "svc-eco")
WORK = ".tdpbench_work"
EXE = os.path.join("_build", "default", "tdpbench", "main.exe")
# Bump when the generated inputs change, so cached ones are regenerated.
INPUTS_VERSION = "4"


def log(msg):
    print(f"[tdpbench] {msg}", file=sys.stderr, flush=True)


def call(argv, timeout, env=None):
    """Run argv to completion; stdout is returned, stderr passes through."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                          env=env, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} {argv[1] if len(argv) > 1 else ''} "
                           f"exited with {proc.returncode}")
    return proc.stdout


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        raise RuntimeError("not the root of a repository checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    call(["dune", "build", "--root", ".", "--display", "quiet",
          "./tdpbench/main.exe"], timeout=850, env=env)


def inputs(workload, seed, size):
    """The seed's input directory, generated on first use."""
    d = os.path.join(WORK, size, workload, f"seed{seed}")
    stamp = os.path.join(d, "READY")
    if os.path.isfile(stamp) and open(stamp).read() == INPUTS_VERSION:
        return d
    os.makedirs(d, exist_ok=True)
    if os.path.exists(stamp):
        os.remove(stamp)
    call([EXE, "gen", "--workload", workload, "--seed", str(seed),
          "--size", size, "--dir", d], timeout=170)
    with open(stamp, "w") as f:
        f.write(INPUTS_VERSION)
    return d


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    try:
        build()
        d = inputs(args.workload, args.seed, args.size)
        argv = [EXE, "run", "--workload", args.workload, "--dir", d,
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(WORK, "traces")
            os.makedirs(traces, exist_ok=True)
            argv += ["--chrome-trace", os.path.join(
                traces, f"{args.size}-{args.workload}-seed{args.seed}.json")]
        out = call(argv, timeout=175).splitlines()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"failed: {e}")
        return 1
    if not out:
        log("failed: no output")
        return 1
    try:
        result = json.loads(out[-1])
    except ValueError:
        log("failed: last output line is not JSON")
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("failed: malformed result")
        return 1
    for line in out[:-1]:
        log(line)
    print(out[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
