#!/usr/bin/env python3
"""Build the IX reproduction from source and run one benchmark workload.

    python3 ixbench/run.py --workload echo-64b-4core --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  It builds ixbench/ixbench.exe with
dune, runs it, and passes its output through: the last line of standard
output is the JSON result.  Build output goes to standard error.  See
ixbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["echo-64b-4core", "memcached-etc-open", "conn-churn", "sweep-2dom"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"ixbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("dune-project", "lib", os.path.join("ixbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found under {root}: run from a full checkout of the repository")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    # Keep every file the build and the run write inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    scratch = os.path.join(root, ".ixbench")
    os.makedirs(scratch, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = scratch

    build = subprocess.run(
        [dune, "build", "--root", root, "ixbench/ixbench.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed", 1)

    exe = os.path.join(root, "_build", "default", "ixbench", "ixbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=scratch, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        # Show what it printed, but never as a result line.
        sys.stderr.write(out)
        fail(f"benchmark exited with code {proc.returncode}", 1)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
