#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-matrix --seed 1 --seconds 30 --trace 0

Builds perfbench/main.exe with dune inside the checkout, then runs it
with the same arguments.  Its standard output passes through unchanged:
human-readable lines, then one JSON object as the last line.  Build
output goes to standard error.  The exit code is the benchmark's: 0
when every output checked is correct, 1 on any correctness failure, and
another non-zero code when the build or the run cannot start.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ["paper-matrix", "static-compile", "serve-steady"]
RUN_TIMEOUT_S = 170


def source_id():
    """The git commit when the checkout is a repository, otherwise a
    digest of the library and driver sources."""
    if os.path.isdir(".git") and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        print("perfbench: run from the root of a repository checkout", file=sys.stderr)
        return 2
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        print("perfbench: neither dune nor opam found on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        dune + ["build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
