#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload fig1-list --seed 1 --seconds 10 --trace 0

Run from the repository root.  The OCaml executable is built with dune
inside the checkout (dune's shared cache is disabled, so nothing is
written outside it); its diagnostics and its final JSON line are passed
through unchanged.  Exits non-zero without a result when the build or
the run fails.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

TARGET = "./perfbench/tcmbench.exe"
EXE = os.path.join("_build", "default", "perfbench", "tcmbench.exe")


def find_dune(env):
    if shutil.which("dune", path=env.get("PATH")):
        return env
    # Not on PATH: fall back to an opam switch's bin directory.
    candidates = []
    if env.get("OPAM_SWITCH_PREFIX"):
        candidates.append(os.path.join(env["OPAM_SWITCH_PREFIX"], "bin"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin")))
    for d in candidates:
        if os.path.exists(os.path.join(d, "dune")):
            env["PATH"] = d + os.pathsep + env.get("PATH", "")
            return env
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = find_dune(dict(os.environ))
    if env is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
