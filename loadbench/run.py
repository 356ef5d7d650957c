#!/usr/bin/env python3
r"""Entry point of the repository benchmark (loadbench/README.md).

    python3 loadbench/run.py --workload WORKLOAD --seed N \
                             --seconds S --trace 0|1

Builds the cssame library, the real cssamed daemon, the load generator
and its spawn probe from the sources of this checkout into .bench_build/ (a Release build;
the first run compiles everything, later runs only check it is current),
then runs the load generator. Its stdout ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. The exit code is nonzero
when the build fails or any operation failed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ".bench_build"


def run_quiet(cmd):
    """Runs a build step from the repository root.

    Its output is shown only when it fails.
    """
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        sys.stderr.write("loadbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(proc.returncode or 1)


def build():
    if not (ROOT / BUILD / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", "loadbench", "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs,
               "--target", "cssamed", "spawnprobe", "loadgen"])


def git_describe():
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lock_regions", "optimize", "service_mix"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [os.path.join(BUILD, "loadgen"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--cssamed", os.path.join(BUILD, "cssamed"),
           "--spawn-probe", os.path.join(BUILD, "spawnprobe"),
           "--repo-root", ".",
           "--git-describe", git_describe()]
    sys.stdout.flush()
    proc = subprocess.run(cmd, cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
