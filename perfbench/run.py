#!/usr/bin/env python3
"""Build the pWCET benchmark from source and run one workload.

    python3 perfbench/run.py --workload analyze-cold|grid-pfail|daemon-zipf \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The benchmark
program (perfbench/pwbench.ml) and the daemon it drives
(bin/pwcet_tool.ml) are built with dune into .bench_build; the run's
host record and spans go to perfbench/_out. The last line of standard
output is the result JSON; the exit code is 0 only when every output
was correct.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def commit():
    """The checkout's git commit, or "unknown" outside a git repository."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main():
    for needed in ("dune-project", "lib", os.path.join("bin", "pwcet_tool.ml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found: run inside a full checkout of the repository" % needed)
    # Keep every write inside the checkout: no shared dune cache, and the
    # compiler's and the benchmark's temporary files under perfbench/_out.
    tmp = os.path.join(HERE, "_out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ.update(DUNE_CACHE="disabled", TMPDIR=tmp)
    # The perfbench profile is the one that enables perfbench/dune's executable.
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD, "--profile", "perfbench",
         "./perfbench/pwbench.exe", "./bin/pwcet_tool.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(BUILD, "default", "perfbench", "pwbench.exe")
    tool = os.path.join(BUILD, "default", "bin", "pwcet_tool.exe")
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(exe, [exe, "--tool", tool, "--out", os.path.join("perfbench", "_out"),
                   "--expected", os.path.join("perfbench", "expected.tsv"),
                   "--commit", commit()] + sys.argv[1:])


if __name__ == "__main__":
    main()
