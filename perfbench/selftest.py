#!/usr/bin/env python3
"""Self-tests of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

1. Two traced runs of one seed give identical per-layer counts and an
   identical outputs digest, on every workload.
2. A hold-out seed, never used while the benchmark was tuned, runs every
   workload with failed_share = 0 and every output correct.

Runs are short (--seconds 2); the whole test takes a few minutes.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["analyze-cold", "grid-pfail", "daemon-zipf"]
COUNTS = ["cfg.nodes", "cache_analysis.refs", "core.fmm_cells", "prob.support_points",
          "service.computations", "store.hits", "store.misses", "store.puts"]
SEED = 1
HOLD_OUT_SEED = 987654321


def run(workload, seed, trace):
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                          "--seconds", "2", "--trace", str(trace)],
                         capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("%s seed %d: no output\n%s" % (workload, seed, out.stderr))
    result = json.loads(lines[-1])
    digest = [l.split()[1] for l in lines if l.startswith("outputs_digest:")]
    return out.returncode, result, digest[0] if digest else None


def main():
    failures = []
    for w in WORKLOADS:
        (c1, r1, d1), (c2, r2, d2) = run(w, SEED, 1), run(w, SEED, 1)
        counts1 = {k: r1["metrics"][k]["value"] for k in COUNTS}
        counts2 = {k: r2["metrics"][k]["value"] for k in COUNTS}
        ok = c1 == c2 == 0 and r1["correct"] and r2["correct"] and counts1 == counts2 and d1 == d2
        print("%-12s repeat seed %d: counts %s, digest %s -> %s"
              % (w, SEED, "equal" if counts1 == counts2 else "DIFFER",
                 "equal" if d1 == d2 else "DIFFERS", "ok" if ok else "FAIL"))
        if not ok:
            failures.append("%s: repeat runs differ or failed (%s vs %s)" % (w, counts1, counts2))
        code, r, _ = run(w, HOLD_OUT_SEED, 0)
        ok = code == 0 and r["correct"] and r["failed"] == 0 and r["attempted"] > 0
        print("%-12s hold-out seed %d: attempted %d, failed %d -> %s"
              % (w, HOLD_OUT_SEED, r["attempted"], r["failed"], "ok" if ok else "FAIL"))
        if not ok:
            failures.append("%s: hold-out seed run failed" % w)
    for f in failures:
        print("FAIL: " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
