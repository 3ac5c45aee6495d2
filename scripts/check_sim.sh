#!/bin/sh
# End-to-end gate for the batched fault-injection campaigns. Exercises
# the real binary the way an operator would:
#
#   1. validate on two benchmarks at a small geometry -> exit 0, every
#      campaign "ok", zero per-pattern bound violations and the
#      empirical exceedance curve under the analytic pWCET
#   2. the same run with --jobs 2                     -> bit-identical
#      campaign digests (jobs-determinism, checked on the digest lines
#      because timing fields make raw output incomparable)
#
# The replay's per-sample cycles are held to the reference interpreter
# and caches, and these six digests are pinned, by test/test_sim.ml.
#
# Any deviation exits non-zero, failing `make check`.
set -eu

TOOL=${1:?usage: check_sim.sh path/to/pwcet_tool.exe}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

ARGS="fibcall crc --samples 20000 --sets 8 --ways 2"

fail() { echo "check_sim: FAIL: $*" >&2; exit 1; }

digests() { grep -o 'digest [0-9a-f]*' "$1"; }

# --- 1. campaigns hold against the analytic curve ----------------------------
"$TOOL" validate $ARGS --jobs 1 --json "$WORK/sim.json" \
  > "$WORK/j1.out" 2>&1 || fail "validate exited non-zero: $(cat "$WORK/j1.out")"
grep -q "validate passed" "$WORK/j1.out" || fail "no pass banner"
grep -q "FAIL" "$WORK/j1.out" && fail "a campaign failed despite exit 0"
grep -q '"curve_ok": false' "$WORK/sim.json" && fail "curve_ok false in JSON"
grep -q '"bound_violations": 0' "$WORK/sim.json" || fail "bound violations in JSON"
[ "$(digests "$WORK/j1.out" | wc -l)" -eq 6 ] || fail "expected 6 campaign digests"

# --- 2. jobs-determinism ------------------------------------------------------
"$TOOL" validate $ARGS --jobs 2 > "$WORK/j2.out" 2>&1 \
  || fail "validate --jobs 2 exited non-zero"
digests "$WORK/j1.out" > "$WORK/d1"
digests "$WORK/j2.out" > "$WORK/d2"
cmp -s "$WORK/d1" "$WORK/d2" || fail "--jobs 2 digests differ from --jobs 1"

echo "check_sim: OK (bounds hold, jobs-deterministic)"
