#!/bin/sh
# End-to-end gate for the cross-configuration grid engine. Exercises
# the real binary the way an operator would:
#
#   1. cold grid with store + JSON, warm rerun -> bit-identical JSON
#      (the store read-through must be invisible in the results)
#   2. --verify (fibcall, and fft at 32x4)     -> every cell equal to an
#                                                 independent estimate
#   3. kill -9 mid-grid (--crash-after)        -> exit 137, no partial
#                                                 JSON
#   4. --resume of the killed grid             -> journal replayed,
#                                                 bit-identical matrix
#   5. daemon bulk grid round trip             -> digest identical to
#                                                 the direct CLI run;
#                                                 the repeat is served
#                                                 from cache, not
#                                                 recomputed
#   6. budget-starved grid                     -> completes degraded
#                                                 (exit 0), no abort
#
# Any deviation exits non-zero, failing `make check`.
set -eu

TOOL=${1:?usage: check_grid.sh path/to/pwcet_tool.exe}
WORK=$(mktemp -d)
SRV_PID=
cleanup() {
  if [ -n "$SRV_PID" ]; then kill -9 "$SRV_PID" 2> /dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

CACHE="$WORK/cache"
SOCK="$WORK/daemon.sock"
AXES="--geometries 8x2x16,4x4x16 --mechanisms all --pfail-grid 1e-5,1e-4"

fail() { echo "check_grid: FAIL: $*" >&2; exit 1; }

# --- 1. cold grid with store + JSON, warm rerun ------------------------------
"$TOOL" grid fibcall bs $AXES --cache-dir "$CACHE" --json "$WORK/cold.json" \
  > "$WORK/cold.out" 2> /dev/null || fail "cold grid failed"
digest=$(awk '/^digest/ { print $3 }' "$WORK/cold.out")
[ -n "$digest" ] || fail "no matrix digest reported"
"$TOOL" grid fibcall bs $AXES --cache-dir "$CACHE" --json "$WORK/warm.json" \
  > "$WORK/warm.out" 2> /dev/null || fail "warm grid failed"
cmp -s "$WORK/cold.json" "$WORK/warm.json" || fail "warm JSON differs from cold"

# --- 2. every cell bit-identical to an independent estimate ------------------
"$TOOL" grid fibcall $AXES --verify > "$WORK/verify.out" 2> /dev/null \
  || fail "--verify found a mismatch"
grep -q "bit-identical to independent estimates" "$WORK/verify.out" \
  || fail "--verify did not report the cross-check"
# fibcall's laws are small. fft's at 32x4 are large, and without
# protection its whole laws reach the convolution cap while its cut
# laws do not. The digest was taken when grid cells still built
# whole laws.
"$TOOL" grid fft --geometries 32x4x16 --mechanisms all --pfail-grid 1e-4,1e-3 --verify \
  > "$WORK/verify_fft.out" 2> /dev/null || fail "--verify found a mismatch on fft"
grep -q "bit-identical to independent estimates" "$WORK/verify_fft.out" \
  || fail "--verify did not report the fft cross-check"
fft_digest=$(awk '/^digest/ { print $3 }' "$WORK/verify_fft.out")
[ "$fft_digest" = "1719e6ceb69fed26c3f3da728fc9b39b" ] \
  || fail "fft 32x4 cut-law digest $fft_digest differs from the whole-law one"

# --- 3+4. kill -9 mid-grid, then resume --------------------------------------
rm -rf "$CACHE"
set +e
"$TOOL" grid fibcall bs $AXES --cache-dir "$CACHE" --crash-after 3 \
  --json "$WORK/crashed.json" > /dev/null 2>&1
status=$?
set -e
[ "$status" -eq 137 ] || fail "--crash-after did not die by SIGKILL (exit $status)"
[ ! -e "$WORK/crashed.json" ] || fail "partial JSON emitted by a killed grid"
"$TOOL" grid fibcall bs $AXES --cache-dir "$CACHE" --resume \
  --json "$WORK/resumed.json" > "$WORK/resumed.out" 2> "$WORK/resumed.err" \
  || fail "resume failed"
grep -q "resuming" "$WORK/resumed.err" || fail "resume did not replay the journal"
cmp -s "$WORK/cold.json" "$WORK/resumed.json" || fail "resumed matrix differs"
resumed_digest=$(awk '/^digest/ { print $3 }' "$WORK/resumed.out")
[ "$resumed_digest" = "$digest" ] || fail "resumed digest differs"

# --- 5. daemon bulk round trip: digest-identical to the CLI ------------------
"$TOOL" serve -s "$SOCK" --domains 2 --cache-dir "$WORK/srv_cache" \
  > "$WORK/serve.out" 2>&1 &
SRV_PID=$!
i=0
until "$TOOL" client -s "$SOCK" ping > /dev/null 2>&1; do
  i=$((i + 1))
  [ "$i" -le 100 ] || fail "daemon did not answer ping within 10s"
  kill -0 "$SRV_PID" 2> /dev/null || fail "daemon died at startup: $(cat "$WORK/serve.out")"
  sleep 0.1
done
"$TOOL" client -s "$SOCK" grid --grid-benchmarks fibcall,bs \
  --grid-geometries 8x2x16,4x4x16 --grid-mechanisms all --grid-pfails 1e-5,1e-4 \
  > "$WORK/svc1.out" || fail "daemon grid failed"
grep -q "computed : true" "$WORK/svc1.out" || fail "first daemon grid did not compute"
svc_digest=$(awk '/^digest/ { print $3 }' "$WORK/svc1.out")
[ "$svc_digest" = "$digest" ] || fail "daemon digest $svc_digest != CLI digest $digest"
"$TOOL" client -s "$SOCK" grid --grid-benchmarks fibcall,bs \
  --grid-geometries 8x2x16,4x4x16 --grid-mechanisms all --grid-pfails 1e-5,1e-4 \
  > "$WORK/svc2.out" || fail "daemon grid repeat failed"
grep -q "computed : false" "$WORK/svc2.out" || fail "daemon repeat recomputed the grid"
svc_digest2=$(awk '/^digest/ { print $3 }' "$WORK/svc2.out")
[ "$svc_digest2" = "$digest" ] || fail "cached daemon digest differs"
kill -TERM "$SRV_PID"
set +e
wait "$SRV_PID"
set -e
SRV_PID=

# --- 6. budget starvation degrades, never aborts -----------------------------
"$TOOL" grid fibcall bs $AXES --timeout 0.000001 > "$WORK/starved.out" 2> /dev/null \
  || fail "budget-starved grid did not exit 0"
grep -q "degraded:" "$WORK/starved.out" \
  || fail "budget-starved grid reported no degraded cells"
grep -q "(0 replayed, 0 failed)" "$WORK/starved.out" \
  || fail "budget-starved grid dropped cells instead of degrading them"

echo "check_grid: OK (cold/warm/verify/kill-9/resume/daemon/starved all clean)"
