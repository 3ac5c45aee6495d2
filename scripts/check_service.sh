#!/bin/sh
# End-to-end gate for the analysis daemon. Exercises the real binary
# the way an operator would:
#
#   1. serve on a temp socket with a store      -> readiness via ping
#   2. analyze round trip, then a warm repeat   -> identical pWCET line,
#                                                  repeat not recomputed
#      then at a target below the memo's floor  -> pWCET line equal to a
#      (1e-20)                                     direct `analyze`, and a
#                                                  default-target repeat
#                                                  not recomputed
#      then the same benchmark at a second      -> computed (stats delta
#      geometry                                    1), pWCET line equal to
#                                                  a direct `analyze`
#      then with --mechanism srb                -> reply names srb, pWCET
#                                                  line equal to the direct
#                                                  SRB line
#   3. 6 concurrent identical requests          -> exactly 1 computation
#      (client --bench + --delay-ms)               (stats delta)
#   4. SIGTERM                                  -> exit 130, socket file
#                                                  removed, "clean
#                                                  shutdown" reported,
#                                                  store passes verify
#   5. client against the dead socket           -> typed failure, exit 1
#
# Any deviation exits non-zero, failing `make check`.
set -eu

TOOL=${1:?usage: check_service.sh path/to/pwcet_tool.exe}
WORK=$(mktemp -d)
SRV_PID=
cleanup() {
  if [ -n "$SRV_PID" ]; then kill -9 "$SRV_PID" 2> /dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

SOCK="$WORK/daemon.sock"
CACHE="$WORK/cache"
GEOM="--sets 8 --ways 2"
GEOM2="--sets 16 --ways 4"

fail() { echo "check_service: FAIL: $*" >&2; exit 1; }

# --- 1. start + readiness ----------------------------------------------------
"$TOOL" serve -s "$SOCK" --domains 2 --cache-dir "$CACHE" > "$WORK/serve.out" 2>&1 &
SRV_PID=$!
i=0
until "$TOOL" client -s "$SOCK" ping > /dev/null 2>&1; do
  i=$((i + 1))
  [ "$i" -le 100 ] || fail "daemon did not answer ping within 10s"
  kill -0 "$SRV_PID" 2> /dev/null || fail "daemon died at startup: $(cat "$WORK/serve.out")"
  sleep 0.1
done

# --- 2. analyze round trip + warm repeat -------------------------------------
"$TOOL" client -s "$SOCK" analyze crc $GEOM > "$WORK/cold.out" \
  || fail "cold analyze failed"
grep -q "computed       : true" "$WORK/cold.out" || fail "cold request did not compute"
"$TOOL" client -s "$SOCK" analyze crc $GEOM > "$WORK/warm.out" \
  || fail "warm analyze failed"
grep -q "computed       : false" "$WORK/warm.out" || fail "warm repeat recomputed"
grep "pWCET" "$WORK/cold.out" > "$WORK/cold.pwcet"
grep "pWCET" "$WORK/warm.out" > "$WORK/warm.pwcet"
cmp -s "$WORK/cold.pwcet" "$WORK/warm.pwcet" || fail "warm pWCET differs from cold"

# The memo holds each law cut at a floor of 1e-18: a target below it is
# answered from a deeper cut, equal to the direct pipeline's, and the
# default target still reads the memo afterwards.
"$TOOL" client -s "$SOCK" analyze crc $GEOM --target 1e-20 > "$WORK/deep.out" \
  || fail "analyze at 1e-20 failed"
"$TOOL" analyze crc $GEOM --target 1e-20 > "$WORK/direct_deep.out" \
  || fail "direct analyze at 1e-20 failed"
grep "^no protection" "$WORK/direct_deep.out" | sed 's/.*pWCET/pWCET/' > "$WORK/direct_deep.pwcet"
grep "pWCET" "$WORK/deep.out" > "$WORK/deep.pwcet"
[ -s "$WORK/direct_deep.pwcet" ] || fail "no pWCET line in direct analyze output at 1e-20"
cmp -s "$WORK/direct_deep.pwcet" "$WORK/deep.pwcet" \
  || fail "pWCET at 1e-20 differs from direct analyze"
"$TOOL" client -s "$SOCK" analyze crc $GEOM > "$WORK/after_deep.out" \
  || fail "default-target analyze after 1e-20 failed"
grep -q "computed       : false" "$WORK/after_deep.out" \
  || fail "default-target request after 1e-20 recomputed"

# The daemon memoises each compiled program, never an identity: a second
# geometry must key its own computation and match the direct pipeline.
stat_of() { awk -v k="$1" '$1 == k { print $3 }' "$2"; }
"$TOOL" client -s "$SOCK" stats > "$WORK/geo0.out" || fail "stats failed"
"$TOOL" client -s "$SOCK" analyze crc $GEOM2 > "$WORK/geo2.out" \
  || fail "second-geometry analyze failed"
"$TOOL" client -s "$SOCK" stats > "$WORK/geo1.out" || fail "stats failed"
grep -q "computed       : true" "$WORK/geo2.out" || fail "second geometry was not computed"
geo_delta=$(($(stat_of computations "$WORK/geo1.out") - $(stat_of computations "$WORK/geo0.out")))
[ "$geo_delta" -eq 1 ] || fail "second geometry ran $geo_delta computations, want 1"
"$TOOL" analyze crc $GEOM2 > "$WORK/direct2.out" || fail "direct analyze failed"
grep "^no protection" "$WORK/direct2.out" | sed 's/.*pWCET/pWCET/' > "$WORK/direct2.pwcet"
grep "pWCET" "$WORK/geo2.out" > "$WORK/geo2.pwcet"
[ -s "$WORK/direct2.pwcet" ] || fail "no pWCET line in direct analyze output"
cmp -s "$WORK/direct2.pwcet" "$WORK/geo2.pwcet" \
  || fail "second-geometry pWCET differs from direct analyze"

# --mechanism reaches the analyze op: the reply is for SRB, not for the
# unprotected cache, and matches the direct pipeline's SRB line.
"$TOOL" client -s "$SOCK" analyze crc $GEOM2 --mechanism srb > "$WORK/srb.out" \
  || fail "SRB analyze failed"
grep -q "^mechanism      : srb$" "$WORK/srb.out" || fail "--mechanism srb was not applied"
grep "^shared reliable buffer" "$WORK/direct2.out" | sed 's/.*pWCET/pWCET/' > "$WORK/direct_srb.pwcet"
grep "pWCET" "$WORK/srb.out" > "$WORK/srb.pwcet"
[ -s "$WORK/direct_srb.pwcet" ] || fail "no SRB pWCET line in direct analyze output"
cmp -s "$WORK/direct_srb.pwcet" "$WORK/srb.pwcet" || fail "SRB pWCET differs from direct analyze"

# --- 3. concurrent identical requests -> one computation ---------------------
"$TOOL" client -s "$SOCK" stats > "$WORK/stats0.out" || fail "stats failed"
"$TOOL" client -s "$SOCK" analyze fibcall $GEOM --pfail 2e-4 --delay-ms 400 \
  --bench --clients 6 --requests 1 > "$WORK/load.out" || fail "concurrent load failed"
"$TOOL" client -s "$SOCK" stats > "$WORK/stats1.out" || fail "stats failed"
comp_delta=$(($(stat_of computations "$WORK/stats1.out") - $(stat_of computations "$WORK/stats0.out")))
[ "$comp_delta" -eq 1 ] || fail "6 identical concurrent requests ran $comp_delta computations"
grep -q "(6 ok:" "$WORK/load.out" || fail "not every concurrent request was answered"

# --- 4. SIGTERM: clean shutdown, consistent store ----------------------------
kill -TERM "$SRV_PID"
set +e
wait "$SRV_PID"
status=$?
set -e
SRV_PID=
[ "$status" -eq 130 ] || fail "serve exited $status on SIGTERM, want 130"
[ ! -e "$SOCK" ] || fail "socket file left behind after shutdown"
grep -q "clean shutdown" "$WORK/serve.out" || fail "no clean-shutdown report"
"$TOOL" cache verify --cache-dir "$CACHE" > "$WORK/verify.out" 2>&1 \
  || fail "store inconsistent after SIGTERM: $(cat "$WORK/verify.out")"

# --- 5. dead socket fails typed, not silent ----------------------------------
set +e
"$TOOL" client -s "$SOCK" ping > /dev/null 2> "$WORK/dead.err"
status=$?
set -e
[ "$status" -eq 1 ] || fail "client against a dead daemon exited $status, want 1"
grep -q "cannot connect" "$WORK/dead.err" || fail "no connection diagnostic"

echo "check_service: OK (serve/ping/warm-repeat/geometry/mechanism/dedup/SIGTERM/verify all clean)"
