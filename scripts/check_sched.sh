#!/bin/sh
# End-to-end gate for the schedulability layer. Exercises the real
# binary the way an operator would:
#
#   1. sched generate twice                   -> bit-identical task sets
#      (pure function of seed and index)
#   2. cold analyze with Monte-Carlo + JSON,
#      then a warm rerun                      -> analytic bounds hold,
#                                                bit-identical JSON
#   3. kill -9 mid-campaign (--crash-after)   -> exit 137, no partial
#                                                JSON
#   4. --resume of the killed campaign        -> journal replayed,
#                                                bit-identical JSON and
#                                                stdout
#   5. daemon bulk sched round trip           -> digest identical to the
#                                                direct CLI run; the
#                                                repeat is served from
#                                                cache, not recomputed;
#                                                with every other campaign
#                                                option set too, still
#                                                identical to the CLI
#   6. budget-starved campaign                -> completes degraded
#                                                (exit 0, every set on
#                                                upper bounds), no abort
#   7. SIGINT mid-campaign, with and without
#      a journal                              -> exit 130, no JSON; the
#                                                journaled one resumes to
#                                                JSON identical to an
#                                                uninterrupted run
#
# Any deviation exits non-zero, failing `make check`.
set -eu

TOOL=${1:?usage: check_sched.sh path/to/pwcet_tool.exe}
WORK=$(mktemp -d)
SRV_PID=
cleanup() {
  if [ -n "$SRV_PID" ]; then kill -9 "$SRV_PID" 2> /dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

CACHE="$WORK/cache"
SOCK="$WORK/daemon.sock"
SPEC="--count 6 --n-tasks 3 --seed 11 --benchmarks fibcall,bs,cnt,crc \
  --sets 8 --ways 2 --k-max 2 --max-points 128"

fail() { echo "check_sched: FAIL: $*" >&2; exit 1; }

# --- 1. generation is a pure function of (seed, index) -----------------------
"$TOOL" sched generate $SPEC > "$WORK/gen1.out" || fail "generate failed"
"$TOOL" sched generate $SPEC > "$WORK/gen2.out" || fail "generate failed"
cmp -s "$WORK/gen1.out" "$WORK/gen2.out" || fail "generate is not deterministic"

# --- 2. cold analyze (+ Monte-Carlo cross-validation), warm rerun ------------
"$TOOL" sched analyze $SPEC --mc-samples 2000 --cache-dir "$CACHE" \
  --json "$WORK/cold.json" > "$WORK/cold.out" 2> /dev/null \
  || fail "cold analyze failed"
grep -q "analytic bounds hold" "$WORK/cold.out" \
  || fail "Monte-Carlo cross-validation did not pass"
digest=$(awk '/^digest/ { print $3 }' "$WORK/cold.out")
[ -n "$digest" ] || fail "no campaign digest reported"
"$TOOL" sched analyze $SPEC --cache-dir "$CACHE" --json "$WORK/warm.json" \
  > "$WORK/warm.out" 2> /dev/null || fail "warm analyze failed"
cmp -s "$WORK/cold.json" "$WORK/warm.json" || fail "warm JSON differs from cold"

# --- 3+4. kill -9 mid-campaign, then resume ----------------------------------
rm -rf "$CACHE"
set +e
"$TOOL" sched analyze $SPEC --cache-dir "$CACHE" --crash-after 3 \
  --json "$WORK/crashed.json" > /dev/null 2>&1
status=$?
set -e
[ "$status" -eq 137 ] || fail "--crash-after did not die by SIGKILL (exit $status)"
[ ! -e "$WORK/crashed.json" ] || fail "partial JSON emitted by a killed campaign"
"$TOOL" sched analyze $SPEC --cache-dir "$CACHE" --resume \
  --json "$WORK/resumed.json" > "$WORK/resumed.out" 2> "$WORK/resumed.err" \
  || fail "resume failed"
grep -q "resuming" "$WORK/resumed.err" || fail "resume did not replay the journal"
cmp -s "$WORK/cold.json" "$WORK/resumed.json" || fail "resumed JSON differs"
sed 's/resumed\.json/warm.json/' "$WORK/resumed.out" | cmp -s - "$WORK/warm.out" \
  || fail "resumed stdout differs"

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
"$TOOL" client -s "$SOCK" sched $SPEC > "$WORK/svc1.out" || fail "daemon sched failed"
grep -q "computed : true" "$WORK/svc1.out" || fail "first daemon sched did not compute"
svc_digest=$(awk '/^digest/ { print $3 }' "$WORK/svc1.out")
[ "$svc_digest" = "$digest" ] || fail "daemon digest $svc_digest != CLI digest $digest"
"$TOOL" client -s "$SOCK" sched $SPEC > "$WORK/svc2.out" || fail "daemon sched repeat failed"
grep -q "computed : false" "$WORK/svc2.out" || fail "daemon repeat recomputed the campaign"
svc_digest2=$(awk '/^digest/ { print $3 }' "$WORK/svc2.out")
[ "$svc_digest2" = "$digest" ] || fail "cached daemon digest differs"
# Every campaign option SPEC leaves at its default, set away from it:
# the client sends the spec the CLI would run, field for field.
CUSTOM="--utilisation 0.5 --policy edf --reexec 2 --targets 1e-4,1e-6 --pfail 2e-4 \
  --mechanism rw --line 32 --fault-rate 2e-4 --clock-mhz 200 --rep-target 1e-8"
"$TOOL" sched analyze $SPEC $CUSTOM > "$WORK/custom.out" 2> /dev/null \
  || fail "custom-spec analyze failed"
custom_digest=$(awk '/^digest/ { print $3 }' "$WORK/custom.out")
[ -n "$custom_digest" ] || fail "no custom campaign digest reported"
[ "$custom_digest" != "$digest" ] || fail "custom options did not change the campaign"
"$TOOL" client -s "$SOCK" sched $SPEC $CUSTOM > "$WORK/svc3.out" \
  || fail "daemon custom sched failed"
svc_digest3=$(awk '/^digest/ { print $3 }' "$WORK/svc3.out")
[ "$svc_digest3" = "$custom_digest" ] \
  || fail "daemon custom digest $svc_digest3 != CLI digest $custom_digest"
kill -TERM "$SRV_PID"
set +e
wait "$SRV_PID"
set -e
SRV_PID=

# --- 6. budget starvation degrades, never aborts -----------------------------
"$TOOL" sched analyze $SPEC --timeout 0.000001 > "$WORK/starved.out" 2> /dev/null \
  || fail "budget-starved campaign did not exit 0"
grep -q "degraded    : 6 set(s)" "$WORK/starved.out" \
  || fail "budget-starved campaign did not degrade every set"

# --- 7. SIGINT cancels a campaign within one set, journal or not -------------
# The campaign runs for many times the signal delay, so the signal lands
# mid-campaign. The resume hint is printed only when a journal exists.
LONG="--count 200 --n-tasks 3 --seed 11 --benchmarks fibcall,bs,cnt,crc \
  --sets 8 --ways 2 --k-max 2 --max-points 128 --jobs 2"
interrupt() {  # interrupt NAME [OPTION...]: SIGINT after 0.5 s, expect a clean cancel
  name=$1
  shift
  "$TOOL" sched analyze $LONG "$@" --json "$WORK/$name.json" > /dev/null 2> "$WORK/$name.err" &
  pid=$!
  sleep 0.5
  kill -INT "$pid"
  set +e
  wait "$pid"
  status=$?
  set -e
  [ "$status" -eq 130 ] || fail "$name campaign exited $status on SIGINT, want 130"
  grep -q "cancelled by signal" "$WORK/$name.err" || fail "$name campaign did not cancel cleanly"
  [ ! -e "$WORK/$name.json" ] || fail "JSON emitted by a cancelled $name campaign"
}
interrupt unjournaled
! grep -q -- "--resume" "$WORK/unjournaled.err" || fail "resume hint without a journal"
rm -rf "$CACHE"
interrupt journaled --cache-dir "$CACHE"
grep -q -- "--resume" "$WORK/journaled.err" || fail "no resume hint for a journaled campaign"
"$TOOL" sched analyze $LONG --cache-dir "$CACHE" --resume --json "$WORK/long_resumed.json" \
  > /dev/null 2>&1 || fail "resume of the cancelled campaign failed"
"$TOOL" sched analyze $LONG --json "$WORK/long.json" > /dev/null 2>&1 \
  || fail "uninterrupted long campaign failed"
cmp -s "$WORK/long.json" "$WORK/long_resumed.json" \
  || fail "resumed JSON differs from an uninterrupted run"

echo "check_sched: OK (generate/analyze/kill-9/resume/daemon/starved/cancel all clean)"
