#!/bin/sh
# End-to-end crash-safety gate for the artifact store and resume
# journal. Exercises the real binary the way an operator would:
#
#   1. cold run with a cache, warm rerun           -> bit-identical JSON,
#                                                     warm run writes nothing
#   2. --no-cache run                              -> bit-identical JSON
#   3. kill -9 mid-run (--crash-after, which also
#      leaves a deliberately torn journal record)  -> no partial JSON
#   4. --resume of the killed run                  -> bit-identical JSON and
#                                                     bit-identical stdout
#   5. a corrupted object                          -> cache verify exits 1,
#      the next run quarantines + recomputes       -> bit-identical JSON
#   6. suite kill -9 + --resume                    -> bit-identical table
#   7. analyze cold, warm and --no-cache           -> identical stdout,
#                                                     warm run writes nothing
#
# Any deviation exits non-zero, failing `make check`.
set -eu

TOOL=${1:?usage: check_store.sh path/to/pwcet_tool.exe}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

CACHE="$WORK/cache"
SWEEP_ARGS="--pfail-grid 1e-5,1e-4,1e-3 --sets 8 --ways 2"

fail() { echo "check_store: FAIL: $*" >&2; exit 1; }

# --- 1. cold vs warm ---------------------------------------------------------
"$TOOL" sweep fibcall $SWEEP_ARGS --cache-dir "$CACHE" --json "$WORK/cold.json" \
  > "$WORK/cold.out" 2> "$WORK/cold.err"
"$TOOL" sweep fibcall $SWEEP_ARGS --cache-dir "$CACHE" --json "$WORK/warm.json" \
  > "$WORK/warm.out" 2> "$WORK/warm.err"
cmp -s "$WORK/cold.json" "$WORK/warm.json" || fail "warm JSON differs from cold"
grep -q ", 0 writes" "$WORK/warm.err" || fail "warm run recomputed artifacts"

# --- 2. --no-cache bit-identity ---------------------------------------------
"$TOOL" sweep fibcall $SWEEP_ARGS --cache-dir "$CACHE" --no-cache \
  --json "$WORK/nocache.json" > /dev/null 2>&1
cmp -s "$WORK/cold.json" "$WORK/nocache.json" || fail "--no-cache JSON differs"

# --- 3+4. kill -9 mid-sweep, then resume ------------------------------------
rm -rf "$CACHE"
set +e
"$TOOL" sweep fibcall $SWEEP_ARGS --cache-dir "$CACHE" --crash-after 4 \
  --json "$WORK/crashed.json" > /dev/null 2>&1
status=$?
set -e
[ "$status" -eq 137 ] || fail "--crash-after did not die by SIGKILL (exit $status)"
[ ! -e "$WORK/crashed.json" ] || fail "partial JSON emitted by a killed run"
"$TOOL" sweep fibcall $SWEEP_ARGS --cache-dir "$CACHE" --resume \
  --json "$WORK/resumed.json" > "$WORK/resumed.out" 2> "$WORK/resumed.err"
grep -q "resuming" "$WORK/resumed.err" || fail "resume did not replay the journal"
cmp -s "$WORK/cold.json" "$WORK/resumed.json" || fail "resumed JSON differs"
sed 's/resumed\.json/cold.json/' "$WORK/resumed.out" | cmp -s - "$WORK/cold.out" \
  || fail "resumed stdout differs"

# --- 5. corruption: verify flags it, the next run routes around it -----------
victim=$(find "$CACHE/objects" -type f | head -n 1)
[ -n "$victim" ] || fail "no objects to corrupt"
printf 'X' | dd of="$victim" bs=1 seek=40 conv=notrunc 2> /dev/null
set +e
"$TOOL" cache verify --cache-dir "$CACHE" > "$WORK/verify.out" 2>&1
status=$?
set -e
[ "$status" -eq 1 ] || fail "cache verify must exit 1 on corruption (exit $status)"
grep -q "1 corrupt" "$WORK/verify.out" || fail "cache verify missed the corruption"
"$TOOL" sweep fibcall $SWEEP_ARGS --cache-dir "$CACHE" --json "$WORK/healed.json" \
  > /dev/null 2>&1
cmp -s "$WORK/cold.json" "$WORK/healed.json" || fail "post-corruption JSON differs"

# --- 6. suite kill -9 + resume ----------------------------------------------
SUITE_ARGS="--sets 4 --ways 2"
"$TOOL" suite $SUITE_ARGS > "$WORK/suite_ref.out" 2> /dev/null
rm -rf "$CACHE"
set +e
"$TOOL" suite $SUITE_ARGS --cache-dir "$CACHE" --crash-after 3 > /dev/null 2>&1
status=$?
set -e
[ "$status" -eq 137 ] || fail "suite --crash-after did not die by SIGKILL"
"$TOOL" suite $SUITE_ARGS --cache-dir "$CACHE" --resume > "$WORK/suite_res.out" \
  2> "$WORK/suite_res.err"
grep -q "resuming" "$WORK/suite_res.err" || fail "suite resume did not replay"
cmp -s "$WORK/suite_ref.out" "$WORK/suite_res.out" || fail "resumed suite table differs"

# --- 7. analyze: laws built on read are stored and served -------------------
# analyze reads each law at its target only, so it stores the cut laws;
# the warm run must serve them and write nothing.
ANALYZE_ARGS="fibcall --sets 8 --ways 2"
rm -rf "$CACHE"
"$TOOL" analyze $ANALYZE_ARGS --cache-dir "$CACHE" > "$WORK/an_cold.out" 2> /dev/null
"$TOOL" analyze $ANALYZE_ARGS --cache-dir "$CACHE" > "$WORK/an_warm.out" 2> "$WORK/an_warm.err"
cmp -s "$WORK/an_cold.out" "$WORK/an_warm.out" || fail "warm analyze stdout differs from cold"
grep -q ", 0 writes" "$WORK/an_warm.err" || fail "warm analyze recomputed artifacts"
"$TOOL" analyze $ANALYZE_ARGS --cache-dir "$CACHE" --no-cache > "$WORK/an_nocache.out" \
  2> /dev/null
cmp -s "$WORK/an_cold.out" "$WORK/an_nocache.out" || fail "--no-cache analyze stdout differs"

echo "check_store: OK (cold/warm/no-cache/kill-9/resume/corruption/analyze all bit-identical)"
