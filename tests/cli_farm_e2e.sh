#!/bin/sh
# Farm end-to-end, run by ctest (cli_farm_e2e) and CI:
#
#  1. `--farm 4` writes one "anvil-events-v2" stream per worker, and
#     every stream plus the merged metrics/stats artifacts validate
#     against the schemas under docs/schemas/,
#  2. anvil_merge over the on-disk worker streams reproduces the
#     in-process merge byte-for-byte (metrics file, summary, report),
#     independent of the order the streams are fed in,
#  3. the farm merged report is byte-identical to the sequential
#     N-seed union: each seed run alone with --events, then merged,
#  4. `--farm 1` matches a plain single `--sim` run at the same seed,
#     down to the event stream itself (wall-clock fields excluded),
#     and — with contracts, --stats and the flight recorder on — down
#     to the sweep:/triage:/flight: lines and the window dumps' names
#     and bytes,
#  5. farm flag validation and configuration errors (an unknown
#     channel, cover point or slice) are usage errors (exit 2), not a
#     silent ignore or a per-worker failure,
#  6. a compiled farm (`--backend compiled`: four workers, one JIT'd
#     kernel object, a context each) prints the interpreter farm's
#     sim:, coverage and triage output, so clock-edge state leaked
#     into the shared object would show.
#
# Usage: cli_farm_e2e.sh <anvilc> <repo-root> <json_validate> <anvil_merge>
set -e
ANVILC="$1"
SRC="$2"
VALIDATE="$3"
MERGE="$4"
SCHEMAS="$SRC/docs/schemas"
DESIGN="$SRC/examples/quickstart.anvil"

# The deterministic closure block: everything from sim-summary on,
# minus the wall-clock-bearing stats line.
covblock() {
    sed -n '/^sim-summary /,$p' "$1" | grep -v '^stats-json '
}

# --- 1. Farm run + schema validation -------------------------------------

"$ANVILC" "$DESIGN" --sim 300 --farm 4 --seed-base 11 \
    --cov --stats-json --metrics farm4.metrics.json \
    --events farm4.events > farm4.log 2> farm4.err
for w in 0 1 2 3; do
    test -s "farm4.events.$w"
    "$VALIDATE" --lines "$SCHEMAS/events.schema.json" "farm4.events.$w"
done
grep '^stats-json ' farm4.log | sed 's/^stats-json //' \
    > farm4.stats.json
"$VALIDATE" "$SCHEMAS/stats.schema.json" farm4.stats.json
"$VALIDATE" "$SCHEMAS/metrics.schema.json" farm4.metrics.json
grep -q '"workers":4' farm4.stats.json
grep -q '^farm: 4 worker(s), 300 cycle(s) each, seeds 11..14' farm4.log
echo "farm worker streams and merged artifacts validate"

# --- 2. anvil_merge reproduces the in-process merge ----------------------

"$MERGE" --cov --metrics merge4.metrics.json \
    farm4.events.0 farm4.events.1 farm4.events.2 farm4.events.3 \
    > merge4.log 2> /dev/null
cmp farm4.metrics.json merge4.metrics.json
covblock farm4.log > farm4.block
covblock merge4.log > merge4.block
cmp farm4.block merge4.block

# Stream order must not matter — completion order of real workers
# never does.
"$MERGE" --cov --metrics merge4r.metrics.json \
    farm4.events.3 farm4.events.1 farm4.events.0 farm4.events.2 \
    > merge4r.log 2> /dev/null
cmp merge4.metrics.json merge4r.metrics.json
cmp merge4.log merge4r.log
echo "anvil_merge reproduces the in-process merge, order-independent"

# --- 3. Farm == sequential N-seed union ----------------------------------

"$ANVILC" "$DESIGN" --sim 300 --farm 2 --seed-base 11 \
    --cov --stats-json --metrics farm2.metrics.json \
    --events farm2.events > farm2.log 2> /dev/null
"$ANVILC" "$DESIGN" --sim 300 --seed 11 --cov --stats-json \
    --events seq11.events > /dev/null 2>&1
"$ANVILC" "$DESIGN" --sim 300 --seed 12 --cov --stats-json \
    --events seq12.events > /dev/null 2>&1
"$MERGE" --cov --metrics seq2.metrics.json seq11.events seq12.events \
    > seq2.log 2> /dev/null
covblock farm2.log > farm2.block
covblock seq2.log > seq2.block
cmp farm2.block seq2.block
"$VALIDATE" --canon farm2.metrics.json --drop timers_ns > farm2.canon
"$VALIDATE" --canon seq2.metrics.json --drop timers_ns > seq2.canon
cmp farm2.canon seq2.canon
echo "farm merge is byte-identical to the sequential seed union"

# --- 4. Farm N=1 == a plain single run -----------------------------------

"$ANVILC" "$DESIGN" --sim 300 --farm 1 --seed-base 11 \
    --cov --stats-json --metrics farm1.metrics.json \
    --events farm1.events > farm1.log 2> /dev/null
"$ANVILC" "$DESIGN" --sim 300 --seed 11 --cov --stats-json \
    --metrics single.metrics.json --events single.events \
    > single.log 2> /dev/null

covblock farm1.log > farm1.block
covblock single.log > single.block
cmp farm1.block single.block

"$VALIDATE" --canon farm1.metrics.json --drop timers_ns \
    > farm1.mcanon
"$VALIDATE" --canon single.metrics.json --drop timers_ns \
    > single.mcanon
cmp farm1.mcanon single.mcanon

grep '^stats-json ' farm1.log | sed 's/^stats-json //' \
    > farm1.stats.json
grep '^stats-json ' single.log | sed 's/^stats-json //' \
    > single.stats.json
"$VALIDATE" --canon farm1.stats.json \
    --drop wall_ns,cycles_per_sec > farm1.scanon
"$VALIDATE" --canon single.stats.json \
    --drop wall_ns,cycles_per_sec > single.scanon
cmp farm1.scanon single.scanon

# Even the raw event streams agree once wall-clock noise (timer
# events, the run_end wall) is stripped.
grep -v '"e":"timer"' single.events \
    | sed 's/"wall_ns":[0-9]*/"wall_ns":0/' > single.events.norm
grep -v '"e":"timer"' farm1.events.0 \
    | sed 's/"wall_ns":[0-9]*/"wall_ns":0/' > farm1.events.norm
cmp single.events.norm farm1.events.norm

# The same pair with contracts, --stats and the flight recorder: both
# runs fail by design ("ack within 1" is tighter than the server's
# ack), and each writes its window dumps under the same names in its
# own directory.
rm -rf farm1f singlef
mkdir farm1f singlef
set +e
(cd farm1f && "$ANVILC" "$DESIGN" --sim 300 --farm 1 --seed-base 11 \
    --stats --stats-json --contract 'io_pong: ack within 1' \
    --flight 16 --flight-out win > ../farm1f.log 2> /dev/null)
farm_status=$?
(cd singlef && "$ANVILC" "$DESIGN" --sim 300 --seed 11 \
    --stats --stats-json --contract 'io_pong: ack within 1' \
    --flight 16 --flight-out win > ../singlef.log 2> /dev/null)
single_status=$?
set -e
test "$farm_status" -eq 1
test "$single_status" -eq 1
report() {
    grep -E '^(sweep|triage|flight):|^  io_pong ' "$1"
}
report farm1f.log > farm1f.report
report singlef.log > singlef.report
grep -q '^sweep: ' singlef.report
grep -q '^triage: 1 signature' singlef.report
grep -q '^flight: worker 0: VIOLATION @' singlef.report
cmp farm1f.report singlef.report
(cd farm1f && ls) > farm1f.dumps
(cd singlef && ls) > singlef.dumps
grep -q '^win-0.vcd$' singlef.dumps
cmp farm1f.dumps singlef.dumps
for f in $(cat singlef.dumps); do
    cmp "farm1f/$f" "singlef/$f"
done
grep '^stats-json ' farm1f.log | sed 's/^stats-json //' \
    > farm1f.stats.json
grep '^stats-json ' singlef.log | sed 's/^stats-json //' \
    > singlef.stats.json
"$VALIDATE" --canon farm1f.stats.json \
    --drop wall_ns,cycles_per_sec > farm1f.scanon
"$VALIDATE" --canon singlef.stats.json \
    --drop wall_ns,cycles_per_sec > singlef.scanon
cmp farm1f.scanon singlef.scanon
echo "farm 1 worker is byte-identical to a plain single run"

# --- 5. Flag validation --------------------------------------------------

set +e
"$ANVILC" "$DESIGN" --farm 2 2> farm_usage.log
test "$?" -eq 2 || { echo "--farm without --sim not rejected" >&2; \
                     exit 1; }
grep -q 'requires --sim' farm_usage.log
"$ANVILC" "$DESIGN" --sim 50 --seed-base 3 2> seedbase_usage.log
test "$?" -eq 2 || { echo "--seed-base without --farm not rejected" \
                     >&2; exit 1; }
grep -q 'requires --farm' seedbase_usage.log
# Configuration errors raised while wiring a job leave the farm as a
# usage error, once, not as one failed job per worker.
"$ANVILC" "$DESIGN" --sim 50 --farm 2 --cov --flight 8 \
    --dump-on cover:nosuch 2> farm_cover.log
test "$?" -eq 2 || { echo "unknown cover trigger not rejected" >&2; \
                     exit 1; }
grep -q 'no such cover point' farm_cover.log
if grep -q 'worker' farm_cover.log; then
    echo "cover trigger error reported per worker" >&2; exit 1
fi
"$ANVILC" "$DESIGN" --sim 50 --farm 2 --contract 'nosuch: stable' \
    2> farm_contract.log
test "$?" -eq 2 || { echo "unknown contract channel not rejected" \
                     >&2; exit 1; }
grep -q "'nosuch'" farm_contract.log
if grep -q 'worker' farm_contract.log; then
    echo "contract error reported per worker" >&2; exit 1
fi
"$ANVILC" "$DESIGN" --sim 50 --slice no_such_channel \
    --vcd farm_bogus.vcd 2> farm_slice.log
test "$?" -eq 2 || { echo "unknown slice channel not rejected" >&2; \
                     exit 1; }
grep -q 'no signals for channel' farm_slice.log
set -e
echo "farm flag validation rejects inconsistent invocations"

# --- 6. Compiled farm == interpreter farm --------------------------------

"$ANVILC" "$DESIGN" --sim 300 --farm 4 --seed-base 11 --cov --stats \
    --contracts > farmi.log 2> /dev/null
"$ANVILC" "$DESIGN" --sim 300 --farm 4 --seed-base 11 --cov --stats \
    --contracts --backend compiled > farmc.log 2> /dev/null
grep -q '^sweep: .*backend=compiled' farmc.log
grep -q '^sim: 1200 cycles' farmc.log
grep -q '^triage: ' farmc.log
# Everything but the sweep:/sweep-kernel: lines, which name the
# backend and its own activity counters.
grep -v '^sweep' farmi.log > farmi.report
grep -v '^sweep' farmc.log > farmc.report
cmp farmi.report farmc.report
echo "compiled farm matches the interpreter farm"
