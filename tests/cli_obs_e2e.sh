#!/bin/sh
# Observability end-to-end, run by ctest (cli_obs_e2e) and CI:
#
#  1. run a seeded sim of each eval design with every telemetry sink
#     on (--metrics, --profile, --stats-json) and validate all three
#     JSON artifacts against the schemas under docs/schemas/ with the
#     in-tree json_validate tool,
#  2. rerun at the same seed: the metrics document minus its
#     "timers_ns" section, and the stats line minus its wall-clock
#     fields, must be byte-identical (canonical-form compare),
#  3. --slice extracts exactly one channel's signals into a
#     standalone VCD, and an unknown channel, contract channel or
#     cover trigger is a usage error, under --farm too,
#  4. the flight loop closes: a run with a deliberately violated
#     contract and --flight dumps a trigger window, the events
#     stream carries v2 window_dump records, --profile-hot's report
#     validates against hot.schema.json, and --check-trace on the
#     window VCD reproduces the violation (exit 1),
#  5. a --replay run's telemetry (--metrics, --profile, --stats-json,
#     --profile-hot) validates against the same schemas.
#
# Usage: cli_obs_e2e.sh <path-to-anvilc> <repo-root> <json_validate>
set -e
ANVILC="$1"
SRC="$2"
VALIDATE="$3"
SCHEMAS="$SRC/docs/schemas"

for design in quickstart listing2; do
    "$ANVILC" "$SRC/examples/$design.anvil" --sim 400 --seed 7 \
        --cov \
        --metrics "obs_$design.metrics.json" \
        --profile "obs_$design.trace.json" \
        --events "obs_$design.events" \
        --stats-json > "obs_$design.log"
    grep '^stats-json ' "obs_$design.log" | sed 's/^stats-json //' \
        > "obs_$design.stats.json"
    "$VALIDATE" "$SCHEMAS/metrics.schema.json" \
        "obs_$design.metrics.json"
    "$VALIDATE" "$SCHEMAS/profile.schema.json" \
        "obs_$design.trace.json"
    "$VALIDATE" "$SCHEMAS/stats.schema.json" \
        "obs_$design.stats.json"
    "$VALIDATE" --lines "$SCHEMAS/events.schema.json" \
        "obs_$design.events"
done
echo "telemetry artifacts validate against the checked-in schemas"

# --- Determinism at a fixed seed -----------------------------------------

# --events rides along on both runs: the stream-side plugins add
# their own metrics keys, so the pair must run the same stack.
"$ANVILC" "$SRC/examples/quickstart.anvil" --sim 400 --seed 7 \
    --cov --metrics obs_rerun.metrics.json \
    --events obs_rerun.events --stats-json \
    > obs_rerun.log
grep '^stats-json ' obs_rerun.log | sed 's/^stats-json //' \
    > obs_rerun.stats.json

"$VALIDATE" --canon obs_quickstart.metrics.json --drop timers_ns \
    > obs_metrics_a.canon
"$VALIDATE" --canon obs_rerun.metrics.json --drop timers_ns \
    > obs_metrics_b.canon
cmp obs_metrics_a.canon obs_metrics_b.canon

"$VALIDATE" --canon obs_quickstart.stats.json \
    --drop wall_ns,cycles_per_sec > obs_stats_a.canon
"$VALIDATE" --canon obs_rerun.stats.json \
    --drop wall_ns,cycles_per_sec > obs_stats_b.canon
cmp obs_stats_a.canon obs_stats_b.canon
echo "metrics and stats are byte-stable at a fixed seed"

# --- Channel slicing -----------------------------------------------------

"$ANVILC" "$SRC/examples/quickstart.anvil" --sim 200 --seed 7 \
    --slice io_pong --vcd obs_slice.vcd > /dev/null
test "$(grep -c '\$var' obs_slice.vcd)" -eq 3
if grep '\$var' obs_slice.vcd | grep -qv io_pong; then
    echo "slice leaked a foreign signal" >&2
    exit 1
fi
grep -q '\$dumpvars' obs_slice.vcd

set +e
"$ANVILC" "$SRC/examples/quickstart.anvil" --sim 50 \
    --slice no_such_channel --vcd obs_bogus.vcd 2> obs_bogus.log
status=$?
set -e
test "$status" -eq 2
grep -q 'no signals for channel' obs_bogus.log

# The farm wires every worker the same way; a bad name is still one
# usage error.
set +e
"$ANVILC" "$SRC/examples/quickstart.anvil" --sim 50 --farm 2 --cov \
    --flight 8 --dump-on cover:nosuch 2> obs_bogus_cover.log
status=$?
set -e
test "$status" -eq 2
grep -q 'no such cover point' obs_bogus_cover.log
set +e
"$ANVILC" "$SRC/examples/quickstart.anvil" --sim 50 --farm 2 \
    --contract 'nosuch: stable' 2> obs_bogus_contract.log
status=$?
set -e
test "$status" -eq 2
grep -q "'nosuch'" obs_bogus_contract.log
echo "slice dumps exactly one channel; unknown names are rejected"

# --- Flight recorder loop ------------------------------------------------

# "ack within 1" is deliberately tighter than quickstart's server
# (which acks within 2), so the run violates and the recorder dumps.
rm -f obs_flight-*.vcd
set +e
"$ANVILC" "$SRC/examples/quickstart.anvil" --sim 120 --seed 7 \
    --contract 'io_pong: ack within 1' \
    --flight 32 --flight-post 4 --dump-on VIOLATION \
    --flight-out obs_flight --events obs_flight.events \
    --profile-hot obs_hot.json > obs_flight.log 2>&1
status=$?
set -e
test "$status" -eq 1          # the live run itself reports FAIL
test -f obs_flight-0.vcd

# The stream is schema v2 and carries the dump references.
grep -q 'anvil-events-v2' obs_flight.events
grep -q '"e":"window_dump"' obs_flight.events
"$VALIDATE" --lines "$SCHEMAS/events.schema.json" obs_flight.events
"$VALIDATE" "$SCHEMAS/hot.schema.json" obs_hot.json

# The window dump is a plain VCD the offline checker consumes
# unmodified — and it reproduces the violation it was cut around.
set +e
"$ANVILC" "$SRC/examples/quickstart.anvil" \
    --check-trace obs_flight-0.vcd \
    --contract 'io_pong: ack within 1' > obs_flight_check.log
status=$?
set -e
test "$status" -eq 1
grep -q 'ack-within' obs_flight_check.log
echo "flight window dump reproduces the violation under check-trace"

# --- Replay telemetry ----------------------------------------------------

# A replayed run reports through the same spine as a random one.
"$ANVILC" "$SRC/examples/quickstart.anvil" --sim 200 --seed 7 \
    --vcd obs_rec.vcd > /dev/null 2>&1
"$ANVILC" "$SRC/examples/quickstart.anvil" --replay obs_rec.vcd \
    --cov --contracts \
    --metrics obs_replay.metrics.json \
    --profile obs_replay.trace.json \
    --profile-hot obs_replay.hot.json \
    --stats-json > obs_replay.log 2> /dev/null
grep '^stats-json ' obs_replay.log | sed 's/^stats-json //' \
    > obs_replay.stats.json
"$VALIDATE" "$SCHEMAS/metrics.schema.json" obs_replay.metrics.json
"$VALIDATE" "$SCHEMAS/profile.schema.json" obs_replay.trace.json
"$VALIDATE" "$SCHEMAS/stats.schema.json" obs_replay.stats.json
"$VALIDATE" "$SCHEMAS/hot.schema.json" obs_replay.hot.json
grep -q '"cycles":200' obs_replay.stats.json
grep -q '^triage: no contract violations' obs_replay.log
echo "replay telemetry validates against the checked-in schemas"
