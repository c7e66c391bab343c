#!/bin/sh
# CLI end-to-end trace loop, run by ctest (cli_trace_e2e) and CI:
#
#  1. record a short seeded random sim of the quickstart design,
#  2. replay the dump as stimulus, re-dumping the replayed run,
#  3. the two dumps must be byte-identical (round-trip + determinism)
#     and the coverage summaries must match,
#  4. contract-check the healthy dump (exit 0),
#  5. contract-check the hand-written violating fixture: exit code 1
#     and a cycle-numbered report naming the broken rules,
#  6. --diff-trace: identical dumps compare equal (exit 0), the
#     violating fixture diverges (exit 1) with a cycle-stamped report,
#  7. coverage replay: both the re-simulating (--replay --cov) and
#     the offline (--check-trace --cov) graders print the same
#     sim-summary JSON the live run printed,
#  8. --infer-contracts prints the typed obligations/assumptions,
#  9. --prove discharges quickstart's and listing2's obligations
#     (exit 0), and a mis-annotated listing2 is disproved (exit 1)
#     with a counterexample VCD that --check-trace flags in turn,
# 10. hostile inputs: number literals past 64 bits or outside their
#     base, `cycle` counts past 65535 and terms nested past 256
#     levels are diagnostics (exit 1; one on a 420 KB line prints
#     under 4 KB), a VCD timestamp past 64 bits is a malformed dump
#     (exit 3), and no input kills anvilc by a signal.
#
# Usage: cli_trace_e2e.sh <path-to-anvilc> <repo-root>
set -e
ANVILC="$1"
SRC="$2"
DESIGN="$SRC/examples/quickstart.anvil"

"$ANVILC" "$DESIGN" --sim 200 --seed 11 --vcd cli_a.vcd --stats \
    > cli_a.log
"$ANVILC" "$DESIGN" --replay cli_a.vcd --vcd cli_b.vcd --stats \
    > cli_b.log

cmp cli_a.vcd cli_b.vcd
grep '^sim-summary' cli_a.log > cli_a.sum
grep '^sim-summary' cli_b.log > cli_b.sum
cmp cli_a.sum cli_b.sum
echo "replay reproduced the recording byte for byte"

"$ANVILC" "$DESIGN" --check-trace cli_a.vcd --contracts

set +e
"$ANVILC" "$DESIGN" \
    --check-trace "$SRC/tests/golden/pong_violation.vcd" \
    > cli_viol.log
status=$?
set -e
cat cli_viol.log
test "$status" -eq 1
grep -q '@3 io_pong \[stable\]' cli_viol.log
grep -q '@4 io_pong \[hold\]' cli_viol.log
echo "violating trace rejected with exit code 1"

# --- Multi-trace diffing -------------------------------------------------

"$ANVILC" --diff-trace cli_a.vcd cli_b.vcd > cli_diff_ok.log
grep -q 'identical' cli_diff_ok.log
set +e
"$ANVILC" --diff-trace cli_a.vcd \
    "$SRC/tests/golden/pong_violation.vcd" > cli_diff_bad.log
status=$?
set -e
test "$status" -eq 1
grep -Eq 'first divergence @|only in' cli_diff_bad.log
echo "diff-trace: identical passes, divergent exits 1"

# --- Coverage replay -----------------------------------------------------

# Re-simulating grader: --replay --cov reproduces the live summary.
"$ANVILC" "$DESIGN" --replay cli_a.vcd --cov > cli_rcov.log
grep '^sim-summary' cli_rcov.log > cli_rcov.sum
cmp cli_a.sum cli_rcov.sum
# Offline grader: --check-trace --cov grades the dump alone.
"$ANVILC" "$DESIGN" --check-trace cli_a.vcd --cov > cli_ocov.log
grep '^sim-summary' cli_ocov.log > cli_ocov.sum
cmp cli_a.sum cli_ocov.sum
echo "coverage replay matches the live summary (live and offline)"

# --- Typed contract inference and the k-induction prover -----------------

"$ANVILC" "$DESIGN" --infer-contracts > cli_inf.log
grep -q 'contract io_pong: stable, hold' cli_inf.log
grep -q 'assume   io_pong: ack within 4' cli_inf.log

"$ANVILC" "$DESIGN" --prove 4 > cli_prove.log
grep -q 'proved' cli_prove.log

L2="$SRC/examples/listing2.anvil"
"$ANVILC" "$L2" --prove 4 --prove-report > cli_prove_l2.log
grep -q 'contract:io_req:ack-within' cli_prove_l2.log

# Mis-annotate the bound: disproved with a replayable cex VCD.
sed 's/dyn#3/dyn#1/' "$L2" > cli_l2_bad.anvil
set +e
"$ANVILC" cli_l2_bad.anvil --prove 4 --vcd cli_cex.vcd \
    > cli_prove_bad.log
status=$?
set -e
test "$status" -eq 1
grep -q 'VIOLATED' cli_prove_bad.log
set +e
"$ANVILC" cli_l2_bad.anvil --check-trace cli_cex.vcd > cli_cex.log
status=$?
set -e
test "$status" -eq 1
grep -q 'io_req \[ack-within\]' cli_cex.log
echo "prover proves healthy designs and refutes the mis-annotation"

# --- Hostile inputs --------------------------------------------------------

# Runs anvilc with the given arguments and requires exit code $1; an
# exit of 128 or above (death by signal, e.g. an uncaught exception's
# abort) always fails.
expect_exit() {
    want="$1"
    shift
    set +e
    "$ANVILC" "$@" > cli_hostile.log 2>&1
    status=$?
    set -e
    cat cli_hostile.log
    if [ "$status" -ge 128 ]; then
        echo "anvilc $* died with status $status"
        exit 1
    fi
    test "$status" -eq "$want"
}

printf 'proc p() { loop { cycle 99999999999999999999 } }\n' \
    > cli_bad_cycle.anvil
printf "proc p() { reg r : logic[8]; loop { set r := 8'hzz >> cycle 1 } }\n" \
    > cli_bad_literal.anvil
# Each cycle of a delay lowers to a register stage: the largest int
# would not finish compiling, so the count is capped at the literal.
printf 'proc p() { loop { cycle 2147483647 } }\n' > cli_long_cycle.anvil
printf '$enddefinitions $end\n#0\n#99999999999999999999999\n' \
    > cli_bad_time.vcd
expect_exit 1 cli_bad_cycle.anvil
expect_exit 1 cli_bad_literal.anvil
expect_exit 1 cli_long_cycle.anvil
grep -q 'cycle count 2147483647 is out of range \[0, 65535\]' \
    cli_hostile.log
expect_exit 3 "$DESIGN" --check-trace cli_bad_time.vcd
expect_exit 3 "$DESIGN" --replay cli_bad_time.vcd

# Deep nesting: without the cap (kMaxTermDepth, src/lang/token.h),
# each of these overflowed the stack of the parser or of a later pass.
# One repeated piece per line keeps the diagnostic's source line short.
# deep_source <prefix> <piece> <n> <core> <closer> writes a register
# assignment of <prefix>, n copies of <piece>, <core>, and n of <closer>.
deep_source() {
    awk -v pre="$1" -v piece="$2" -v n="$3" -v core="$4" -v closer="$5" \
        'BEGIN {
            printf "proc p() { reg r : logic[8]; loop { %s\n", pre
            for (i = 0; i < n; i++) print piece
            print core
            for (i = 0; closer != "" && i < n; i++) print closer
            print ">> cycle 1 } }"
        }'
}
deep_source 'set r :=' '(' 10000 1 ')' > cli_deep_parens.anvil
deep_source 'set r := 1' '+ 1' 29999 '' '' > cli_deep_sum.anvil
deep_source 'set r :=' '~' 30000 1 '' > cli_deep_not.anvil
deep_source '' 'set r := 1 >>' 30000 'set r := 1' '' > cli_deep_waits.anvil
# Wait(Set(n additions), Cycle) is n + 3 levels: one past the cap
# fails, and exactly at it compiles.
deep_source 'set r := 1' '+ 1' 254 '' '' > cli_deep_over.anvil
deep_source 'set r := 1' '+ 1' 253 '' '' > cli_deep_cap.anvil
for shape in parens sum not waits over; do
    expect_exit 1 cli_deep_$shape.anvil
    grep -q 'term nested deeper than 256 levels' cli_hostile.log
done
# The chain of waits on one 420 KB line: the diagnostic shows a window
# of the line around its column, not the whole line.
{ deep_source '' 'set r := 1 >>' 30000 'set r := 1' '' | tr '\n' ' '; echo; } \
    > cli_deep_line.anvil
expect_exit 1 cli_deep_line.anvil
grep -q 'term nested deeper than 256 levels' cli_hostile.log
test "$(wc -c < cli_hostile.log)" -lt 4096
expect_exit 0 cli_deep_cap.anvil -o cli_deep_cap.sv
echo "hostile literals, cycle counts and nesting exit 1, an overflowing timestamp exits 3"
