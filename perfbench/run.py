#!/usr/bin/env python3
"""End-to-end benchmark of the Anvil toolchain, with a per-layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--workload NAME]
    python3 perfbench/run.py --record-oracle

Run from the repository root.  Builds perfbench/ (which compiles the
core library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs rounds of the workload until
--seconds have passed.  Every round is a fresh driver process, so the
in-process JIT kernel cache starts cold as it does for each anvilc
invocation; JIT temp files go to a tmp/ directory in the build
directory.  A metric table goes to stdout, then one JSON line.

--trace 0 reports the end-to-end metrics: means over rounds of the
times and the pooled simulation rate, medians of set-up time and peak
memory.
--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
Metric names and units come from BENCHMARK.json; see perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compiled", "regression", "prove")
EXPECTED = os.path.join(HERE, "expected.json")
# A run must end within 180 s; no round starts that could cross this.
DEADLINE_S = 150
# Work counters that must repeat exactly at a fixed seed.
WORK_COUNTERS = ("rtl.nodes_per_cycle", "rtl.nets_changed_per_cycle",
                 "ir.events_after", "codegen.sv_bytes",
                 "codegen.jit_source_bytes", "formal.steps",
                 "verif.bmc_states", "obs.events_bytes")


def build():
    """Configure and build the driver; exit 1 if that fails."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, base, "perfbench")
    os.makedirs(os.path.join(bdir, "tmp"), exist_ok=True)
    os.makedirs(os.path.join(bdir, "spans"), exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"] + gen,
                    ["cmake", "--build", bdir, "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                sys.exit("perfbench: build failed (log: %s)" % log_path)
    return bdir


def run_round(bdir, workload, seed, traced, oracle, timeout, tag, cpu=None):
    cmd = [os.path.join(bdir, "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0",
           "--oracle", "1" if oracle else "0"]
    if traced:
        cmd += ["--spans", os.path.join(bdir, "spans", "%s-seed%d-%s.jsonl"
                                        % (workload, seed, tag))]
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    try:
        p = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
            timeout=max(timeout, 1), text=True,
            preexec_fn=None if cpu is None else
            lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s round timed out" % workload)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("perfbench: driver failed (exit %d)" % p.returncode)
    return json.loads(lines[-1])


def run_rounds(bdir, workload, seed, seconds, trace):
    """Untraced rounds (traced ones alternating when `trace`) until
    `seconds` pass; the first round also runs the output oracle.

    Rounds take the CPUs in turn (a traced round the CPU of the
    untraced one before it): other tenants slow one core at a time,
    often for minutes, and a run that stayed on that core would read
    slow throughout."""
    cpus = sorted(os.sched_getaffinity(0))
    start = time.monotonic()
    rounds, longest = [], 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        cpu = cpus[len(rounds) // (2 if trace else 1) % len(cpus)]
        t0 = time.monotonic()
        rounds.append(run_round(bdir, workload, seed, traced,
                                not rounds, DEADLINE_S + 25 - (t0 - start),
                                "r%d" % len(rounds), cpu))
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        enough = len(rounds) >= (2 if trace else 1)
        if enough and (elapsed >= seconds or
                       elapsed + longest > DEADLINE_S):
            return rounds


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def oracle_failures(rounds, expected):
    """(checks, failure lines) of the recorded tables and round
    repeatability; the driver's own checks are counted separately."""
    first, checks, failures = rounds[0], 0, []
    for design, d in sorted(first["sv_digest"].items()):
        checks += 1
        want = expected["sv_digest"].get(design)
        if d != want:
            failures.append("%s: SystemVerilog digest %s, recorded %s"
                            % (design, d, want))
    for design, got in sorted(first["verdicts"].items()):
        want = expected["verdicts"].get(design, [])
        checks += max(len(got), len(want))
        for i in range(max(len(got), len(want))):
            g = got[i] if i < len(got) else None
            w = want[i] if i < len(want) else None
            if g != w:
                failures.append("%s: verdict %s, recorded %s"
                                % (design, g, w))
    allowed = expected["allowed_violations"]
    for design, sigs in sorted(first["violations"].items()):
        checks += 1
        extra = [s for s in sigs if s not in allowed.get(design, [])]
        if extra:
            failures.append("%s: unexpected contract violations %s"
                            % (design, extra))
    # Every round at one seed must do the same work.
    key = lambda r: (r["jobs"], r["verdicts"],
                     {k: v for k, v in r["counters"].items()
                      if k in WORK_COUNTERS})
    for i, r in enumerate(rounds[1:], 1):
        checks += 1
        if key(r) != key(first):
            failures.append("round %d did different work than round 0" % i)
    for r in rounds:
        failures += r["op_failures"] + r["mismatches"] + r["drift"]
    return checks, failures


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(rounds):
    """Round times are two-moded (a contended core runs up to 2x
    slower), and the median of such a mix jumps between the modes as
    the mix shifts from run to run; the mean moves with the mix."""
    plain = [r for r in rounds if not r["trace"]]
    return {
        "wall_s": statistics.fmean(r["wall_s"] for r in plain),
        "setup_s": median([r["setup_s"] for r in plain]),
        "cpu_s": statistics.fmean(r["cpu_s"] for r in plain),
        "cycles_per_s": (sum(r["cycles"] for r in plain) /
                         sum(r["run_s"] for r in plain)),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }


def per_layer(rounds, names):
    """Medians of the traced rounds' layers; None where the workload
    has no such layer."""
    traced = [r["layers"] for r in rounds if r["trace"]]
    out = {}
    for name in names:
        vals = [t[name] for t in traced if name in t]
        out[name] = median(vals) if vals else None
    plain = median([r["wall_s"] for r in rounds if not r["trace"]])
    traced_wall = median([r["wall_s"] for r in rounds if r["trace"]])
    out["host.trace_overhead_pct"] = 100.0 * (traced_wall / plain - 1.0)
    return out


def benchmark(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = load_expected()
    bdir = build()
    rounds = run_rounds(bdir, args.workload, args.seed, args.seconds,
                        args.trace)

    checks, failures = oracle_failures(rounds, expected)
    attempted = sum(r["ops"] + r["checks"] for r in rounds) + checks
    for line in failures:
        print("FAILED: " + line)
    print("workload %s, seed %d: %d round(s), %d traced"
          % (args.workload, args.seed, len(rounds),
             sum(1 for r in rounds if r["trace"])))
    for i, r in enumerate(rounds):
        print("  round %d%s: wall_s %.4f setup_s %.4f cpu_s %.4f "
              "canary_ms %.1f/%.1f" % (
                  i, " traced" if r["trace"] else "", r["wall_s"],
                  r["setup_s"], r["cpu_s"], *r["canary_ms"]))
    print("  %-30s %g (%d of %d operations)" % (
        "failed_frac", len(failures) / attempted, len(failures), attempted))

    if args.trace:
        metrics = spec["per_layer"]
        values = per_layer(rounds, [m["name"] for m in metrics])
    else:
        metrics = spec["end_to_end"]
        values = end_to_end(rounds)
    result = {}
    for m in metrics:
        v = values[m["name"]]
        shown = "n/a" if v is None else "%.6g %s" % (v, m["unit"])
        print("  %-30s %s" % (m["name"], shown))
        result[m["name"]] = {"value": 0.0 if v is None else v,
                             "unit": m["unit"]}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))


def selftest(args):
    """Work counters repeat exactly across two traced rounds at one
    seed, and every workload reports the counters of its layers."""
    bdir = build()
    ok = True
    for w in ([args.workload] if args.workload else WORKLOADS):
        a, b = (run_round(bdir, w, 1, True, False, DEADLINE_S, t)
                ["layers"] for t in ("self-a", "self-b"))
        got = {k: a[k] for k in WORK_COUNTERS if k in a}
        same = got == {k: b[k] for k in WORK_COUNTERS if k in b}
        ok = ok and same and bool(got)
        print("%-12s %s %s" % (w, "PASS" if same and got else "FAIL", got))
    sys.exit(0 if ok else 1)


def record_oracle(_args):
    """Rewrite the recorded SystemVerilog digests and prover verdicts
    from seed-1 rounds; after an intentional output change only."""
    bdir = build()
    expected = load_expected()
    expected["sv_digest"], expected["verdicts"] = {}, {}
    for w in WORKLOADS:
        r = run_round(bdir, w, 1, False, True, DEADLINE_S, "record")
        expected["sv_digest"].update(r["sv_digest"])
        expected["verdicts"].update(r["verdicts"])
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--selftest", action="store_true")
    mode.add_argument("--record-oracle", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        selftest(args)
    elif args.record_oracle:
        record_oracle(args)
    elif not args.workload:
        ap.error("--workload is required")
    else:
        benchmark(args)


if __name__ == "__main__":
    main()
