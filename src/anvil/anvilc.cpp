/**
 * @file
 * anvilc — the Anvil compiler command-line driver.
 *
 * Usage:
 *   anvilc [options] <input.anvil>
 *     -o <file>      write generated SystemVerilog to <file>
 *     --top <proc>   top process (default: last defined)
 *     --no-opt       skip the Fig. 8 event-graph passes
 *     --trace        print the timing-check derivation
 *     --stats        print event-graph, synthesis, and (with --sim,
 *                    --replay or --farm) sweep/coverage statistics
 *     --check-only   type check without generating code
 *     --sim <N>      simulate N cycles under a seeded random
 *                    testbench after compiling
 *     --seed <S>     testbench seed (default 1)
 *     --farm <N>     run N parallel workers over one shared
 *                    immutable netlist (seeds seed-base .. +N-1),
 *                    stream per-worker telemetry events, and print
 *                    the merged closure report (byte-compatible
 *                    with single-run --cov/--metrics/--stats-json)
 *     --seed-base <S> first farm worker seed (default: --seed)
 *     --events <f>   write the run's live telemetry event stream
 *                    ("anvil-events-v2" JSONL); with --farm, one
 *                    stream per worker at <f>.<worker>
 *     --emit-cpp     dump the design's compiled-sim C++ kernel
 *                    (kernel_abi.h translation unit) to stdout, or
 *                    to -o <file> if given
 *     --backend <b>  simulation backend for --sim/--replay: interp
 *                    (default) or compiled — emit the kernel, build
 *                    it with the system C++ compiler, dlopen it;
 *                    falls back to the interpreter (with a note)
 *                    when no compiler is available
 *     --vcd <file>   write a VCD waveform of the simulation
 *     --cov          print the coverage report after simulation
 *     --replay <f>   re-execute a recorded VCD dump as stimulus and
 *                    diff the re-simulation against the recording
 *                    (--sim N overrides the cycle count, --vcd
 *                    re-dumps the replay)
 *     --check-trace <f>  check a recorded VCD dump against the
 *                    channel timing contracts
 *     --contracts    print the contract set in use; with --sim also
 *                    monitor the contracts live during simulation
 *     --contract <s> explicit contract spec (repeatable), e.g.
 *                    "io_pong: ack within 4, stable, hold";
 *                    replaces the inferred set
 *     --infer-contracts  print the contract set inferred from the
 *                    Anvil types (design obligations, environment
 *                    assumptions, lifetime provenance) and exit
 *                    unless another action is requested
 *     --prove [k]    compile the design-obligation contracts into
 *                    safety automata and prove them by k-induction
 *                    (max depth k, default 6); with --vcd, a
 *                    violated obligation's counterexample is dumped
 *                    as VCD (feed it to --replay / --check-trace)
 *     --prove-report detailed per-obligation report (cone sizes,
 *                    state counts, timings); implies --prove
 *     --diff-trace <A> <B>  diff two VCD dumps: report the first
 *                    divergent cycle and signal (no design needed)
 *     --flight <K>   attach the flight recorder: a ring of the last
 *                    K cycles of changed-net deltas; on a trigger
 *                    the [trigger-K, trigger+post] window is dumped
 *                    as VCD (byte-compatible with --vcd, so
 *                    --replay / --check-trace consume it directly)
 *     --flight-post <Q> cycles captured after a trigger before the
 *                    dump flushes (default 8)
 *     --dump-on <t>  flight trigger (repeatable): VIOLATION (any
 *                    testbench/contract failure; the default) or
 *                    cover:NAME (a named cover point's hit count)
 *     --flight-out <p>  window dump path prefix (default "flight");
 *                    dumps land at <p>-<n>.vcd (with --farm N > 1:
 *                    <p>.w<worker>-<n>.vcd)
 *     --profile-hot <f> count every node evaluation during the run
 *                    and write the hot-spot attribution report
 *                    ("anvil-hot-v1": per-level totals, ranked hot
 *                    nets, ranked register cones) to <f>; the ranked
 *                    tables also print to stdout
 *     --metrics <f>  write run metrics (counters/gauges/histograms/
 *                    timers) as JSON ("anvil-metrics-v1"); with
 *                    --prove, prover telemetry (prove.* counters,
 *                    states/sec gauge)
 *     --profile <f>  write a Chrome-trace / Perfetto profile of the
 *                    run ("anvil-profile-v1"): one track per sim
 *                    phase (sweep, kernel, commit) and per observer;
 *                    with --prove, one track per obligation (base
 *                    and per-k induction windows)
 *     --stats-json   print a one-line machine-readable run summary
 *                    ("anvil-stats-v1") on stdout
 *     --slice <ch>   with --vcd: dump only channel <ch>'s signals
 *                    (a standalone sliced VCD window)
 *
 * --sim, --replay and --farm N share one run spine (anvil/
 * sim_runner.h): each builds one run::JobConfig and makes one
 * run::runFarm call — one worker unless --farm is given — and prints
 * every report line (sim, sweep, coverage, triage, flight,
 * stats-json, the metrics file) from the obs::Merger fold of the
 * workers' event streams.  The profiler and the rolling-activity
 * plugin only run when --metrics, --profile or --events will read
 * them, so a plain --sim keeps an empty change feed.
 *
 * Contract resolution order: explicit --contract specs; otherwise
 * the typed inference from the compiled program (formal::
 * inferContracts — design obligations only); otherwise the netlist
 * name-pair guess.
 *
 * Exit codes: 0 success; 1 check failure (type/compile errors,
 * testbench or contract violations, replay or trace divergence,
 * disproved obligations); 2 usage error; 3 I/O error; 4 proof
 * inconclusive (bound or budget reached).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "anvil/compiler.h"
#include "anvil/sim_runner.h"
#include "codegen/cpp_emitter.h"
#include "obs/merge.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "formal/contracts.h"
#include "formal/kinduction.h"
#include "formal/property.h"
#include "synth/cost_model.h"
#include "trace/contracts.h"
#include "trace/diff.h"
#include "trace/replay.h"
#include "trace/vcd_reader.h"

using namespace anvil;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitCheckFailure = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;
constexpr int kExitInconclusive = 4;

void
usage()
{
    fprintf(stderr,
            "usage: anvilc [options] <input.anvil>\n"
            "  -o <file>      write SystemVerilog to <file>\n"
            "  --top <proc>   top process (default: last defined)\n"
            "  --no-opt       skip event-graph optimizations\n"
            "  --trace        print the timing-check derivation\n"
            "  --stats        print event-graph/synthesis stats (and\n"
            "                 sim/coverage summaries with --sim)\n"
            "  --check-only   type check only\n"
            "  --sim <N>      simulate N cycles under a random\n"
            "                 testbench\n"
            "  --seed <S>     testbench seed (default 1)\n"
            "  --farm <N>     N parallel workers over one shared\n"
            "                 netlist; merged closure report\n"
            "  --seed-base <S> first farm worker seed\n"
            "  --events <f>   write the live telemetry event stream\n"
            "                 (JSONL; --farm: <f>.<worker>)\n"
            "  --emit-cpp     dump the compiled-sim C++ kernel\n"
            "  --backend <b>  sim backend: interp (default) or\n"
            "                 compiled (JIT via the system compiler;\n"
            "                 interpreter fallback if none)\n"
            "  --vcd <file>   write a VCD waveform of the simulation\n"
            "  --cov          print the coverage report\n"
            "  --replay <f>   replay a recorded VCD dump as stimulus\n"
            "                 and diff against the recording\n"
            "  --check-trace <f>  check a recorded VCD dump against\n"
            "                 the channel timing contracts\n"
            "  --contracts    print the contract set in use (with\n"
            "                 --sim: monitor live)\n"
            "  --contract <s> explicit contract spec (repeatable)\n"
            "  --infer-contracts  print the typed contract set\n"
            "  --prove [k]    prove the contracts by k-induction\n"
            "                 (--vcd dumps a counterexample)\n"
            "  --prove-report detailed prover report\n"
            "  --diff-trace <A> <B>  first divergence of two dumps\n"
            "  --flight <K>   flight recorder: keep the last K\n"
            "                 cycles; dump a VCD window on trigger\n"
            "  --flight-post <Q> post-trigger capture (default 8)\n"
            "  --dump-on <t>  flight trigger: VIOLATION (default)\n"
            "                 or cover:NAME (repeatable)\n"
            "  --flight-out <p>  dump prefix (default \"flight\")\n"
            "  --profile-hot <f> write the hot-spot attribution\n"
            "                 report (levels, nets, cones) to <f>\n"
            "  --metrics <f>  write run metrics JSON\n"
            "  --profile <f>  write a Chrome-trace profile of the "
            "run\n"
            "  --stats-json   one-line machine-readable run summary\n"
            "  --slice <ch>   with --vcd: dump only channel <ch>\n"
            "exit codes: 0 ok, 1 check failure, 2 usage, 3 I/O "
            "error,\n            4 proof inconclusive\n");
}

/**
 * Resolve the contract set: explicit --contract specs if given,
 * otherwise the typed inference from the compiled program, otherwise
 * the netlist name-pair guess.  Returns false on a spec syntax
 * error.
 */
bool
resolveContracts(const std::vector<std::string> &spec_texts,
                 const rtl::Netlist &nl,
                 const formal::ContractSet *typed, bool print,
                 std::vector<trace::ContractSpec> *out)
{
    if (!spec_texts.empty()) {
        for (const auto &text : spec_texts) {
            try {
                out->push_back(trace::parseContractSpec(text));
            } catch (const std::invalid_argument &e) {
                fprintf(stderr, "anvilc: %s\n", e.what());
                return false;
            }
        }
    } else if (typed && !typed->channels.empty()) {
        // The one spec every consumer shares: typed design
        // obligations plus the netlist guess for internal child
        // channels the typed set cannot see.
        *out = formal::checkableSpecs(*typed, nl);
        if (print) {
            fputs(typed->str().c_str(), stdout);
            for (size_t i = typed->obligations().size();
                 i < out->size(); i++)
                printf("contract %s\n  // internal channel "
                       "(netlist-inferred)\n",
                       (*out)[i].str().c_str());
        }
        return true;
    } else {
        *out = trace::inferContracts(nl);
    }
    if (print)
        for (const auto &s : *out)
            printf("contract %s\n", s.str().c_str());
    return true;
}

/** Flags of a --sim / --replay / --farm run. */
struct SimOptions
{
    long cycles = 0;             // --sim N (replay: 0 = whole dump)
    uint64_t seed = 1;           // --seed (--farm: --seed-base)
    int farm = 0;                // --farm N (0: one plain job)
    bool compiled = false;       // --backend compiled
    std::string replay_path;     // --replay

    std::string metrics_path;    // --metrics
    std::string profile_path;    // --profile
    std::string slice_channel;   // --slice
    std::string events_path;     // --events
    bool stats_json = false;     // --stats-json

    uint64_t flight = 0;         // --flight K (0: recorder off)
    uint64_t flight_post = 8;    // --flight-post
    std::vector<std::string> dump_on;   // --dump-on triggers
    std::string flight_out = "flight";  // --flight-out prefix
    std::string hot_path;        // --profile-hot

    /** True when a sink will read the profiler's timers and the
     *  rolling-activity envelope; plain runs keep an empty feed. */
    bool telemetry() const
    {
        return !metrics_path.empty() || !profile_path.empty() ||
               !events_path.empty();
    }

    /** True when any --dump-on trigger names a cover point. */
    bool coverTriggered() const
    {
        for (const std::string &t : dump_on)
            if (t.rfind("cover:", 0) == 0)
                return true;
        return false;
    }
};

/** Open an artifact for writing; false (with a note) when it cannot. */
bool
openArtifact(std::ofstream &os, const std::string &path)
{
    os.open(path);
    if (!os)
        fprintf(stderr, "anvilc: cannot write '%s'\n", path.c_str());
    return static_cast<bool>(os);
}

/** Flush a finished artifact and announce it; false on a write error. */
bool
closeArtifact(std::ostream &os, const std::string &path)
{
    os.flush();
    if (!os.good()) {
        fprintf(stderr, "anvilc: cannot write '%s'\n", path.c_str());
        return false;
    }
    fprintf(stderr, "anvilc: wrote %s\n", path.c_str());
    return true;
}

/** Write one whole artifact to `path`; false on a write error. */
bool
writeArtifact(const std::string &path, const std::string &text)
{
    std::ofstream os(path);
    os << text;
    return closeArtifact(os, path);
}

/** The `sweep:` / `sweep-kernel:` stats lines of a merged run. */
void
printSweep(const obs::Merger &merger)
{
    // The activity factor is what the event-driven sweep exploits:
    // nodes actually evaluated vs. the whole strict table, per cycle.
    rtl::SweepStats ss = merger.sweepStats();
    double act = ss.strict_nodes
        ? 100.0 * ss.avgNodes() / static_cast<double>(ss.strict_nodes)
        : 0.0;
    // Always name the backend actually used: a silent JIT fallback
    // must be visible here, not just in stats-json.
    std::string backend = merger.totals().backend;
    printf("sweep: mode=%s backend=%s threads=1 strict-nodes=%zu "
           "evaluated/cycle avg=%.1f peak=%llu "
           "changed-nets/cycle avg=%.1f peak=%llu activity=%.1f%%\n",
           rtl::sweepModeName(ss.mode), backend.c_str(),
           ss.strict_nodes, ss.avgNodes(),
           (unsigned long long)ss.peak_nodes, ss.avgChanged(),
           (unsigned long long)ss.peak_changed, act);
    if (backend != "interp")
        printf("sweep-kernel: frames=%llu dense-frames=%llu "
               "fallback-switches=%llu\n",
               (unsigned long long)ss.kernel_frames,
               (unsigned long long)ss.kernel_dense_frames,
               (unsigned long long)ss.kernel_fallback_switches);
}

/**
 * --sim, --replay and --farm N: one run::runFarm call (one worker
 * unless --farm is given), every report line printed from the
 * obs::Merger fold of the workers' event streams.
 */
int
runSim(const rtl::ModulePtr &mod, const formal::ContractSet *typed,
       bool contracts, const std::vector<std::string> &contract_specs,
       const std::string &vcd_path, bool cov, bool stats,
       const SimOptions &so)
{
    trace::Trace t;
    if (!so.replay_path.empty()) {
        try {
            t = trace::VcdReader::readFile(so.replay_path);
        } catch (const std::runtime_error &e) {
            fprintf(stderr, "anvilc: %s: %s\n", so.replay_path.c_str(),
                    e.what());
            return kExitIo;
        }
    }

    run::FarmConfig fc;
    fc.workers = so.farm ? so.farm : 1;
    fc.compiled_backend = so.compiled;
    run::JobConfig &job = fc.job;
    job.top = mod;
    job.netlist = std::make_shared<const rtl::Netlist>(*mod);
    job.seed = so.seed;
    job.cycles = static_cast<uint64_t>(so.cycles);
    job.coverage = cov || stats || so.coverTriggered();
    job.telemetry = so.telemetry();
    if (!job.telemetry)
        job.activity_window = 0;
    job.flight_pre = so.flight;
    job.flight_post = so.flight_post;
    job.flight_triggers = so.dump_on;
    job.flight_out = so.flight_out;
    job.slice = so.slice_channel;
    job.profile_hot = !so.hot_path.empty();

    bool monitored = contracts || !contract_specs.empty();
    if (monitored &&
        !resolveContracts(contract_specs, *job.netlist, typed,
                          contracts, &job.contracts))
        return kExitUsage;

    if (!so.replay_path.empty()) {
        job.replay = &t;
        if (!job.cycles)
            job.cycles = t.cycles();
        // Inputs the dump never recorded stay at zero; say so rather
        // than let the diff blame the design.
        for (const auto &[name, sig] : job.netlist->signals())
            if (sig.kind == rtl::NetSignal::Kind::Input &&
                t.indexOf(name) < 0)
                fprintf(stderr,
                        "anvilc: note: input '%s' not recorded in %s; "
                        "replaying it as zero\n",
                        name.c_str(), so.replay_path.c_str());
        printf("replay: %s: %zu signals, %llu change(s), "
               "%llu cycle(s)\n",
               so.replay_path.c_str(), t.signals().size(),
               (unsigned long long)t.changeCount(),
               (unsigned long long)job.cycles);
    }

    std::ofstream vcd_os, profile_os;
    if (!vcd_path.empty()) {
        if (!openArtifact(vcd_os, vcd_path))
            return kExitIo;
        job.vcd = &vcd_os;
    }
    if (!so.profile_path.empty()) {
        if (!openArtifact(profile_os, so.profile_path))
            return kExitIo;
        job.profile = &profile_os;
    }

    obs::Merger merger;
    run::FarmResult fr;
    try {
        fr = run::runFarm(fc, merger);
    } catch (const std::invalid_argument &e) {
        fprintf(stderr, "anvilc: %s\n", e.what());
        return kExitUsage;
    } catch (const std::exception &e) {
        fprintf(stderr, "anvilc: %s\n", e.what());
        return kExitCheckFailure;
    }
    if (!fr.jit_note.empty())
        fprintf(stderr,
                "anvilc: note: compiled backend unavailable (%s); "
                "using the interpreter\n", fr.jit_note.c_str());

    if (so.farm) {
        printf("farm: %d worker(s), %ld cycle(s) each, "
               "seeds %llu..%llu\n",
               so.farm, so.cycles, (unsigned long long)so.seed,
               (unsigned long long)(so.seed +
                                    static_cast<uint64_t>(so.farm) -
                                    1));
        for (const run::JobResult &j : fr.jobs)
            printf("worker %d: seed %llu: %s\n", j.worker,
                   (unsigned long long)j.seed, j.summary.c_str());
    }
    obs::Merger::Totals tot = merger.totals();
    printf("sim: %llu cycles, %llu toggles, %llu dprint line(s)\n",
           (unsigned long long)tot.cycles,
           (unsigned long long)tot.toggles,
           (unsigned long long)merger.counter("sim.dprint_lines"));
    if (stats)
        printSweep(merger);
    if (merger.hasCoverage() && (stats || cov))
        printf("sim-summary %s\n",
               merger.coverage().summaryJson().c_str());
    if (cov && merger.hasCoverage())
        fputs(merger.coverage().report().c_str(), stdout);
    if (monitored)
        fputs(merger.triageReport().c_str(), stdout);
    if (!vcd_path.empty() && !closeArtifact(vcd_os, vcd_path))
        return kExitIo;
    for (const obs::Merger::WindowDump &wd : merger.windowDumps()) {
        printf("flight: worker %d: %s @%llu window [%llu..%llu]%s%s\n",
               wd.worker, wd.trigger.c_str(),
               (unsigned long long)wd.trigger_cycle,
               (unsigned long long)wd.from, (unsigned long long)wd.to,
               wd.path.empty() ? "" : " -> ", wd.path.c_str());
        if (!wd.path.empty())
            fprintf(stderr, "anvilc: wrote %s\n", wd.path.c_str());
    }
    // Hot-spot attribution (--profile-hot, never under --farm): the
    // ranked tables on stdout, the anvil-hot-v1 JSON to the file.
    if (fr.jobs[0].hot) {
        fputs(fr.jobs[0].hot->table().c_str(), stdout);
        if (!writeArtifact(so.hot_path, fr.jobs[0].hot->json() + "\n"))
            return kExitIo;
    }
    if (!so.events_path.empty())
        // --farm writes one stream per worker, <path>.<worker> — the
        // files tools/anvil_merge consumes.
        for (const run::JobResult &j : fr.jobs)
            if (!writeArtifact(so.farm ? so.events_path + "." +
                                             std::to_string(j.worker)
                                       : so.events_path,
                               j.events))
                return kExitIo;
    if (!so.metrics_path.empty() &&
        !writeArtifact(so.metrics_path, merger.metricsJson() + "\n"))
        return kExitIo;
    if (!so.profile_path.empty() &&
        !closeArtifact(profile_os, so.profile_path))
        return kExitIo;
    // A farm reports its elapsed wall; a single job its loop wall.
    if (so.stats_json)
        printf("stats-json %s\n",
               merger.statsJson(so.farm ? fr.wall_ns : 0).c_str());

    if (!fr.anyFailed())
        return kExitOk;
    for (const run::JobResult &j : fr.jobs)
        if (!j.ok) {
            if (so.farm)
                fprintf(stderr, "anvilc: worker %d (seed %llu): %s\n",
                        j.worker, (unsigned long long)j.seed,
                        j.summary.c_str());
            else
                fprintf(stderr, "anvilc: %s\n", j.summary.c_str());
        }
    return kExitCheckFailure;
}

/** Offline contract check (and coverage grading) of a recorded dump. */
int
checkTraceFile(const rtl::ModulePtr &mod,
               const std::string &dump_path, bool print_contracts,
               const std::vector<std::string> &contract_specs,
               const formal::ContractSet *typed, bool cov)
{
    trace::Trace t;
    try {
        t = trace::VcdReader::readFile(dump_path);
    } catch (const std::runtime_error &e) {
        fprintf(stderr, "anvilc: %s: %s\n", dump_path.c_str(),
                e.what());
        return kExitIo;
    }

    rtl::Sim sim(mod);
    std::vector<trace::ContractSpec> specs;
    if (!resolveContracts(contract_specs, sim.netlist(), typed,
                          print_contracts, &specs))
        return kExitUsage;

    if (cov) {
        // Offline coverage replay: grade the recording against the
        // design's coverage model without re-simulating.
        tb::Coverage coverage;
        uint64_t frames =
            trace::gradeCoverage(sim.netlist(), t, coverage);
        printf("coverage-replay: %s: %llu frame(s)\n",
               dump_path.c_str(), (unsigned long long)frames);
        printf("sim-summary %s\n", coverage.summaryJson().c_str());
        fputs(coverage.report().c_str(), stdout);
    }

    std::vector<std::string> skipped;
    auto violations = trace::checkTrace(specs, t, &skipped);
    for (const auto &ch : skipped)
        fprintf(stderr,
                "anvilc: note: channel '%s' not recorded in %s\n",
                ch.c_str(), dump_path.c_str());
    printf("check-trace: %s: %zu contract(s), %llu cycle(s), "
           "%zu violation(s)\n",
           dump_path.c_str(), specs.size() - skipped.size(),
           (unsigned long long)t.cycles(), violations.size());
    if (!violations.empty()) {
        fputs(trace::violationReport(violations).c_str(), stdout);
        return kExitCheckFailure;
    }
    return kExitOk;
}

/** Diff two recorded dumps; no design needed. */
int
diffTraceFiles(const std::string &path_a, const std::string &path_b)
{
    trace::Trace a, b;
    try {
        a = trace::VcdReader::readFile(path_a);
        b = trace::VcdReader::readFile(path_b);
    } catch (const std::runtime_error &e) {
        fprintf(stderr, "anvilc: %s\n", e.what());
        return kExitIo;
    }
    trace::TraceDiff d = trace::diffTraces(a, b);
    printf("diff-trace: %s (%zu signal(s)) vs %s (%zu signal(s))\n",
           path_a.c_str(), a.signals().size(), path_b.c_str(),
           b.signals().size());
    fputs(d.str().c_str(), stdout);
    return d.identical ? kExitOk : kExitCheckFailure;
}

/** Prove the contract obligations by k-induction. */
int
proveDesign(const rtl::ModulePtr &mod,
            const std::vector<std::string> &contract_specs,
            const formal::ContractSet *typed, bool print_contracts,
            int prove_k, bool detailed, const std::string &vcd_path,
            const std::string &metrics_path,
            const std::string &profile_path)
{
    rtl::Sim sim(mod);
    std::vector<trace::ContractSpec> specs;
    if (!resolveContracts(contract_specs, sim.netlist(), typed,
                          print_contracts, &specs))
        return kExitUsage;

    formal::InstrumentedDesign inst =
        formal::compileProperties(*mod, specs);
    if (inst.props.empty()) {
        printf("prove: no checkable obligations\n");
        return kExitOk;
    }

    formal::ProveOptions opts;
    if (prove_k > 0)
        opts.k_max = prove_k;
    // The prover reports into the same telemetry spine as a
    // simulation run: per-obligation phase windows onto the profiler,
    // prove.* counters and the states/sec gauge into the registry.
    obs::TraceProfiler profiler(/*record_events=*/true);
    obs::MetricsRegistry reg;
    if (!profile_path.empty())
        opts.profiler = &profiler;
    if (!metrics_path.empty())
        opts.metrics = &reg;
    formal::ProveResult res = formal::prove(inst, opts);
    fputs(res.report(detailed).c_str(), stdout);

    if (!metrics_path.empty() &&
        !writeArtifact(metrics_path, reg.json() + "\n"))
        return kExitIo;
    if (!profile_path.empty()) {
        std::ofstream os(profile_path);
        profiler.writeJson(os);
        if (!closeArtifact(os, profile_path))
            return kExitIo;
    }

    int proved = 0, violated = 0, unknown = 0, conditional = 0;
    const formal::ObligationOutcome *cex = nullptr;
    for (const auto &o : res.obligations) {
        switch (o.status) {
          case formal::ObligationOutcome::Status::Proved:
            proved++;
            break;
          case formal::ObligationOutcome::Status::Violated:
            violated++;
            if (!cex)
                cex = &o;
            break;
          case formal::ObligationOutcome::Status::Unknown:
            unknown++;
            break;
          case formal::ObligationOutcome::Status::Conditional:
            conditional++;
            break;
        }
    }
    printf("prove: %zu obligation(s), %d proved, %d conditional, "
           "%d violated, %d unknown\n",
           res.obligations.size(), proved, conditional, violated,
           unknown);

    if (cex && !vcd_path.empty()) {
        std::ofstream os(vcd_path);
        if (!os) {
            fprintf(stderr, "anvilc: cannot write '%s'\n",
                    vcd_path.c_str());
            return kExitIo;
        }
        formal::writeCexVcd(inst, *cex, os);
        if (!os.good()) {
            fprintf(stderr, "anvilc: error writing '%s'\n",
                    vcd_path.c_str());
            return kExitIo;
        }
        fprintf(stderr,
                "anvilc: wrote %s (counterexample for %s)\n",
                vcd_path.c_str(), cex->name.c_str());
    }
    if (violated)
        return kExitCheckFailure;
    if (unknown)
        return kExitInconclusive;
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string input, output, top, vcd_path;
    std::string check_trace_path;
    std::string diff_a, diff_b;
    bool optimize = true, trace_flag = false, stats = false;
    bool check_only = false, cov = false, contracts = false;
    bool infer_contracts = false, prove = false;
    bool prove_report = false;
    int prove_k = 0;
    std::vector<std::string> contract_specs;
    uint64_t seed_base = 0;
    bool seed_base_set = false;
    bool emit_cpp = false;
    bool backend_set = false;
    bool flight_aux = false;   // any --flight-* / --dump-on given
    SimOptions so;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "-o" && i + 1 < argc) {
            output = argv[++i];
        } else if (arg == "--top" && i + 1 < argc) {
            top = argv[++i];
        } else if (arg == "--no-opt") {
            optimize = false;
        } else if (arg == "--trace") {
            trace_flag = true;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--check-only") {
            check_only = true;
        } else if (arg == "--sim" && i + 1 < argc) {
            so.cycles = atol(argv[++i]);
            if (so.cycles <= 0) {
                fprintf(stderr, "anvilc: bad --sim cycle count\n");
                return kExitUsage;
            }
        } else if (arg == "--seed" && i + 1 < argc) {
            so.seed = strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--farm" && i + 1 < argc) {
            so.farm = atoi(argv[++i]);
            if (so.farm < 1) {
                fprintf(stderr,
                        "anvilc: bad --farm worker count\n");
                return kExitUsage;
            }
        } else if (arg == "--seed-base" && i + 1 < argc) {
            seed_base = strtoull(argv[++i], nullptr, 0);
            seed_base_set = true;
        } else if (arg == "--events" && i + 1 < argc) {
            so.events_path = argv[++i];
        } else if (arg == "--emit-cpp") {
            emit_cpp = true;
        } else if (arg == "--backend" && i + 1 < argc) {
            std::string b = argv[++i];
            if (b == "compiled") {
                so.compiled = true;
            } else if (b != "interp") {
                fprintf(stderr,
                        "anvilc: bad --backend '%s' (expected "
                        "interp or compiled)\n", b.c_str());
                return kExitUsage;
            }
            backend_set = true;
        } else if (arg == "--vcd" && i + 1 < argc) {
            vcd_path = argv[++i];
        } else if (arg == "--cov") {
            cov = true;
        } else if (arg == "--replay" && i + 1 < argc) {
            so.replay_path = argv[++i];
        } else if (arg == "--check-trace" && i + 1 < argc) {
            check_trace_path = argv[++i];
        } else if (arg == "--contracts") {
            contracts = true;
        } else if (arg == "--contract" && i + 1 < argc) {
            contract_specs.push_back(argv[++i]);
        } else if (arg == "--infer-contracts") {
            infer_contracts = true;
        } else if (arg == "--prove") {
            prove = true;
            // Optional depth: `--prove 4`.
            if (i + 1 < argc && argv[i + 1][0] != '\0' &&
                strspn(argv[i + 1], "0123456789") ==
                    strlen(argv[i + 1]))
                prove_k = atoi(argv[++i]);
        } else if (arg == "--prove-report") {
            prove = true;
            prove_report = true;
        } else if (arg == "--diff-trace" && i + 2 < argc) {
            diff_a = argv[++i];
            diff_b = argv[++i];
        } else if (arg == "--flight" && i + 1 < argc) {
            long k = atol(argv[++i]);
            if (k < 1) {
                fprintf(stderr,
                        "anvilc: bad --flight window size\n");
                return kExitUsage;
            }
            so.flight = static_cast<uint64_t>(k);
        } else if (arg == "--flight-post" && i + 1 < argc) {
            long q = atol(argv[++i]);
            if (q < 0) {
                fprintf(stderr, "anvilc: bad --flight-post count\n");
                return kExitUsage;
            }
            so.flight_post = static_cast<uint64_t>(q);
            flight_aux = true;
        } else if (arg == "--dump-on" && i + 1 < argc) {
            std::string t = argv[++i];
            if (t != "VIOLATION" && t.rfind("cover:", 0) != 0) {
                fprintf(stderr,
                        "anvilc: bad --dump-on trigger '%s' "
                        "(expected VIOLATION or cover:NAME)\n",
                        t.c_str());
                return kExitUsage;
            }
            so.dump_on.push_back(std::move(t));
            flight_aux = true;
        } else if (arg == "--flight-out" && i + 1 < argc) {
            so.flight_out = argv[++i];
            flight_aux = true;
        } else if (arg == "--profile-hot" && i + 1 < argc) {
            so.hot_path = argv[++i];
        } else if (arg == "--metrics" && i + 1 < argc) {
            so.metrics_path = argv[++i];
        } else if (arg == "--profile" && i + 1 < argc) {
            so.profile_path = argv[++i];
        } else if (arg == "--stats-json") {
            so.stats_json = true;
        } else if (arg == "--slice" && i + 1 < argc) {
            so.slice_channel = argv[++i];
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return kExitOk;
        } else if (!arg.empty() && arg[0] == '-') {
            fprintf(stderr, "anvilc: unknown option '%s'\n",
                    arg.c_str());
            usage();
            return kExitUsage;
        } else if (input.empty()) {
            input = arg;
        } else {
            fprintf(stderr, "anvilc: multiple inputs\n");
            return kExitUsage;
        }
    }
    // Trace diffing needs no design at all.
    if (!diff_a.empty()) {
        if (!input.empty() || so.cycles > 0 ||
            !so.replay_path.empty() || !check_trace_path.empty() ||
            prove || infer_contracts || contracts || cov ||
            !output.empty()) {
            fprintf(stderr, "anvilc: --diff-trace takes no other "
                            "action\n");
            return kExitUsage;
        }
        return diffTraceFiles(diff_a, diff_b);
    }
    if (input.empty()) {
        usage();
        return kExitUsage;
    }
    if (!so.replay_path.empty() && !check_trace_path.empty()) {
        fprintf(stderr,
                "anvilc: --replay and --check-trace conflict\n");
        return kExitUsage;
    }
    if (prove && (so.cycles > 0 || !so.replay_path.empty() ||
                  !check_trace_path.empty())) {
        fprintf(stderr, "anvilc: --prove conflicts with "
                        "--sim/--replay/--check-trace\n");
        return kExitUsage;
    }
    bool runs_sim = so.cycles > 0 || !so.replay_path.empty();
    if (!runs_sim && !prove && (!vcd_path.empty() || so.seed != 1)) {
        fprintf(stderr, "anvilc: --vcd/--seed require "
                        "--sim <N>, --replay, or --prove\n");
        return kExitUsage;
    }
    if (backend_set && !runs_sim) {
        fprintf(stderr, "anvilc: --backend requires --sim <N> or "
                        "--replay\n");
        return kExitUsage;
    }
    if (so.farm > 0 && so.cycles <= 0) {
        fprintf(stderr, "anvilc: --farm requires --sim <N>\n");
        return kExitUsage;
    }
    if (seed_base_set && so.farm <= 0) {
        fprintf(stderr, "anvilc: --seed-base requires --farm <N>\n");
        return kExitUsage;
    }
    if (so.farm > 0 &&
        (!so.replay_path.empty() || !vcd_path.empty() ||
         !so.slice_channel.empty() || !so.profile_path.empty() ||
         !so.hot_path.empty())) {
        fprintf(stderr,
                "anvilc: --farm conflicts with --replay/--vcd/"
                "--slice/--profile/--profile-hot\n");
        return kExitUsage;
    }
    if (so.flight && (so.cycles <= 0 || !so.replay_path.empty())) {
        fprintf(stderr,
                "anvilc: --flight requires --sim <N> (not "
                "--replay)\n");
        return kExitUsage;
    }
    if (flight_aux && !so.flight) {
        fprintf(stderr,
                "anvilc: --flight-post/--dump-on/--flight-out "
                "require --flight <K>\n");
        return kExitUsage;
    }
    if (!so.events_path.empty() &&
        (so.cycles <= 0 || !so.replay_path.empty())) {
        fprintf(stderr,
                "anvilc: --events requires --sim <N> (not "
                "--replay)\n");
        return kExitUsage;
    }
    // --metrics/--profile also tap the prover's telemetry spine;
    // --stats-json/--slice/--profile-hot remain simulation-only.
    if ((!so.metrics_path.empty() || !so.profile_path.empty()) &&
        !runs_sim && !prove) {
        fprintf(stderr,
                "anvilc: --metrics/--profile require --sim <N>, "
                "--replay, or --prove\n");
        return kExitUsage;
    }
    if ((so.stats_json || !so.slice_channel.empty() ||
         !so.hot_path.empty()) &&
        !runs_sim) {
        fprintf(stderr,
                "anvilc: --stats-json/--slice/--profile-hot "
                "require --sim <N> or --replay\n");
        return kExitUsage;
    }
    if (!so.slice_channel.empty() && vcd_path.empty()) {
        fprintf(stderr, "anvilc: --slice requires --vcd <file>\n");
        return kExitUsage;
    }
    if (emit_cpp &&
        (runs_sim || !check_trace_path.empty() || prove ||
         check_only)) {
        fprintf(stderr, "anvilc: --emit-cpp is a codegen action; it "
                        "conflicts with --sim/--replay/--check-trace/"
                        "--prove/--check-only\n");
        return kExitUsage;
    }
    if (!runs_sim && check_trace_path.empty() && cov) {
        fprintf(stderr, "anvilc: --cov requires --sim <N>, "
                        "--replay, or --check-trace\n");
        return kExitUsage;
    }
    bool needs_module = runs_sim || !check_trace_path.empty() ||
                        contracts || !contract_specs.empty() ||
                        prove || emit_cpp;
    if ((needs_module || infer_contracts) && check_only) {
        fprintf(stderr, "anvilc: --sim/--replay/--check-trace/"
                        "--contracts/--prove/--infer-contracts "
                        "need codegen (drop --check-only)\n");
        return kExitUsage;
    }

    std::ifstream in(input);
    if (!in) {
        fprintf(stderr, "anvilc: cannot open '%s'\n", input.c_str());
        return kExitIo;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    CompileOptions opts;
    opts.top = top;
    opts.optimize = optimize;
    opts.codegen = !check_only;
    CompileOutput out = compileAnvil(buf.str(), opts);

    // Diagnostics (warnings and notes included).
    fputs(out.diags.render().c_str(), stderr);

    if (trace_flag) {
        for (const auto &[name, check] : out.checks) {
            printf("=== %s ===\n%s\n", name.c_str(),
                   check.traceStr().c_str());
        }
    }
    if (stats) {
        for (const auto &[name, s] : out.opt_stats) {
            printf("%-20s events %4d -> %4d", name.c_str(), s.before,
                   s.after);
            auto mod = out.module(name);
            if (mod) {
                auto r = synth::synthesize(*mod);
                printf("   %s", r.str().c_str());
            }
            printf("\n");
        }
    }

    if (!out.ok) {
        fprintf(stderr, "anvilc: %d error(s)\n",
                out.diags.errorCount());
        return kExitCheckFailure;
    }

    if (!check_only && !emit_cpp) {
        if (output.empty()) {
            if (!needs_module && !infer_contracts)
                fputs(out.systemverilog.c_str(), stdout);
        } else if (!writeArtifact(output, out.systemverilog)) {
            return kExitIo;
        }
    }

    // The typed contract set: the single spec source shared by the
    // monitors, the offline checker, and the prover.  Only computed
    // when a contract consumer will read it — plain codegen and
    // contract-less --sim/--replay runs skip the re-elaboration it
    // costs.
    bool wants_contracts = infer_contracts || prove || contracts ||
        !contract_specs.empty() || !check_trace_path.empty();
    formal::ContractSet typed;
    if (wants_contracts)
        typed = formal::inferContracts(out.program, out.top);
    if (infer_contracts) {
        printf("infer-contracts: %s: %zu channel(s)\n",
               typed.top.c_str(), typed.channels.size());
        fputs(typed.str().c_str(), stdout);
        if (!needs_module)
            return kExitOk;
    }

    if (needs_module) {
        rtl::ModulePtr mod = out.module(out.top);
        if (!mod) {
            fprintf(stderr, "anvilc: no module for top '%s'\n",
                    out.top.c_str());
            return kExitCheckFailure;
        }
        if (emit_cpp) {
            rtl::Netlist nl(*mod);
            std::string kernel = codegen::emitCppKernel(nl, out.top);
            if (output.empty())
                fputs(kernel.c_str(), stdout);
            else if (!writeArtifact(output, kernel))
                return kExitIo;
            return kExitOk;
        }
        if (prove)
            return proveDesign(mod, contract_specs, &typed,
                               contracts, prove_k, prove_report,
                               vcd_path, so.metrics_path,
                               so.profile_path);
        if (!check_trace_path.empty())
            return checkTraceFile(mod, check_trace_path, contracts,
                                  contract_specs, &typed, cov);
        if (runs_sim) {
            if (seed_base_set)
                so.seed = seed_base;
            return runSim(mod, &typed, contracts, contract_specs,
                          vcd_path, cov, stats, so);
        }
        // --contracts / --contract alone: print the contract set.
        rtl::Sim sim(mod);
        std::vector<trace::ContractSpec> specs;
        if (!resolveContracts(contract_specs, sim.netlist(), &typed,
                              true, &specs))
            return kExitUsage;
    }
    return kExitOk;
}
