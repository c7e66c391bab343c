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
 *     --stats        print event-graph, synthesis, and (with --sim)
 *                    simulation/coverage statistics
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
 *     --flight-pre <P>  override the pre-trigger context (default:
 *                    the --flight argument)
 *     --flight-post <Q> cycles captured after a trigger before the
 *                    dump flushes (default 8)
 *     --dump-on <t>  flight trigger (repeatable): VIOLATION (any
 *                    testbench/contract failure; the default) or
 *                    cover:NAME (a named cover point's hit count)
 *     --flight-out <p>  window dump path prefix (default "flight");
 *                    dumps land at <p>-<n>.vcd (farm workers:
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
#include "codegen/jit.h"
#include "obs/activity.h"
#include "obs/flight.h"
#include "obs/hot.h"
#include "obs/merge.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/slice.h"
#include "obs/stream.h"
#include "obs/triage.h"
#include "formal/contracts.h"
#include "formal/kinduction.h"
#include "formal/property.h"
#include "synth/cost_model.h"
#include "tb/testbench.h"
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
            "  --flight-pre <P>  pre-trigger context override\n"
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

/** Observability options threaded through --sim / --replay runs. */
struct ObsOptions
{
    std::string metrics_path;    // --metrics
    std::string profile_path;    // --profile
    std::string slice_channel;   // --slice
    std::string events_path;     // --events
    bool stats_json = false;     // --stats-json

    uint64_t flight = 0;         // --flight K (0: recorder off)
    uint64_t flight_pre = 0;     // --flight-pre (0: use flight)
    uint64_t flight_post = 8;    // --flight-post
    std::vector<std::string> dump_on;   // --dump-on triggers
    std::string flight_out = "flight";  // --flight-out prefix
    std::string hot_path;        // --profile-hot

    /** True when any telemetry sink is requested. */
    bool telemetry() const
    {
        return !metrics_path.empty() || !profile_path.empty() ||
               stats_json || !events_path.empty();
    }

    /** Pre-trigger window actually used by the recorder. */
    uint64_t flightPre() const
    {
        return flight_pre ? flight_pre : flight;
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

/**
 * Live event-stream tap for a single run (--events): the sink plus
 * the two stream-side observer plugins, so finishRun can emit the
 * end-of-run tail and export their metrics.
 */
struct EventTap
{
    obs::EventSink *sink = nullptr;
    std::ofstream *os = nullptr;
    std::string path;
    obs::RollingActivity *activity = nullptr;
    obs::AssertionTriage *triage = nullptr;
};

/**
 * --backend compiled: JIT the netlist and attach the kernel to the
 * bench's simulator.  Failures (no compiler, compile error, hash
 * mismatch) degrade to the interpreter with a note on stderr; the
 * run's results and exit code are identical either way.
 */
codegen::JitResult
attachCompiledBackend(tb::Testbench &bench)
{
    codegen::JitResult jr =
        codegen::jitCompileKernel(bench.sim().netlist());
    if (jr.kernel &&
        bench.sim().attachKernel(codegen::kernelRef(jr.kernel)))
        return jr;
    fprintf(stderr,
            "anvilc: note: compiled backend unavailable (%s); "
            "using the interpreter\n",
            jr.error.empty() ? "kernel attach failed"
                             : jr.error.c_str());
    return jr;
}

/**
 * Hook the telemetry spine up before a run: one TraceProfiler feeds
 * both the simulator's phase timing (Sim::setTelemetry) and the
 * change feed's per-observer tracks.  Event buffering is only paid
 * for when --profile will write them out.
 */
std::unique_ptr<obs::TraceProfiler>
attachTelemetry(tb::Testbench &bench, const ObsOptions &oo)
{
    if (!oo.telemetry())
        return nullptr;
    auto profiler = std::make_unique<obs::TraceProfiler>(
        !oo.profile_path.empty());
    bench.sim().setTelemetry(profiler.get());
    bench.feed().setProfiler(profiler.get());
    return profiler;
}

/** Attach the --slice / --vcd observer to the bench. */
int
attachWaves(tb::Testbench &bench, std::ofstream &vcd_os,
            const ObsOptions &oo)
{
    if (oo.slice_channel.empty()) {
        bench.attachVcd(vcd_os);
        return kExitOk;
    }
    try {
        bench.attachObserver(std::make_unique<obs::ChannelSlicer>(
            bench.sim(), vcd_os, oo.slice_channel));
    } catch (const std::invalid_argument &e) {
        fprintf(stderr, "anvilc: %s\n", e.what());
        return kExitUsage;
    }
    return kExitOk;
}

/** Shared tail of --sim and --replay runs: run, report, exit code. */
int
finishRun(tb::Testbench &bench, uint64_t cycles,
          tb::Coverage *coverage, std::ofstream *vcd_os,
          const std::string &vcd_path, bool cov, bool stats,
          const ObsOptions &oo, obs::TraceProfiler *profiler,
          const codegen::JitResult *jit,
          const EventTap *tap = nullptr,
          const obs::FlightRecorder *flight = nullptr)
{
    uint64_t wall0 = rtl::monotonicNanos();
    tb::TbResult result = bench.run(cycles);
    uint64_t wall_ns = rtl::monotonicNanos() - wall0;
    bench.feed().finish();

    printf("sim: %llu cycles, %llu toggles, %zu dprint line(s)\n",
           (unsigned long long)result.cycles,
           (unsigned long long)bench.sim().totalToggles(),
           bench.sim().log().size());
    if (stats) {
        // The activity factor is what the event-driven sweep
        // exploits: nodes actually evaluated vs. the whole strict
        // table, per cycle.
        const rtl::SweepStats &ss = bench.sim().sweepStats();
        double act = ss.strict_nodes
            ? 100.0 * ss.avgNodes() /
                static_cast<double>(ss.strict_nodes)
            : 0.0;
        // Always name the backend actually used: a silent JIT
        // fallback must be visible here, not just in stats-json.
        printf("sweep: mode=%s backend=%s threads=1 strict-nodes=%zu "
               "evaluated/cycle avg=%.1f peak=%llu "
               "changed-nets/cycle avg=%.1f peak=%llu "
               "activity=%.1f%%\n",
               rtl::sweepModeName(ss.mode),
               bench.sim().kernelAttached() ? "compiled" : "interp",
               ss.strict_nodes, ss.avgNodes(),
               (unsigned long long)ss.peak_nodes, ss.avgChanged(),
               (unsigned long long)ss.peak_changed, act);
        if (bench.sim().kernelAttached())
            printf("sweep-kernel: frames=%llu dense-frames=%llu "
                   "fallback-switches=%llu\n",
                   (unsigned long long)ss.kernel_frames,
                   (unsigned long long)ss.kernel_dense_frames,
                   (unsigned long long)ss.kernel_fallback_switches);
    }
    if (coverage && (stats || cov))
        printf("sim-summary %s\n", coverage->summaryJson().c_str());
    if (cov && coverage)
        fputs(coverage->report().c_str(), stdout);
    if (vcd_os) {
        vcd_os->flush();
        if (!vcd_os->good()) {
            fprintf(stderr, "anvilc: error writing '%s'\n",
                    vcd_path.c_str());
            return kExitIo;
        }
        fprintf(stderr, "anvilc: wrote %s\n", vcd_path.c_str());
    }
    if (flight)
        for (const obs::FlightRecorder::DumpInfo &d :
             flight->dumps())
            printf("flight: dump %d: %s @%llu window "
                   "[%llu..%llu]%s%s\n",
                   d.index, d.trigger.c_str(),
                   (unsigned long long)d.trigger_cycle,
                   (unsigned long long)d.from,
                   (unsigned long long)d.to,
                   d.path.empty() ? "" : " -> ",
                   d.path.c_str());

    // Hot-spot attribution (--profile-hot): ranked tables on stdout,
    // the anvil-hot-v1 JSON report to the requested file.
    std::unique_ptr<obs::HotReport> hot;
    if (!oo.hot_path.empty()) {
        hot = std::make_unique<obs::HotReport>(
            obs::buildHotReport(bench.sim()));
        fputs(hot->table().c_str(), stdout);
        std::ofstream os(oo.hot_path);
        os << hot->json() << "\n";
        os.flush();
        if (!os.good()) {
            fprintf(stderr, "anvilc: cannot write '%s'\n",
                    oo.hot_path.c_str());
            return kExitIo;
        }
        fprintf(stderr, "anvilc: wrote %s\n", oo.hot_path.c_str());
    }

    if (oo.telemetry()) {
        obs::MetricsRegistry reg;
        run::collectRunMetrics(reg, bench, result, coverage,
                               profiler, jit, wall_ns,
                               tap ? tap->activity : nullptr,
                               tap ? tap->triage : nullptr);
        if (flight)
            flight->exportMetrics(reg);
        if (hot)
            hot->exportMetrics(reg);
        if (tap && tap->sink) {
            run::emitRunTail(*tap->sink, bench, result, coverage,
                             reg, wall_ns);
            tap->os->flush();
            if (!tap->os->good()) {
                fprintf(stderr, "anvilc: cannot write '%s'\n",
                        tap->path.c_str());
                return kExitIo;
            }
            fprintf(stderr, "anvilc: wrote %s\n", tap->path.c_str());
        }
        if (!oo.metrics_path.empty()) {
            std::ofstream os(oo.metrics_path);
            os << reg.json() << "\n";
            os.flush();
            if (!os.good()) {
                fprintf(stderr, "anvilc: cannot write '%s'\n",
                        oo.metrics_path.c_str());
                return kExitIo;
            }
            fprintf(stderr, "anvilc: wrote %s\n",
                    oo.metrics_path.c_str());
        }
        if (!oo.profile_path.empty() && profiler) {
            profiler->setLevelActivity(bench.feed().levelActivity());
            std::ofstream os(oo.profile_path);
            profiler->writeJson(os);
            os.flush();
            if (!os.good()) {
                fprintf(stderr, "anvilc: cannot write '%s'\n",
                        oo.profile_path.c_str());
                return kExitIo;
            }
            fprintf(stderr, "anvilc: wrote %s\n",
                    oo.profile_path.c_str());
        }
        if (oo.stats_json) {
            const rtl::SweepStats &ss = bench.sim().sweepStats();
            double act = ss.strict_nodes
                ? 100.0 * ss.avgNodes() /
                    static_cast<double>(ss.strict_nodes)
                : 0.0;
            double cps = wall_ns
                ? static_cast<double>(result.cycles) * 1e9 /
                    static_cast<double>(wall_ns)
                : 0.0;
            printf("stats-json {\"schema\":\"anvil-stats-v1\","
                   "\"design\":\"%s\",\"cycles\":%llu,"
                   "\"backend\":\"%s\",\"sweep\":\"%s\","
                   "\"threads\":1,\"activity_pct\":%.2f,"
                   "\"toggles\":%llu,\"failures\":%zu,"
                   "\"wall_ns\":%llu,\"cycles_per_sec\":%.0f,"
                   "\"coverage\":%s}\n",
                   bench.sim().topName().c_str(),
                   (unsigned long long)result.cycles,
                   bench.sim().kernelAttached() ? "compiled"
                                                : "interp",
                   rtl::sweepModeName(ss.mode), act,
                   (unsigned long long)bench.sim().totalToggles(),
                   result.failures.size(),
                   (unsigned long long)wall_ns, cps,
                   coverage ? coverage->summaryJson().c_str()
                            : "null");
        }
    }

    if (!result.ok()) {
        fprintf(stderr, "anvilc: %s\n", result.summary().c_str());
        return kExitCheckFailure;
    }
    return kExitOk;
}

/** Random-testbench run over the compiled top module. */
int
simulate(const rtl::ModulePtr &mod, long cycles, uint64_t seed,
         const std::string &vcd_path, bool cov, bool stats,
         bool contracts,
         const std::vector<std::string> &contract_specs,
         const formal::ContractSet *typed, bool compiled_backend,
         const ObsOptions &oo)
{
    tb::Testbench bench(mod, seed);
    if (!oo.hot_path.empty())
        bench.sim().setEvalCounting(true);
    codegen::JitResult jit;
    if (compiled_backend)
        jit = attachCompiledBackend(bench);
    std::unique_ptr<obs::TraceProfiler> profiler =
        attachTelemetry(bench, oo);
    for (const auto &in : bench.sim().inputNames())
        bench.driveRandom(in);

    std::ofstream events_os;
    std::unique_ptr<obs::EventSink> sink;
    EventTap tap;
    if (!oo.events_path.empty()) {
        events_os.open(oo.events_path);
        if (!events_os) {
            fprintf(stderr, "anvilc: cannot write '%s'\n",
                    oo.events_path.c_str());
            return kExitIo;
        }
        sink = std::make_unique<obs::EventSink>(events_os);
        tap.sink = sink.get();
        tap.os = &events_os;
        tap.path = oo.events_path;
    }

    trace::ContractMonitor *monitor = nullptr;
    if (contracts || !contract_specs.empty()) {
        std::vector<trace::ContractSpec> specs;
        if (!resolveContracts(contract_specs,
                              bench.sim().netlist(), typed,
                              contracts, &specs))
            return kExitUsage;
        try {
            monitor = static_cast<trace::ContractMonitor *>(
                &bench.addMonitor(
                    std::make_unique<trace::ContractMonitor>(
                        std::move(specs), bench.sim())));
        } catch (const std::invalid_argument &e) {
            fprintf(stderr, "anvilc: %s\n", e.what());
            return kExitUsage;
        }
    }

    tb::Coverage *coverage = nullptr;
    if (cov || stats || (oo.flight && oo.coverTriggered()))
        coverage = &bench.coverage();

    // The stream-side plugins ride along whenever the run streams
    // events — the same stack a farm worker runs, so a single-run
    // stream merges (and compares) cleanly against farm output.
    if (sink) {
        if (monitor)
            tap.triage = static_cast<obs::AssertionTriage *>(
                &bench.attachObserver(
                    std::make_unique<obs::AssertionTriage>(
                        *monitor, sink.get())));
        tap.activity = static_cast<obs::RollingActivity *>(
            &bench.attachObserver(
                std::make_unique<obs::RollingActivity>(
                    /*window=*/64, sink.get())));
        sink->runBegin(bench.sim().topName(), /*worker=*/0, seed,
                       static_cast<uint64_t>(cycles),
                       bench.sim().sweepMode());
    }

    // Flight recorder last: its trigger poll must see the cycle's
    // monitor and coverage updates, and its window_dump events land
    // in the stream the sink plugins already opened.
    obs::FlightRecorder *flight = nullptr;
    if (oo.flight) {
        obs::FlightRecorder::Options fo;
        fo.pre = oo.flightPre();
        fo.post = oo.flight_post;
        auto rec = std::make_unique<obs::FlightRecorder>(bench.sim(),
                                                         fo);
        std::string err;
        if (!run::attachFlightTriggers(*rec, bench, coverage,
                                       oo.dump_on, &err)) {
            fprintf(stderr, "anvilc: %s\n", err.c_str());
            return kExitUsage;
        }
        std::string prefix = oo.flight_out;
        obs::EventSink *esink = sink.get();
        rec->setDumpSink(
            [prefix, esink](const obs::FlightRecorder::DumpInfo &d,
                            const std::string &vcd) {
                std::string path =
                    prefix + "-" + std::to_string(d.index) + ".vcd";
                std::ofstream os(path);
                os << vcd;
                os.flush();
                if (!os.good()) {
                    fprintf(stderr, "anvilc: cannot write '%s'\n",
                            path.c_str());
                    path.clear();
                } else {
                    fprintf(stderr, "anvilc: wrote %s\n",
                            path.c_str());
                }
                if (esink)
                    esink->windowDump(d.trigger_cycle, d.trigger,
                                      path, d.from, d.to);
                return path;
            });
        flight = static_cast<obs::FlightRecorder *>(
            &bench.attachObserver(std::move(rec)));
    }

    std::ofstream vcd_os;
    if (!vcd_path.empty()) {
        vcd_os.open(vcd_path);
        if (!vcd_os) {
            fprintf(stderr, "anvilc: cannot write '%s'\n",
                    vcd_path.c_str());
            return kExitIo;
        }
        if (int rc = attachWaves(bench, vcd_os, oo))
            return rc;
    }

    return finishRun(bench, static_cast<uint64_t>(cycles), coverage,
                     vcd_path.empty() ? nullptr : &vcd_os, vcd_path,
                     cov, stats, oo, profiler.get(),
                     compiled_backend ? &jit : nullptr,
                     sink ? &tap : nullptr, flight);
}

/**
 * In-process farm fan-out (--farm N): N workers over one shared
 * immutable netlist (and one JIT kernel), each running the standard
 * random testbench at seed_base + worker, streaming telemetry
 * events into an in-memory obs::Merger.  The merged report is
 * byte-compatible with single-run output.
 */
int
farm(const rtl::ModulePtr &mod, long cycles, int workers,
     uint64_t seed_base, bool cov, bool stats, bool contracts,
     const std::vector<std::string> &contract_specs,
     const formal::ContractSet *typed, bool compiled_backend,
     const ObsOptions &oo)
{
    run::FarmConfig fc;
    fc.workers = workers;
    fc.compiled_backend = compiled_backend;
    run::JobConfig &job = fc.job;
    job.top = mod;
    job.netlist = std::make_shared<const rtl::Netlist>(*mod);
    job.seed = seed_base;
    job.cycles = static_cast<uint64_t>(cycles);
    job.coverage = cov || stats ||
                   (oo.flight && oo.coverTriggered());
    job.flight_pre = oo.flight ? oo.flightPre() : 0;
    job.flight_post = oo.flight_post;
    job.flight_triggers = oo.dump_on;
    job.flight_out = oo.flight ? oo.flight_out : "";

    bool monitored = contracts || !contract_specs.empty();
    if (monitored &&
        !resolveContracts(contract_specs, *job.netlist, typed,
                          contracts, &job.contracts))
        return kExitUsage;

    obs::Merger merger;
    run::FarmResult fr;
    try {
        fr = run::runFarm(fc, merger);
    } catch (const std::exception &e) {
        fprintf(stderr, "anvilc: farm: %s\n", e.what());
        return kExitCheckFailure;
    }
    if (!fr.jit_note.empty())
        fprintf(stderr,
                "anvilc: note: compiled backend unavailable (%s); "
                "using the interpreter\n", fr.jit_note.c_str());

    printf("farm: %d worker(s), %llu cycle(s) each, "
           "seeds %llu..%llu\n",
           workers, (unsigned long long)cycles,
           (unsigned long long)seed_base,
           (unsigned long long)(seed_base +
                                static_cast<uint64_t>(workers) - 1));
    for (const run::JobResult &j : fr.jobs)
        printf("worker %d: seed %llu: %s\n", j.worker,
               (unsigned long long)j.seed, j.summary.c_str());

    obs::Merger::Totals t = merger.totals();
    printf("sim: %llu cycles, %llu toggles across %zu worker(s)\n",
           (unsigned long long)t.cycles,
           (unsigned long long)t.toggles, t.workers);
    if (merger.hasCoverage() && (stats || cov))
        printf("sim-summary %s\n",
               merger.coverage().summaryJson().c_str());
    if (cov && merger.hasCoverage())
        fputs(merger.coverage().report().c_str(), stdout);
    if (monitored)
        fputs(merger.triageReport().c_str(), stdout);
    for (const obs::Merger::WindowDump &wd : merger.windowDumps())
        printf("flight: worker %d: %s @%llu window [%llu..%llu]%s%s\n",
               wd.worker, wd.trigger.c_str(),
               (unsigned long long)wd.trigger_cycle,
               (unsigned long long)wd.from,
               (unsigned long long)wd.to,
               wd.path.empty() ? "" : " -> ", wd.path.c_str());

    if (!oo.events_path.empty()) {
        // One on-disk stream per worker: <path>.<worker> — the same
        // files tools/anvil_merge consumes.
        for (const run::JobResult &j : fr.jobs) {
            std::string path =
                oo.events_path + "." + std::to_string(j.worker);
            std::ofstream os(path);
            if (os)
                os << j.events;
            os.flush();
            if (!os.good()) {
                fprintf(stderr, "anvilc: cannot write '%s'\n",
                        path.c_str());
                return kExitIo;
            }
            fprintf(stderr, "anvilc: wrote %s\n", path.c_str());
        }
    }
    if (!oo.metrics_path.empty()) {
        std::ofstream os(oo.metrics_path);
        if (os)
            os << merger.metricsJson() << "\n";
        os.flush();
        if (!os.good()) {
            fprintf(stderr, "anvilc: cannot write '%s'\n",
                    oo.metrics_path.c_str());
            return kExitIo;
        }
        fprintf(stderr, "anvilc: wrote %s\n",
                oo.metrics_path.c_str());
    }
    if (oo.stats_json)
        printf("stats-json %s\n",
               merger.statsJson(fr.wall_ns).c_str());

    if (fr.anyFailed()) {
        for (const run::JobResult &j : fr.jobs)
            if (!j.ok)
                fprintf(stderr,
                        "anvilc: worker %d (seed %llu): %s\n",
                        j.worker, (unsigned long long)j.seed,
                        j.summary.c_str());
        return kExitCheckFailure;
    }
    return kExitOk;
}

/** Replay a recorded dump as stimulus and diff the re-simulation. */
int
replay(const rtl::ModulePtr &mod, const std::string &dump_path,
       long cycles_override, const std::string &vcd_path, bool cov,
       bool stats, bool contracts,
       const std::vector<std::string> &contract_specs,
       const formal::ContractSet *typed, bool compiled_backend,
       const ObsOptions &oo)
{
    trace::Trace t;
    try {
        t = trace::VcdReader::readFile(dump_path);
    } catch (const std::runtime_error &e) {
        fprintf(stderr, "anvilc: %s: %s\n", dump_path.c_str(),
                e.what());
        return kExitIo;
    }

    tb::Testbench bench(mod);
    if (!oo.hot_path.empty())
        bench.sim().setEvalCounting(true);
    codegen::JitResult jit;
    if (compiled_backend)
        jit = attachCompiledBackend(bench);
    std::unique_ptr<obs::TraceProfiler> profiler =
        attachTelemetry(bench, oo);
    auto driver =
        std::make_unique<trace::ReplayDriver>(t, bench.sim());
    uint64_t cycles = driver->cyclesAvailable();
    // Inputs the dump never recorded stay at zero; say so rather
    // than let the diff below blame the design.
    for (const auto &in : driver->missingInputs())
        fprintf(stderr,
                "anvilc: note: input '%s' not recorded in %s; "
                "replaying it as zero\n",
                in.c_str(), dump_path.c_str());
    bench.addDriver(std::move(driver));
    bench.addMonitor(
        std::make_unique<trace::ReplayMonitor>(t, bench.sim()));

    // Contract monitoring applies to replayed runs too.
    if (contracts || !contract_specs.empty()) {
        std::vector<trace::ContractSpec> specs;
        if (!resolveContracts(contract_specs,
                              bench.sim().netlist(), typed,
                              contracts, &specs))
            return kExitUsage;
        try {
            bench.addMonitor(
                std::make_unique<trace::ContractMonitor>(
                    std::move(specs), bench.sim()));
        } catch (const std::invalid_argument &e) {
            fprintf(stderr, "anvilc: %s\n", e.what());
            return kExitUsage;
        }
    }

    if (cycles_override > 0)
        cycles = static_cast<uint64_t>(cycles_override);
    printf("replay: %s: %zu signals, %llu change(s), %llu cycle(s)\n",
           dump_path.c_str(), t.signals().size(),
           (unsigned long long)t.changeCount(),
           (unsigned long long)cycles);

    tb::Coverage *coverage = nullptr;
    if (cov || stats)
        coverage = &bench.coverage();

    std::ofstream vcd_os;
    if (!vcd_path.empty()) {
        vcd_os.open(vcd_path);
        if (!vcd_os) {
            fprintf(stderr, "anvilc: cannot write '%s'\n",
                    vcd_path.c_str());
            return kExitIo;
        }
        if (int rc = attachWaves(bench, vcd_os, oo))
            return rc;
    }

    return finishRun(bench, cycles, coverage,
                     vcd_path.empty() ? nullptr : &vcd_os, vcd_path,
                     cov, stats, oo, profiler.get(),
                     compiled_backend ? &jit : nullptr);
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
            const ObsOptions &oo)
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
    if (!oo.profile_path.empty())
        opts.profiler = &profiler;
    if (!oo.metrics_path.empty())
        opts.metrics = &reg;
    formal::ProveResult res = formal::prove(inst, opts);
    fputs(res.report(detailed).c_str(), stdout);

    if (!oo.metrics_path.empty()) {
        std::ofstream os(oo.metrics_path);
        os << reg.json() << "\n";
        os.flush();
        if (!os.good()) {
            fprintf(stderr, "anvilc: cannot write '%s'\n",
                    oo.metrics_path.c_str());
            return kExitIo;
        }
        fprintf(stderr, "anvilc: wrote %s\n",
                oo.metrics_path.c_str());
    }
    if (!oo.profile_path.empty()) {
        std::ofstream os(oo.profile_path);
        profiler.writeJson(os);
        os.flush();
        if (!os.good()) {
            fprintf(stderr, "anvilc: cannot write '%s'\n",
                    oo.profile_path.c_str());
            return kExitIo;
        }
        fprintf(stderr, "anvilc: wrote %s\n",
                oo.profile_path.c_str());
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
    std::string replay_path, check_trace_path;
    std::string diff_a, diff_b;
    bool optimize = true, trace_flag = false, stats = false;
    bool check_only = false, cov = false, contracts = false;
    bool infer_contracts = false, prove = false;
    bool prove_report = false;
    int prove_k = 0;
    std::vector<std::string> contract_specs;
    long sim_cycles = 0;
    uint64_t seed = 1;
    int farm_workers = 0;
    uint64_t seed_base = 0;
    bool seed_base_set = false;
    bool emit_cpp = false;
    bool compiled_backend = false;
    bool backend_set = false;
    bool flight_aux = false;   // any --flight-* / --dump-on given
    ObsOptions oo;

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
            sim_cycles = atol(argv[++i]);
            if (sim_cycles <= 0) {
                fprintf(stderr, "anvilc: bad --sim cycle count\n");
                return kExitUsage;
            }
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--farm" && i + 1 < argc) {
            farm_workers = atoi(argv[++i]);
            if (farm_workers < 1) {
                fprintf(stderr,
                        "anvilc: bad --farm worker count\n");
                return kExitUsage;
            }
        } else if (arg == "--seed-base" && i + 1 < argc) {
            seed_base = strtoull(argv[++i], nullptr, 0);
            seed_base_set = true;
        } else if (arg == "--events" && i + 1 < argc) {
            oo.events_path = argv[++i];
        } else if (arg == "--emit-cpp") {
            emit_cpp = true;
        } else if (arg == "--backend" && i + 1 < argc) {
            std::string b = argv[++i];
            if (b == "compiled") {
                compiled_backend = true;
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
            replay_path = argv[++i];
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
            oo.flight = static_cast<uint64_t>(k);
        } else if (arg == "--flight-pre" && i + 1 < argc) {
            long p = atol(argv[++i]);
            if (p < 1) {
                fprintf(stderr, "anvilc: bad --flight-pre count\n");
                return kExitUsage;
            }
            oo.flight_pre = static_cast<uint64_t>(p);
            flight_aux = true;
        } else if (arg == "--flight-post" && i + 1 < argc) {
            long q = atol(argv[++i]);
            if (q < 0) {
                fprintf(stderr, "anvilc: bad --flight-post count\n");
                return kExitUsage;
            }
            oo.flight_post = static_cast<uint64_t>(q);
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
            oo.dump_on.push_back(std::move(t));
            flight_aux = true;
        } else if (arg == "--flight-out" && i + 1 < argc) {
            oo.flight_out = argv[++i];
            flight_aux = true;
        } else if (arg == "--profile-hot" && i + 1 < argc) {
            oo.hot_path = argv[++i];
        } else if (arg == "--metrics" && i + 1 < argc) {
            oo.metrics_path = argv[++i];
        } else if (arg == "--profile" && i + 1 < argc) {
            oo.profile_path = argv[++i];
        } else if (arg == "--stats-json") {
            oo.stats_json = true;
        } else if (arg == "--slice" && i + 1 < argc) {
            oo.slice_channel = argv[++i];
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
        if (!input.empty() || sim_cycles > 0 ||
            !replay_path.empty() || !check_trace_path.empty() ||
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
    if (!replay_path.empty() && !check_trace_path.empty()) {
        fprintf(stderr,
                "anvilc: --replay and --check-trace conflict\n");
        return kExitUsage;
    }
    if (prove && (sim_cycles > 0 || !replay_path.empty() ||
                  !check_trace_path.empty())) {
        fprintf(stderr, "anvilc: --prove conflicts with "
                        "--sim/--replay/--check-trace\n");
        return kExitUsage;
    }
    bool runs_sim = sim_cycles > 0 || !replay_path.empty();
    if (!runs_sim && !prove && (!vcd_path.empty() || seed != 1)) {
        fprintf(stderr, "anvilc: --vcd/--seed require "
                        "--sim <N>, --replay, or --prove\n");
        return kExitUsage;
    }
    if (backend_set && !runs_sim) {
        fprintf(stderr, "anvilc: --backend requires --sim <N> or "
                        "--replay\n");
        return kExitUsage;
    }
    if (farm_workers > 0 && sim_cycles <= 0) {
        fprintf(stderr, "anvilc: --farm requires --sim <N>\n");
        return kExitUsage;
    }
    if (seed_base_set && farm_workers <= 0) {
        fprintf(stderr, "anvilc: --seed-base requires --farm <N>\n");
        return kExitUsage;
    }
    if (farm_workers > 0 &&
        (!replay_path.empty() || !vcd_path.empty() ||
         !oo.slice_channel.empty() || !oo.profile_path.empty() ||
         !oo.hot_path.empty())) {
        fprintf(stderr,
                "anvilc: --farm conflicts with --replay/--vcd/"
                "--slice/--profile/--profile-hot\n");
        return kExitUsage;
    }
    if (oo.flight && (sim_cycles <= 0 || !replay_path.empty())) {
        fprintf(stderr,
                "anvilc: --flight requires --sim <N> (not "
                "--replay)\n");
        return kExitUsage;
    }
    if (flight_aux && !oo.flight) {
        fprintf(stderr,
                "anvilc: --flight-pre/--flight-post/--dump-on/"
                "--flight-out require --flight <K>\n");
        return kExitUsage;
    }
    if (!oo.events_path.empty() &&
        (sim_cycles <= 0 || !replay_path.empty())) {
        fprintf(stderr,
                "anvilc: --events requires --sim <N> (not "
                "--replay)\n");
        return kExitUsage;
    }
    // --metrics/--profile also tap the prover's telemetry spine;
    // --stats-json/--slice/--profile-hot remain simulation-only.
    if ((!oo.metrics_path.empty() || !oo.profile_path.empty()) &&
        !runs_sim && !prove) {
        fprintf(stderr,
                "anvilc: --metrics/--profile require --sim <N>, "
                "--replay, or --prove\n");
        return kExitUsage;
    }
    if ((oo.stats_json || !oo.slice_channel.empty() ||
         !oo.hot_path.empty()) &&
        !runs_sim) {
        fprintf(stderr,
                "anvilc: --stats-json/--slice/--profile-hot "
                "require --sim <N> or --replay\n");
        return kExitUsage;
    }
    if (!oo.slice_channel.empty() && vcd_path.empty()) {
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
        } else {
            std::ofstream os(output);
            if (!os) {
                fprintf(stderr, "anvilc: cannot write '%s'\n",
                        output.c_str());
                return kExitIo;
            }
            os << out.systemverilog;
            fprintf(stderr, "anvilc: wrote %s\n", output.c_str());
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
            if (output.empty()) {
                fputs(kernel.c_str(), stdout);
            } else {
                std::ofstream os(output);
                if (!os) {
                    fprintf(stderr, "anvilc: cannot write '%s'\n",
                            output.c_str());
                    return kExitIo;
                }
                os << kernel;
                fprintf(stderr, "anvilc: wrote %s\n",
                        output.c_str());
            }
            return kExitOk;
        }
        if (prove)
            return proveDesign(mod, contract_specs, &typed,
                               contracts, prove_k, prove_report,
                               vcd_path, oo);
        if (!check_trace_path.empty())
            return checkTraceFile(mod, check_trace_path, contracts,
                                  contract_specs, &typed, cov);
        if (farm_workers > 0)
            return farm(mod, sim_cycles, farm_workers,
                        seed_base_set ? seed_base : seed, cov,
                        stats, contracts, contract_specs, &typed,
                        compiled_backend, oo);
        if (!replay_path.empty())
            return replay(mod, replay_path, sim_cycles, vcd_path,
                          cov, stats, contracts, contract_specs,
                          &typed, compiled_backend, oo);
        if (sim_cycles > 0)
            return simulate(mod, sim_cycles, seed, vcd_path, cov,
                            stats, contracts, contract_specs,
                            &typed, compiled_backend, oo);
        // --contracts / --contract alone: print the contract set.
        rtl::Sim sim(mod);
        std::vector<trace::ContractSpec> specs;
        if (!resolveContracts(contract_specs, sim.netlist(), &typed,
                              true, &specs))
            return kExitUsage;
    }
    return kExitOk;
}
