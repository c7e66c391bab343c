#include "anvil/sim_runner.h"

#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/merge.h"
#include "obs/profiler.h"
#include "obs/slice.h"
#include "obs/stream.h"
#include "support/strings.h"
#include "trace/replay.h"

namespace anvil {
namespace run {

namespace {

/** The event-driven sweep's activity factor, as the stats line
 *  reports it: nodes evaluated vs. the whole strict table. */
double
activityPct(const rtl::SweepStats &ss)
{
    return ss.strict_nodes
        ? 100.0 * ss.avgNodes() / static_cast<double>(ss.strict_nodes)
        : 0.0;
}

} // namespace

bool
attachFlightTriggers(obs::FlightRecorder &rec, tb::Testbench &bench,
                     const tb::Coverage *coverage,
                     const std::vector<std::string> &specs,
                     std::string *err)
{
    std::vector<std::string> use = specs;
    if (use.empty())
        use.push_back("VIOLATION");
    for (const std::string &spec : use) {
        if (spec == "VIOLATION") {
            tb::Testbench *b = &bench;
            rec.addTrigger("VIOLATION", [b]() {
                return static_cast<uint64_t>(b->totalFailures());
            });
            continue;
        }
        if (spec.rfind("cover:", 0) == 0) {
            std::string name = spec.substr(6);
            if (!coverage) {
                if (err)
                    *err = "--dump-on " + spec +
                           " needs the coverage engine";
                return false;
            }
            bool found = false;
            for (const tb::CoverPoint &p : coverage->covers())
                if (p.name == name) {
                    found = true;
                    break;
                }
            if (!found) {
                if (err)
                    *err = "--dump-on " + spec +
                           ": no such cover point";
                return false;
            }
            const tb::Coverage *cov = coverage;
            rec.addTrigger(spec, [cov, name]() -> uint64_t {
                for (const tb::CoverPoint &p : cov->covers())
                    if (p.name == name)
                        return p.hits;
                return 0;
            });
            continue;
        }
        if (err)
            *err = "bad --dump-on trigger '" + spec +
                   "' (expected VIOLATION or cover:NAME)";
        return false;
    }
    return true;
}

void
collectRunMetrics(obs::MetricsRegistry &reg, tb::Testbench &bench,
                  const tb::TbResult &result,
                  const tb::Coverage *coverage,
                  const obs::TraceProfiler *profiler,
                  const codegen::JitResult *jit, uint64_t wall_ns,
                  const obs::RollingActivity *activity,
                  const obs::AssertionTriage *triage)
{
    const rtl::SweepStats &ss = bench.sim().sweepStats();
    reg.counter("sim.cycles") = result.cycles;
    reg.counter("sim.toggles") = bench.sim().totalToggles();
    reg.counter("sim.dprint_lines") = bench.sim().log().size();
    reg.counter("tb.failures") = result.failures.size();
    reg.counter("sweep.strict_nodes") = ss.strict_nodes;
    reg.counter("sweep.frames") = ss.cycles;
    reg.counter("sweep.nodes_evaluated") = ss.nodes_evaluated;
    reg.counter("sweep.peak_nodes") = ss.peak_nodes;
    reg.counter("sweep.nets_changed") = ss.nets_changed;
    reg.counter("sweep.peak_changed") = ss.peak_changed;
    reg.counter("sweep.kernel_frames") = ss.kernel_frames;
    reg.counter("sweep.dense_fallback_switches") =
        ss.dense_fallback_switches;
    reg.counter("sweep.kernel_dense_frames") = ss.kernel_dense_frames;
    reg.counter("sweep.kernel_fallback_switches") =
        ss.kernel_fallback_switches;
    reg.counter("backend.compiled") =
        bench.sim().kernelAttached() ? 1 : 0;
    reg.gauge("sweep.activity_pct") = activityPct(ss);
    if (jit) {
        reg.counter("jit.cache_hit") = jit->cache_hit ? 1 : 0;
        reg.timerNs("jit.compile") = jit->compile_ns;
    }
    if (coverage) {
        reg.gauge("cov.toggle_pct") = coverage->togglePct();
        reg.gauge("cov.reg_bin_pct") = coverage->regBinPct();
        reg.counter("cov.samples") = coverage->samples();
    }
    for (const obs::ObserverCost &c : bench.feed().costs()) {
        reg.counter("obs." + c.name + ".visits") = c.visits;
        reg.counter("obs." + c.name + ".primes") = c.primes;
        reg.counter("obs." + c.name + ".nets") = c.nets;
        reg.timerNs("obs." + c.name) = c.ns;
    }
    obs::MetricsRegistry::Histogram &lvl =
        reg.histogram("sweep.level_activity");
    const std::vector<uint64_t> &levels =
        bench.feed().levelActivity();
    for (size_t i = 0; i < levels.size(); i++)
        lvl.bump(i, levels[i]);
    if (profiler)
        for (const auto &t : profiler->totals())
            reg.timerNs("phase." + t.name) = t.ns;
    if (activity)
        activity->exportMetrics(reg);
    if (triage)
        triage->exportMetrics(reg);
    reg.timerNs("run.wall") = wall_ns;
}

void
emitRunTail(obs::EventSink &sink, tb::Testbench &bench,
            const tb::TbResult &result, const tb::Coverage *coverage,
            const obs::MetricsRegistry &reg, uint64_t wall_ns)
{
    if (coverage)
        sink.coverage(*coverage);
    sink.metrics(reg);
    if (!bench.feed().levelActivity().empty())
        sink.activity(bench.feed().levelActivity());
    sink.runEnd(result.cycles, bench.sim().totalToggles(),
                result.failures.size(), wall_ns,
                bench.sim().kernelAttached(),
                activityPct(bench.sim().sweepStats()));
}

JobResult
runJob(const JobConfig &cfg)
{
    std::ostringstream es;
    obs::EventSink sink(es);

    // Non-movable spine: heap-construct so nothing relocates under
    // the feed's observer pointers.
    auto bench = std::make_unique<tb::Testbench>(cfg.top, cfg.netlist,
                                                cfg.seed);
    bench->sim().setSweepMode(cfg.sweep_mode);
    if (cfg.profile_hot)
        bench->sim().setEvalCounting(true);
    if (cfg.kernel.abi)
        bench->sim().attachKernel(cfg.kernel);   // false: interpreter

    // One profiler feeds both the simulator's phase timing and the
    // change feed's per-observer tracks; event buffering is only
    // paid for when a profile will be written.
    std::unique_ptr<obs::TraceProfiler> profiler;
    if (cfg.telemetry || cfg.profile) {
        profiler = std::make_unique<obs::TraceProfiler>(
            /*record_events=*/cfg.profile != nullptr);
        bench->sim().setTelemetry(profiler.get());
        bench->feed().setProfiler(profiler.get());
    }

    if (cfg.replay) {
        bench->addDriver(std::make_unique<trace::ReplayDriver>(
            *cfg.replay, bench->sim()));
        bench->addMonitor(std::make_unique<trace::ReplayMonitor>(
            *cfg.replay, bench->sim()));
    } else {
        for (const auto &in : bench->sim().inputNames())
            bench->driveRandom(in);
    }

    trace::ContractMonitor *monitor = nullptr;
    if (!cfg.contracts.empty())
        monitor = static_cast<trace::ContractMonitor *>(
            &bench->addMonitor(
                std::make_unique<trace::ContractMonitor>(
                    cfg.contracts, bench->sim())));

    tb::Coverage *cov = cfg.coverage ? &bench->coverage() : nullptr;

    obs::AssertionTriage *triage = nullptr;
    if (monitor)
        triage = static_cast<obs::AssertionTriage *>(
            &bench->attachObserver(
                std::make_unique<obs::AssertionTriage>(*monitor,
                                                       &sink)));
    obs::RollingActivity *activity = nullptr;
    if (cfg.activity_window)
        activity = static_cast<obs::RollingActivity *>(
            &bench->attachObserver(
                std::make_unique<obs::RollingActivity>(
                    cfg.activity_window, &sink)));

    // Flight recorder after the monitors and coverage, so its
    // trigger poll sees the cycle's updates.  Dumps go to
    // <prefix>-<n>.vcd and are referenced from the event stream
    // (window_dump), which the merger dedupes by path.
    obs::FlightRecorder *flight = nullptr;
    if (cfg.flight_pre) {
        obs::FlightRecorder::Options fo;
        fo.pre = cfg.flight_pre;
        fo.post = cfg.flight_post;
        auto rec = std::make_unique<obs::FlightRecorder>(
            bench->sim(), fo);
        std::string err;
        if (!attachFlightTriggers(*rec, *bench, cov,
                                  cfg.flight_triggers, &err))
            throw std::invalid_argument(err);
        std::string prefix = cfg.flight_out;
        obs::EventSink *esink = &sink;
        rec->setDumpSink(
            [prefix, esink](const obs::FlightRecorder::DumpInfo &d,
                            const std::string &vcd) {
                std::string path;
                if (!prefix.empty()) {
                    path = strfmt("%s-%d.vcd", prefix.c_str(),
                                  d.index);
                    std::ofstream os(path);
                    os << vcd;
                    os.flush();
                    if (!os.good())
                        path.clear();
                }
                esink->windowDump(d.trigger_cycle, d.trigger, path,
                                  d.from, d.to);
                return path;
            });
        flight = static_cast<obs::FlightRecorder *>(
            &bench->attachObserver(std::move(rec)));
    }

    if (cfg.vcd) {
        if (cfg.slice.empty())
            bench->attachVcd(*cfg.vcd);
        else
            bench->attachObserver(std::make_unique<obs::ChannelSlicer>(
                bench->sim(), *cfg.vcd, cfg.slice));
    }

    sink.runBegin(bench->sim().topName(), cfg.worker, cfg.seed,
                  cfg.cycles, bench->sim().sweepMode());

    uint64_t wall0 = rtl::monotonicNanos();
    tb::TbResult result = bench->run(cfg.cycles);
    uint64_t wall_ns = rtl::monotonicNanos() - wall0;
    bench->feed().finish();

    JobResult jr;
    obs::MetricsRegistry reg;
    collectRunMetrics(reg, *bench, result, cov, profiler.get(),
                      cfg.jit, wall_ns, activity, triage);
    if (flight)
        flight->exportMetrics(reg);
    if (cfg.profile_hot) {
        jr.hot = obs::buildHotReport(bench->sim());
        jr.hot->exportMetrics(reg);
    }
    emitRunTail(sink, *bench, result, cov, reg, wall_ns);
    if (cfg.profile) {
        profiler->setLevelActivity(bench->feed().levelActivity());
        profiler->writeJson(*cfg.profile);
    }

    jr.worker = cfg.worker;
    jr.seed = cfg.seed;
    jr.ok = result.ok();
    jr.cycles = result.cycles;
    jr.toggles = bench->sim().totalToggles();
    jr.failures = result.failures.size();
    jr.wall_ns = wall_ns;
    jr.summary = result.summary();
    jr.events = es.str();
    return jr;
}

FarmResult
runFarm(const FarmConfig &cfg, obs::Merger &merger)
{
    if (cfg.workers > 1 && (cfg.job.vcd || cfg.job.profile))
        throw std::invalid_argument(
            "a VCD or profile stream serves one worker only");

    FarmResult fr;
    uint64_t wall0 = rtl::monotonicNanos();

    // Elaborate once: every worker rides this immutable netlist.
    std::shared_ptr<const rtl::Netlist> netlist = cfg.job.netlist;
    if (!netlist)
        netlist = std::make_shared<const rtl::Netlist>(*cfg.job.top);

    // JIT once; the kernel object is shared, each Sim gets its own
    // kernel context on attach.
    codegen::JitResult jit;
    rtl::KernelRef kernel;
    if (cfg.compiled_backend) {
        jit = codegen::jitCompileKernel(*netlist);
        if (jit.kernel)
            kernel = codegen::kernelRef(jit.kernel);
        else
            fr.jit_note = jit.error.empty() ? "jit unavailable"
                                            : jit.error;
    }

    std::vector<JobConfig> jobs(static_cast<size_t>(cfg.workers),
                                cfg.job);
    for (int w = 0; w < cfg.workers; w++) {
        JobConfig &jc = jobs[static_cast<size_t>(w)];
        jc.seed = cfg.job.seed + static_cast<uint64_t>(w);
        jc.worker = w;
        jc.netlist = netlist;
        jc.kernel = kernel;
        jc.jit = cfg.compiled_backend ? &jit : nullptr;
        // Workers of one farm must not overwrite each other's dumps;
        // a lone worker keeps the plain single-run names.
        if (cfg.workers > 1 && !jc.flight_out.empty())
            jc.flight_out += strfmt(".w%d", w);
    }

    fr.jobs.resize(jobs.size());
    std::vector<std::exception_ptr> config_errors(jobs.size());
    std::vector<std::thread> threads;
    threads.reserve(jobs.size());
    for (size_t w = 0; w < jobs.size(); w++)
        threads.emplace_back([&fr, &jobs, &config_errors, w]() {
            try {
                fr.jobs[w] = runJob(jobs[w]);
            } catch (const std::invalid_argument &) {
                config_errors[w] = std::current_exception();
            } catch (const std::exception &e) {
                fr.jobs[w].worker = static_cast<int>(w);
                fr.jobs[w].seed = jobs[w].seed;
                fr.jobs[w].summary =
                    strfmt("worker exception: %s", e.what());
            }
        });
    for (std::thread &t : threads)
        t.join();
    fr.wall_ns = rtl::monotonicNanos() - wall0;
    for (const std::exception_ptr &e : config_errors)
        if (e)
            std::rethrow_exception(e);

    for (const JobResult &j : fr.jobs)
        if (!j.events.empty())
            merger.addStreamText(j.events,
                                 strfmt("worker-%d", j.worker));
    return fr;
}

} // namespace run
} // namespace anvil
