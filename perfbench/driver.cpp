/**
 * @file
 * End-to-end benchmark driver: runs one round of a named workload in
 * a fresh process and prints one JSON object with the round's
 * end-to-end measurements, its work counters, its per-layer breakdown
 * (traced rounds only), and the raw material of the output oracle.
 *
 * Usage:
 *   perfbench_driver --workload compiled|regression|prove
 *                    --seed N [--trace 0|1] [--oracle 0|1]
 *                    [--spans FILE]
 *
 * The driver measures each layer from outside, by timing calls into
 * the layers' public entry points.  Untraced rounds call what a
 * user's run calls (compileAnvil, run::runJob, jitCompileKernel,
 * formal::prove).  A traced round calls the front-end phases one by
 * one, rebuilds runJob's stack with its own rtl::SimTelemetry sink in
 * place of runJob's TraceProfiler, times emitCppKernel before the
 * JIT, and reads the prover's per-obligation counters.  Its spans are
 * kept in memory and written to --spans at the end.
 *
 * Oracle checks and drift guards run after the measured region and
 * are excluded from every reported time.  run.py aggregates rounds.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "anvil/compiler.h"
#include "anvil/sim_runner.h"
#include "codegen/cpp_emitter.h"
#include "codegen/jit.h"
#include "codegen/rtl_gen.h"
#include "codegen/sv_printer.h"
#include "designs/designs.h"
#include "formal/contracts.h"
#include "formal/kinduction.h"
#include "formal/property.h"
#include "ir/elaborate.h"
#include "ir/optimize.h"
#include "lang/parser.h"
#include "obs/merge.h"
#include "obs/profiler.h"
#include "obs/stream.h"
#include "rtl/ref_interp.h"
#include "types/checker.h"
#include "verif/bmc.h"

using namespace anvil;

namespace {

// --- Workload sizes -------------------------------------------------------

/** compiled: long enough that the kernel run shows beside the JIT. */
constexpr uint64_t kCompiledCycles = 50000;
/** regression: full-stack runs, short enough for ~0.6 s rounds. */
constexpr uint64_t kRegressionCycles = 10000;
/** Flight-recorder pre-trigger window armed on regression jobs. */
constexpr uint64_t kFlightPre = 64;
/** Prover induction depth. */
constexpr int kProveDepth = 4;
/**
 * Prover step budget per obligation.  top_safe's mem_req stable
 * obligation explores until the budget runs out (`unknown`); at the
 * prover's default 4M steps that alone takes 2-4 s.
 */
constexpr uint64_t kProveSteps = 400000;
/** Listing-2 BMC state budget (it exhausts it by design). */
constexpr uint64_t kBmcStates = 20000;
/** Cycles of each interpreter job replayed on rtl::RefSim. */
constexpr uint64_t kRefPrefix = 64;
/**
 * Traced rounds time the simulator's phases on one cycle in
 * 2^kSampleShift: each timed phase costs two clock reads of ~20 ns,
 * a visible share of a sub-microsecond sweep.
 */
constexpr int kSampleShift = 4;
constexpr uint64_t kSampleMask = (1ull << kSampleShift) - 1;

// --- Clocks -----------------------------------------------------------------

uint64_t
nowNs()
{
    return rtl::monotonicNanos();
}

uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t
tvNs(const timeval &tv)
{
    return static_cast<uint64_t>(tv.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1000ull;
}

/** User + system CPU of this process, or of its reaped children
 *  (the JIT's compiler processes). */
uint64_t
rusageCpuNs(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return tvNs(ru.ru_utime) + tvNs(ru.ru_stime);
}

/** Peak RSS of this process or of its largest reaped child. */
double
peakRssMb()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
           1024.0;
}

struct Canary
{
    double ms = 0;
    double cpu_ms = 0;
};

/**
 * Host noise canary: a fixed dependent-integer loop.  A round run
 * while the host steals cycles reads visibly slower here too.
 */
Canary
runCanary()
{
    uint64_t t0 = nowNs(), c0 = threadCpuNs();
    volatile uint64_t seed = 0x9e3779b97f4a7c15ull;
    uint64_t x = seed;
    for (int i = 0; i < 10000000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    seed = x;
    return {static_cast<double>(nowNs() - t0) / 1e6,
            static_cast<double>(threadCpuNs() - c0) / 1e6};
}

// --- Spans --------------------------------------------------------------------

/** In-memory span recorder; takes no clock reads when off. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        uint64_t begin = 0, end = 0;
        uint64_t cpu_begin = 0, cpu_end = 0;
        uint64_t child_proc_cpu = 0;   // reaped child-process CPU
        int parent = -1;
        int job = -1;

        uint64_t wall() const { return end - begin; }
        uint64_t cpu() const { return cpu_end - cpu_begin + child_proc_cpu; }
    };

    explicit Tracer(bool on) : _on(on) {}

    void setJob(int job) { _job = job; }

    int open(const std::string &name)
    {
        if (!_on)
            return -1;
        Span s;
        s.name = name;
        s.parent = _stack.empty() ? -1 : _stack.back();
        s.job = _job;
        s.cpu_begin = threadCpuNs();
        s.begin = nowNs();
        _spans.push_back(s);
        _stack.push_back(static_cast<int>(_spans.size()) - 1);
        return _stack.back();
    }

    void close(int id)
    {
        if (id < 0)
            return;
        Span &s = _spans[static_cast<size_t>(id)];
        s.end = nowNs();
        s.cpu_end = threadCpuNs();
        _stack.pop_back();
    }

    void addChildProcessCpu(int id, uint64_t ns)
    {
        if (id >= 0)
            _spans[static_cast<size_t>(id)].child_proc_cpu += ns;
    }

    /** Per span name: summed self wall and self CPU time (ns) — a
     *  span's duration minus its child spans'. */
    std::map<std::string, std::pair<uint64_t, uint64_t>> selfTimes() const
    {
        std::vector<uint64_t> kid_wall(_spans.size()), kid_cpu(_spans.size());
        for (const Span &s : _spans)
            if (s.parent >= 0) {
                kid_wall[static_cast<size_t>(s.parent)] += s.wall();
                kid_cpu[static_cast<size_t>(s.parent)] += s.cpu();
            }
        std::map<std::string, std::pair<uint64_t, uint64_t>> out;
        for (size_t i = 0; i < _spans.size(); i++) {
            const Span &s = _spans[i];
            auto &acc = out[s.name];
            acc.first += s.wall() > kid_wall[i] ? s.wall() - kid_wall[i] : 0;
            acc.second += s.cpu() > kid_cpu[i] ? s.cpu() - kid_cpu[i] : 0;
        }
        return out;
    }

    void write(std::ostream &os) const
    {
        for (size_t i = 0; i < _spans.size(); i++) {
            const Span &s = _spans[i];
            os << "{\"id\":" << i << ",\"name\":\"" << s.name
               << "\",\"start_ns\":" << s.begin << ",\"end_ns\":" << s.end
               << ",\"cpu_ns\":" << s.cpu() << ",\"parent\":" << s.parent
               << ",\"job\":" << s.job << "}\n";
        }
    }

  private:
    bool _on;
    int _job = -1;
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

class Scope
{
  public:
    Scope(Tracer &t, const std::string &name) : _t(t), _id(t.open(name)) {}
    ~Scope() { _t.close(_id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int id() const { return _id; }

  private:
    Tracer &_t;
    int _id;
};

// --- JSON output ------------------------------------------------------------------

std::string
jstr(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            snprintf(buf, sizeof buf, "\\u%04x", c);
            o += buf;
        } else {
            o += c;
        }
    }
    return o + "\"";
}

std::string
jnum(double v)
{
    char buf[64];
    snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jlist(const std::vector<std::string> &v)
{
    std::string o = "[";
    for (size_t i = 0; i < v.size(); i++)
        o += (i ? "," : "") + jstr(v[i]);
    return o + "]";
}

template <class Map, class Fmt>
std::string
jobject(const Map &m, Fmt fmt)
{
    std::string o = "{";
    for (const auto &[k, v] : m)
        o += (o.size() > 1 ? "," : "") + jstr(k) + ":" + fmt(v);
    return o + "}";
}

/** FNV-1a, as a 16-digit hex string. */
std::string
digest(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[24];
    snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

// --- Front end ------------------------------------------------------------------------

struct Source
{
    const char *name;
    std::string (*text)();
};

/**
 * The Anvil sources of designs:: that `prove` runs.  A round must stay
 * short so that a run holds many of them (run.py reports the fastest),
 * so aes, axi_mux and axi_demux are left out: aes and axi_mux spend
 * 1-2 s each in the type checker and axi_mux ~25 s in the prover,
 * axi_demux ~9 s of budget-bound unknowns.
 */
const std::vector<Source> &
anvilSources()
{
    static const std::vector<Source> s = {
        {"fifo", designs::anvilFifoSource},
        {"spill_reg", designs::anvilSpillRegSource},
        {"stream_fifo", designs::anvilStreamFifoSource},
        {"tlb", designs::anvilTlbSource},
        {"ptw", designs::anvilPtwSource},
        {"alu", designs::anvilPipelinedAluSource},
        {"systolic", designs::anvilSystolicSource},
        {"top_safe", designs::anvilTopSafeSource},
        {"listing2", designs::anvilListing2Source},
    };
    return s;
}

/**
 * The sources `compiled` takes through the JIT: the two whose cold
 * kernels compile fastest, ~0.3 s each on a 4-vCPU x86-64 host (there
 * alu, spill_reg, systolic, fifo, stream_fifo, ptw and tlb take
 * 0.4-1.9 s, axi_demux 3 s, aes 8 s, axi_mux 11 s).
 */
const std::set<std::string> kCompiledSources = {"top_safe", "listing2"};

/** Spawned children first, as compileAnvil orders them. */
std::vector<const ProcDef *>
spawnOrder(const Program &prog, DiagEngine &diags)
{
    std::vector<const ProcDef *> order;
    std::set<std::string> done, visiting;
    std::function<void(const ProcDef &)> visit = [&](const ProcDef &p) {
        if (done.count(p.name))
            return;
        if (!visiting.insert(p.name).second) {
            diags.error("recursive spawn cycle through '" + p.name + "'",
                        p.loc);
            return;
        }
        for (const auto &s : p.spawns) {
            if (const ProcDef *child = prog.findProc(s.proc_name))
                visit(*child);
            else
                diags.error("spawn of unknown process '" + s.proc_name + "'",
                            s.loc);
        }
        visiting.erase(p.name);
        done.insert(p.name);
        order.push_back(&p);
    };
    for (const auto &[name, p] : prog.procs)
        visit(p);
    return order;
}

/**
 * compileAnvil (src/anvil/compiler.cpp), phase by phase, one span per
 * phase.  A drift guard holds its SystemVerilog byte-equal to
 * compileAnvil's.
 */
CompileOutput
tracedCompile(const std::string &source, Tracer &tr)
{
    CompileOutput out;
    {
        Scope s(tr, "lang.parse");
        out.program = parseAnvil(source, out.diags);
    }
    if (out.diags.hasErrors())
        return out;
    auto order = spawnOrder(out.program, out.diags);
    if (out.diags.hasErrors())
        return out;

    for (const ProcDef *proc : order) {
        ProcIR check_ir = [&] {
            Scope s(tr, "ir.elaborate");
            return elaborateProc(out.program, *proc, out.diags, 2);
        }();
        Scope s(tr, "types.check");
        out.checks[proc->name] = checkProc(check_ir, out.diags);
    }

    DiagEngine gen_diags;
    for (const ProcDef *proc : order) {
        ProcIR gen_ir = [&] {
            Scope s(tr, "ir.elaborate");
            return elaborateProc(out.program, *proc, gen_diags, 1);
        }();
        {
            Scope s(tr, "ir.optimize");
            OptStats total;
            bool first = true;
            for (auto &t : gen_ir.threads) {
                OptStats st = optimizeEventGraph(t->graph);
                if (first) {
                    total = st;
                    first = false;
                } else {
                    total.before += st.before;
                    total.after += st.after;
                    for (const auto &[k, v] : st.merged_by_pass)
                        total.merged_by_pass[k] += v;
                }
            }
            out.opt_stats[proc->name] = total;
        }
        Scope s(tr, "codegen.rtlgen");
        out.modules[proc->name] = generateRtl(gen_ir, out.modules, gen_diags);
    }
    for (const auto &d : gen_diags.all())
        if (d.severity == Severity::Error)
            out.diags.error(d.message, d.loc);

    out.top = order.empty() ? "" : order.back()->name;
    if (out.modules.count(out.top)) {
        Scope s(tr, "codegen.sv");
        out.systemverilog = printSystemVerilogHierarchy(*out.modules[out.top]);
    }
    out.ok = !out.diags.hasErrors();
    return out;
}

// --- Round state ------------------------------------------------------------------------

/** Per-cycle layer accounting over a round's traced jobs. */
struct CycleLayers
{
    uint64_t cycles = 0;     // every cycle run by traced jobs
    uint64_t sampled = 0;    // cycles whose phases were timed
    uint64_t phase_ns[rtl::kSimPhaseCount] = {};   // on sampled cycles
    uint64_t loop_ns = 0;    // Testbench::run wall, every cycle
    std::map<std::string, uint64_t> obs_ns;        // feed visit time
    uint64_t feed_nets = 0;
    uint64_t nodes = 0, nets_changed = 0, frames = 0;
    double strict_frames = 0;   // sum over jobs of frames * strict nodes
};

/** One simulation job and what the oracle needs about it. */
struct SimJob
{
    std::string design;
    run::JobConfig cfg;
    run::JobResult result;
    std::unique_ptr<codegen::JitResult> jit;
};

struct Round
{
    std::string workload;
    uint64_t seed = 1;
    bool trace = false;
    Tracer tracer{false};
    CycleLayers layers;

    uint64_t setup_ns = 0;     // summed per job, up to its first cycle
    uint64_t run_ns = 0;       // runJob calls, or prover + BMC
    uint64_t sim_cycles = 0;   // cycles (prove: prover steps + states)
    int ops = 0;
    std::vector<std::string> op_failures;

    std::map<std::string, double> counters;
    std::map<std::string, std::string> sources;   // design -> text
    std::map<std::string, std::string> sv;        // design -> SV text
    std::vector<SimJob> jobs;
    std::map<std::string, std::vector<std::string>> verdicts;

    void fail(const std::string &what) { op_failures.push_back(what); }
};

/** Front end for one design: the user's entry point, or the mirror. */
CompileOutput
compileFor(Round &r, const std::string &design, const std::string &src)
{
    r.ops++;
    r.sources[design] = src;
    CompileOutput out =
        r.trace ? tracedCompile(src, r.tracer) : compileAnvil(src);
    if (!out.ok || !out.module(out.top)) {
        out.ok = false;
        r.fail(design + ": compile failed: " + out.diags.render());
        return out;
    }
    r.sv[design] = out.systemverilog;
    r.counters["codegen.sv_bytes"] +=
        static_cast<double>(out.systemverilog.size());
    for (const auto &[proc, st] : out.opt_stats) {
        r.counters["ir.events_before"] += st.before;
        r.counters["ir.events_after"] += st.after;
    }
    return out;
}

std::shared_ptr<const rtl::Netlist>
buildNetlist(Round &r, const rtl::ModulePtr &top)
{
    Scope s(r.tracer, "rtl.netlist");
    return std::make_shared<const rtl::Netlist>(*top);
}

std::vector<trace::ContractSpec>
typedSpecs(Round &r, const CompileOutput &out, const rtl::Netlist &nl)
{
    Scope s(r.tracer, "formal.infer");
    return formal::checkableSpecs(
        formal::inferContracts(out.program, out.top), nl);
}

// --- Traced job stack ----------------------------------------------------------------------

/** Sums the simulator's phase windows while installed. */
class PhaseSink : public rtl::SimTelemetry
{
  public:
    void simPhase(rtl::SimPhase phase, uint64_t, uint64_t begin_ns,
                  uint64_t end_ns) override
    {
        ns[static_cast<int>(phase)] += end_ns - begin_ns;
    }
    uint64_t ns[rtl::kSimPhaseCount] = {};
};

/**
 * run::runJob's stack rebuilt (src/anvil/sim_runner.cpp): the same
 * bench, drivers, observers and event tail, with a sampling PhaseSink
 * on the Sim in place of the TraceProfiler.  The profiler stays on
 * the change feed, as in runJob: the feed's per-observer visit times
 * and level histogram come from it and reach the event stream, which
 * a drift guard holds equal to runJob's.
 */
run::JobResult
tracedJob(const run::JobConfig &cfg, CycleLayers &L, Tracer &tr)
{
    std::ostringstream es;
    obs::EventSink sink(es);
    auto bench =
        std::make_unique<tb::Testbench>(cfg.top, cfg.netlist, cfg.seed);
    bench->sim().setSweepMode(cfg.sweep_mode, cfg.sweep_threads);
    if (cfg.kernel.abi)
        bench->sim().attachKernel(cfg.kernel);

    obs::TraceProfiler profiler(/*record_events=*/false);
    bench->feed().setProfiler(&profiler);

    // Registered first, so it runs before the stimulus drivers; it
    // draws nothing from the stimulus PRNG.
    PhaseSink phases;
    uint64_t sampled = 0;
    bench->driveWith([&phases, &sampled](rtl::Sim &sim, uint64_t cyc,
                                         tb::SplitMix64 &) {
        bool on = (cyc & kSampleMask) == 0;
        sim.setTelemetry(on ? &phases : nullptr);
        sampled += on ? 1 : 0;
    });
    for (const auto &in : bench->sim().inputNames())
        bench->driveRandom(in);

    trace::ContractMonitor *monitor = nullptr;
    if (!cfg.contracts.empty())
        monitor = static_cast<trace::ContractMonitor *>(&bench->addMonitor(
            std::make_unique<trace::ContractMonitor>(cfg.contracts,
                                                     bench->sim())));
    tb::Coverage *cov = cfg.coverage ? &bench->coverage() : nullptr;
    obs::AssertionTriage *triage = nullptr;
    if (monitor)
        triage = static_cast<obs::AssertionTriage *>(&bench->attachObserver(
            std::make_unique<obs::AssertionTriage>(*monitor, &sink)));
    obs::RollingActivity *activity = nullptr;
    if (cfg.activity_window)
        activity = static_cast<obs::RollingActivity *>(
            &bench->attachObserver(std::make_unique<obs::RollingActivity>(
                cfg.activity_window, &sink)));
    obs::FlightRecorder *flight = nullptr;
    if (cfg.flight_pre) {
        obs::FlightRecorder::Options fo;
        fo.pre = cfg.flight_pre;
        fo.post = cfg.flight_post;
        auto rec = std::make_unique<obs::FlightRecorder>(bench->sim(), fo);
        std::string err;
        if (!run::attachFlightTriggers(*rec, *bench, cov, cfg.flight_triggers,
                                       &err))
            throw std::runtime_error(err);
        obs::EventSink *esink = &sink;
        rec->setDumpSink([esink](const obs::FlightRecorder::DumpInfo &d,
                                 const std::string &) {
            esink->windowDump(d.trigger_cycle, d.trigger, "", d.from, d.to);
            return std::string();
        });
        flight = static_cast<obs::FlightRecorder *>(
            &bench->attachObserver(std::move(rec)));
    }

    sink.runBegin(bench->sim().topName(), cfg.worker, cfg.seed, cfg.cycles,
                  bench->sim().sweepMode(), bench->sim().sweepStats().threads);

    tb::TbResult result;
    uint64_t wall_ns = 0;
    {
        Scope s(tr, "tb.run");
        uint64_t wall0 = rtl::monotonicNanos();
        result = bench->run(cfg.cycles);
        wall_ns = rtl::monotonicNanos() - wall0;
    }
    bench->sim().setTelemetry(nullptr);
    bench->feed().finish();

    obs::MetricsRegistry reg;
    run::collectRunMetrics(reg, *bench, result, cov, &profiler, cfg.jit,
                           wall_ns, activity, triage);
    if (flight)
        flight->exportMetrics(reg);
    run::emitRunTail(sink, *bench, result, cov, reg, wall_ns);

    L.cycles += result.cycles;
    L.sampled += sampled;
    for (int p = 0; p < rtl::kSimPhaseCount; p++)
        L.phase_ns[p] += phases.ns[p];
    L.loop_ns += wall_ns;
    for (const obs::ObserverCost &c : bench->feed().costs()) {
        L.obs_ns[c.name] += c.ns;
        L.feed_nets += c.nets;
    }
    const rtl::SweepStats &ss = bench->sim().sweepStats();
    L.nodes += ss.nodes_evaluated;
    L.nets_changed += ss.nets_changed;
    L.frames += ss.cycles;
    L.strict_frames +=
        static_cast<double>(ss.cycles) * static_cast<double>(ss.strict_nodes);

    run::JobResult jr;
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

/** The event stream without wall-clock content: timer lines dropped
 *  and run_end's wall_ns zeroed. */
std::string
timerFree(const std::string &events)
{
    std::istringstream is(events);
    std::string line, out;
    while (std::getline(is, line)) {
        if (line.find("\"e\":\"timer\"") != std::string::npos)
            continue;
        size_t w = line.find("\"wall_ns\":");
        if (w != std::string::npos) {
            size_t b = w + 10, e = b;
            while (e < line.size() &&
                   std::isdigit(static_cast<unsigned char>(line[e])))
                e++;
            line.replace(b, e - b, "0");
        }
        out += line + "\n";
    }
    return out;
}

/** Run one sim job through runJob, or through its traced rebuild. */
void
runSimJob(Round &r, SimJob &job)
{
    r.ops++;
    r.tracer.setJob(static_cast<int>(&job - r.jobs.data()));
    uint64_t t0 = nowNs();
    try {
        job.result = r.trace ? tracedJob(job.cfg, r.layers, r.tracer)
                             : run::runJob(job.cfg);
    } catch (const std::exception &e) {
        r.fail(job.design + ": job threw: " + e.what());
    }
    r.run_ns += nowNs() - t0;
    r.sim_cycles += job.result.cycles;
    r.counters["obs.events_bytes"] +=
        static_cast<double>(timerFree(job.result.events).size());
}

// --- Workloads ----------------------------------------------------------------------------

run::JobConfig
baseJob(const rtl::ModulePtr &top, std::shared_ptr<const rtl::Netlist> nl,
        uint64_t seed, uint64_t cycles)
{
    run::JobConfig cfg;
    cfg.top = top;
    cfg.netlist = std::move(nl);
    cfg.seed = seed;
    cfg.cycles = cycles;
    cfg.coverage = true;
    return cfg;
}

/** Front end, netlist and typed contracts of one Anvil design. */
bool
prepareAnvilJob(Round &r, SimJob &job, const std::string &src,
                uint64_t cycles)
{
    CompileOutput out = compileFor(r, job.design, src);
    if (!out.ok)
        return false;
    rtl::ModulePtr top = out.module(out.top);
    auto nl = buildNetlist(r, top);
    job.cfg = baseJob(top, nl, r.seed, cycles);
    job.cfg.contracts = typedSpecs(r, out, *nl);
    return true;
}

/** Small Anvil designs: front end -> cold JIT -> kernel run. */
void
workloadCompiled(Round &r)
{
    for (const Source &src : anvilSources()) {
        if (!kCompiledSources.count(src.name))
            continue;
        r.tracer.setJob(static_cast<int>(r.jobs.size()));
        Scope job_span(r.tracer, "job");
        uint64_t t0 = nowNs();
        SimJob job;
        job.design = src.name;
        if (!prepareAnvilJob(r, job, src.text(), kCompiledCycles))
            continue;
        const rtl::Netlist &nl = *job.cfg.netlist;
        if (r.trace) {
            // The JIT emits the unit again inside; only traced rounds
            // pay for this separate, timed emit.
            Scope s(r.tracer, "codegen.emit");
            codegen::emitCppKernel(nl, job.design);
        }
        r.ops++;
        {
            Scope s(r.tracer, "codegen.jit");
            uint64_t kids0 = rusageCpuNs(RUSAGE_CHILDREN);
            job.jit = std::make_unique<codegen::JitResult>(
                codegen::jitCompileKernel(nl));
            r.tracer.addChildProcessCpu(s.id(),
                                        rusageCpuNs(RUSAGE_CHILDREN) - kids0);
        }
        r.counters["codegen.jit_source_bytes"] +=
            static_cast<double>(job.jit->source_bytes);
        r.counters["codegen.jit_cache_hits"] += job.jit->cache_hit ? 1 : 0;
        if (job.jit->kernel) {
            job.cfg.kernel = codegen::kernelRef(job.jit->kernel);
            job.cfg.jit = job.jit.get();
        } else {
            r.fail(job.design + ": JIT fell back: " + job.jit->error);
        }
        r.setup_ns += nowNs() - t0;
        r.jobs.push_back(std::move(job));
    }
    for (SimJob &job : r.jobs)
        runSimJob(r, job);
}

/** Long full-stack runs: two large baselines and a typed Anvil design. */
void
workloadRegression(Round &r)
{
    const std::vector<std::pair<const char *, rtl::ModulePtr (*)()>>
        baselines = {
            {"tlb_4w64s", [] { return designs::buildSetAssocTlbBaseline(4, 64); }},
            {"axi_xbar_4x4", [] { return designs::buildAxiXbarBaseline(4, 4); }},
        };
    for (const auto &[name, build] : baselines) {
        r.tracer.setJob(static_cast<int>(r.jobs.size()));
        Scope job_span(r.tracer, "job");
        uint64_t t0 = nowNs();
        r.ops++;
        rtl::ModulePtr top = build();
        SimJob job;
        job.design = name;
        // Netlist-guessed contracts on these baselines fail within a
        // few cycles under random stimulus, so they run unmonitored.
        job.cfg = baseJob(top, buildNetlist(r, top), r.seed,
                          kRegressionCycles);
        job.cfg.flight_pre = kFlightPre;
        r.setup_ns += nowNs() - t0;
        r.jobs.push_back(std::move(job));
    }
    {
        r.tracer.setJob(static_cast<int>(r.jobs.size()));
        Scope job_span(r.tracer, "job");
        uint64_t t0 = nowNs();
        SimJob job;
        job.design = "axi_demux";
        if (prepareAnvilJob(r, job, designs::anvilAxiDemuxSource(),
                            kRegressionCycles)) {
            job.cfg.flight_pre = kFlightPre;
            r.setup_ns += nowNs() - t0;
            r.jobs.push_back(std::move(job));
        }
    }
    for (SimJob &job : r.jobs) {
        runSimJob(r, job);
        Scope s(r.tracer, "obs.merge");
        try {
            obs::Merger m;
            m.addStreamText(job.result.events, job.design);
            if ((m.metricsJson() + m.statsJson()).empty())
                r.fail(job.design + ": empty merge");
        } catch (const std::exception &e) {
            r.fail(job.design + ": merge threw: " + e.what());
        }
    }
}

const char *
statusName(formal::ObligationOutcome::Status s)
{
    switch (s) {
      case formal::ObligationOutcome::Status::Proved:
        return "proved";
      case formal::ObligationOutcome::Status::Violated:
        return "violated";
      case formal::ObligationOutcome::Status::Unknown:
        return "unknown";
      case formal::ObligationOutcome::Status::Conditional:
        return "conditional";
    }
    return "?";
}

/** Typed obligations through the prover, plus the Listing-2 BMC on
 *  the same instrumented design. */
void
workloadProve(Round &r)
{
    int job = 0;
    formal::InstrumentedDesign listing2;
    for (const Source &src : anvilSources()) {
        r.tracer.setJob(job++);
        Scope job_span(r.tracer, "job");
        uint64_t t0 = nowNs();
        CompileOutput out = compileFor(r, src.name, src.text());
        if (!out.ok)
            continue;
        formal::ContractSet typed = [&] {
            Scope s(r.tracer, "formal.infer");
            return formal::inferContracts(out.program, out.top);
        }();
        formal::InstrumentedDesign inst = [&] {
            Scope s(r.tracer, "formal.instrument");
            return formal::compileProperties(*out.module(out.top),
                                             typed.obligations());
        }();
        r.setup_ns += nowNs() - t0;
        if (std::string(src.name) == "listing2")
            listing2 = inst;

        formal::ProveOptions opts;
        opts.k_max = kProveDepth;
        opts.max_steps = kProveSteps;
        uint64_t p0 = nowNs();
        formal::ProveResult res = [&] {
            Scope s(r.tracer, "formal.prove");
            return formal::prove(inst, opts);
        }();
        r.run_ns += nowNs() - p0;
        std::vector<std::string> &v = r.verdicts[src.name];
        for (const formal::ObligationOutcome &o : res.obligations) {
            r.ops++;
            v.push_back(o.name + "=" + statusName(o.status));
            r.sim_cycles += o.steps;
            r.counters["formal.steps"] += static_cast<double>(o.steps);
            r.counters["formal.base_states"] +=
                static_cast<double>(o.base_states);
            r.counters["formal.induction_starts"] +=
                static_cast<double>(o.induction_starts);
            r.counters["formal.proved"] +=
                o.status == formal::ObligationOutcome::Status::Proved ? 1 : 0;
            r.counters["formal.unknown"] +=
                o.status == formal::ObligationOutcome::Status::Unknown ? 1 : 0;
        }
    }

    if (!listing2.module)
        return;   // its compile failure is already counted
    r.tracer.setJob(job);
    Scope job_span(r.tracer, "job");
    verif::BmcOptions bopts;
    bopts.max_depth = 1 << 20;
    bopts.max_states = kBmcStates;
    bopts.input_bits_limit = 1;
    r.ops++;
    uint64_t b0 = nowNs();
    verif::BmcResult bmc = [&] {
        Scope s(r.tracer, "verif.bmc");
        return verif::boundedModelCheck(listing2.module,
                                        listing2.assertions(), bopts);
    }();
    r.run_ns += nowNs() - b0;
    r.sim_cycles += bmc.states_explored;
    r.counters["verif.bmc_states"] += static_cast<double>(bmc.states_explored);
    r.verdicts["listing2.bmc"].push_back(
        bmc.statusStr() + "@" + std::to_string(bmc.states_explored));
}

// --- Oracle and drift guards (outside the measured region) -------------------------------

std::vector<std::string>
violationSigs(const std::string &events)
{
    auto field = [](const std::string &l, const std::string &key) {
        size_t b = l.find("\"" + key + "\":\"");
        if (b == std::string::npos)
            return std::string();
        b += key.size() + 4;
        return l.substr(b, l.find('"', b) - b);
    };
    std::set<std::string> sigs;
    std::istringstream is(events);
    std::string line;
    while (std::getline(is, line))
        if (line.find("\"e\":\"violation\"") != std::string::npos)
            sigs.insert(field(line, "channel") + ":" + field(line, "rule"));
    return {sigs.begin(), sigs.end()};
}

std::string
coverageSummary(const std::string &events)
{
    obs::Merger m;
    m.addStreamText(events, "job");
    return m.hasCoverage() ? m.coverage().summaryJson() : "";
}

/**
 * Second engine for interpreter jobs: replay the first kRefPrefix
 * cycles of the job's seeded stimulus on rtl::RefSim in lockstep with
 * rtl::Sim and compare toggles, prints and every register; a runJob
 * of the same prefix must reach the same toggle count.
 */
std::string
refPrefixMismatch(const SimJob &job)
{
    uint64_t n = std::min<uint64_t>(kRefPrefix, job.result.cycles);
    tb::Testbench bench(job.cfg.top, job.cfg.netlist, job.cfg.seed);
    for (const auto &in : bench.sim().inputNames())
        bench.driveRandom(in);
    rtl::RefSim ref(job.cfg.top);
    std::vector<std::string> inputs = bench.sim().inputNames();
    bench.driveWith([&](rtl::Sim &sim, uint64_t, tb::SplitMix64 &) {
        for (const auto &in : inputs)
            ref.setInput(in, sim.peek(in));
        ref.step();
    });
    bench.run(n);
    if (bench.sim().totalToggles() != ref.totalToggles())
        return "RefSim toggles differ";
    if (bench.sim().log() != ref.log())
        return "RefSim prints differ";
    for (const std::string &reg : ref.regNames())
        if (!(ref.regValue(reg) == bench.sim().regValue(reg)))
            return "RefSim register " + reg + " differs";
    run::JobConfig prefix = job.cfg;
    prefix.cycles = n;
    if (run::runJob(prefix).toggles != bench.sim().totalToggles())
        return "runJob prefix toggles differ from the bare bench";
    return "";
}

/** Second engine for kernel jobs: the interpreter, full length. */
std::string
interpMismatch(const SimJob &job)
{
    if (job.result.events.find("\"backend\":\"compiled\"") ==
        std::string::npos)
        return "ran on the interpreter (JIT fallback)";
    run::JobConfig cfg = job.cfg;
    cfg.kernel = {};
    cfg.jit = nullptr;
    run::JobResult ij = run::runJob(cfg);
    if (ij.toggles != job.result.toggles)
        return "interpreter toggles differ";
    if (ij.summary != job.result.summary)
        return "interpreter verdict differs";
    if (coverageSummary(ij.events) != coverageSummary(job.result.events))
        return "interpreter coverage differs";
    if (violationSigs(ij.events) != violationSigs(job.result.events))
        return "interpreter violations differ";
    return "";
}

/** Traced rebuild vs runJob on the same config. */
std::string
jobDrift(const SimJob &job)
{
    run::JobResult plain = run::runJob(job.cfg);
    if (plain.toggles != job.result.toggles)
        return "toggles";
    if (plain.summary != job.result.summary)
        return "verdict";
    if (coverageSummary(plain.events) != coverageSummary(job.result.events))
        return "coverage";
    if (timerFree(plain.events) != timerFree(job.result.events))
        return "event stream";
    return "";
}

struct Checks
{
    std::map<std::string, std::string> sv_digest;
    std::map<std::string, std::vector<std::string>> violations;
    std::vector<std::string> mismatches;
    std::vector<std::string> drift;
    int count = 0;
};

Checks
checkRound(Round &r, bool oracle)
{
    Checks c;
    auto guarded = [&c](std::vector<std::string> &into, const std::string &who,
                        const std::function<std::string()> &fn) {
        c.count++;
        try {
            std::string why = fn();
            if (!why.empty())
                into.push_back(who + ": " + why);
        } catch (const std::exception &e) {
            into.push_back(who + ": check threw: " + e.what());
        }
    };
    if (oracle) {
        for (const auto &[d, text] : r.sv)
            c.sv_digest[d] = digest(text);
        for (const SimJob &job : r.jobs) {
            c.violations[job.design] = violationSigs(job.result.events);
            guarded(c.mismatches, job.design, [&job] {
                return job.cfg.kernel.abi ? interpMismatch(job)
                                          : refPrefixMismatch(job);
            });
        }
    }
    if (r.trace) {
        for (const auto &[d, text] : r.sv)
            guarded(c.drift, d, [&r, d = d, &text = text] {
                return compileAnvil(r.sources[d]).systemverilog == text
                           ? ""
                           : "front-end mirror SystemVerilog differs";
            });
        for (const SimJob &job : r.jobs)
            guarded(c.drift, job.design, [&job] {
                std::string why = jobDrift(job);
                return why.empty() ? why : "rebuilt job stack: " + why;
            });
    }
    return c;
}

// --- Per-layer metrics -----------------------------------------------------------------------

std::map<std::string, double>
layerMetrics(const Round &r, const Canary &c0, const Canary &c1)
{
    std::map<std::string, double> m;
    for (const auto &[name, t] : r.tracer.selfTimes()) {
        if (name == "job" || name == "tb.run")
            continue;   // glue spans; their cost is in the loop metrics
        m[name + "_ms"] = static_cast<double>(t.first) / 1e6;
        m[name + "_ms.cpu"] = static_cast<double>(t.second) / 1e6;
    }
    m["host.canary_ms"] = (c0.ms + c1.ms) / 2;
    m["host.canary_ms.cpu"] = (c0.cpu_ms + c1.cpu_ms) / 2;
    for (const auto &[k, v] : r.counters)
        m[k] = v;

    const CycleLayers &L = r.layers;
    if (!L.cycles || !L.sampled)
        return m;
    auto phase = [&](rtl::SimPhase p) {
        return static_cast<double>(L.phase_ns[static_cast<int>(p)]) /
               static_cast<double>(L.sampled);
    };
    double sweep = phase(rtl::SimPhase::Sweep);
    double kernel = phase(rtl::SimPhase::KernelEval);
    double commit = phase(rtl::SimPhase::Commit);
    double cycles = static_cast<double>(L.cycles);
    if (r.workload == "compiled")
        m["rtl.kernel_ns_per_cycle"] = kernel;
    else
        m["rtl.sweep_ns_per_cycle"] = sweep;
    m["rtl.commit_ns_per_cycle"] = commit;
    uint64_t obs_total = 0;
    for (const auto &[name, ns] : L.obs_ns) {
        obs_total += ns;
        std::string key = name == "contracts" ? "trace.contracts_ns_per_cycle"
                                              : "obs." + name + "_ns_per_cycle";
        m[key] = static_cast<double>(ns) / cycles;
    }
    m["tb.loop_ns_per_cycle"] =
        (static_cast<double>(L.loop_ns) - static_cast<double>(obs_total)) /
            cycles -
        sweep - kernel - commit;
    m["obs.feed_nets_per_cycle"] = static_cast<double>(L.feed_nets) / cycles;
    double frames = static_cast<double>(L.frames);
    m["rtl.nodes_per_cycle"] = static_cast<double>(L.nodes) / frames;
    m["rtl.nets_changed_per_cycle"] =
        static_cast<double>(L.nets_changed) / frames;
    m["rtl.activity_pct"] =
        100.0 * static_cast<double>(L.nodes) / L.strict_frames;
    return m;
}

int
usage()
{
    fprintf(stderr, "usage: perfbench_driver --workload "
                    "compiled|regression|prove --seed N "
                    "[--trace 0|1] [--oracle 0|1] [--spans FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Round r;
    bool oracle = false;
    std::string spans_path;
    if (argc % 2 == 0)
        return usage();
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            r.workload = v;
        else if (k == "--seed")
            r.seed = std::stoull(v);
        else if (k == "--trace")
            r.trace = v == "1";
        else if (k == "--oracle")
            oracle = v == "1";
        else if (k == "--spans")
            spans_path = v;
        else
            return usage();
    }
    const std::map<std::string, void (*)(Round &)> workloads = {
        {"compiled", workloadCompiled},
        {"regression", workloadRegression},
        {"prove", workloadProve},
    };
    auto wl = workloads.find(r.workload);
    if (wl == workloads.end())
        return usage();
    r.tracer = Tracer(r.trace);

    Canary c0 = runCanary();
    uint64_t cpu0 = rusageCpuNs(RUSAGE_SELF) + rusageCpuNs(RUSAGE_CHILDREN);
    uint64_t t0 = nowNs();
    wl->second(r);
    uint64_t wall_ns = nowNs() - t0;
    uint64_t cpu_ns =
        rusageCpuNs(RUSAGE_SELF) + rusageCpuNs(RUSAGE_CHILDREN) - cpu0;
    double rss_mb = peakRssMb();

    Checks checks = checkRound(r, oracle);
    Canary c1 = runCanary();
    if (r.trace && !spans_path.empty()) {
        std::ofstream os(spans_path);
        r.tracer.write(os);
    }

    // Per-job identity of the simulated work, compared across rounds.
    std::map<std::string, std::string> jobs;
    for (const SimJob &job : r.jobs)
        jobs[job.design] = std::to_string(job.result.cycles) + "/" +
                           std::to_string(job.result.toggles) + "/" +
                           job.result.summary;

    auto num = [](double v) { return jnum(v); };
    auto strs = [](const std::vector<std::string> &v) { return jlist(v); };
    auto str = [](const std::string &v) { return jstr(v); };
    auto secs = [](uint64_t ns) { return jnum(static_cast<double>(ns) / 1e9); };
    std::string json = "{\"workload\":" + jstr(r.workload);
    json += ",\"seed\":" + std::to_string(r.seed);
    json += ",\"trace\":" + std::string(r.trace ? "true" : "false");
    json += ",\"wall_s\":" + secs(wall_ns);
    json += ",\"setup_s\":" + secs(r.setup_ns);
    json += ",\"cpu_s\":" + secs(cpu_ns);
    json += ",\"run_s\":" + secs(r.run_ns);
    json += ",\"cycles\":" + std::to_string(r.sim_cycles);
    json += ",\"peak_rss_mb\":" + jnum(rss_mb);
    json += ",\"canary_ms\":[" + jnum(c0.ms) + "," + jnum(c1.ms) + "]";
    json += ",\"ops\":" + std::to_string(r.ops);
    json += ",\"op_failures\":" + jlist(r.op_failures);
    json += ",\"counters\":" + jobject(r.counters, num);
    json += ",\"jobs\":" + jobject(jobs, str);
    json += ",\"verdicts\":" + jobject(r.verdicts, strs);
    json += ",\"sv_digest\":" + jobject(checks.sv_digest, str);
    json += ",\"violations\":" + jobject(checks.violations, strs);
    json += ",\"checks\":" + std::to_string(checks.count);
    json += ",\"mismatches\":" + jlist(checks.mismatches);
    json += ",\"drift\":" + jlist(checks.drift);
    if (r.trace)
        json += ",\"layers\":" + jobject(layerMetrics(r, c0, c1), num);
    json += "}";
    printf("%s\n", json.c_str());
    return 0;
}
