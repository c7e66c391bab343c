/**
 * @file
 * Simulation-core throughput benchmark: cycles/second of the compiled
 * netlist simulator (rtl::Sim) in every sweep mode — forced-dense
 * full sweep, event-driven dirty sweep, and the JIT-compiled C++
 * kernel backend — versus the reference interpreter (rtl::RefSim).
 *
 * Workloads: the dense evaluation designs of Table 1 (MMU, AXI
 * routers, AES round core, compiled Anvil encrypt) under saturating
 * stimulus, plus the large low-activity workloads the dirty sweep is
 * built for: N-master/M-slave AXI crossbars composed from the demux
 * and mux baselines, and a K-way set-associative TLB, both driven by
 * the seeded traffic generators shared with the sweep-mode
 * differential tests (tests/sim_workloads.h).
 *
 * Build & run:  ./build/bench_sim_perf [--cycles N] [out.json]
 *                   [--farm-json farm.json]
 *
 * Prints a table and emits a JSON record matching BENCH_sim.json
 * (fields: ref, netlist = full sweep, dirty, compiled — 0 when no
 * system compiler is present — observers = dirty sweep
 * with the VCD + coverage + contract feed attached, flight = dirty
 * sweep with only the armed flight recorder attached, speedup =
 * netlist/ref, dirty_vs_full, compiled_vs_dirty, observers_vs_dirty,
 * flight_vs_dirty, observer_breakdown = per-observer retained
 * throughput {vcd, coverage, contracts, flight} so the observer cost
 * is attributable to a specific plugin (only at a row's default
 * length: a capped run prints n/a and leaves it out), activity_pct,
 * jit_compile_ms + jit_source_bytes = the kernel's
 * cold compile cost, and the work counters the gates below read:
 * dirty_nodes and compiled_nodes = strict nodes evaluated per cycle,
 * flight_words = words the recorder copied per changed traced net).
 * With a file argument the JSON is written there; `--cycles N` caps
 * every measurement at N cycles (the CI smoke configuration, which
 * exercises all sweep modes).  See docs/benchmarks.md.
 *
 * Exits nonzero when a work-counter gate fails; the counters depend
 * on the stimulus and the netlist only, not on the machine:
 *  - on the crossbar and tlb_4w64s rows, a compiled kernel evaluates
 *    at most kNodeGate times the executor's nodes per cycle (its
 *    levels escalate to their dense bodies; the executor drains
 *    exactly), so a kernel that stops skipping idle logic fails;
 *  - on every row, the flight recorder copies at most the widest
 *    traced net's words per changed traced net, so a recorder whose
 *    per-cycle cost stops following activity fails.
 *
 * A second section measures the in-process farm fan-out
 * (run::runFarm, the engine behind `anvilc --farm N`): aggregate
 * cycles/second across N = 1, 2, 4 workers sharing one immutable
 * netlist, full regression stack on (coverage + activity envelope +
 * event streams into the merger).  `--farm-json <f>` records it as
 * BENCH_farm.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "anvil/compiler.h"
#include "anvil/sim_runner.h"
#include "codegen/jit.h"
#include "designs/designs.h"
#include "obs/flight.h"
#include "obs/merge.h"
#include "obs/observer.h"
#include "rtl/interp.h"
#include "rtl/ref_interp.h"
#include "rtl/vcd.h"
#include "sim_workloads.h"
#include "tb/coverage.h"
#include "trace/contracts.h"

using namespace anvil;

namespace {

/** The repaired Fig. 6 Encrypt (the paper's version does not compile). */
const char *kEncryptFixedSource = R"(
chan encrypt_ch {
    left enc_req : (logic[8]@enc_res),
    right enc_res : (logic[8]@enc_req)
}
chan rng_ch {
    left rng_req : (logic[8]@#1),
    right rng_res : (logic[8]@#2)
}

proc encrypt(ch1 : left encrypt_ch, ch2 : left rng_ch) {
    reg noise_q : logic[8];
    reg rd1_ctext : logic[8];
    reg r2_key : logic[8];
    loop {
        let ptext = recv ch1.enc_req;
        let nq = { let noise = recv ch2.rng_req >>
                   set noise_q := noise };
        let r1_key = 25;
        ptext >> nq >>
        if ptext != 0 {
            set rd1_ctext := (ptext ^ r1_key) + *noise_q
        } else {
            set rd1_ctext := ptext
        };
        cycle 1 >>
        set r2_key := r1_key ^ *noise_q >>
        send ch2.rng_res (*r2_key) >>
        cycle 2 >>
        send ch1.enc_res (*rd1_ctext ^ *r2_key) >>
        cycle 1
    }
}
)";

/** Factory for a fresh per-run stimulus stream. */
using StimFactory =
    std::function<std::function<anvil::testing::InputFrame()>()>;

/** Saturating stimulus: every input driven to 1 once, then held. */
StimFactory
allOnesStim(const rtl::ModulePtr &mod)
{
    // Top-level inputs straight off the module's port list — no
    // throwaway compiled simulator just to learn the names.
    auto names = std::make_shared<std::vector<std::string>>();
    for (const auto &p : mod->ports)
        if (p.is_input)
            names->push_back(p.name);
    return [names]() {
        auto first = std::make_shared<bool>(true);
        return [names, first]() {
            anvil::testing::InputFrame f;
            if (*first) {
                *first = false;
                for (const auto &n : *names)
                    f.emplace_back(n, 1);
            }
            return f;
        };
    };
}

StimFactory
xbarStim(int n_masters, int n_slaves, uint64_t seed)
{
    return [n_masters, n_slaves, seed]() {
        auto s = std::make_shared<anvil::testing::XbarStimulus>(
            n_masters, n_slaves, seed);
        return [s]() { return s->next(); };
    };
}

StimFactory
tlbStim(uint64_t seed)
{
    return [seed]() {
        auto s =
            std::make_shared<anvil::testing::TlbStimulus>(seed);
        return [s]() { return s->next(); };
    };
}

/**
 * Best-of-`reps` throughput: repeated timing windows over one live
 * simulation, keeping the fastest (least noisy) window.  The
 * stimulus stream runs continuously across windows.  Nine windows by
 * default: the reference container's steal bursts are long enough to
 * poison whole windows, and three proved too few to reliably get a
 * clean one for every cell of a full run.
 */
template <typename SimT>
double
timedRun(SimT &sim, int cycles, const StimFactory &make_stim,
         int reps = 9)
{
    auto stim = make_stim();
    // Warm up one cycle: first-sweep (dense) cost, toggle priming.
    for (const auto &[n, v] : stim())
        sim.setInput(n, v);
    sim.step(1);
    double best = 0;
    for (int rep = 0; rep < reps; rep++) {
        auto t0 = std::chrono::steady_clock::now();
        for (int c = 0; c < cycles; c++) {
            for (const auto &[n, v] : stim())
                sim.setInput(n, v);
            sim.step(1);
        }
        auto t1 = std::chrono::steady_clock::now();
        double s = std::chrono::duration<double>(t1 - t0).count();
        best = std::max(best, static_cast<double>(cycles) / s);
    }
    return best;
}

/** Discards every byte written (the VCD sink for the observer row). */
class NullBuf : public std::streambuf
{
  protected:
    int overflow(int c) override { return c; }
    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

/** One priced observer stack: attaches to the sim/null sink and
 *  hands ownership back so the feed outlives the timing loop. */
using ObserverList = std::vector<std::unique_ptr<obs::Observer>>;
using ObserverSetup =
    std::function<ObserverList(rtl::Sim &, std::ostream &)>;

ObserverList
vcdOnly(rtl::Sim &sim, std::ostream &null_os)
{
    ObserverList v;
    v.push_back(std::make_unique<rtl::VcdWriter>(
        sim, null_os, std::vector<std::string>{}));
    return v;
}

ObserverList
coverageOnly(rtl::Sim &, std::ostream &)
{
    ObserverList v;
    v.push_back(std::make_unique<tb::Coverage>());
    return v;
}

ObserverList
contractsOnly(rtl::Sim &sim, std::ostream &)
{
    ObserverList v;
    v.push_back(std::make_unique<trace::ContractMonitor>(
        trace::inferContracts(sim.netlist()), sim));
    return v;
}

/** An armed recorder that never dumps: the priced cost is the pure
 *  per-cycle ring capture + trigger poll of `anvilc --flight`. */
ObserverList
flightOnly(rtl::Sim &sim, std::ostream &)
{
    ObserverList v;
    auto rec = std::make_unique<obs::FlightRecorder>(sim);
    rec->addTrigger("never", [] { return uint64_t(0); });
    v.push_back(std::move(rec));
    return v;
}

/** The pre-existing `observers` column: VCD + coverage + contracts. */
ObserverList
fullStack(rtl::Sim &sim, std::ostream &null_os)
{
    ObserverList v = vcdOnly(sim, null_os);
    for (auto &o : coverageOnly(sim, null_os))
        v.push_back(std::move(o));
    for (auto &o : contractsOnly(sim, null_os))
        v.push_back(std::move(o));
    return v;
}

/**
 * Dirty sweep with an observer stack riding the change feed —
 * sampled once per cycle like Testbench::run does.  The columns
 * price what "observability on" costs over a bare sweep, one stack
 * (or single observer) at a time.  `done`, when set, sees the
 * observers after the last window.
 */
double
timedRunObserved(rtl::Sim &sim, int cycles,
                 const StimFactory &make_stim,
                 const ObserverSetup &setup,
                 const std::function<void(const ObserverList &)> &done = {},
                 int reps = 9)
{
    NullBuf null_buf;
    std::ostream null_os(&null_buf);
    obs::ChangeFeed feed(sim);
    ObserverList owned = setup(sim, null_os);
    for (auto &o : owned)
        feed.attach(*o);

    auto stim = make_stim();
    for (const auto &[n, v] : stim())
        sim.setInput(n, v);
    feed.sample();
    sim.step(1);
    double best = 0;
    for (int rep = 0; rep < reps; rep++) {
        auto t0 = std::chrono::steady_clock::now();
        for (int c = 0; c < cycles; c++) {
            for (const auto &[n, v] : stim())
                sim.setInput(n, v);
            feed.sample();
            sim.step(1);
        }
        auto t1 = std::chrono::steady_clock::now();
        double s = std::chrono::duration<double>(t1 - t0).count();
        best = std::max(best, static_cast<double>(cycles) / s);
    }
    if (done)
        done(owned);
    return best;
}

/** Most nodes a compiled kernel may evaluate per cycle, as a multiple
 *  of the executor's on the same stimulus (see the file comment). */
constexpr double kNodeGate = 2.0;

struct Row
{
    std::string name;
    double ref = 0;          // reference interpreter
    double full = 0;         // dense sweep ("netlist" in the JSON)
    double dirty = 0;        // event-driven sweep
    double compiled = 0;     // JIT C++ kernel (0 = no compiler)
    double observers = 0;    // dirty + VCD/coverage/contract feed
    double obs_vcd = 0;      // dirty + VCD writer only
    double obs_cov = 0;      // dirty + coverage only
    double obs_con = 0;      // dirty + contract monitor only
    double flight = 0;       // dirty + armed flight recorder only
    double activity_pct = 0; // strict nodes evaluated / total, dirty
    double jit_ms = 0;       // kernel compile wall time (cold)
    uint64_t jit_src_bytes = 0;   // emitted translation-unit size
    // Work counters: nodes per cycle on the executor (dirty) and the
    // compiled kernel, the recorder's words copied per changed traced
    // net, and the widest traced net's words.
    double dirty_nodes = 0;
    double compiled_nodes = 0;
    double flight_words = 0;
    int traced_words = 1;
    /** Ran at its default length: shorter runs cannot resolve one
     *  observer's share (a retained ratio above 1.0x is common), so
     *  the per-observer ratios are not reported for them. */
    bool breakdown = true;
};

Row
runDesign(const std::string &name, const rtl::ModulePtr &mod,
          int sim_cycles, int ref_cycles, const StimFactory &stim)
{
    Row r;
    r.name = name;
    {
        rtl::Sim sim(mod);
        sim.setSweepMode(rtl::SweepMode::Full);
        r.full = timedRun(sim, sim_cycles, stim);
    }
    {
        rtl::Sim sim(mod);
        sim.setSweepMode(rtl::SweepMode::Dirty);
        r.dirty = timedRun(sim, sim_cycles, stim);
        const rtl::SweepStats &st = sim.sweepStats();
        r.dirty_nodes = st.avgNodes();
        r.activity_pct = st.cycles && st.strict_nodes
            ? 100.0 * st.avgNodes() /
                static_cast<double>(st.strict_nodes)
            : 0.0;
        for (const auto &[name, sig] : sim.netlist().signals())
            r.traced_words = std::max(
                r.traced_words, static_cast<int>(rtl::kernelWords(sig.width)));
    }
    auto observed = [&](const ObserverSetup &setup,
                        const std::function<void(const ObserverList &)>
                            &done = {}) {
        rtl::Sim sim(mod);
        sim.setSweepMode(rtl::SweepMode::Dirty);
        return timedRunObserved(sim, sim_cycles, stim, setup, done);
    };
    r.observers = observed(fullStack);
    r.obs_vcd = observed(vcdOnly);
    r.obs_cov = observed(coverageOnly);
    r.obs_con = observed(contractsOnly);
    r.flight = observed(flightOnly, [&r](const ObserverList &obs) {
        const auto &rec = static_cast<const obs::FlightRecorder &>(*obs[0]);
        r.flight_words = rec.tracedChanges()
            ? static_cast<double>(rec.capturedWords()) /
                static_cast<double>(rec.tracedChanges())
            : 0.0;
    });
    if (!codegen::jitCompilerPath().empty()) {
        rtl::Sim sim(mod);
        sim.setSweepMode(rtl::SweepMode::Dirty);
        codegen::JitResult jr =
            codegen::jitCompileKernel(sim.netlist());
        if (jr.kernel &&
            sim.attachKernel(codegen::kernelRef(jr.kernel))) {
            r.compiled = timedRun(sim, sim_cycles, stim);
            r.compiled_nodes = sim.sweepStats().avgNodes();
            r.jit_ms = static_cast<double>(jr.compile_ns) / 1e6;
            r.jit_src_bytes = jr.source_bytes;
        } else {
            fprintf(stderr, "%s: compiled backend unavailable (%s)\n",
                    name.c_str(), jr.error.c_str());
        }
    }
    {
        rtl::RefSim sim(mod);
        r.ref = timedRun(sim, ref_cycles, stim, 2);
    }
    return r;
}

/** One design's farm fan-out scaling: aggregate cycles/second. */
struct FarmRow
{
    std::string name;
    int cycles_per_worker = 0;
    double cps1 = 0, cps2 = 0, cps4 = 0;   // N = 1, 2, 4 workers
};

/**
 * Best-of-`reps` aggregate throughput of run::runFarm at N workers:
 * the whole regression stack (random testbench, coverage, rolling
 * activity, event streams folded by the merger), one shared netlist.
 */
double
timedFarm(const rtl::ModulePtr &mod, int workers, int cycles,
          int reps = 2)
{
    double best = 0;
    for (int rep = 0; rep < reps; rep++) {
        run::FarmConfig fc;
        fc.workers = workers;
        fc.job.top = mod;
        fc.job.seed = 1;
        fc.job.cycles = static_cast<uint64_t>(cycles);
        fc.job.coverage = true;
        obs::Merger merger;
        run::FarmResult fr = run::runFarm(fc, merger);
        obs::Merger::Totals t = merger.totals();
        if (fr.wall_ns)
            best = std::max(best,
                            static_cast<double>(t.cycles) * 1e9 /
                                static_cast<double>(fr.wall_ns));
    }
    return best;
}

FarmRow
runFarmDesign(const std::string &name, const rtl::ModulePtr &mod,
              int cycles)
{
    FarmRow fr;
    fr.name = name;
    fr.cycles_per_worker = cycles;
    fr.cps1 = timedFarm(mod, 1, cycles);
    fr.cps2 = timedFarm(mod, 2, cycles);
    fr.cps4 = timedFarm(mod, 4, cycles);
    return fr;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path, farm_path;
    long cap = 0;
    for (int i = 1; i < argc; i++) {
        if (!strcmp(argv[i], "--cycles") && i + 1 < argc) {
            cap = atol(argv[++i]);
            if (cap <= 0) {
                fprintf(stderr, "bad --cycles\n");
                return 2;
            }
        } else if (!strcmp(argv[i], "--farm-json") && i + 1 < argc) {
            farm_path = argv[++i];
        } else {
            out_path = argv[i];
        }
    }
    auto cycles = [cap](int dflt) {
        return cap > 0 && cap < dflt ? static_cast<int>(cap) : dflt;
    };

    printf("=== Simulation core throughput "
           "(sweep modes vs reference interpreter) ===\n\n");

    CompileOutput enc = compileAnvil(kEncryptFixedSource);
    if (!enc.ok) {
        fprintf(stderr, "encrypt design failed to compile:\n%s\n",
                enc.diags.render().c_str());
        return 1;
    }

    std::vector<Row> rows;
    auto add = [&](const std::string &name, const rtl::ModulePtr &mod,
                   int sc, int rc, const StimFactory &stim) {
        rows.push_back(runDesign(name, mod, cycles(sc), cycles(rc), stim));
        rows.back().breakdown = cycles(sc) == sc;
    };
    auto dense = [&](const std::string &name,
                     const rtl::ModulePtr &mod, int sc, int rc) {
        add(name, mod, sc, rc, allOnesStim(mod));
    };
    dense("mmu_tlb", designs::buildTlbBaseline(), 200000, 20000);
    dense("mmu_ptw", designs::buildPtwBaseline(), 200000, 20000);
    dense("axi_demux", designs::buildAxiDemuxBaseline(), 100000,
          8000);
    dense("axi_mux", designs::buildAxiMuxBaseline(), 50000, 4000);
    dense("aes", designs::buildAesBaseline(), 50000, 5000);
    dense("encrypt_anvil", enc.module("encrypt"), 200000, 20000);

    // Large low-activity workloads (the dirty-sweep target case).
    add("axi_xbar_4x4", designs::buildAxiXbarBaseline(4, 4), 40000, 2000,
        xbarStim(4, 4, 2026));
    add("axi_xbar_8x8", designs::buildAxiXbarBaseline(8, 8), 20000, 600,
        xbarStim(8, 8, 2027));
    add("tlb_4w64s", designs::buildSetAssocTlbBaseline(4, 64), 40000,
        2000, tlbStim(4242));

    printf("%-14s %11s %11s %11s %11s %10s %7s %7s %6s\n",
           "design", "ref cyc/s", "full cyc/s", "dirty", "compiled",
           "observers", "dirty/f", "cmp/d", "act%");
    for (const auto &r : rows)
        printf("%-14s %11.0f %11.0f %11.0f %11.0f %10.0f %6.2fx %6.2fx "
               "%5.1f%%\n",
               r.name.c_str(), r.ref, r.full, r.dirty,
               r.compiled, r.observers, r.dirty / r.full,
               r.dirty > 0 ? r.compiled / r.dirty : 0.0,
               r.activity_pct);

    // Attribute the observer cost: retained throughput vs the bare
    // dirty sweep, one plugin at a time (1.00 = free, 0.50 = 2x).
    printf("\n=== Observer overhead breakdown "
           "(retained throughput vs bare dirty sweep) ===\n\n");
    printf("%-14s %7s %9s %10s %7s %7s\n", "design", "vcd",
           "coverage", "contracts", "flight", "all");
    auto ratio = [](double v, double dirty) {
        return dirty > 0 ? v / dirty : 0.0;
    };
    for (const auto &r : rows) {
        if (r.breakdown)
            printf("%-14s %6.2fx %8.2fx %9.2fx %6.2fx %6.2fx\n",
                   r.name.c_str(), ratio(r.obs_vcd, r.dirty),
                   ratio(r.obs_cov, r.dirty), ratio(r.obs_con, r.dirty),
                   ratio(r.flight, r.dirty), ratio(r.observers, r.dirty));
        else
            printf("%-14s %7s %9s %10s %7s %6.2fx\n", r.name.c_str(),
                   "n/a", "n/a", "n/a", "n/a",
                   ratio(r.observers, r.dirty));
    }

    // The gates read work counters, not wall clock, so they hold on
    // any machine; the throughput ratios above are trends.
    printf("\n=== Work-counter gates ===\n\n");
    printf("%-14s %10s %10s %7s %12s\n", "design", "dirty n/c",
           "cmp n/c", "cmp/d", "flight w/net");
    bool gate_failed = false;
    for (const auto &r : rows) {
        bool node_row = r.name.find("xbar") != std::string::npos ||
            r.name == "tlb_4w64s";
        double node_ratio = r.compiled > 0 && r.dirty_nodes > 0
            ? r.compiled_nodes / r.dirty_nodes : 0.0;
        printf("%-14s %10.1f %10.1f %6.2fx %12.2f\n", r.name.c_str(),
               r.dirty_nodes, r.compiled_nodes, node_ratio,
               r.flight_words);
        if (node_row && node_ratio > kNodeGate) {
            fprintf(stderr,
                    "FAIL %s: compiled kernel evaluates %.2fx the "
                    "executor's nodes per cycle (gate %.1fx)\n",
                    r.name.c_str(), node_ratio, kNodeGate);
            gate_failed = true;
        }
        if (r.flight_words > r.traced_words) {
            fprintf(stderr,
                    "FAIL %s: flight recorder copies %.2f words per "
                    "changed traced net (widest net: %d)\n",
                    r.name.c_str(), r.flight_words, r.traced_words);
            gate_failed = true;
        }
    }

    std::string json = "{\n  \"bench\": \"sim_perf\",\n"
        "  \"unit\": \"cycles_per_second\",\n  \"designs\": [\n";
    for (size_t i = 0; i < rows.size(); i++) {
        char breakdown[256] = "";
        if (rows[i].breakdown)
            snprintf(breakdown, sizeof breakdown,
                     "\"observer_breakdown\": {\"vcd\": %.2f, "
                     "\"coverage\": %.2f, \"contracts\": %.2f, "
                     "\"flight\": %.2f}, ",
                     ratio(rows[i].obs_vcd, rows[i].dirty),
                     ratio(rows[i].obs_cov, rows[i].dirty),
                     ratio(rows[i].obs_con, rows[i].dirty),
                     ratio(rows[i].flight, rows[i].dirty));
        char buf[1536];
        snprintf(buf, sizeof buf,
                 "    {\"name\": \"%s\", \"ref\": %.0f, "
                 "\"netlist\": %.0f, \"dirty\": %.0f, "
                 "\"compiled\": %.0f, \"observers\": %.0f, "
                 "\"flight\": %.0f, "
                 "\"speedup\": %.2f, \"dirty_vs_full\": %.2f, "
                 "\"compiled_vs_dirty\": %.2f, "
                 "\"observers_vs_dirty\": %.2f, "
                 "\"flight_vs_dirty\": %.2f, %s"
                 "\"activity_pct\": %.1f, "
                 "\"jit_compile_ms\": %.1f, "
                 "\"jit_source_bytes\": %llu, "
                 "\"dirty_nodes\": %.2f, \"compiled_nodes\": %.2f, "
                 "\"flight_words\": %.3f}%s\n",
                 rows[i].name.c_str(), rows[i].ref, rows[i].full,
                 rows[i].dirty, rows[i].compiled, rows[i].observers,
                 rows[i].flight,
                 rows[i].full / rows[i].ref,
                 rows[i].dirty / rows[i].full,
                 rows[i].dirty > 0
                     ? rows[i].compiled / rows[i].dirty : 0.0,
                 rows[i].dirty > 0
                     ? rows[i].observers / rows[i].dirty : 0.0,
                 rows[i].dirty > 0
                     ? rows[i].flight / rows[i].dirty : 0.0,
                 breakdown, rows[i].activity_pct,
                 rows[i].jit_ms,
                 (unsigned long long)rows[i].jit_src_bytes,
                 rows[i].dirty_nodes, rows[i].compiled_nodes,
                 rows[i].flight_words,
                 i + 1 < rows.size() ? "," : "");
        json += buf;
    }
    json += "  ]\n}\n";

    if (!out_path.empty()) {
        FILE *f = fopen(out_path.c_str(), "w");
        if (!f) {
            fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 1;
        }
        fputs(json.c_str(), f);
        fclose(f);
        printf("\nwrote %s\n", out_path.c_str());
    } else {
        printf("\n%s", json.c_str());
    }

    // --- Farm fan-out scaling (anvilc --farm N) ----------------------

    printf("\n=== Farm fan-out "
           "(aggregate cycles/s, full regression stack) ===\n\n");
    std::vector<FarmRow> farm_rows;
    farm_rows.push_back(runFarmDesign("encrypt_anvil",
                                      enc.module("encrypt"),
                                      cycles(50000)));
    farm_rows.push_back(
        runFarmDesign("axi_xbar_4x4",
                      designs::buildAxiXbarBaseline(4, 4),
                      cycles(20000)));
    farm_rows.push_back(
        runFarmDesign("tlb_4w64s",
                      designs::buildSetAssocTlbBaseline(4, 64),
                      cycles(20000)));

    printf("%-14s %9s %12s %12s %12s %7s %7s\n", "design",
           "cyc/wkr", "N=1 agg/s", "N=2 agg/s", "N=4 agg/s",
           "x2", "x4");
    for (const auto &fr : farm_rows)
        printf("%-14s %9d %12.0f %12.0f %12.0f %6.2fx %6.2fx\n",
               fr.name.c_str(), fr.cycles_per_worker, fr.cps1,
               fr.cps2, fr.cps4,
               fr.cps1 > 0 ? fr.cps2 / fr.cps1 : 0.0,
               fr.cps1 > 0 ? fr.cps4 / fr.cps1 : 0.0);

    std::string farm_json =
        "{\n  \"bench\": \"farm_scale\",\n"
        "  \"unit\": \"aggregate_cycles_per_second\",\n"
        "  \"designs\": [\n";
    for (size_t i = 0; i < farm_rows.size(); i++) {
        const FarmRow &fr = farm_rows[i];
        char buf[512];
        snprintf(buf, sizeof buf,
                 "    {\"name\": \"%s\", "
                 "\"cycles_per_worker\": %d, "
                 "\"workers\": {\"1\": %.0f, \"2\": %.0f, "
                 "\"4\": %.0f}, "
                 "\"scale_2\": %.2f, \"scale_4\": %.2f}%s\n",
                 fr.name.c_str(), fr.cycles_per_worker, fr.cps1,
                 fr.cps2, fr.cps4,
                 fr.cps1 > 0 ? fr.cps2 / fr.cps1 : 0.0,
                 fr.cps1 > 0 ? fr.cps4 / fr.cps1 : 0.0,
                 i + 1 < farm_rows.size() ? "," : "");
        farm_json += buf;
    }
    farm_json += "  ]\n}\n";

    if (!farm_path.empty()) {
        FILE *f = fopen(farm_path.c_str(), "w");
        if (!f) {
            fprintf(stderr, "cannot write %s\n", farm_path.c_str());
            return 1;
        }
        fputs(farm_json.c_str(), f);
        fclose(f);
        printf("\nwrote %s\n", farm_path.c_str());
    } else {
        printf("\n%s", farm_json.c_str());
    }
    return gate_failed ? 1 : 0;
}
