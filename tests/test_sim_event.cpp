/**
 * @file
 * Sweep-mode differential matrix: the forced-dense full sweep and the
 * dirty sweep — and, when a system compiler is available, the
 * compiled (JIT kernel) backend — must be bit-identical on every
 * observable surface — final registers, total toggles, dprint logs,
 * VCD bytes, coverage JSON, and BMC states_explored — across every
 * evaluation design plus the seeded low-activity AXI-crossbar and
 * set-associative-TLB workloads.  Also pins the structural properties
 * the event-driven sweep relies on (fan-out CSR shape, changed-net
 * completeness), sanity-checks that dirty sweeping actually evaluates
 * fewer nodes than the dense sweep on sparse stimulus, pins when
 * the dirty sweep's adaptive dense fallback engages, and checks that
 * Sim::nextRegs predicts every mode's clock edge without taking it.
 * The clock edge, which both backends share, is held to rtl::RefSim
 * edge by edge (the KernelEdge cases).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>

#include "codegen/jit.h"
#include "designs/designs.h"
#include "harness.h"
#include "rtl/interp.h"
#include "rtl/ref_interp.h"
#include "rtl/vcd.h"
#include "sim_workloads.h"
#include "tb/coverage.h"
#include "verif/bmc.h"

using namespace anvil;
using namespace anvil::rtl;

namespace {

/** Drives one cycle of stimulus into a simulator. */
using DriveFn = std::function<void(Sim &, int cycle)>;

struct ModeRun
{
    std::vector<std::string> regs;
    uint64_t toggles = 0;
    /** captureRegs() and totalToggles() after every step(). */
    std::vector<std::vector<BitVec>> regs_at;
    std::vector<uint64_t> toggles_at;
    std::vector<std::string> log;
    std::string vcd;
    std::string cov;
    /** Per-register bin hits: summaryJson() only totals bins hit. */
    std::vector<std::vector<uint64_t>> reg_hits;
    SweepStats stats;
};

/**
 * True when the JIT can build kernels here.  The probe JITs one
 * trivial netlist, once per process, the way the compiled rows do, so
 * a missing compiler and a set but broken ANVIL_CXX both skip them
 * (and leave the interpreter and RefSim halves running).
 */
bool
haveJitCompiler()
{
    static const bool have = [] {
        auto m = std::make_shared<Module>();
        m->name = "jit_probe";
        m->wire("y", m->input("a", 8) + cst(8, 1));
        Sim probe(m);
        codegen::JitOptions jo;
        jo.opt_level = 1;
        return codegen::jitCompileKernel(probe.netlist(), jo).kernel !=
            nullptr;
    }();
    return have;
}

/**
 * JIT the design's kernel (shared process-wide cache, so each design
 * compiles once per test binary) and attach it to the simulator.
 */
void
attachJitKernel(Sim &sim)
{
    codegen::JitOptions jo;
    jo.opt_level = 1;   // fast compiles; optimization is benched
    codegen::JitResult jr = codegen::jitCompileKernel(sim.netlist(), jo);
    ASSERT_NE(jr.kernel, nullptr) << jr.error;
    ASSERT_TRUE(sim.attachKernel(codegen::kernelRef(jr.kernel)));
}

ModeRun
runMode(const ModulePtr &mod, SweepMode mode, int cycles,
        const DriveFn &drive, bool compiled = false)
{
    Sim sim(mod);
    sim.setSweepMode(mode);
    if (compiled) {
        attachJitKernel(sim);
        if (!sim.kernelAttached())
            return {};
    }
    std::ostringstream vcd_os;
    VcdWriter vcd(sim, vcd_os);
    tb::Coverage cov;
    ModeRun r;
    for (int cyc = 0; cyc < cycles; cyc++) {
        drive(sim, cyc);
        cov.sample(sim);
        vcd.sample();
        sim.step();
        r.regs_at.push_back(sim.captureRegs());
        r.toggles_at.push_back(sim.totalToggles());
    }
    for (const BitVec &v : sim.captureRegs())
        r.regs.push_back(v.toHex());
    r.toggles = sim.totalToggles();
    r.log = sim.log();
    r.vcd = vcd_os.str();
    r.cov = cov.summaryJson();
    for (const tb::RegBins &rb : cov.regBins())
        r.reg_hits.push_back(rb.hits);
    r.stats = sim.sweepStats();
    return r;
}

/** Registers and toggles after every step() agree, up to the first
 *  cycle where they do not. */
void
expectSameEdges(const ModeRun &want, const ModeRun &got)
{
    ASSERT_EQ(want.regs_at.size(), got.regs_at.size());
    for (size_t cyc = 0; cyc < want.regs_at.size(); cyc++) {
        ASSERT_EQ(want.regs_at[cyc], got.regs_at[cyc])
            << "registers after cycle " << cyc;
        ASSERT_EQ(want.toggles_at[cyc], got.toggles_at[cyc])
            << "toggles after cycle " << cyc;
    }
}

/**
 * Run both interpreter sweep modes on identical stimulus and require
 * bit-identical observables.  When a system compiler is available
 * two more runs go through the JIT-compiled kernel backend and must
 * match too.  Returns the per-mode runs for additional activity
 * assertions (indices 0..1 are always Full/Dirty).
 */
std::vector<ModeRun>
expectModesAgree(const ModulePtr &mod, int cycles,
                 const std::function<DriveFn()> &make_drive)
{
    std::vector<ModeRun> runs;
    runs.push_back(runMode(mod, SweepMode::Full, cycles, make_drive()));
    runs.push_back(runMode(mod, SweepMode::Dirty, cycles, make_drive()));
    if (haveJitCompiler()) {
        runs.push_back(runMode(mod, SweepMode::Dirty, cycles,
                               make_drive(), /*compiled=*/true));
        // Forced dense fallback: Full mode drives the kernel's
        // dense per-level functions on every frame, so both halves
        // of the generated scheduler face the whole matrix.
        runs.push_back(runMode(mod, SweepMode::Full, cycles,
                               make_drive(), /*compiled=*/true));
    }
    const ModeRun &full = runs[0];
    for (size_t i = 1; i < runs.size(); i++) {
        SCOPED_TRACE(mod->name + " mode#" + std::to_string(i));
        // The compiled rows commit their clock edges in the kernel:
        // pin every edge, not only where the run ends.
        if (i >= 2)
            expectSameEdges(full, runs[i]);
        EXPECT_EQ(full.regs, runs[i].regs);
        EXPECT_EQ(full.toggles, runs[i].toggles);
        EXPECT_EQ(full.log, runs[i].log);
        EXPECT_EQ(full.vcd, runs[i].vcd);
        EXPECT_EQ(full.cov, runs[i].cov);
        EXPECT_EQ(full.reg_hits, runs[i].reg_hits);
    }
    // The full sweep evaluates every strict node every cycle.
    EXPECT_EQ(full.stats.nodes_evaluated,
              full.stats.cycles * full.stats.strict_nodes);
    return runs;
}

/** Dense stimulus: every input gets a fresh random value each cycle. */
std::function<DriveFn()>
denseStimulus(unsigned seed)
{
    return [seed]() -> DriveFn {
        auto rng = std::make_shared<std::mt19937_64>(seed);
        auto inputs = std::make_shared<std::vector<std::string>>();
        return [rng, inputs](Sim &sim, int) {
            if (inputs->empty())
                *inputs = sim.inputNames();
            for (const auto &in : *inputs)
                sim.setInput(in, (*rng)());
        };
    };
}

/** Sparse stimulus: inputs change only every k-th cycle. */
std::function<DriveFn()>
sparseStimulus(unsigned seed, int k)
{
    return [seed, k]() -> DriveFn {
        auto rng = std::make_shared<std::mt19937_64>(seed);
        auto inputs = std::make_shared<std::vector<std::string>>();
        return [rng, inputs, k](Sim &sim, int cyc) {
            if (inputs->empty())
                *inputs = sim.inputNames();
            if (cyc % k != 0)
                return;
            for (const auto &in : *inputs)
                sim.setInput(in, (*rng)());
        };
    };
}

TEST(SweepModes, CommonCells)
{
    expectModesAgree(designs::buildFifoBaseline(), 300,
                     denseStimulus(1));
    expectModesAgree(designs::buildSpillRegBaseline(), 300,
                     denseStimulus(2));
    expectModesAgree(designs::buildStreamFifoBaseline(), 300,
                     denseStimulus(3));
}

TEST(SweepModes, Mmu)
{
    expectModesAgree(designs::buildTlbBaseline(), 200,
                     denseStimulus(4));
    expectModesAgree(designs::buildPtwBaseline(), 200,
                     denseStimulus(5));
}

TEST(SweepModes, Axi)
{
    expectModesAgree(designs::buildAxiDemuxBaseline(), 150,
                     denseStimulus(6));
    expectModesAgree(designs::buildAxiMuxBaseline(), 150,
                     denseStimulus(7));
}

TEST(SweepModes, AesAndPipelines)
{
    expectModesAgree(designs::buildAesBaseline(), 60,
                     denseStimulus(8));
    expectModesAgree(designs::buildPipelinedAluBaseline(), 200,
                     denseStimulus(9));
    expectModesAgree(designs::buildSystolicBaseline(), 200,
                     denseStimulus(10));
}

TEST(SweepModes, FigureDemosAndCompiledAnvil)
{
    expectModesAgree(designs::buildHazardDemoSystem(), 100,
                     denseStimulus(11));
    expectModesAgree(designs::buildCacheDemoBaseline(), 100,
                     denseStimulus(12));
    auto fifo = anvil::testing::compileDesign(
        designs::anvilFifoSource(), "fifo");
    ASSERT_NE(fifo, nullptr);
    expectModesAgree(fifo, 200, denseStimulus(13));
    auto tlb = anvil::testing::compileDesign(
        designs::anvilTlbSource(), "tlb");
    ASSERT_NE(tlb, nullptr);
    expectModesAgree(tlb, 200, denseStimulus(14));
}

TEST(SweepModes, SparseStimulusCutsEvaluations)
{
    // Under sparse stimulus the dirty sweep must agree bit-for-bit
    // AND do strictly less work than the dense sweep.
    auto runs = expectModesAgree(designs::buildTlbBaseline(), 400,
                                 sparseStimulus(21, 8));
    EXPECT_LT(runs[1].stats.nodes_evaluated,
              runs[0].stats.nodes_evaluated / 2);
}

TEST(SweepModes, AdaptiveDenseFallbackTracksActivity)
{
    // The dirty sweep's only route onto the dense path is its own
    // activity measurement: enter when more than half the strict
    // table changed in a frame, leave below 40%.  aes under dense
    // random stimulus switches nearly every net every cycle, so the
    // fallback must engage (5 entries over these 60 cycles).
    ModeRun aes = runMode(designs::buildAesBaseline(), SweepMode::Dirty,
                          60, denseStimulus(8)());
    EXPECT_GE(aes.stats.dense_fallback_switches, 1u);

    // The low-activity TLB workload touches a few percent of the
    // design per cycle and must stay on the worklists for the whole
    // run.
    Sim tlb(designs::buildSetAssocTlbBaseline(4, 64));
    anvil::testing::TlbStimulus stim(1234);
    for (int cyc = 0; cyc < 2000; cyc++) {
        for (const auto &[name, v] : stim.next())
            tlb.setInput(name, v);
        tlb.step();
    }
    EXPECT_EQ(tlb.sweepStats().cycles, 2000u);
    EXPECT_EQ(tlb.sweepStats().dense_fallback_switches, 0u);
}

TEST(SweepModes, XbarWorkload)
{
    auto mod = designs::buildAxiXbarBaseline(4, 4);
    auto make_drive = []() -> DriveFn {
        auto stim =
            std::make_shared<anvil::testing::XbarStimulus>(4, 4, 99);
        return [stim](Sim &sim, int) {
            for (const auto &[name, v] : stim->next())
                sim.setInput(name, v);
        };
    };
    auto runs = expectModesAgree(mod, 600, make_drive);
    // The crossbar compiles strictly: every router cone levelizes.
    Sim probe(mod);
    EXPECT_TRUE(probe.netlist().lazyRoots().empty());
    // Low-activity traffic must touch well under half the design.
    EXPECT_LT(runs[1].stats.nodes_evaluated * 2,
              runs[0].stats.nodes_evaluated);
}

TEST(SweepModes, SetAssocTlbWorkload)
{
    auto mod = designs::buildSetAssocTlbBaseline(4, 32);
    auto make_drive = []() -> DriveFn {
        auto stim =
            std::make_shared<anvil::testing::TlbStimulus>(1234);
        return [stim](Sim &sim, int) {
            for (const auto &[name, v] : stim->next())
                sim.setInput(name, v);
        };
    };
    auto runs = expectModesAgree(mod, 600, make_drive);
    EXPECT_LT(runs[1].stats.nodes_evaluated * 2,
              runs[0].stats.nodes_evaluated);
}

/** The frame's changed nets, sorted and deduplicated (the kernel
 *  lists them in level order, the interpreter in bucket order). */
std::vector<NetId>
changedSet(Sim &sim)
{
    std::vector<NetId> v(sim.changedNets().begin(),
                         sim.changedNets().end());
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
}

/**
 * The compiled kernel's changed-net list must be EXACT (the kernel
 * ABI contract): set-equal, every cycle, to what the interpreter's
 * dirty sweep reports for identical stimulus.  Order may differ (the
 * kernel emits in level/worklist order, the interpreter in bucket
 * order), so both sides are sorted and deduplicated before compare.
 */
void
expectChangedSetsEqual(const ModulePtr &mod, int cycles,
                       const std::function<DriveFn()> &make_drive)
{
    SCOPED_TRACE(mod->name);
    Sim interp(mod), compiled(mod);
    interp.setSweepMode(SweepMode::Dirty);
    compiled.setSweepMode(SweepMode::Dirty);
    attachJitKernel(compiled);
    ASSERT_TRUE(compiled.kernelAttached());
    DriveFn da = make_drive(), db = make_drive();
    for (int cyc = 0; cyc < cycles; cyc++) {
        da(interp, cyc);
        db(compiled, cyc);
        ASSERT_EQ(changedSet(interp), changedSet(compiled))
            << "cycle " << cyc;
        interp.step();
        compiled.step();
    }
}

TEST(SweepModes, CompiledChangedListIsExactOnEvalDesigns)
{
    if (!haveJitCompiler())
        GTEST_SKIP() << "no system compiler available";
    expectChangedSetsEqual(designs::buildFifoBaseline(), 150,
                           denseStimulus(31));
    expectChangedSetsEqual(designs::buildSpillRegBaseline(), 150,
                           denseStimulus(32));
    expectChangedSetsEqual(designs::buildStreamFifoBaseline(), 150,
                           denseStimulus(33));
    expectChangedSetsEqual(designs::buildTlbBaseline(), 120,
                           denseStimulus(34));
    expectChangedSetsEqual(designs::buildPtwBaseline(), 120,
                           denseStimulus(35));
    expectChangedSetsEqual(designs::buildAxiDemuxBaseline(), 100,
                           denseStimulus(36));
    expectChangedSetsEqual(designs::buildAxiMuxBaseline(), 100,
                           denseStimulus(37));
    expectChangedSetsEqual(designs::buildAesBaseline(), 40,
                           denseStimulus(38));
    expectChangedSetsEqual(designs::buildPipelinedAluBaseline(), 120,
                           denseStimulus(39));
    expectChangedSetsEqual(designs::buildSystolicBaseline(), 120,
                           denseStimulus(40));
    expectChangedSetsEqual(designs::buildHazardDemoSystem(), 80,
                           denseStimulus(41));
    expectChangedSetsEqual(designs::buildCacheDemoBaseline(), 80,
                           denseStimulus(42));
    // Sparse stimulus keeps the kernel on the sparse worklist path
    // for the whole run, so exactness is pinned there too, not just
    // under dense traffic that trips the fallback.
    expectChangedSetsEqual(designs::buildTlbBaseline(), 300,
                           sparseStimulus(43, 8));
}

TEST(SweepModes, CompiledChangedListIsExactOnWorkloads)
{
    if (!haveJitCompiler())
        GTEST_SKIP() << "no system compiler available";
    auto xbar_drive = []() -> DriveFn {
        auto stim =
            std::make_shared<anvil::testing::XbarStimulus>(4, 4, 99);
        return [stim](Sim &sim, int) {
            for (const auto &[name, v] : stim->next())
                sim.setInput(name, v);
        };
    };
    expectChangedSetsEqual(designs::buildAxiXbarBaseline(4, 4), 300,
                           xbar_drive);
    auto tlb_drive = []() -> DriveFn {
        auto stim =
            std::make_shared<anvil::testing::TlbStimulus>(1234);
        return [stim](Sim &sim, int) {
            for (const auto &[name, v] : stim->next())
                sim.setInput(name, v);
        };
    };
    expectChangedSetsEqual(designs::buildSetAssocTlbBaseline(4, 32),
                           300, tlb_drive);
}

TEST(SweepModes, XbarRoutesTraffic)
{
    // The composed crossbar actually moves transactions: drive one
    // master at slave 2 and watch the aw appear on s2 with the
    // routed address, then the B response return to the master.
    auto mod = designs::buildAxiXbarBaseline(4, 4);
    Sim sim(mod);
    for (const auto &in : sim.inputNames())
        sim.setInput(in, 0);
    for (int j = 0; j < 4; j++) {
        std::string p = "s" + std::to_string(j);
        sim.setInput(p + "_aw_ack", 1);
        sim.setInput(p + "_w_ack", 1);
        sim.setInput(p + "_b_valid", 1);
        sim.setInput(p + "_b_data", 1);
    }
    uint64_t addr = (2ull << 29) | 0x44;
    sim.setInput("m1_aw_data", addr);
    sim.setInput("m1_aw_valid", 1);
    sim.setInput("m1_w_data", 0xabcd);
    sim.setInput("m1_w_valid", 1);
    sim.setInput("m1_b_ack", 1);
    bool saw_aw = false, saw_b = false;
    for (int cyc = 0; cyc < 20; cyc++) {
        if (sim.peek("s2_aw_valid").any()) {
            saw_aw = true;
            EXPECT_EQ(sim.peek("s2_aw_data").toUint64(), addr);
            EXPECT_EQ(sim.peek("s2_w_data").toUint64(), 0xabcdu);
        }
        if (sim.peek("m1_b_valid").any()) {
            saw_b = true;
            EXPECT_EQ(sim.peek("m1_b_data").toUint64(), 1u);
        }
        sim.step();
    }
    EXPECT_TRUE(saw_aw);
    EXPECT_TRUE(saw_b);
    // No other slave ever saw the write.
    EXPECT_FALSE(sim.peek("s0_aw_valid").any());
}

TEST(SweepModes, SetAssocTlbDirectMappedReplaces)
{
    // ways == 1: every fill to a set must land in way 0 (the victim
    // counter wraps modulo ways, not modulo its register width).
    auto mod = designs::buildSetAssocTlbBaseline(1, 8);
    Sim sim(mod);
    for (const auto &in : sim.inputNames())
        sim.setInput(in, 0);
    sim.setInput("io_res_ack", 1);
    uint64_t vpn1 = 0x100, vpn2 = 0x200;   // same set index 0
    for (uint64_t vpn : {vpn1, vpn2}) {
        sim.setInput("io_upd_data", (vpn << 32) | (vpn + 7));
        sim.setInput("io_upd_valid", 1);
        sim.step();
    }
    sim.setInput("io_upd_valid", 0);
    // The second fill replaced the first (direct-mapped).
    sim.setInput("io_req_valid", 1);
    sim.setInput("io_req_data", vpn2);
    EXPECT_EQ(sim.peek("io_res_data").slice(32, 1).toUint64(), 1u);
    sim.setInput("io_req_data", vpn1);
    EXPECT_EQ(sim.peek("io_res_data").slice(32, 1).toUint64(), 0u);
}

TEST(SweepModes, VcdDuplicateTracesOfOneNetStayInSync)
{
    // An alias and its resolved flat name are two traces of one
    // net; both must keep emitting changes (only one can ride the
    // change feed).
    auto top = std::make_shared<Module>();
    top->name = "top";
    auto x = top->input("x", 8);
    auto child = std::make_shared<Module>();
    child->name = "inc";
    auto ca = child->input("a", 8);
    child->output("y", 8);
    child->wire("y", ca + cst(8, 1));
    Instance inst;
    inst.name = "u";
    inst.module = child;
    inst.inputs["a"] = x;
    inst.outputs["x_plus_1"] = "y";
    top->instances.push_back(std::move(inst));

    Sim sim(top);
    std::ostringstream os;
    VcdWriter vcd(sim, os, {"x_plus_1", "u.y"});
    for (int cyc = 0; cyc < 6; cyc++) {
        sim.setInput("x", static_cast<uint64_t>(cyc * 3));
        vcd.sample();
        sim.step();
    }
    // Both id-codes ("!" and "\"") must appear once per change; the
    // two streams are the same net so their change counts match.
    std::string dump = os.str();
    size_t a = 0, b = 0;
    for (size_t pos = 0; (pos = dump.find("!\n", pos)) !=
         std::string::npos; pos++)
        a++;
    for (size_t pos = 0; (pos = dump.find("\"\n", pos)) !=
         std::string::npos; pos++)
        b++;
    EXPECT_EQ(a, b);
    EXPECT_GE(a, 6u);   // initial dump + five changes
}

TEST(SweepModes, ObserversSurviveSampleThenPokeOrdering)
{
    // Poking an input AFTER the observers sampled (and before the
    // edge) flushes its change record with the edge, so the
    // per-cycle feed never lists it.  The poke-tick guard must
    // detect this and force a full rescan; without it the observers
    // would freeze the input at its initial value forever.
    auto mod = designs::buildFifoBaseline();
    Sim sim(mod);
    for (const auto &in : sim.inputNames())
        sim.setInput(in, 0);
    std::ostringstream os;
    VcdWriter vcd(sim, os, {"inp_enq_data"});
    tb::Coverage cov;
    for (int cyc = 0; cyc < 20; cyc++) {
        cov.sample(sim);
        vcd.sample();
        // Late poke: alternate all data bits every cycle.
        sim.setInput("inp_enq_data",
                     cyc % 2 ? 0xffffffffull : 0x0ull);
        sim.step();
    }
    // Every bit of the input rose and fell in view of the observers.
    int covered = -1, width = 0;
    for (const auto &sc : cov.signals())
        if (sc.name == "inp_enq_data") {
            covered = sc.coveredBits();
            width = sc.width;
        }
    EXPECT_EQ(covered, width);
    // And the dump records the alternation: one value line per flip
    // seen after the header (lines "b<bits> <id>").
    std::string dump = os.str();
    size_t body = dump.find("$enddefinitions");
    ASSERT_NE(body, std::string::npos);
    size_t lines = 0, pos = body;
    while ((pos = dump.find("\nb", pos)) != std::string::npos) {
        lines++;
        pos++;
    }
    EXPECT_GE(lines, 17u);
}

TEST(SweepModes, SetAssocTlbHitsAfterFill)
{
    auto mod = designs::buildSetAssocTlbBaseline(2, 8);
    Sim sim(mod);
    for (const auto &in : sim.inputNames())
        sim.setInput(in, 0);
    sim.setInput("io_res_ack", 1);
    uint64_t vpn = 0x1234567;
    sim.setInput("io_upd_data", (vpn << 32) | 0x89abcdefull);
    sim.setInput("io_upd_valid", 1);
    sim.step();
    sim.setInput("io_upd_valid", 0);
    sim.setInput("io_req_data", vpn);
    sim.setInput("io_req_valid", 1);
    BitVec res = sim.peek("io_res_data");
    EXPECT_EQ(res.slice(32, 1).toUint64(), 1u);   // hit
    EXPECT_EQ(res.slice(0, 32).toUint64(), 0x89abcdefull);
    // A different VPN misses.
    sim.setInput("io_req_data", vpn ^ 0x100);
    EXPECT_EQ(sim.peek("io_res_data").slice(32, 1).toUint64(), 0u);
}

TEST(SweepModes, BmcStatesIdenticalAcrossModes)
{
    auto m = std::make_shared<Module>();
    m->name = "cnt";
    auto c = m->reg("c", 4);
    m->update("c", cst(1, 1), c + cst(4, 1));
    verif::Assertion a{"c_ne_9", cst(1, 1), ne(c, cst(4, 9))};

    verif::BmcOptions base;
    base.max_depth = 12;
    std::vector<verif::BmcResult> results;
    for (SweepMode mode : {SweepMode::Full, SweepMode::Dirty}) {
        verif::BmcOptions opts = base;
        opts.sweep_mode = mode;
        results.push_back(verif::boundedModelCheck(m, {a}, opts));
    }
    if (haveJitCompiler()) {
        // Same exploration through the compiled kernel backend.  The
        // netlist build is deterministic, so a kernel compiled from a
        // probe Sim hash-matches the one inside boundedModelCheck.
        Sim probe(m);
        codegen::JitOptions jo;
        jo.opt_level = 1;
        auto jr = codegen::jitCompileKernel(probe.netlist(), jo);
        ASSERT_NE(jr.kernel, nullptr) << jr.error;
        verif::BmcOptions opts = base;
        opts.kernel = codegen::kernelRef(jr.kernel);
        results.push_back(verif::boundedModelCheck(m, {a}, opts));
    }
    for (size_t i = 1; i < results.size(); i++) {
        EXPECT_EQ(results[0].states_explored,
                  results[i].states_explored);
        EXPECT_EQ(results[0].status, results[i].status);
        EXPECT_EQ(results[0].depth_reached, results[i].depth_reached);
    }
    EXPECT_TRUE(results[0].foundViolation());
}

/**
 * Sim::nextRegs against a real edge, on one backend row: every cycle
 * of seeded random stimulus, the packed state it predicts must equal
 * packRegs on a twin after step().  It must leave the simulator as
 * it was (cycle, toggles, log, registers), so the step() that
 * follows on the same Sim still matches the twin bit for bit; and a
 * walker that advances only through nextRegs + loadRegs must track
 * the twin's registers.
 */
void
expectNextRegsPredictsStep(const ModulePtr &mod, int cycles,
                           unsigned seed, SweepMode mode, bool compiled)
{
    SCOPED_TRACE(mod->name + " " + sweepModeName(mode) +
                 (compiled ? " compiled" : ""));
    Sim probe(mod), twin(mod), walker(mod);
    for (Sim *s : {&probe, &twin, &walker}) {
        s->setSweepMode(mode);
        if (compiled) {
            attachJitKernel(*s);
            ASSERT_TRUE(s->kernelAttached());
        }
    }
    std::vector<NetId> inputs;
    for (const auto &in : probe.inputNames())
        inputs.push_back(probe.inputId(in));
    size_t words = probe.regWords();
    std::vector<uint64_t> before(words), next(words), after(words),
        want(words), walked(words);
    std::mt19937_64 rng(seed);
    for (int cyc = 0; cyc < cycles; cyc++) {
        for (NetId in : inputs) {
            uint64_t v = rng();
            probe.setInput(in, v);
            twin.setInput(in, v);
            walker.setInput(in, v);
        }
        uint64_t toggles = probe.totalToggles();
        size_t lines = probe.log().size();
        probe.packRegs(before.data());
        probe.nextRegs(next.data());
        probe.packRegs(after.data());
        ASSERT_EQ(before, after) << "cycle " << cyc;
        ASSERT_EQ(probe.cycle(), static_cast<uint64_t>(cyc));
        ASSERT_EQ(probe.totalToggles(), toggles) << "cycle " << cyc;
        ASSERT_EQ(probe.log().size(), lines) << "cycle " << cyc;

        twin.step();
        twin.packRegs(want.data());
        ASSERT_EQ(next, want) << "cycle " << cyc;

        probe.step();
        ASSERT_EQ(probe.totalToggles(), twin.totalToggles())
            << "cycle " << cyc;
        ASSERT_EQ(probe.log(), twin.log()) << "cycle " << cyc;

        walker.nextRegs(walked.data());
        walker.loadRegs(walked.data());
        walker.packRegs(walked.data());
        ASSERT_EQ(walked, want) << "cycle " << cyc;
    }
    EXPECT_EQ(walker.cycle(), 0u);
    EXPECT_EQ(walker.totalToggles(), 0u);
}

TEST(NextRegs, PredictsStepOnEvalDesigns)
{
    struct Case
    {
        ModulePtr mod;
        int cycles;
    };
    std::vector<Case> cases = {
        {designs::buildFifoBaseline(), 120},
        {designs::buildSpillRegBaseline(), 120},
        {designs::buildStreamFifoBaseline(), 120},
        {designs::buildTlbBaseline(), 100},
        {designs::buildPtwBaseline(), 100},
        {designs::buildAxiDemuxBaseline(), 80},
        {designs::buildAxiMuxBaseline(), 80},
        {designs::buildAesBaseline(), 40},
        {designs::buildPipelinedAluBaseline(), 100},
        {designs::buildSystolicBaseline(), 100},
        {designs::buildHazardDemoSystem(), 80},
        {designs::buildCacheDemoBaseline(), 80},
    };
    // aes carries the registers wider than 64 bits (multi-word rows).
    Sim aes(cases[7].mod);
    bool wide = false;
    for (NetId r : aes.netlist().regs())
        wide |= aes.netlist().net(r).width > 64;
    EXPECT_TRUE(wide);
    EXPECT_GT(aes.regWords(), aes.netlist().regs().size());

    unsigned seed = 60;
    for (const Case &c : cases) {
        expectNextRegsPredictsStep(c.mod, c.cycles, seed,
                                   SweepMode::Full, false);
        expectNextRegsPredictsStep(c.mod, c.cycles, seed,
                                   SweepMode::Dirty, false);
        if (haveJitCompiler())
            expectNextRegsPredictsStep(c.mod, c.cycles, seed,
                                       SweepMode::Dirty, true);
        seed++;
    }
}

TEST(NextRegs, LastFiringUpdateWins)
{
    // Two guarded updates of one register, narrow and wide: when
    // both fire, the later declaration is what the edge commits.
    auto m = std::make_shared<Module>();
    m->name = "twice";
    auto a = m->input("a", 1);
    auto b = m->input("b", 1);
    auto d = m->input("d", 8);
    auto r = m->reg("r", 8);
    auto w = m->reg("w", 100);
    m->update("r", a, d);
    m->update("r", b, d + cst(8, 1));
    m->update("w", a, concat({d, slice(w, 0, 92)}));
    m->update("w", b, ~w);
    for (SweepMode mode : {SweepMode::Full, SweepMode::Dirty}) {
        Sim probe(m), twin(m);
        probe.setSweepMode(mode);
        twin.setSweepMode(mode);
        std::vector<uint64_t> next(probe.regWords()),
            want(probe.regWords());
        for (int cyc = 0; cyc < 16; cyc++) {
            for (Sim *s : {&probe, &twin}) {
                s->setInput("a", static_cast<uint64_t>(cyc & 1));
                s->setInput("b", static_cast<uint64_t>((cyc >> 1) & 1));
                s->setInput("d", static_cast<uint64_t>(cyc * 37));
            }
            probe.nextRegs(next.data());
            twin.step();
            twin.packRegs(want.data());
            ASSERT_EQ(next, want) << "cycle " << cyc;
            if ((cyc & 3) == 3) {
                EXPECT_EQ(twin.regValue("r").toUint64(),
                          static_cast<uint64_t>(cyc * 37 + 1) & 0xff);
            }
            probe.step();
        }
    }
}

/** The what() of the exception `f` throws, or "" if it returns. */
template <typename E, typename F>
std::string
thrownMessage(F f)
{
    try {
        f();
    } catch (const E &e) {
        return e.what();
    }
    return "";
}

TEST(NextRegs, FaultsLikeTheEdge)
{
    // A firing update of a register the design never declares.
    auto m = std::make_shared<Module>();
    m->name = "ghost";
    auto en = m->input("en", 1);
    auto r = m->reg("r", 4);
    m->update("r", cst(1, 1), r + cst(4, 1));
    m->update("ghost", en, cst(4, 3));
    {
        Sim probe(m), twin(m);
        std::vector<uint64_t> next(probe.regWords());
        // Not firing: both advance normally.
        probe.nextRegs(next.data());
        twin.step();
        EXPECT_EQ(next[0], 1u);
        probe.setInput("en", 1);
        twin.setInput("en", 1);
        std::string edge = thrownMessage<std::invalid_argument>(
            [&] { twin.step(); });
        EXPECT_NE(edge.find("ghost"), std::string::npos) << edge;
        EXPECT_EQ(thrownMessage<std::invalid_argument>(
                      [&] { probe.nextRegs(next.data()); }),
                  edge);
    }

    // A combinational loop that nothing but the edge's lazy-root
    // walk reaches: no register, update or output reads it.
    auto l = std::make_shared<Module>();
    l->name = "loopy";
    auto x = l->input("x", 1);
    auto c = l->reg("c", 2);
    l->update("c", cst(1, 1), c + cst(2, 1));
    l->wire("p", ref("q", 1) ^ x);
    l->wire("q", ref("p", 1));
    {
        Sim probe(l), twin(l);
        EXPECT_FALSE(probe.netlist().lazyRoots().empty());
        std::vector<uint64_t> next(probe.regWords());
        std::string edge = thrownMessage<std::runtime_error>(
            [&] { twin.step(); });
        EXPECT_NE(edge.find("combinational loop"), std::string::npos)
            << edge;
        EXPECT_EQ(thrownMessage<std::runtime_error>(
                      [&] { probe.nextRegs(next.data()); }),
                  edge);
    }
}

/** Registers (by name), toggles and log of `sim` against `refsim`. */
void
expectMatchesRef(const RefSim &refsim, const Sim &sim, int cyc)
{
    for (const std::string &name : sim.regNames())
        ASSERT_EQ(refsim.regValue(name), sim.regValue(name))
            << name << " after cycle " << cyc;
    ASSERT_EQ(refsim.totalToggles(), sim.totalToggles())
        << "toggles after cycle " << cyc;
    ASSERT_EQ(refsim.log(), sim.log()) << "log after cycle " << cyc;
}

/**
 * The clock edge, edge by edge, against rtl::RefSim, the reference
 * semantics: an interpreter Sim and a RefSim fed the same inputs must
 * hold equal registers, toggles and logs after every step().  When a
 * system compiler is available, a twin Sim on the compiled backend
 * must also report the interpreter's changed nets before every step()
 * and hold the same registers, toggles and log after it.  The twin
 * runs `attach_at` cycles on the interpreter before its kernel
 * attaches (0: from the start), and attaches a fresh context again at
 * `reattach_at` when that is set.  Both backends commit through one
 * edge, so the RefSim half is what catches an edge bug.
 */
void
expectKernelEdgeMatches(const ModulePtr &mod, int cycles,
                        const std::function<DriveFn()> &make_drive,
                        int attach_at = 0, int reattach_at = -1)
{
    SCOPED_TRACE(mod->name + " attach at " + std::to_string(attach_at));
    Sim interp(mod);
    RefSim refsim(mod);
    std::unique_ptr<Sim> twin;
    if (haveJitCompiler())
        twin = std::make_unique<Sim>(mod);
    const std::vector<std::string> inputs = interp.inputNames();
    DriveFn da = make_drive(), db = make_drive();
    for (int cyc = 0; cyc < cycles; cyc++) {
        if (twin && (cyc == attach_at || cyc == reattach_at)) {
            attachJitKernel(*twin);
            ASSERT_TRUE(twin->kernelAttached());
        }
        da(interp, cyc);
        for (const std::string &in : inputs)
            refsim.setInput(in, interp.peek(in));
        if (twin) {
            db(*twin, cyc);
            ASSERT_EQ(changedSet(interp), changedSet(*twin))
                << "changed nets in cycle " << cyc;
        }
        interp.step();
        refsim.step();
        ASSERT_NO_FATAL_FAILURE(expectMatchesRef(refsim, interp, cyc));
        if (twin) {
            twin->step();
            ASSERT_EQ(interp.captureRegs(), twin->captureRegs())
                << "registers after cycle " << cyc;
            ASSERT_EQ(interp.totalToggles(), twin->totalToggles())
                << "toggles after cycle " << cyc;
            ASSERT_EQ(interp.log(), twin->log())
                << "log after cycle " << cyc;
        }
    }
    EXPECT_GT(interp.totalToggles(), 0u);
}

TEST(KernelEdge, RegistersWiderThan64Bits)
{
    // A 100-bit accumulator and a 130-bit shift register, committed
    // through multi-word staging, plus a 72-bit wire whose toggles
    // span two shadow words.
    auto m = std::make_shared<Module>();
    m->name = "wide_edge";
    auto en = m->input("en", 1);
    auto d = m->input("d", 64);
    auto acc = m->reg("acc", 100);
    auto sh = m->reg("sh", 130);
    m->wire("mix", concat({slice(d, 0, 8), d}));
    m->update("acc", en, acc + concat({slice(d, 0, 36), d}));
    m->update("sh", cst(1, 1), concat({slice(sh, 0, 66), d}));
    m->print(en, "acc", acc);
    Sim probe(m);
    EXPECT_EQ(probe.netlist().net(probe.netlist().regs()[0]).width, 100);
    expectKernelEdgeMatches(m, 200, denseStimulus(50));
    // aes: 128-bit state rows under dense random stimulus.
    expectKernelEdgeMatches(designs::buildAesBaseline(), 40,
                            denseStimulus(51));
}

TEST(KernelEdge, LastFiringUpdateWins)
{
    // Two guarded updates of one register, narrow and wide: when both
    // fire, the later declaration is what the edge commits.
    auto m = std::make_shared<Module>();
    m->name = "twice";
    auto a = m->input("a", 1);
    auto b = m->input("b", 1);
    auto d = m->input("d", 8);
    auto r = m->reg("r", 8);
    auto w = m->reg("w", 100);
    m->update("r", a, d);
    m->update("r", b, d + cst(8, 1));
    m->update("w", a, concat({d, slice(w, 0, 92)}));
    m->update("w", b, ~w);
    auto drive = []() -> DriveFn {
        return [](Sim &sim, int cyc) {
            sim.setInput("a", static_cast<uint64_t>(cyc & 1));
            sim.setInput("b", static_cast<uint64_t>((cyc >> 1) & 1));
            sim.setInput("d", static_cast<uint64_t>(cyc * 37));
        };
    };
    expectKernelEdgeMatches(m, 64, drive);

    Sim sim(m);
    if (haveJitCompiler()) {
        attachJitKernel(sim);
        ASSERT_TRUE(sim.kernelAttached());
    }
    DriveFn dr = drive();
    for (int cyc = 0; cyc < 16; cyc++) {
        dr(sim, cyc);
        sim.step();
        if ((cyc & 3) == 3) {
            EXPECT_EQ(sim.regValue("r").toUint64(),
                      static_cast<uint64_t>(cyc * 37 + 1) & 0xff);
        }
    }
}

TEST(KernelEdge, LazyUpdateOperands)
{
    // p and q close a structural loop that the mux never takes while
    // sel is 0, so both are lazy: the update's enable and value are
    // evaluated host-side and reach the edge's words as changed nets.
    auto m = std::make_shared<Module>();
    m->name = "lazy_ops";
    auto x = m->input("x", 8);
    auto sel = m->input("sel", 1);
    auto r = m->reg("r", 8);
    auto c = m->reg("c", 4);
    m->wire("p", mux(sel, ref("q", 8), x ^ slice(c, 0, 4)));
    m->wire("q", ref("p", 8) + cst(8, 1));
    m->update("r", slice(ref("p", 8), 0, 1), ref("q", 8));
    m->update("c", cst(1, 1), c + cst(4, 1));
    Sim probe(m);
    const Netlist &nl = probe.netlist();
    ASSERT_EQ(nl.updates().size(), 2u);
    EXPECT_TRUE(nl.net(nl.updates()[0].enable).lazy);
    EXPECT_TRUE(nl.net(nl.updates()[0].value).lazy);
    auto drive = []() -> DriveFn {
        auto rng = std::make_shared<std::mt19937_64>(52);
        return [rng](Sim &sim, int) {
            sim.setInput("x", (*rng)());
            sim.setInput("sel", 0);
        };
    };
    expectKernelEdgeMatches(m, 200, drive);
}

TEST(KernelEdge, AttachMidRunContinues)
{
    // 100 cycles on the interpreter, then the kernel takes over: the
    // registers and the toggle count carry on without a jump, also
    // across a second attach that replaces the first context.
    expectKernelEdgeMatches(designs::buildFifoBaseline(), 250,
                            denseStimulus(53), 100, 175);
    expectKernelEdgeMatches(designs::buildTlbBaseline(), 250,
                            sparseStimulus(54, 8), 100);
    auto tlb_drive = []() -> DriveFn {
        auto stim =
            std::make_shared<anvil::testing::TlbStimulus>(1234);
        return [stim](Sim &sim, int) {
            for (const auto &[name, v] : stim->next())
                sim.setInput(name, v);
        };
    };
    expectKernelEdgeMatches(designs::buildSetAssocTlbBaseline(4, 32), 300,
                            tlb_drive, 100);
}

// Designs whose layout has empty tables, which the host's level walk
// and the edge must handle without the dummy rows a unit would need.

TEST(KernelEdge, NoStrictNodes)
{
    // The update reads its enable and value straight off inputs, so
    // there is nothing to sweep: the unit has no level functions.
    auto m = std::make_shared<Module>();
    m->name = "no_strict";
    auto en = m->input("en", 1);
    auto d = m->input("d", 8);
    m->reg("r", 8);
    m->update("r", en, d);
    Sim probe(m);
    EXPECT_TRUE(probe.netlist().order().empty());
    expectKernelEdgeMatches(m, 200, denseStimulus(55));
}

TEST(KernelEdge, NoRegisters)
{
    // Pure combinational logic: toggles come from the wires alone.
    auto m = std::make_shared<Module>();
    m->name = "no_regs";
    auto a = m->input("a", 8);
    auto b = m->input("b", 8);
    m->wire("sum", a + b);
    m->wire("hi", slice(ref("sum", 8), 4, 4) ^ slice(b, 0, 4));
    Sim probe(m);
    EXPECT_TRUE(probe.netlist().regs().empty());
    EXPECT_TRUE(probe.netlist().updates().empty());
    expectKernelEdgeMatches(m, 200, sparseStimulus(56, 3));
}

TEST(KernelEdge, NoToggleCountedWires)
{
    // No named wire: the toggles are all register flips, and the edge
    // has no shadow words.
    auto m = std::make_shared<Module>();
    m->name = "no_wires";
    auto en = m->input("en", 1);
    auto d = m->input("d", 16);
    auto acc = m->reg("acc", 16);
    auto cnt = m->reg("cnt", 4);
    m->update("acc", en, acc + d);
    m->update("cnt", cst(1, 1), cnt + cst(4, 1));
    Sim probe(m);
    EXPECT_TRUE(probe.netlist().wireNets().empty());
    EXPECT_FALSE(probe.netlist().order().empty());
    expectKernelEdgeMatches(m, 200, denseStimulus(57));
}

TEST(KernelEdge, WideRegisterLoadedFromInput)
{
    // A 100-bit register loaded straight from a 100-bit input, and a
    // 130-bit one zero-extending the same input: multi-word staging
    // with no strict node in between.
    auto m = std::make_shared<Module>();
    m->name = "wide_load";
    auto en = m->input("en", 1);
    auto d = m->input("d", 100);
    m->reg("r", 100);
    m->reg("x", 130);
    m->update("r", en, d);
    m->update("x", cst(1, 1), d);
    Sim probe(m);
    EXPECT_TRUE(probe.netlist().order().empty());
    auto drive = []() -> DriveFn {
        auto rng = std::make_shared<std::mt19937_64>(58);
        return [rng](Sim &sim, int) {
            uint64_t lo = (*rng)(), hi = (*rng)();
            sim.setInput("d", BitVec(64, lo).concatHigh(BitVec(36, hi)));
            sim.setInput("en", (*rng)() & 1);
        };
    };
    expectKernelEdgeMatches(m, 200, drive);
}

TEST(KernelEdge, PokedRegistersReachTheEdge)
{
    // Registers poked between edges: q copies r's words straight off
    // the edge's state, and r's own update counts its flips against
    // the poked value, so a poke the edge missed shows in both.
    auto m = std::make_shared<Module>();
    m->name = "poked";
    auto en = m->input("en", 1);
    auto d = m->input("d", 8);
    auto r = m->reg("r", 8);
    auto w = m->reg("w", 100);
    m->reg("q", 8);
    m->wire("mix", r ^ d);
    m->update("q", cst(1, 1), r);
    m->update("r", en, r + d);
    m->update("w", en, concat({r, slice(w, 0, 92)}));
    Sim interp(m);
    RefSim refsim(m);
    std::unique_ptr<Sim> twin;
    if (haveJitCompiler()) {
        twin = std::make_unique<Sim>(m);
        attachJitKernel(*twin);
        ASSERT_TRUE(twin->kernelAttached());
    }
    std::mt19937_64 rng(59);
    for (int cyc = 0; cyc < 200; cyc++) {
        uint64_t e = rng() & 1, v = rng();
        BitVec wv = BitVec(64, rng()).concatHigh(BitVec(36, rng()));
        interp.setInput("en", e);
        interp.setInput("d", v);
        refsim.setInput("en", e);
        refsim.setInput("d", v);
        if (twin) {
            twin->setInput("en", e);
            twin->setInput("d", v);
        }
        if (cyc % 3 == 1) {
            BitVec rv(8, rng());
            interp.setRegValue("r", rv);
            interp.setRegValue("w", wv);
            refsim.setRegValue("r", rv);
            refsim.setRegValue("w", wv);
            if (twin) {
                twin->setRegValue("r", rv);
                twin->setRegValue("w", wv);
            }
        }
        interp.step();
        refsim.step();
        ASSERT_NO_FATAL_FAILURE(expectMatchesRef(refsim, interp, cyc));
        if (twin) {
            twin->step();
            ASSERT_NO_FATAL_FAILURE(expectMatchesRef(refsim, *twin, cyc));
        }
    }
}

TEST(KernelEdge, AdHocNetsPastTheLayout)
{
    // evalTop every cycle appends lazy nets the layout does not cover
    // (a fresh expression each cycle, beside one read throughout);
    // they join the changed-net list, and the edge must skip them.
    auto mod = designs::buildFifoBaseline();
    std::vector<std::unique_ptr<Sim>> sims;
    sims.push_back(std::make_unique<Sim>(mod));
    if (haveJitCompiler()) {
        sims.push_back(std::make_unique<Sim>(mod));
        attachJitKernel(*sims.back());
        ASSERT_TRUE(sims.back()->kernelAttached());
    }
    RefSim refsim(mod);
    const std::vector<std::string> inputs = sims[0]->inputNames();
    const std::string reg = sims[0]->regNames().front();
    const int width = sims[0]->regValue(reg).width();
    ExprPtr steady = ref(reg, width) ^ cst(width, 0x5);
    std::mt19937_64 rng(60);
    for (int cyc = 0; cyc < 150; cyc++) {
        ExprPtr fresh =
            concat({cst(1, 1), ref(reg, width) + cst(width, cyc)});
        for (const std::string &in : inputs) {
            uint64_t v = rng();
            for (auto &sim : sims)
                sim->setInput(in, v);
            refsim.setInput(in, v);
        }
        for (auto &sim : sims) {
            SCOPED_TRACE(sim->kernelAttached() ? "compiled" : "interp");
            ASSERT_EQ(sim->evalTop(steady), refsim.evalTop(steady));
            ASSERT_EQ(sim->evalTop(fresh), refsim.evalTop(fresh));
            size_t past = 0;
            for (NetId id : sim->changedNets())
                past += static_cast<size_t>(id) >=
                    sim->netlist().layout()->net_count;
            if (cyc > 0) {
                ASSERT_GT(past, 0u) << "cycle " << cyc;
            }
            sim->step();
        }
        refsim.step();
        for (auto &sim : sims)
            ASSERT_NO_FATAL_FAILURE(expectMatchesRef(refsim, *sim, cyc));
    }
}

TEST(KernelEdge, UnknownRegisterFaultsLikeTheInterpreter)
{
    auto m = std::make_shared<Module>();
    m->name = "ghost";
    auto en = m->input("en", 1);
    auto r = m->reg("r", 4);
    m->update("r", cst(1, 1), r + cst(4, 1));
    m->update("ghost", en, cst(4, 3));
    Sim interp(m);
    RefSim refsim(m);
    interp.step();
    refsim.step();
    EXPECT_EQ(interp.captureRegs()[0].toUint64(), 1u);
    interp.setInput("en", 1);
    refsim.setInput("en", 1);
    std::string want = thrownMessage<std::invalid_argument>(
        [&] { refsim.step(); });
    EXPECT_NE(want.find("ghost"), std::string::npos) << want;
    EXPECT_EQ(thrownMessage<std::invalid_argument>(
                  [&] { interp.step(); }),
              want);
    if (!haveJitCompiler())
        return;
    Sim compiled(m);
    attachJitKernel(compiled);
    ASSERT_TRUE(compiled.kernelAttached());
    compiled.step();
    EXPECT_EQ(compiled.captureRegs()[0].toUint64(), 1u);
    compiled.setInput("en", 1);
    EXPECT_EQ(thrownMessage<std::invalid_argument>(
                  [&] { compiled.step(); }),
              want);
}

TEST(KernelEdge, FaultCountsWireTogglesFirst)
{
    // The edge counts the wires' toggles before an update of an
    // unknown register faults, as RefSim does: 1 toggle on cycle 1,
    // then 8 more on the cycle that faults.
    auto m = std::make_shared<Module>();
    m->name = "ghost_wire";
    auto en = m->input("en", 1);
    auto d = m->input("d", 8);
    m->wire("w", d);
    m->update("ghost", en, cst(4, 3));
    std::vector<std::unique_ptr<Sim>> sims;
    sims.push_back(std::make_unique<Sim>(m));
    if (haveJitCompiler()) {
        sims.push_back(std::make_unique<Sim>(m));
        attachJitKernel(*sims.back());
        ASSERT_TRUE(sims.back()->kernelAttached());
    }
    RefSim refsim(m);
    for (uint64_t v : {0x00, 0x01}) {
        refsim.setInput("d", v);
        refsim.step();
        for (auto &sim : sims) {
            sim->setInput("d", v);
            sim->step();
        }
    }
    EXPECT_EQ(refsim.totalToggles(), 1u);
    refsim.setInput("d", 0xfe);
    refsim.setInput("en", 1);
    std::string want = thrownMessage<std::invalid_argument>(
        [&] { refsim.step(); });
    EXPECT_NE(want.find("ghost"), std::string::npos) << want;
    EXPECT_EQ(refsim.totalToggles(), 9u);
    for (auto &sim : sims) {
        SCOPED_TRACE(sim->kernelAttached() ? "compiled" : "interp");
        sim->setInput("d", 0xfe);
        sim->setInput("en", 1);
        EXPECT_EQ(thrownMessage<std::invalid_argument>(
                      [&] { sim->step(); }),
                  want);
        EXPECT_EQ(sim->totalToggles(), refsim.totalToggles());
    }
}

TEST(SweepModes, FanoutCsrMatchesOperands)
{
    // Every strict node appears in the fan-out list of each of its
    // operands exactly as often as it reads them.
    Sim sim(designs::buildTlbBaseline());
    const Netlist &nl = sim.netlist();
    const auto &fb = nl.fanoutBegin();
    ASSERT_EQ(fb.size(), nl.nets().size() + 1);
    std::map<std::pair<NetId, NetId>, int> expected;
    for (NetId id : nl.order()) {
        const Net &n = nl.net(id);
        auto add = [&](NetId o) {
            if (o != kNoNet)
                expected[{o, id}]++;
        };
        add(n.a);
        add(n.b);
        add(n.c);
        for (NetId o : n.cargs)
            add(o);
    }
    std::map<std::pair<NetId, NetId>, int> actual;
    for (size_t i = 0; i < nl.nets().size(); i++)
        for (int32_t k = fb[i]; k < fb[i + 1]; k++)
            actual[{static_cast<NetId>(i),
                    nl.fanout()[static_cast<size_t>(k)]}]++;
    EXPECT_EQ(expected, actual);
}

TEST(SweepModes, ChangedNetsCoverEveryNamedChange)
{
    // Completeness: any named signal whose value differs from the
    // previous cycle must be on the changed-net list when sampled at
    // the same point an observer would sample.
    auto mod = designs::buildFifoBaseline();
    Sim sim(mod);
    std::mt19937_64 rng(77);
    auto inputs = sim.inputNames();
    std::map<std::string, std::string> prev;
    for (int cyc = 0; cyc < 120; cyc++) {
        for (const auto &in : inputs)
            sim.setInput(in, rng());
        std::map<NetId, bool> changed;
        for (NetId id : sim.changedNets())
            changed[id] = true;
        for (const auto &[name, sig] : sim.netlist().signals()) {
            std::string hex = sim.peek(name).toHex();
            auto it = prev.find(name);
            if (it != prev.end() && it->second != hex) {
                EXPECT_TRUE(changed.count(sig.net))
                    << name << " changed at cycle " << cyc
                    << " but is not on the changed-net list";
            }
            prev[name] = hex;
        }
        sim.step();
    }
}

TEST(SweepModes, ModeSwitchMidRunStaysConsistent)
{
    // Switching modes mid-run (Dirty -> Full -> Dirty) forces one
    // dense resweep and then continues bit-identically with a
    // reference kept in Full mode.
    auto mod = designs::buildTlbBaseline();
    Sim a(mod), b(mod);
    a.setSweepMode(SweepMode::Full);
    std::mt19937_64 rng(55);
    auto inputs = a.inputNames();
    for (int cyc = 0; cyc < 150; cyc++) {
        if (cyc == 50)
            b.setSweepMode(SweepMode::Full);
        if (cyc == 100)
            b.setSweepMode(SweepMode::Dirty);
        for (const auto &in : inputs) {
            uint64_t v = rng();
            a.setInput(in, v);
            b.setInput(in, v);
        }
        a.step();
        b.step();
        ASSERT_EQ(a.totalToggles(), b.totalToggles()) << cyc;
    }
    auto ra = a.captureRegs(), rb = b.captureRegs();
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); i++)
        EXPECT_EQ(ra[i].toHex(), rb[i].toHex());
}

} // namespace
