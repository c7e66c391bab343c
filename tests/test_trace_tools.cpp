/**
 * @file
 * Trace-tooling satellites: multi-trace diffing (first divergent
 * cycle and signal), offline coverage replay (a recorded dump grades
 * to the same summary the live run printed), and the change-fed
 * WaveRecorder (bit-identical renders across sweep modes, with the
 * rescan fallback exercised by mid-cycle pokes).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "anvil/compiler.h"
#include "designs/designs.h"
#include "rtl/wave.h"
#include "tb/testbench.h"
#include "trace/diff.h"
#include "trace/replay.h"
#include "trace/vcd_reader.h"

using namespace anvil;

namespace {

/** Seeded random quickstart-style run dumped to VCD. */
std::string
dumpRun(const rtl::ModulePtr &mod, uint64_t seed, uint64_t cycles,
        tb::Coverage **cov_out = nullptr,
        tb::Testbench **bench_out = nullptr)
{
    static std::unique_ptr<tb::Testbench> bench;
    bench = std::make_unique<tb::Testbench>(mod, seed);
    for (const auto &in : bench->sim().inputNames())
        bench->driveRandom(in);
    std::ostringstream os;
    bench->attachVcd(os);
    if (cov_out)
        *cov_out = &bench->coverage();
    bench->run(cycles);
    if (bench_out)
        *bench_out = bench.get();
    return os.str();
}

rtl::ModulePtr
pingServer()
{
    CompileOutput out = compileAnvil(R"(
chan ping_ch {
    left ping : (logic[8]@pong),
    right pong : (logic[8]@#1)
}
proc ping_server(io : left ping_ch) {
    reg bump : logic[8];
    loop {
        let p = recv io.ping >>
        set bump := p + 1 >>
        send io.pong (*bump) >>
        cycle 1
    }
}
)");
    EXPECT_TRUE(out.ok) << out.diags.render();
    return out.module("ping_server");
}

// --- diffTraces ----------------------------------------------------------

TEST(TraceDiff, IdenticalRunsCompareEqual)
{
    auto mod = pingServer();
    std::string a = dumpRun(mod, 7, 120);
    std::string b = dumpRun(mod, 7, 120);
    ASSERT_EQ(a, b);   // determinism, again

    std::istringstream ia(a), ib(b);
    trace::Trace ta = trace::VcdReader::read(ia);
    trace::Trace tb_ = trace::VcdReader::read(ib);
    trace::TraceDiff d = trace::diffTraces(ta, tb_);
    EXPECT_TRUE(d.identical) << d.str();
    EXPECT_FALSE(d.value_diverged);
    EXPECT_EQ(d.signals_compared, ta.signals().size());
    EXPECT_NE(d.str().find("identical"), std::string::npos);
}

TEST(TraceDiff, FirstDivergenceIsPinpointed)
{
    auto mod = pingServer();
    std::string a = dumpRun(mod, 7, 120);
    std::string b = dumpRun(mod, 8, 120);
    std::istringstream ia(a), ib(b);
    trace::Trace ta = trace::VcdReader::read(ia);
    trace::Trace tb_ = trace::VcdReader::read(ib);
    trace::TraceDiff d = trace::diffTraces(ta, tb_);
    ASSERT_TRUE(d.value_diverged) << d.str();
    EXPECT_FALSE(d.identical);
    EXPECT_FALSE(d.signal.empty());

    // The reported divergence is real: the named signal's values at
    // the reported cycle differ, and no earlier cycle differs on any
    // common signal.
    trace::TraceCursor ca(ta), cb(tb_);
    for (uint64_t t = ta.startTime(); t < d.cycle; t++) {
        ca.advanceTo(t);
        cb.advanceTo(t);
        for (size_t i = 0; i < ta.signals().size(); i++) {
            int j = tb_.indexOf(ta.signals()[i].name);
            ASSERT_GE(j, 0);
            EXPECT_EQ(ca.value(i), cb.value(static_cast<size_t>(j)))
                << ta.signals()[i].name << " @" << t;
        }
    }
    ca.advanceTo(d.cycle);
    cb.advanceTo(d.cycle);
    int ia_idx = ta.indexOf(d.signal), ib_idx = tb_.indexOf(d.signal);
    ASSERT_GE(ia_idx, 0);
    ASSERT_GE(ib_idx, 0);
    EXPECT_NE(ca.value(static_cast<size_t>(ia_idx)),
              cb.value(static_cast<size_t>(ib_idx)));
}

TEST(TraceDiff, StructuralDifferencesReported)
{
    auto read = [](const std::string &text) {
        std::istringstream in(text);
        return trace::VcdReader::read(in);
    };
    trace::Trace a = read(
        "$timescale 1ns $end\n$scope module t $end\n"
        "$var wire 1 ! x $end\n$var wire 1 \" y $end\n"
        "$upscope $end\n$enddefinitions $end\n"
        "#0\n$dumpvars\n0!\n0\"\n$end\n");
    trace::Trace b = read(
        "$timescale 1ns $end\n$scope module t $end\n"
        "$var wire 1 ! x $end\n$var wire 2 \" z [1:0] $end\n"
        "$upscope $end\n$enddefinitions $end\n"
        "#0\n$dumpvars\n0!\nb0 \"\n$end\n");
    trace::TraceDiff d = trace::diffTraces(a, b);
    EXPECT_FALSE(d.identical);
    ASSERT_EQ(d.only_in_a.size(), 1u);
    EXPECT_EQ(d.only_in_a[0], "y");
    ASSERT_EQ(d.only_in_b.size(), 1u);
    EXPECT_EQ(d.only_in_b[0], "z");
    EXPECT_FALSE(d.value_diverged);
}

TEST(TraceDiff, QuietTailTruncationIsAnExtentMismatch)
{
    auto read = [](const std::string &text) {
        std::istringstream in(text);
        return trace::VcdReader::read(in);
    };
    const char *header =
        "$timescale 1ns $end\n$scope module t $end\n"
        "$var wire 1 ! x $end\n"
        "$upscope $end\n$enddefinitions $end\n";
    // Full run: changes at 0 and 3.
    trace::Trace full = read(std::string(header) +
                             "#0\n$dumpvars\n0!\n$end\n#3\n1!\n");
    // Truncated prefix: the dropped change diverges at cycle 3, and
    // the report additionally names the extent difference so a cut
    // recording is distinguishable from a genuinely different run.
    trace::Trace cut = read(std::string(header) +
                            "#0\n$dumpvars\n0!\n$end\n");
    trace::TraceDiff d = trace::diffTraces(full, cut);
    EXPECT_FALSE(d.identical);
    EXPECT_TRUE(d.extent_mismatch);
    EXPECT_EQ(d.a_end, 3u);
    EXPECT_EQ(d.b_end, 0u);
    EXPECT_NE(d.str().find("recorded extents differ"),
              std::string::npos);

    // A dump with declarations but zero change records (cut before
    // its $dumpvars) can only be told apart by extent — even when
    // the other dump's recorded values are all zero.
    trace::Trace quiet = read(std::string(header) +
                              "#0\n$dumpvars\n0!\n$end\n#5\n0!\n");
    trace::Trace none = read(std::string(header));
    trace::TraceDiff e = trace::diffTraces(quiet, none);
    EXPECT_FALSE(e.identical);
    EXPECT_TRUE(e.extent_mismatch);
    // Two truly empty dumps are identical.
    trace::TraceDiff f = trace::diffTraces(none, none);
    EXPECT_TRUE(f.identical);
}

// --- Offline coverage replay --------------------------------------------

TEST(CoverageReplay, OfflineGradingMatchesLiveSummary)
{
    auto mod = pingServer();
    tb::Coverage *live = nullptr;
    std::string vcd = dumpRun(mod, 11, 200, &live);
    ASSERT_NE(live, nullptr);
    std::string live_json = live->summaryJson();

    std::istringstream in(vcd);
    trace::Trace t = trace::VcdReader::read(in);
    rtl::Sim sim(mod);
    tb::Coverage offline;
    uint64_t frames = trace::gradeCoverage(sim.netlist(), t, offline);
    EXPECT_EQ(frames, 200u);
    // Bit-for-bit the same machine-readable summary the live run
    // printed: same toggles, same reg-bin occupancy.
    EXPECT_EQ(offline.summaryJson(), live_json);
    EXPECT_GT(offline.togglePct(), 0.0);
}

TEST(CoverageReplay, PartialDumpsGradeRecordedSignalsOnly)
{
    auto mod = pingServer();
    tb::Testbench bench(mod, 3);
    for (const auto &in : bench.sim().inputNames())
        bench.driveRandom(in);
    std::ostringstream os;
    bench.attachVcd(os, {"io_pong_valid", "io_pong_ack"});
    bench.run(100);

    std::istringstream in(os.str());
    trace::Trace t = trace::VcdReader::read(in);
    rtl::Sim sim(mod);
    tb::Coverage offline;
    trace::gradeCoverage(sim.netlist(), t, offline);
    // Unrecorded signals contribute nothing; recorded ones do.
    int covered = 0;
    for (const auto &sc : offline.signals()) {
        if (sc.name == "io_pong_valid" || sc.name == "io_pong_ack")
            covered += sc.coveredBits();
        else
            EXPECT_EQ(sc.coveredBits(), 0) << sc.name;
    }
    EXPECT_GT(covered, 0);
}

// --- Change-fed WaveRecorder --------------------------------------------

TEST(WaveFeed, RendersIdenticalAcrossSweepModes)
{
    std::vector<std::string> renders;
    for (rtl::SweepMode mode :
         {rtl::SweepMode::Full, rtl::SweepMode::Dirty}) {
        auto mod = designs::buildHazardDemoSystem();
        rtl::Sim sim(mod);
        sim.setSweepMode(mode);
        rtl::WaveRecorder rec(
            sim, {"req", "addr", "observed", "sampling"});
        for (int i = 0; i < 24; i++) {
            rec.sample();
            sim.step();
        }
        renders.push_back(rec.render());
    }
    EXPECT_EQ(renders[0], renders[1]);
}

TEST(WaveFeed, PokesAfterSampleForceRescan)
{
    // A poke between a sample and the clock edge invalidates the
    // per-cycle feed; the recorder must fall back to direct reads
    // and stay bit-identical with an always-rescanning reference.
    auto mk = [] {
        auto m = std::make_shared<rtl::Module>();
        m->name = "w";
        auto x = m->input("x", 8);
        auto c = m->reg("c", 8);
        m->update("c", rtl::cst(1, 1), c + x);
        m->wire("mirror", x ^ c);
        return m;
    };
    auto mod = mk();
    rtl::Sim sim(mod);
    rtl::WaveRecorder rec(sim, {"mirror", "c"});
    std::vector<BitVec> expect_mirror, expect_c;
    for (int i = 0; i < 16; i++) {
        sim.setInput("x", static_cast<uint64_t>(i));
        // Reference values from the same frame the recorder sees.
        expect_mirror.push_back(sim.peek("mirror"));
        expect_c.push_back(sim.peek("c"));
        rec.sample();
        if (i % 3 == 0) {
            // Late poke: its change records are flushed with the
            // edge, so next cycle's feed is incomplete — the cursor
            // must force a rescan.
            sim.setInput("x", static_cast<uint64_t>(i + 100));
        }
        sim.step();
    }
    const auto &got_mirror = rec.samplesOf("mirror");
    const auto &got_c = rec.samplesOf("c");
    ASSERT_EQ(got_mirror.size(), expect_mirror.size());
    for (size_t i = 0; i < got_mirror.size(); i++) {
        EXPECT_EQ(got_mirror[i], expect_mirror[i]) << i;
        EXPECT_EQ(got_c[i], expect_c[i]) << i;
    }
}

TEST(WaveFeed, UnresolvedSignalStillFaultsAtSample)
{
    auto m = std::make_shared<rtl::Module>();
    m->name = "w";
    auto c = m->reg("c", 4);
    m->update("c", rtl::cst(1, 1), c + rtl::cst(4, 1));
    rtl::Sim sim(m);
    rtl::WaveRecorder rec(sim, {"ghost"});
    EXPECT_THROW(rec.sample(), std::invalid_argument);
}

} // namespace
