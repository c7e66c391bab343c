/**
 * @file
 * VCD ingestion tests: the reader parses writer output back into a
 * Trace whose re-emission is byte-identical (golden quickstart dump,
 * a fresh randomized AXI run with >94 signals and multi-character
 * id-codes, and a wide-signal design), tolerates standard VCD it did
 * not write (x/z values, $comment sections, unknown keywords raise
 * errors), and recovers per-cycle values exactly.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "designs/designs.h"
#include "harness.h"
#include "rtl/vcd.h"
#include "tb/testbench.h"
#include "trace/vcd_reader.h"

#include "axi_bench.h"

using namespace anvil;
using namespace anvil::trace;

namespace {

#ifndef ANVIL_TEST_DIR
#define ANVIL_TEST_DIR "tests"
#endif

std::string
rewrite(const Trace &t)
{
    std::ostringstream os;
    t.writeVcd(os);
    return os.str();
}

TEST(TraceVcd, GoldenQuickstartRoundTripsByteIdentically)
{
    std::string path =
        std::string(ANVIL_TEST_DIR) + "/golden/quickstart.vcd";
    std::ifstream is(path);
    ASSERT_TRUE(is.good()) << "missing golden " << path;
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string original = buf.str();

    std::istringstream in(original);
    Trace t = VcdReader::read(in);
    EXPECT_EQ(t.top, "ping_server");
    EXPECT_EQ(t.timescale, "1ns");
    EXPECT_EQ(t.signals().size(), 18u);
    EXPECT_EQ(t.startTime(), 0u);

    EXPECT_EQ(rewrite(t), original);
}

TEST(TraceVcd, RandomizedAxiRunRoundTripsByteIdentically)
{
    // >94 signals: the demux exercises multi-character id-codes.
    tb::Testbench bench(designs::buildAxiDemuxBaseline(), 31);
    anvil::testing::attachDemuxBfmBench(bench);
    std::ostringstream os;
    bench.attachVcd(os);
    tb::TbResult r = bench.run(500);
    ASSERT_TRUE(r.ok()) << r.summary();
    std::string original = os.str();

    std::istringstream in(original);
    Trace t = VcdReader::read(in);
    ASSERT_GT(t.signals().size(), 94u);
    EXPECT_EQ(rewrite(t), original);

    // Multi-character id-codes really occurred and resolved.
    bool multi = false;
    for (const auto &s : t.signals())
        multi |= s.id.size() > 1;
    EXPECT_TRUE(multi);
}

TEST(TraceVcd, WideSignalsRoundTrip)
{
    // 128-bit values cross the BitVec small-buffer boundary.
    auto m = std::make_shared<rtl::Module>();
    m->name = "wide";
    auto a = m->input("a", 128);
    m->wire("b", a ^ rtl::cst(128, 0x5a5a5a5a5a5a5a5aull));
    rtl::Sim sim(m);
    std::ostringstream os;
    rtl::VcdWriter vcd(sim, os);
    for (int i = 0; i < 20; i++) {
        BitVec v(128, static_cast<uint64_t>(i) * 2654435761u);
        v = v | (v << 100);
        sim.setInput("a", v);
        vcd.sample();
        sim.step();
    }
    std::string original = os.str();
    std::istringstream in(original);
    Trace t = VcdReader::read(in);
    EXPECT_EQ(rewrite(t), original);

    int ia = t.indexOf("a");
    ASSERT_GE(ia, 0);
    EXPECT_EQ(t.signals()[static_cast<size_t>(ia)].width, 128);
}

TEST(TraceVcd, ValuesRecoverPerCycle)
{
    // Re-simulate the quickstart stimulus and cross-check values
    // reconstructed from the parsed dump cycle by cycle.
    auto mod = designs::buildFifoBaseline();
    rtl::Sim sim(mod);
    std::ostringstream os;
    rtl::VcdWriter vcd(sim, os);
    std::vector<uint64_t> wptr_samples;
    const int cycles = 50;
    for (int i = 0; i < cycles; i++) {
        sim.setInput("inp_enq_data", i * 977);
        sim.setInput("inp_enq_valid", i % 3 != 2 ? 1 : 0);
        sim.setInput("outp_deq_ack", i % 5 < 3 ? 1 : 0);
        wptr_samples.push_back(sim.peek("wptr").toUint64());
        vcd.sample();
        sim.step();
    }

    std::istringstream in(os.str());
    Trace t = VcdReader::read(in);
    int iw = t.indexOf("wptr");
    ASSERT_GE(iw, 0);
    const TraceSignal &w = t.signals()[static_cast<size_t>(iw)];
    for (int c = 0; c < cycles; c++) {
        const BitVec *v = w.valueAt(static_cast<uint64_t>(c));
        ASSERT_NE(v, nullptr) << c;
        EXPECT_EQ(v->toUint64(), wptr_samples[static_cast<size_t>(c)])
            << "cycle " << c;
    }

    // The cursor walks the same values.
    TraceCursor cur(t);
    for (int c = 0; c < cycles; c++) {
        cur.advanceTo(static_cast<uint64_t>(c));
        EXPECT_EQ(cur.value(static_cast<size_t>(iw)).toUint64(),
                  wptr_samples[static_cast<size_t>(c)]);
    }
}

TEST(TraceVcd, ZeroWidthSignalsAreSkippedByTheWriter)
{
    auto m = std::make_shared<rtl::Module>();
    m->name = "degenerate";
    auto a = m->input("a", 8);
    m->wire("z", rtl::slice(a, 0, 0));   // zero-width slice
    m->wire("b", a + rtl::cst(8, 1));
    rtl::Sim sim(m);
    std::ostringstream os;
    rtl::VcdWriter vcd(sim, os);
    sim.setInput("a", 3);
    vcd.sample();

    // The dump parses cleanly and only declares representable vars.
    std::istringstream in(os.str());
    Trace t = VcdReader::read(in);
    EXPECT_EQ(t.indexOf("z"), -1);
    EXPECT_GE(t.indexOf("a"), 0);
    EXPECT_GE(t.indexOf("b"), 0);
    EXPECT_EQ(rewrite(t), os.str());
}

TEST(TraceVcd, ForeignVcdFeaturesParse)
{
    // x/z values, $comment sections, $dumpoff/$dumpon, mixed-case
    // vector markers, and a var range glued in the declaration.
    const char *text =
        "$comment hand-written $end\n"
        "$date today $end\n"
        "$timescale 1 ps $end\n"
        "$scope module top $end\n"
        "$var wire 4 ! bus [3:0] $end\n"
        "$var reg 1 \" flag $end\n"
        "$scope module child $end\n"
        "$var wire 2 # pair $end\n"
        "$upscope $end\n"
        "$upscope $end\n"
        "$enddefinitions $end\n"
        "#0\n"
        "$dumpvars\n"
        "bxz10 !\n"
        "x\"\n"
        "b00 #\n"
        "$end\n"
        "$comment mid-stream note $end\n"
        "#3\n"
        "B1x !\n"
        "1\"\n"
        "#7\n"
        "$dumpoff\n"
        "bz #\n"
        "$dumpon\n"
        "0\"\n";
    std::istringstream in(text);
    Trace t = VcdReader::read(in);
    EXPECT_EQ(t.top, "top");
    EXPECT_EQ(t.timescale, "1ps");
    ASSERT_EQ(t.signals().size(), 3u);
    EXPECT_EQ(t.indexOf("bus"), 0);
    EXPECT_EQ(t.indexOf("child.pair"), 2);

    const TraceSignal &bus = t.signals()[0];
    ASSERT_EQ(bus.changes.size(), 2u);
    // x/z read as 0: "xz10" -> 0b0010, "1x" -> 0b10.
    EXPECT_EQ(bus.changes[0].second.toUint64(), 0x2u);
    EXPECT_EQ(bus.changes[1].first, 3u);
    EXPECT_EQ(bus.changes[1].second.toUint64(), 0x2u);

    const TraceSignal &flag = t.signals()[1];
    ASSERT_EQ(flag.changes.size(), 3u);
    EXPECT_EQ(flag.changes[0].second.any(), false);   // x -> 0
    EXPECT_EQ(flag.changes[1].second.any(), true);
    EXPECT_EQ(flag.changes[2].first, 7u);
    EXPECT_EQ(t.cycles(), 8u);
}

TEST(TraceVcd, MalformedVcdRaises)
{
    auto expect_throw = [](const std::string &text,
                           const std::string &what) {
        std::istringstream in(text);
        try {
            VcdReader::read(in);
            ADD_FAILURE() << "no error for: " << what;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("vcd:"),
                      std::string::npos)
                << e.what();
        }
    };
    expect_throw("$scope module m $end\n$var wire 1 ! a $end\n",
                 "missing $enddefinitions");
    expect_throw("$enddefinitions $end\n#0\n1!\n",
                 "undeclared id-code");
    expect_throw("$scope module m $end\n"
                 "$var wire oops ! a $end\n"
                 "$upscope $end\n$enddefinitions $end\n",
                 "bad width");
    expect_throw("$enddefinitions $end\n#5\n#3\n", "time reversal");
    expect_throw("$enddefinitions $end\n#99999999999999999999999\n",
                 "timestamp past 64 bits");
    expect_throw("$scope module m $end\n"
                 "$var wire 2 ! a $end\n"
                 "$upscope $end\n$enddefinitions $end\n"
                 "#0\nb10110 !\n",
                 "vector wider than var");
}

TEST(TraceVcd, VcdWriterIdCodesStayUniquePast94Signals)
{
    // 200 signals: single-, double-character codes, no collisions.
    std::set<std::string> seen;
    for (size_t i = 0; i < 9000; i++) {
        std::string id = rtl::VcdWriter::idCode(i);
        for (char c : id) {
            EXPECT_GE(c, '!');
            EXPECT_LE(c, '~');
        }
        EXPECT_TRUE(seen.insert(id).second) << "dup at " << i;
    }
}

} // namespace
