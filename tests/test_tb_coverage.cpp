/**
 * @file
 * Coverage engine tests: toggle coverage separates a trivial
 * stimulus from a randomized one on the FIFO eval design, register
 * value bins track actually-visited state, cover/assert points count
 * and catch, and the JSON summary carries the same numbers as the
 * text report.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "designs/designs.h"
#include "obs/observer.h"
#include "tb/testbench.h"

using namespace anvil;
using namespace anvil::rtl;

namespace {

tb::RandomSpec
duty(int pct)
{
    tb::FieldSpec f;
    f.lo = 0;
    f.width = 1;
    f.min = 1;
    f.max = 1;
    tb::RandomSpec spec;
    spec.fields = {f};
    spec.active_pct = pct;
    return spec;
}

/** Run the FIFO under a stimulus and return its coverage engine. */
std::string
runFifo(bool randomized, double *toggle_pct, double *bin_pct,
        uint64_t *enq_hits)
{
    tb::Testbench bench(designs::buildFifoBaseline(), 77);
    if (randomized) {
        bench.driveRandom("inp_enq_data");
        bench.driveRandom("inp_enq_valid", duty(70));
        bench.driveRandom("outp_deq_ack", duty(60));
    } else {
        // Trivial stimulus: nothing ever enqueued or dequeued.
        bench.driveSequence("inp_enq_data", {});
        bench.driveSequence("inp_enq_valid", {});
        bench.driveSequence("outp_deq_ack", {});
    }
    tb::Coverage &cov = bench.coverage();
    cov.addCover("enq-fire", rtl::ref("inp_enq_valid", 1) &
                                 rtl::ref("inp_enq_ack", 1));
    cov.addAssert("ptr-in-range", cst(1, 1),
                  binop(Op::Le, rtl::ref("wptr", 4), cst(4, 15)));
    tb::TbResult r = bench.run(400);
    EXPECT_TRUE(r.ok());
    *toggle_pct = cov.togglePct();
    *bin_pct = cov.regBinPct();
    *enq_hits = cov.covers()[0].hits;
    EXPECT_TRUE(cov.assertsOk());
    return cov.report();
}

TEST(TbCoverage, RandomStimulusCoversMoreThanTrivial)
{
    double trivial_toggle, trivial_bins, random_toggle, random_bins;
    uint64_t trivial_enq, random_enq;
    std::string trivial_rep = runFifo(false, &trivial_toggle,
                                      &trivial_bins, &trivial_enq);
    std::string random_rep = runFifo(true, &random_toggle,
                                     &random_bins, &random_enq);

    // The idle FIFO barely moves; the random one works hard.
    EXPECT_LT(trivial_toggle, 10.0);
    EXPECT_GT(random_toggle, 60.0);
    EXPECT_GT(random_toggle, trivial_toggle + 40.0);
    EXPECT_GT(random_bins, trivial_bins);
    EXPECT_EQ(trivial_enq, 0u);
    EXPECT_GT(random_enq, 100u);

    // Reports render and carry the headline numbers.
    EXPECT_NE(trivial_rep.find("coverage: 400 samples"),
              std::string::npos);
    EXPECT_NE(random_rep.find("cover  enq-fire"), std::string::npos);
}

TEST(TbCoverage, ToggleBitsRequireBothEdges)
{
    // d rises once and never falls: rose but not fell -> uncovered.
    auto m = std::make_shared<Module>();
    m->name = "edge";
    m->input("d", 1);
    m->wire("q", rtl::ref("d", 1));

    tb::Testbench bench(m);
    bench.driveSequence("d", {BitVec(1, 0), BitVec(1, 1)}, true);
    tb::Coverage &cov = bench.coverage();
    bench.run(6);
    for (const auto &sc : cov.signals())
        EXPECT_EQ(sc.coveredBits(), 0) << sc.name;
    EXPECT_EQ(cov.togglePct(), 0.0);

    // A full 0-1-0 excursion covers the bit.
    tb::Testbench bench2(std::make_shared<Module>(*m));
    bench2.driveSequence("d", {BitVec(1, 0), BitVec(1, 1),
                               BitVec(1, 0)});
    tb::Coverage &cov2 = bench2.coverage();
    bench2.run(4);
    EXPECT_EQ(cov2.togglePct(), 100.0);
}

TEST(TbCoverage, RegisterBinsTrackVisitedValues)
{
    // A 2-bit counter visits all four values.
    auto m = std::make_shared<Module>();
    m->name = "cnt2";
    auto c = m->reg("c", 2);
    m->update("c", cst(1, 1), c + cst(2, 1));

    tb::Testbench bench(m);
    tb::Coverage &cov = bench.coverage();
    bench.run(8);
    ASSERT_EQ(cov.regBins().size(), 1u);
    EXPECT_EQ(cov.regBins()[0].binsHit(), 4);
    EXPECT_EQ(cov.regBinPct(), 100.0);

    // Parked counter: only the reset bin.
    auto m2 = std::make_shared<Module>();
    m2->name = "cnt2b";
    m2->reg("c", 2);
    tb::Testbench bench2(m2);
    tb::Coverage &cov2 = bench2.coverage();
    bench2.run(8);
    EXPECT_EQ(cov2.regBins()[0].binsHit(), 1);
}

TEST(TbCoverage, AssertPointRecordsFailingCycles)
{
    auto m = std::make_shared<Module>();
    m->name = "cnt3";
    auto c = m->reg("c", 3);
    m->update("c", cst(1, 1), c + cst(3, 1));

    tb::Testbench bench(m);
    tb::Coverage &cov = bench.coverage();
    cov.addAssert("c-ne-5", cst(1, 1), ne(rtl::ref("c", 3),
                                          cst(3, 5)));
    bench.run(16);
    ASSERT_EQ(cov.asserts().size(), 1u);
    EXPECT_FALSE(cov.assertsOk());
    EXPECT_EQ(cov.asserts()[0].checked, 16u);
    EXPECT_EQ(cov.asserts()[0].failures, 2u);   // cycles 5 and 13
    EXPECT_EQ(cov.asserts()[0].fail_cycles,
              (std::vector<uint64_t>{5, 13}));
    EXPECT_NE(cov.report().find("failures=2"), std::string::npos);
}

TEST(TbCoverage, SummaryJsonCarriesTheNumbers)
{
    auto m = std::make_shared<Module>();
    m->name = "cnt2";
    auto c = m->reg("c", 2);
    m->update("c", cst(1, 1), c + cst(2, 1));
    tb::Testbench bench(m);
    tb::Coverage &cov = bench.coverage();
    cov.addCover("nonzero", unop(Op::RedOr, rtl::ref("c", 2)));
    bench.run(8);

    std::string json = cov.summaryJson();
    EXPECT_NE(json.find("\"samples\":8"), std::string::npos);
    EXPECT_NE(json.find("\"reg_bins_hit\":4"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"nonzero\",\"hits\":6"),
              std::string::npos);
}

TEST(TbCoverage, CrossCoverageBinsTuplesOfCoverPoints)
{
    // A 2-bit counter: bit 0 alternates, bit 1 has period 4, so all
    // four (bit1, bit0) tuples occur — and pinning the counts checks
    // the binning, not just the occupancy.
    auto m = std::make_shared<Module>();
    m->name = "cnt2";
    auto c = m->reg("c", 2);
    m->update("c", cst(1, 1), c + cst(2, 1));
    tb::Testbench bench(m);
    tb::Coverage &cov = bench.coverage();
    cov.addCover("lo", slice(rtl::ref("c", 2), 0, 1));
    cov.addCover("hi", slice(rtl::ref("c", 2), 1, 1));
    cov.cross("hi-x-lo", "hi", "lo");
    bench.run(8);

    ASSERT_EQ(cov.crosses().size(), 1u);
    const tb::CrossPoint &x = cov.crosses()[0];
    EXPECT_EQ(x.binsHit(), 4);
    // c walked 0,1,2,3,0,1,2,3: two samples per tuple.
    for (int b = 0; b < 4; b++)
        EXPECT_EQ(x.bins[b], 2u) << "bin " << b;

    // Report and JSON carry the cross.
    EXPECT_NE(cov.report().find("cross  hi-x-lo"),
              std::string::npos);
    std::string json = cov.summaryJson();
    EXPECT_NE(json.find("\"crosses\":[{\"name\":\"hi-x-lo\","
                        "\"bins_hit\":4,\"bins\":[2,2,2,2]}]"),
              std::string::npos)
        << json;
}

TEST(TbCoverage, CrossCoverageSeparatesCorrelatedStimuli)
{
    // Two independently-toggling inputs hit all four tuples; tied
    // inputs never hit the mixed bins.
    auto run_pair = [](bool tied) {
        auto m = std::make_shared<Module>();
        m->name = "pair";
        m->input("a", 1);
        m->input("b", 1);
        tb::Testbench bench(m, 3);
        bench.driveRandom("a");
        if (tied)
            bench.driveWith([](rtl::Sim &s, uint64_t,
                               tb::SplitMix64 &) {
                s.setInput("b", s.peek("a"));
            });
        else
            bench.driveRandom("b");
        tb::Coverage &cov = bench.coverage();
        cov.addCover("a", rtl::ref("a", 1));
        cov.addCover("b", rtl::ref("b", 1));
        cov.cross("ab", "a", "b");
        bench.run(64);
        return cov.crosses()[0].binsHit();
    };
    EXPECT_EQ(run_pair(false), 4);
    EXPECT_EQ(run_pair(true), 2);   // only 00 and 11
}

/**
 * Registers of every binning class: narrow exact-value (3 bits),
 * narrow hashed (12), one-word (20, 40) and multi-word (100), some
 * moving every cycle, some rarely, one never.
 */
ModulePtr
binDesign()
{
    auto m = std::make_shared<Module>();
    m->name = "bins";
    auto d = m->input("d", 8);
    auto go = m->input("go", 1);
    auto c3 = m->reg("c3", 3);
    m->update("c3", go, c3 + cst(3, 1));
    auto r12 = m->reg("r12", 12);
    m->update("r12", slice(d, 0, 1), concat({slice(r12, 0, 4), d}));
    auto r40 = m->reg("r40", 40, 7);
    m->update("r40", go & slice(d, 1, 1),
              r40 + concat({d, d, d, d, d}));
    auto r100 = m->reg("r100", 100);
    m->update("r100", slice(d, 7, 1), concat({slice(r100, 0, 92), d}));
    m->reg("parked", 20, 5);
    auto slow = m->reg("slow", 16);
    m->update("slow", eq(d, cst(8, 0x42)), slow + cst(16, 1));
    return m;
}

/** What the engine must count: each register binned every sample. */
uint64_t
refBin(const BitVec &v, size_t bins)
{
    uint64_t h = 0;
    for (int w = 0; w < v.words(); w++)
        h ^= v.word(w);
    return h % bins;
}

struct BinRunOpts
{
    SweepMode mode = SweepMode::Dirty;
    bool standalone = false;   // Coverage::sample(), not a shared feed
    bool late_pokes = false;   // pokes between sample and clock edge
    bool mid_reads = false;    // regBins()/summaryJson() mid-run
};

/**
 * Drive binDesign and compare every register's per-bin hits with a
 * reference that bins each register's value on every sample.
 */
void
expectExactRegBins(const BinRunOpts &o)
{
    Sim sim(binDesign());
    sim.setSweepMode(o.mode);
    tb::Coverage cov;
    std::unique_ptr<obs::ChangeFeed> feed;
    if (!o.standalone) {
        feed = std::make_unique<obs::ChangeFeed>(sim);
        feed->attach(cov);
    }
    std::vector<std::string> names;
    std::vector<std::vector<uint64_t>> want;
    tb::SplitMix64 rng(2026);
    auto expectMatch = [&](int cyc) {
        const auto &got = cov.regBins();
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); i++)
            EXPECT_EQ(got[i].hits, want[i])
                << got[i].name << " at cycle " << cyc;
    };

    for (int cyc = 0; cyc < 1500; cyc++) {
        // Long quiet stretches keep holds open across many samples.
        bool quiet = (cyc / 100) % 3 == 2;
        sim.setInput("d", quiet ? 0 : rng.next());
        sim.setInput("go", quiet ? 0 : rng.chance(30));
        if (o.standalone)
            cov.sample(sim);
        else
            feed->sample();

        if (want.empty()) {
            // The table binds on the first sample; read its shape
            // once, so no read settles the holds mid-run unless
            // mid_reads asks for it.
            for (const tb::RegBins &rb : cov.regBins()) {
                names.push_back(rb.name);
                want.emplace_back(rb.hits.size(), 0);
            }
        }
        for (size_t i = 0; i < names.size(); i++)
            want[i][refBin(sim.regValue(names[i]), want[i].size())]++;

        if (o.mid_reads && cyc % 97 == 50) {
            expectMatch(cyc);
            EXPECT_NE(cov.summaryJson().find("\"samples\":" +
                                             std::to_string(cyc + 1)),
                      std::string::npos);
        }
        if (o.late_pokes && cyc % 11 == 4) {
            // Flushed with the edge, never on the next cycle's feed:
            // only the rescan sees these.
            sim.setRegValue("parked", BitVec(20, rng.next()));
            sim.setInput("d", 0x42);
        }
        sim.step();
    }
    expectMatch(1500);

    // Bin tables follow the width classes.
    for (const tb::RegBins &rb : cov.regBins())
        EXPECT_EQ(rb.hits.size(), rb.width < 4 ? 8u : 16u) << rb.name;
}

TEST(TbCoverage, RegisterBinCountsAreExactDirty)
{
    expectExactRegBins({});
}

TEST(TbCoverage, RegisterBinCountsAreExactFull)
{
    BinRunOpts o;
    o.mode = SweepMode::Full;
    expectExactRegBins(o);
}

TEST(TbCoverage, RegisterBinCountsAreExactAcrossLatePokes)
{
    BinRunOpts o;
    o.late_pokes = true;
    expectExactRegBins(o);
    o.mode = SweepMode::Full;
    expectExactRegBins(o);
}

TEST(TbCoverage, RegisterBinCountsAreExactWithMidRunReads)
{
    BinRunOpts o;
    o.mid_reads = true;
    expectExactRegBins(o);
    o.late_pokes = true;
    expectExactRegBins(o);
}

TEST(TbCoverage, RegisterBinCountsAreExactStandalone)
{
    BinRunOpts o;
    o.standalone = true;
    expectExactRegBins(o);
    o.late_pokes = true;
    o.mid_reads = true;
    expectExactRegBins(o);
}

TEST(TbCoverage, RegisterBinCountsAreExactInATestbench)
{
    // The testbench's shared feed, beside a VCD writer riding the
    // same subscriptions.
    tb::Testbench bench(binDesign(), 5);
    bench.driveRandom("d");
    tb::RandomSpec go;
    go.active_pct = 20;
    bench.driveRandom("go", go);
    tb::Coverage &cov = bench.coverage();
    std::ostringstream vcd;
    bench.attachVcd(vcd);
    std::vector<std::vector<uint64_t>> want;
    bench.check("ref", [&](tb::Testbench &t) {
        // Checks run before the feed visit: bind the table shape
        // from the netlist on the first cycle.
        if (want.empty())
            for (const auto &[name, sig] : t.sim().netlist().signals())
                if (sig.kind == NetSignal::Kind::Reg)
                    want.emplace_back(
                        sig.width < 4 ? 1u << sig.width : 16u, 0);
        size_t i = 0;
        for (NetId r : t.sim().netlist().regs()) {
            want[i][refBin(t.sim().value(r), want[i].size())]++;
            i++;
        }
    });
    bench.run(2000);
    const auto &got = cov.regBins();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); i++)
        EXPECT_EQ(got[i].hits, want[i]) << got[i].name;
}

TEST(TbCoverage, CrossOfUnknownPointThrows)
{
    tb::Coverage cov;
    cov.addCover("known", cst(1, 1));
    EXPECT_THROW(cov.cross("x", "known", "ghost"),
                 std::invalid_argument);
    EXPECT_THROW(cov.cross("x", "ghost", "known"),
                 std::invalid_argument);
}

} // namespace
