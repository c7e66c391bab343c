/**
 * @file
 * Testbench harness tests: driver kinds, deterministic seeded
 * replay, scoreboard catching a deliberately broken design, failure
 * accounting, and the run summary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "rtl/rtl.h"
#include "tb/testbench.h"

using namespace anvil;
using namespace anvil::rtl;

namespace {

/**
 * A one-stage incrementer: q = d + 1 combinationally, with a free
 * running cycle counter.  The broken variant corrupts the result
 * whenever the counter reads 7 — exactly the kind of rare-state bug
 * directed tests miss and constrained-random plus a scoreboard
 * catches.
 */
ModulePtr
incrementer(bool broken)
{
    auto m = std::make_shared<Module>();
    m->name = "inc";
    auto d = m->input("d", 8);
    auto cnt = m->reg("cnt", 3);
    m->update("cnt", cst(1, 1), cnt + cst(3, 1));
    ExprPtr q = d + cst(8, 1);
    if (broken)
        q = mux(eq(cnt, cst(3, 7)), d + cst(8, 2), q);
    m->wire("q", q);
    return m;
}

void
attachIncrementerChecks(tb::Testbench &bench)
{
    tb::Scoreboard &sb = bench.addScoreboard("inc-data");
    bench.check("inc", [&sb](tb::Testbench &t) {
        uint64_t d = t.sim().peek("d").toUint64();
        sb.expect(BitVec(8, d + 1));
        sb.observed(t.sim().cycle(), t.sim().peek("q"));
    });
}

TEST(TbHarness, SequenceDriverDrivesInOrderThenIdles)
{
    tb::Testbench bench(incrementer(false));
    bench.driveSequence("d", {BitVec(8, 10), BitVec(8, 20),
                              BitVec(8, 30)});
    std::vector<uint64_t> seen;
    bench.check("record", [&seen](tb::Testbench &t) {
        seen.push_back(t.sim().peek("d").toUint64());
    });
    EXPECT_TRUE(bench.run(5).ok());
    EXPECT_EQ(seen, (std::vector<uint64_t>{10, 20, 30, 0, 0}));
}

TEST(TbHarness, SequenceDriverHoldsLast)
{
    tb::Testbench bench(incrementer(false));
    bench.driveSequence("d", {BitVec(8, 5), BitVec(8, 9)}, true);
    std::vector<uint64_t> seen;
    bench.check("record", [&seen](tb::Testbench &t) {
        seen.push_back(t.sim().peek("d").toUint64());
    });
    bench.run(4);
    EXPECT_EQ(seen, (std::vector<uint64_t>{5, 9, 9, 9}));
}

TEST(TbHarness, CallbackDriverSeesCycleAndRng)
{
    tb::Testbench bench(incrementer(false));
    std::vector<uint64_t> cycles;
    bench.driveWith([&cycles](rtl::Sim &sim, uint64_t cycle,
                              tb::SplitMix64 &) {
        sim.setInput("d", cycle * 3);
        cycles.push_back(cycle);
    });
    bench.run(3);
    EXPECT_EQ(cycles, (std::vector<uint64_t>{0, 1, 2}));
}

TEST(TbHarness, CleanDesignPassesScoreboard)
{
    tb::Testbench bench(incrementer(false), 42);
    bench.driveRandom("d");
    attachIncrementerChecks(bench);
    tb::TbResult r = bench.run(200);
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_EQ(r.summary().substr(0, 4), "PASS");
}

TEST(TbHarness, BrokenDesignIsCaughtByScoreboard)
{
    tb::Testbench bench(incrementer(true), 42);
    bench.driveRandom("d");
    attachIncrementerChecks(bench);
    tb::TbResult r = bench.run(200);
    EXPECT_FALSE(r.ok());
    // The corruption window is cnt == 7: one cycle in eight.
    EXPECT_GE(r.failures.size(), 10u);
    EXPECT_EQ(r.failures[0].check, "inc-data");
    EXPECT_EQ(r.summary().substr(0, 4), "FAIL");
    // Failures land exactly on the corrupted cycles.
    for (const auto &f : r.failures)
        EXPECT_EQ(f.cycle % 8, 7u) << f.message;
}

TEST(TbHarness, SameSeedReproducesBitForBit)
{
    auto run_once = [](uint64_t seed, std::vector<uint64_t> *stim) {
        tb::Testbench bench(incrementer(true), seed);
        bench.driveRandom("d");
        attachIncrementerChecks(bench);
        bench.check("record", [stim](tb::Testbench &t) {
            stim->push_back(t.sim().peek("d").toUint64());
        });
        tb::TbResult r = bench.run(300);
        return std::make_pair(r.failures.size(),
                              bench.sim().totalToggles());
    };
    std::vector<uint64_t> s1, s2, s3;
    auto a = run_once(7, &s1);
    auto b = run_once(7, &s2);
    auto c = run_once(8, &s3);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(a, b);
    EXPECT_NE(s1, s3);
    (void)c;
}

TEST(TbHarness, MaxFailuresStopsTheRunEarly)
{
    tb::Testbench bench(incrementer(true), 1);
    bench.driveRandom("d");
    attachIncrementerChecks(bench);
    bench.max_failures = 3;
    tb::TbResult r = bench.run(100000);
    EXPECT_EQ(r.failures.size(), 3u);
    EXPECT_LT(r.cycles, 100000u);
}

TEST(TbHarness, MaxFailuresBudgetResetsPerRun)
{
    // A second run() gets its own failure budget; the cumulative
    // count from the first run must not cut it to one cycle.
    tb::Testbench bench(incrementer(true), 1);
    bench.driveRandom("d");
    attachIncrementerChecks(bench);
    bench.max_failures = 3;
    tb::TbResult r1 = bench.run(1000);
    EXPECT_EQ(r1.failures.size(), 3u);
    tb::TbResult r2 = bench.run(1000);
    EXPECT_EQ(r2.failures.size(), 3u);
    EXPECT_GT(r2.cycles, 8u);
}

TEST(TbHarness, ScoreboardComparesAtTheWiderWidth)
{
    tb::Scoreboard sb("w");
    // High-bit corruption beyond the expected width is a mismatch.
    sb.expect(BitVec(8, 0x05));
    sb.observed(1, BitVec(16, 0xa305));
    EXPECT_EQ(sb.failures().size(), 1u);
    // Same low byte with clean high bits matches.
    sb.expect(BitVec(8, 0x05));
    sb.observed(2, BitVec(16, 0x0005));
    EXPECT_EQ(sb.matched(), 1u);
}

TEST(TbHarness, RandomFieldConstraintsAreRespected)
{
    tb::Testbench bench(incrementer(false), 9);
    tb::RandomSpec spec;
    // Low nibble from a choice set, high nibble in [2, 5].
    tb::FieldSpec lo_f;
    lo_f.lo = 0;
    lo_f.width = 4;
    lo_f.choices = {1, 3, 7};
    tb::FieldSpec hi_f;
    hi_f.lo = 4;
    hi_f.width = 4;
    hi_f.min = 2;
    hi_f.max = 5;
    spec.fields = {lo_f, hi_f};
    bench.driveRandom("d", spec);

    std::set<uint64_t> lo_seen, hi_seen;
    bench.check("constraint", [&](tb::Testbench &t) {
        uint64_t d = t.sim().peek("d").toUint64();
        lo_seen.insert(d & 0xf);
        hi_seen.insert(d >> 4);
        EXPECT_TRUE((d & 0xf) == 1 || (d & 0xf) == 3 ||
                    (d & 0xf) == 7);
        EXPECT_GE(d >> 4, 2u);
        EXPECT_LE(d >> 4, 5u);
    });
    bench.run(200);
    // All allowed values actually appear.
    EXPECT_EQ(lo_seen.size(), 3u);
    EXPECT_EQ(hi_seen.size(), 4u);
}

TEST(TbHarness, UnsatisfiableRandomConstraintIsRejected)
{
    tb::Testbench bench(incrementer(false));
    // min doesn't fit a 4-bit field.
    tb::FieldSpec f;
    f.lo = 0;
    f.width = 4;
    f.min = 20;
    f.max = 25;
    tb::RandomSpec spec;
    spec.fields = {f};
    EXPECT_THROW(bench.driveRandom("d", spec),
                 std::invalid_argument);
    // min > max is contradictory.
    tb::FieldSpec g;
    g.lo = 0;
    g.width = 8;
    g.min = 10;
    g.max = 2;
    tb::RandomSpec spec2;
    spec2.fields = {g};
    EXPECT_THROW(bench.driveRandom("d", spec2),
                 std::invalid_argument);
    // A field outside the input is rejected too.
    tb::FieldSpec h;
    h.lo = 4;
    h.width = 8;
    tb::RandomSpec spec3;
    spec3.fields = {h};
    EXPECT_THROW(bench.driveRandom("d", spec3),
                 std::invalid_argument);
}

TEST(TbHarness, DutyCycledValidDrivesIdleValue)
{
    tb::Testbench bench(incrementer(false), 11);
    tb::RandomSpec spec;
    tb::FieldSpec one;
    one.lo = 0;
    one.width = 8;
    one.min = 1;
    one.max = 0xff;
    spec.fields = {one};
    spec.active_pct = 40;
    spec.idle_value = 0;
    bench.driveRandom("d", spec);
    int active = 0, idle = 0;
    bench.check("duty", [&](tb::Testbench &t) {
        if (t.sim().peek("d").any())
            active++;
        else
            idle++;
    });
    bench.run(1000);
    // ~40% active; allow generous slack.
    EXPECT_GT(active, 250);
    EXPECT_LT(active, 550);
    EXPECT_GT(idle, 350);
}

/**
 * The constrained-random packer as it was first written: one setBit
 * per field bit, raw words for field bits past 64.  The word-packing
 * driver must reproduce it value for value and draw for draw.
 */
BitVec
bitwisePack(const tb::RandomSpec &in_spec, int width,
            tb::SplitMix64 &rng)
{
    tb::RandomSpec spec = in_spec;
    if (spec.fields.empty()) {
        tb::FieldSpec full;
        full.width = width;
        spec.fields.push_back(full);
    }
    if (!rng.chance(spec.active_pct))
        return BitVec(width, spec.idle_value);
    BitVec v(width);
    for (const auto &f : spec.fields) {
        uint64_t bits;
        if (!f.choices.empty()) {
            bits = f.choices[rng.below(f.choices.size())];
        } else {
            uint64_t mask = f.width >= 64 ? ~0ull
                                          : (1ull << f.width) - 1;
            uint64_t span = std::min(f.max, mask) - f.min;
            bits = span == ~0ull ? rng.next()
                                 : f.min + rng.below(span + 1);
        }
        for (int b = 0; b < f.width && b < 64; b++)
            v.setBit(f.lo + b, (bits >> b) & 1);
        for (int b = 64; b < f.width; b++) {
            if (b % 64 == 0)
                bits = rng.next();
            v.setBit(f.lo + b, (bits >> (b % 64)) & 1);
        }
    }
    return v;
}

ModulePtr
stimulusDesign()
{
    auto m = std::make_shared<Module>();
    m->name = "stim";
    m->input("w", 150);
    m->input("n", 8);
    m->input("q", 64);
    m->input("e", 70);
    auto cnt = m->reg("cnt", 3);
    m->update("cnt", cst(1, 1), cnt + cst(3, 1));
    m->wire("x", ref("n", 8) + cst(8, 1));
    return m;
}

TEST(TbHarness, WordPackingMatchesTheBitwisePacker)
{
    tb::FieldSpec wide;        // wider than a word, straddles 64/128
    wide.lo = 10;
    wide.width = 130;
    tb::FieldSpec straddle;    // across bit 64, overlapping `wide`
    straddle.lo = 40;
    straddle.width = 50;
    straddle.min = 3;
    straddle.max = (1ull << 50) - 5;
    tb::FieldSpec picks;       // choices wider than the field
    picks.lo = 100;
    picks.width = 6;
    picks.choices = {0x3ff, 0x2a, ~0ull, 0x41};
    tb::FieldSpec top;
    top.lo = 140;
    top.width = 10;
    tb::RandomSpec w_spec;
    w_spec.fields = {wide, straddle, picks, top};
    w_spec.active_pct = 80;
    w_spec.idle_value = 0x1234;

    tb::FieldSpec lo_pick;
    lo_pick.width = 8;
    lo_pick.choices = {0x1ff, 0x80, 7};
    tb::FieldSpec hi_range;    // overlaps lo_pick's top bits
    hi_range.lo = 5;
    hi_range.width = 3;
    hi_range.min = 1;
    hi_range.max = 6;
    tb::RandomSpec n_spec;
    n_spec.fields = {lo_pick, hi_range};
    n_spec.active_pct = 50;
    n_spec.idle_value = 0x1ab;   // wider than the input

    tb::RandomSpec q_spec;       // one unconstrained 64-bit field
    tb::FieldSpec e_field;       // 64-bit field at bit 3 of 70
    e_field.lo = 3;
    e_field.width = 64;
    tb::RandomSpec e_spec;
    e_spec.fields = {e_field};
    e_spec.active_pct = 90;
    e_spec.idle_value = ~0ull;

    const uint64_t seed = 31;
    tb::Testbench bench(stimulusDesign(), seed);
    bench.driveRandom("w", w_spec);
    bench.driveRandom("n", n_spec);
    bench.driveRandom("q", q_spec);
    bench.driveRandom("e", e_spec);

    // Checks run after every driver: replay the same draws here.
    tb::SplitMix64 ref_rng(seed);
    int cycles = 0;
    bench.check("pin", [&](tb::Testbench &t) {
        BitVec w = bitwisePack(w_spec, 150, ref_rng);
        BitVec n = bitwisePack(n_spec, 8, ref_rng);
        BitVec q = bitwisePack(q_spec, 64, ref_rng);
        BitVec e = bitwisePack(e_spec, 70, ref_rng);
        EXPECT_EQ(t.sim().peek("w"), w) << "cycle " << cycles;
        EXPECT_EQ(t.sim().peek("n"), n) << "cycle " << cycles;
        EXPECT_EQ(t.sim().peek("q"), q) << "cycle " << cycles;
        EXPECT_EQ(t.sim().peek("e"), e) << "cycle " << cycles;
        cycles++;
    });
    EXPECT_TRUE(bench.run(2000).ok());
    EXPECT_EQ(cycles, 2000);
    // Same stream position afterwards: no draw was added or lost.
    EXPECT_EQ(bench.rng().next(), ref_rng.next());
}

TEST(TbHarness, InputResolutionRejectsNonInputs)
{
    tb::Testbench bench(stimulusDesign());
    rtl::Sim &sim = bench.sim();
    EXPECT_THROW(sim.inputId("nope"), std::invalid_argument);
    EXPECT_THROW(sim.inputId("cnt"), std::invalid_argument);   // reg
    EXPECT_THROW(sim.inputId("x"), std::invalid_argument);     // wire
    EXPECT_THROW(bench.driveRandom("cnt"), std::invalid_argument);
    EXPECT_THROW(bench.driveSequence("x", {}), std::invalid_argument);
    EXPECT_THROW(sim.setInput("nope", uint64_t{1}),
                 std::invalid_argument);

    NetId reg = sim.netlist().signals().at("cnt").net;
    NetId wire = sim.netlist().signals().at("x").net;
    NetId past = static_cast<NetId>(sim.netlist().nets().size());
    for (NetId id : {reg, wire, past, kNoNet}) {
        EXPECT_THROW(sim.setInput(id, uint64_t{1}),
                     std::invalid_argument) << id;
        EXPECT_THROW(sim.setInput(id, BitVec(8, 1)),
                     std::invalid_argument) << id;
    }
    // A rejected poke leaves the register alone.
    EXPECT_EQ(sim.regValue("cnt"), BitVec(3, 0));

    NetId n = sim.inputId("n");
    sim.setInput(n, uint64_t{0x1ff});   // truncated to 8 bits
    EXPECT_EQ(sim.peek("n"), BitVec(8, 0xff));
    sim.setInput(n, BitVec(16, 0x1234));
    EXPECT_EQ(sim.peek("x"), BitVec(8, 0x35));
}

TEST(TbHarness, ScoreboardFlagsUnexpectedAndPending)
{
    tb::Scoreboard sb("sb");
    sb.observed(3, BitVec(8, 1));
    ASSERT_EQ(sb.failures().size(), 1u);
    EXPECT_EQ(sb.failures()[0].cycle, 3u);

    sb.expect(BitVec(8, 5));
    EXPECT_EQ(sb.pending(), 1u);
    sb.observed(4, BitVec(8, 5));
    EXPECT_EQ(sb.pending(), 0u);
    EXPECT_EQ(sb.matched(), 1u);
    EXPECT_EQ(sb.failures().size(), 1u);

    sb.expect(BitVec(8, 6));
    sb.observed(5, BitVec(8, 7));
    EXPECT_EQ(sb.failures().size(), 2u);
}

} // namespace
