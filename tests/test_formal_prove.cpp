/**
 * @file
 * k-induction prover tests: the inferred ack-within contracts are
 * proved on the annotated eval designs (TLB, systolic, and the
 * wide-counter Listing 2 case where the explicit-state BMC exhausts
 * its budget), quickstart's stable/hold obligations are proved
 * against an arbitrary environment, verdicts and counterexample VCD
 * bytes are identical across sweep modes, the compiled safety
 * automata agree cycle-for-cycle with trace::ChannelChecker, and
 * budgets degrade to Unknown — never to a wrong verdict.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <tuple>
#include <string>
#include <vector>

#include "anvil/compiler.h"
#include "designs/designs.h"
#include "formal/contracts.h"
#include "formal/kinduction.h"
#include "formal/property.h"
#include "rtl/interp.h"
#include "trace/contracts.h"
#include "trace/vcd_reader.h"
#include "verif/bmc.h"

#ifndef ANVIL_TEST_DIR
#define ANVIL_TEST_DIR "tests"
#endif

using namespace anvil;
using formal::ObligationOutcome;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

struct Proven
{
    CompileOutput out;
    formal::ContractSet typed;
    formal::InstrumentedDesign inst;
    formal::ProveResult res;
};

Proven
proveSource(const std::string &source,
            const formal::ProveOptions &opts = {})
{
    Proven p;
    p.out = compileAnvil(source);
    EXPECT_TRUE(p.out.ok) << p.out.diags.render();
    p.typed = formal::inferContracts(p.out.program, p.out.top);
    p.inst = formal::compileProperties(*p.out.module(p.out.top),
                                       p.typed.obligations());
    p.res = formal::prove(p.inst, opts);
    return p;
}

const ObligationOutcome *
outcomeOf(const formal::ProveResult &res, const std::string &channel,
          const std::string &rule)
{
    for (const auto &o : res.obligations)
        if (o.channel == channel && o.rule == rule)
            return &o;
    return nullptr;
}

TEST(FormalProve, ProvesInferredAckBoundsOnEvalDesigns)
{
    struct Case
    {
        const char *name;
        std::string source;
        const char *channel;
    };
    std::vector<Case> cases = {
        {"tlb", designs::anvilTlbSource(), "io_upd"},
        {"systolic", designs::anvilSystolicSource(), "inp_wld"},
        {"listing2", designs::anvilListing2Source(), "io_req"},
    };
    for (auto &c : cases) {
        Proven p = proveSource(c.source);
        const ObligationOutcome *o =
            outcomeOf(p.res, c.channel, "ack-within");
        ASSERT_NE(o, nullptr) << c.name;
        EXPECT_EQ(o->status, ObligationOutcome::Status::Proved)
            << c.name << ": " << o->statusStr() << " " << o->detail;
        // The whole cone stays a handful of control bits no matter
        // how wide the datapath is.
        EXPECT_LE(o->coi_bits, 16) << c.name;
    }
}

TEST(FormalProve, QuickstartStableHoldProved)
{
    Proven p = proveSource(readFile(
        std::string(ANVIL_TEST_DIR) + "/../examples/quickstart.anvil"));
    const ObligationOutcome *hold =
        outcomeOf(p.res, "io_pong", "hold");
    const ObligationOutcome *stable =
        outcomeOf(p.res, "io_pong", "stable");
    ASSERT_NE(hold, nullptr);
    ASSERT_NE(stable, nullptr);
    EXPECT_EQ(hold->status, ObligationOutcome::Status::Proved)
        << hold->statusStr();
    EXPECT_EQ(stable->status, ObligationOutcome::Status::Proved)
        << stable->statusStr();
}

TEST(FormalProve, Listing2WideCounterExhaustsBmcButProves)
{
    // The paper's comparison, replayed on our own substrate: the
    // 32-bit free-running counter makes every cycle a fresh packed
    // state, so the explicit-state BMC drowns in its budget checking
    // the very assertions the prover discharges in milliseconds.
    Proven p = proveSource(designs::anvilListing2Source());
    EXPECT_TRUE(p.res.allProved()) << p.res.report(true);

    verif::BmcOptions bopts;
    bopts.max_depth = 30000;
    bopts.max_states = 2000;
    bopts.input_bits_limit = 1;
    verif::BmcResult bmc = verif::boundedModelCheck(
        p.inst.module, p.inst.assertions(), bopts);
    EXPECT_EQ(bmc.status, verif::BmcResult::Status::BudgetExhausted)
        << bmc.statusStr();
    EXPECT_GE(bmc.states_explored, bopts.max_states);

    // The prover's cone never contained the design's 32-bit counter
    // (the `__fml_*_cnt` deadline counters are the automata's own).
    for (const auto &o : p.res.obligations)
        for (const auto &r : o.coi_reg_names)
            EXPECT_NE(r, "cnt") << o.name << " cone contains " << r;
}

TEST(FormalProve, VerdictsIdenticalAcrossSweepModes)
{
    std::vector<std::tuple<int, uint64_t, uint64_t>> runs;
    for (rtl::SweepMode mode :
         {rtl::SweepMode::Full, rtl::SweepMode::Dirty}) {
        formal::ProveOptions opts;
        opts.sweep_mode = mode;
        Proven p = proveSource(designs::anvilTlbSource(), opts);
        const ObligationOutcome *o =
            outcomeOf(p.res, "io_upd", "ack-within");
        ASSERT_NE(o, nullptr);
        EXPECT_EQ(o->status, ObligationOutcome::Status::Proved)
            << o->statusStr();
        runs.push_back({o->k, o->base_states, o->steps});
    }
    // Same exploration, not just the same verdict.
    EXPECT_EQ(runs[0], runs[1]);
}

TEST(FormalProve, CexVcdByteStableAcrossSweepModes)
{
    std::string src = designs::anvilListing2Source();
    size_t pos = src.find("@dyn#3");
    ASSERT_NE(pos, std::string::npos);
    src.replace(pos, 6, "@dyn#1");
    Proven p = proveSource(src);
    ASSERT_TRUE(p.res.anyViolated()) << p.res.report(true);

    const ObligationOutcome *cex = nullptr;
    for (const auto &o : p.res.obligations)
        if (o.status == ObligationOutcome::Status::Violated)
            cex = &o;
    ASSERT_NE(cex, nullptr);

    std::ostringstream full, dirty;
    formal::writeCexVcd(p.inst, *cex, full, rtl::SweepMode::Full);
    formal::writeCexVcd(p.inst, *cex, dirty, rtl::SweepMode::Dirty);
    EXPECT_FALSE(full.str().empty());
    EXPECT_EQ(full.str(), dirty.str());

    // Violated verdict (and counterexample) reproduce under the
    // dense sweep too.
    formal::ProveOptions fopts;
    fopts.sweep_mode = rtl::SweepMode::Full;
    formal::ProveResult res2 = formal::prove(p.inst, fopts);
    const ObligationOutcome *cex2 = nullptr;
    for (const auto &o : res2.obligations)
        if (o.status == ObligationOutcome::Status::Violated)
            cex2 = &o;
    ASSERT_NE(cex2, nullptr);
    EXPECT_EQ(cex2->k, cex->k);
    EXPECT_EQ(cex2->cex.size(), cex->cex.size());
}

/**
 * The compiled automata and the runtime checker must tell the same
 * story: drive a hand-built valid/ack/data sequence through an
 * instrumented passthrough module and compare each rule's first bad
 * cycle against trace::ChannelChecker's violation cycles.
 */
TEST(FormalProve, AutomataAgreeWithChannelChecker)
{
    auto m = std::make_shared<rtl::Module>();
    m->name = "probe";
    auto v = m->input("v", 1);
    auto a = m->input("a", 1);
    auto d = m->input("d", 8);
    m->wire("ch_valid", v);
    m->output("ch_valid", 1);
    m->wire("ch_ack", a);
    m->output("ch_ack", 1);
    m->wire("ch_data", d);
    m->output("ch_data", 8);

    trace::ContractSpec spec =
        trace::parseContractSpec("ch: ack within 3, stable, hold");
    formal::InstrumentedDesign inst =
        formal::compileProperties(*m, {spec});
    ASSERT_EQ(inst.props.size(), 3u);

    // Offer at 2 (payload 0x21), payload flips at 4, deadline 3
    // passes at 4, retracted at 6; clean handshake at 8..9.
    struct Frame { int v, a; uint64_t d; };
    std::vector<Frame> frames = {
        {0, 0, 0}, {0, 0, 0}, {1, 0, 0x21}, {1, 0, 0x21},
        {1, 0, 0x33}, {1, 0, 0x33}, {0, 0, 0}, {0, 0, 0},
        {1, 1, 0x44}, {0, 0, 0},
    };

    rtl::Sim sim(inst.module);
    trace::ChannelChecker checker(spec);
    std::vector<trace::ContractViolation> violations;
    std::map<std::string, uint64_t> first_bad;
    for (size_t t = 0; t < frames.size(); t++) {
        sim.setInput("v", static_cast<uint64_t>(frames[t].v));
        sim.setInput("a", static_cast<uint64_t>(frames[t].a));
        sim.setInput("d", frames[t].d);
        for (const auto &p : inst.props) {
            if (sim.peek(p.bad_wire).any() && !first_bad.count(p.rule))
                first_bad[p.rule] = t;
        }
        checker.cycle(t, frames[t].v != 0, frames[t].a != 0,
                      BitVec(8, frames[t].d), violations);
        sim.step();
    }

    ASSERT_EQ(violations.size(), 3u);
    for (const auto &viol : violations) {
        ASSERT_TRUE(first_bad.count(viol.rule)) << viol.rule;
        EXPECT_EQ(first_bad[viol.rule], viol.cycle) << viol.rule;
    }
    EXPECT_EQ(first_bad.size(), 3u);
}

TEST(FormalProve, ForwardedPayloadClassifiedConditional)
{
    // The TLB's `@req`-lifetime response forwards the lookup of a
    // live environment input: its pending-stability is guaranteed by
    // the *peer's* contracts (the Fig. 5 compositional case), not by
    // the design alone.  The prover must classify — not "disprove" —
    // it, and still prove the channel's hold obligation outright.
    Proven p = proveSource(designs::anvilTlbSource());
    const ObligationOutcome *stable =
        outcomeOf(p.res, "io_res", "stable");
    ASSERT_NE(stable, nullptr);
    EXPECT_EQ(stable->status, ObligationOutcome::Status::Conditional)
        << stable->statusStr();
    EXPECT_NE(stable->detail.find("io_req_data"), std::string::npos)
        << stable->detail;
    const ObligationOutcome *hold = outcomeOf(p.res, "io_res", "hold");
    ASSERT_NE(hold, nullptr);
    EXPECT_EQ(hold->status, ObligationOutcome::Status::Proved)
        << hold->statusStr();
    EXPECT_FALSE(p.res.anyViolated()) << p.res.report(true);
}

TEST(FormalProve, WideConeDegradesToUnknown)
{
    // An always-true property whose cone drags in a 32-bit
    // accumulator: the base case cannot close (the accumulator walks
    // forever) and the induction budget refuses the 2^34
    // enumeration — verdict Unknown, with the culprit named.
    auto m = std::make_shared<rtl::Module>();
    m->name = "wide";
    auto v = m->input("v", 1);
    auto d = m->input("d", 8);
    auto wide = m->reg("wide", 32);
    m->update("wide", rtl::cst(1, 1), wide + d);
    m->wire("ch_valid", v);
    m->output("ch_valid", 1);
    // ack == 1 always, but through the accumulator's cone.
    m->wire("ch_ack", eq(wide, wide));
    m->output("ch_ack", 1);

    trace::ContractSpec spec =
        trace::parseContractSpec("ch: ack within 2");
    formal::InstrumentedDesign inst =
        formal::compileProperties(*m, {spec});
    formal::ProveOptions opts;
    opts.k_max = 3;   // the base case alone walks 8^k frames here
    formal::ProveResult res = formal::prove(inst, opts);
    ASSERT_EQ(res.obligations.size(), 1u);
    EXPECT_EQ(res.obligations[0].status,
              ObligationOutcome::Status::Unknown);
    EXPECT_NE(res.obligations[0].detail.find("state bits"),
              std::string::npos)
        << res.obligations[0].detail;
}

TEST(FormalProve, StepBudgetDegradesToUnknown)
{
    formal::ProveOptions opts;
    opts.max_steps = 3;
    Proven p = proveSource(designs::anvilTlbSource(), opts);
    const ObligationOutcome *o =
        outcomeOf(p.res, "io_upd", "ack-within");
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(o->status, ObligationOutcome::Status::Unknown);
    EXPECT_NE(o->detail.find("budget"), std::string::npos)
        << o->detail;
}

} // namespace
