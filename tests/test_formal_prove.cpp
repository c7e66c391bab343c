/**
 * @file
 * k-induction prover tests: the inferred ack-within contracts are
 * proved on the annotated eval designs (TLB, systolic, and the
 * wide-counter Listing 2 case where the explicit-state BMC exhausts
 * its budget), quickstart's stable/hold obligations are proved
 * against an arbitrary environment, verdicts and counterexample VCD
 * bytes are identical across sweep modes, the compiled safety
 * automata agree cycle-for-cycle with trace::ChannelChecker,
 * budgets degrade to Unknown — never to a wrong verdict — and
 * options that would need a 2^64 enumeration are refused.  A pinned
 * table holds the prover's and the BMC's exploration counters on the
 * perfbench `prove` designs, so engine changes must visit the same
 * states in the same order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <string>
#include <vector>

#include "anvil/compiler.h"
#include "designs/designs.h"
#include "formal/contracts.h"
#include "formal/kinduction.h"
#include "formal/property.h"
#include "obs/metrics.h"
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


TEST(FormalProve, RejectsWholeWordEnumerations)
{
    // Input combos and cone states are enumerated in 64-bit words: a
    // 2^64 enumeration can never finish, and the shifts that index
    // one are undefined.  Here a 64-bit input and a 64-bit register
    // sit in the cone, so each option below would shift by 64 or
    // more (UBSan aborts on it); prove() refuses them up front and
    // names the one at fault.
    auto m = std::make_shared<rtl::Module>();
    m->name = "wide_in";
    auto v = m->input("v", 1);
    auto d = m->input("d", 64);
    auto acc = m->reg("acc", 64);
    m->update("acc", v, d);
    m->wire("ch_valid", v);
    m->output("ch_valid", 1);
    m->wire("ch_ack", eq(acc, d));
    m->output("ch_ack", 1);
    formal::InstrumentedDesign inst = formal::compileProperties(
        *m, {trace::parseContractSpec("ch: ack within 2")});
    ASSERT_EQ(inst.props.size(), 1u);
    auto rejection = [&](const formal::ProveOptions &opts) {
        try {
            formal::prove(inst, opts);
        } catch (const std::invalid_argument &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    formal::ProveOptions opts;
    opts.max_input_bits = 64;      // d alone fills 64 combo bits
    opts.input_bits_limit = 64;
    EXPECT_NE(rejection(opts).find("max_input_bits"), std::string::npos);
    opts = {};
    opts.k_max = 1;                // base hits its bound: induction
    opts.max_state_bits = 100;     // would enumerate 2^(64 + ...)
    EXPECT_NE(rejection(opts).find("max_state_bits"), std::string::npos);
    opts = {};
    opts.input_bits_limit = -1;
    EXPECT_NE(rejection(opts).find("input_bits_limit"),
              std::string::npos);

    // 63 is the largest width either budget accepts; within it the
    // verdicts are the defaults'.
    Proven p = proveSource(designs::anvilListing2Source());
    opts = {};
    opts.max_input_bits = 63;
    opts.max_state_bits = 63;
    formal::ProveResult edge = formal::prove(p.inst, opts);
    ASSERT_EQ(edge.obligations.size(), p.res.obligations.size());
    for (size_t i = 0; i < edge.obligations.size(); i++) {
        EXPECT_EQ(edge.obligations[i].status,
                  p.res.obligations[i].status);
        EXPECT_EQ(edge.obligations[i].steps,
                  p.res.obligations[i].steps);
    }
}

/**
 * One row per observable of the exploration engines on the nine
 * Anvil designs of the perfbench `prove` workload plus the `@dyn#1`
 * Listing-2 variant (a reset-reachable violation): per obligation the
 * prover's status, k, base states, induction starts, steps and
 * counterexample inputs at k_max 2 and 4; the BMC's status, states,
 * depth and violated assertion at 1 and 2 input bits; and the
 * registry's prove.* and bmc.frontier_peak counters.  Millisecond
 * figures and throughput gauges are left out.
 */
std::vector<std::string>
explorationRows()
{
    struct Design
    {
        const char *name;
        std::string source;
    };
    std::string bad2 = designs::anvilListing2Source();
    size_t pos = bad2.find("@dyn#3");
    EXPECT_NE(pos, std::string::npos);
    if (pos != std::string::npos)
        bad2.replace(pos, 6, "@dyn#1");
    std::vector<Design> list = {
        {"fifo", designs::anvilFifoSource()},
        {"spill_reg", designs::anvilSpillRegSource()},
        {"stream_fifo", designs::anvilStreamFifoSource()},
        {"tlb", designs::anvilTlbSource()},
        {"ptw", designs::anvilPtwSource()},
        {"alu", designs::anvilPipelinedAluSource()},
        {"systolic", designs::anvilSystolicSource()},
        {"top_safe", designs::anvilTopSafeSource()},
        {"listing2", designs::anvilListing2Source()},
        {"listing2_dyn1", bad2},
    };
    // Status enums in declaration order.
    static const char *const kStatus[] = {"proved", "violated",
                                          "unknown", "conditional"};
    static const char *const kBmcStatus[] = {"proved", "violated",
                                             "bound", "budget"};
    auto counters = [](const obs::MetricsRegistry &m) {
        std::string s;
        for (const auto &[name, v] : m.counters())
            s += " " + name + "=" + std::to_string(v);
        return s;
    };
    std::vector<std::string> rows;
    for (const Design &d : list) {
        Proven p;
        p.out = compileAnvil(d.source);
        EXPECT_TRUE(p.out.ok) << d.name;
        if (!p.out.ok)
            continue;
        p.typed = formal::inferContracts(p.out.program, p.out.top);
        p.inst = formal::compileProperties(*p.out.module(p.out.top),
                                           p.typed.obligations());
        for (int k : {2, 4}) {
            obs::MetricsRegistry m;
            formal::ProveOptions opts;
            opts.k_max = k;
            opts.max_steps = 400000;
            opts.metrics = &m;
            formal::ProveResult res = formal::prove(p.inst, opts);
            std::string head =
                std::string(d.name) + " k" + std::to_string(k) + " ";
            for (const ObligationOutcome &o : res.obligations) {
                std::string cex;
                for (const formal::CexStep &st : o.cex) {
                    cex += cex.empty() ? "" : ";";
                    for (const auto &[in, v] : st.inputs)
                        cex += in + "=" + std::to_string(v) + ",";
                }
                rows.push_back(
                    head + o.name + " " + kStatus[static_cast<int>(
                                              o.status)] +
                    " k=" + std::to_string(o.k) +
                    " base=" + std::to_string(o.base_states) +
                    " starts=" + std::to_string(o.induction_starts) +
                    " steps=" + std::to_string(o.steps) +
                    (cex.empty() ? "" : " cex=" + cex));
            }
            rows.push_back(head + "metrics" + counters(m));
        }
        for (int bits : {1, 2}) {
            obs::MetricsRegistry m;
            verif::BmcOptions bopts;
            bopts.max_depth = 40;
            bopts.max_states = 5000;
            bopts.input_bits_limit = bits;
            bopts.metrics = &m;
            verif::BmcResult r = verif::boundedModelCheck(
                p.inst.module, p.inst.assertions(), bopts);
            rows.push_back(
                std::string(d.name) + " bmc" + std::to_string(bits) +
                " " + kBmcStatus[static_cast<int>(r.status)] +
                " states=" + std::to_string(r.states_explored) +
                " depth=" + std::to_string(r.depth_reached) +
                (r.violated_assertion.empty()
                     ? ""
                     : " violated=" + r.violated_assertion) +
                counters(m));
        }
    }
    return rows;
}

TEST(FormalProve, ExplorationCountersPinned)
{
    // Recorded from the explorers before they moved onto the packed
    // successor-state engine: the same states must be visited in the
    // same order, so every count and counterexample repeats exactly.
    const std::vector<std::string> expected = {
        "fifo k2 contract:outp_deq:hold unknown k=0 base=7 starts=0 steps=12",
        "fifo k2 contract:outp_deq:stable unknown k=0 base=46 starts=0 "
            "steps=96",
        "fifo k2 metrics prove.base_states=53 prove.induction_starts=0 "
            "prove.status.unknown=2 prove.steps=108",
        "fifo k4 contract:outp_deq:hold unknown k=0 base=21 starts=0 steps=52",
        "fifo k4 contract:outp_deq:stable unknown k=0 base=2073 starts=0 "
            "steps=5584",
        "fifo k4 metrics prove.base_states=2094 prove.induction_starts=0 "
            "prove.status.unknown=2 prove.steps=5636",
        "fifo bmc1 budget states=5000 depth=7 bmc.frontier_peak=2896 "
            "bmc.states=5000",
        "fifo bmc2 budget states=5000 depth=4 bmc.frontier_peak=4109 "
            "bmc.states=5000",
        "spill_reg k2 contract:outp_deq:hold unknown k=0 base=7 starts=0 "
            "steps=12",
        "spill_reg k2 contract:outp_deq:stable unknown k=0 base=46 starts=0 "
            "steps=96",
        "spill_reg k2 metrics prove.base_states=53 prove.induction_starts=0 "
            "prove.status.unknown=2 prove.steps=108",
        "spill_reg k4 contract:outp_deq:hold unknown k=0 base=15 starts=0 "
            "steps=44",
        "spill_reg k4 contract:outp_deq:stable unknown k=0 base=213 starts=0 "
            "steps=2000",
        "spill_reg k4 metrics prove.base_states=228 prove.induction_starts=0 "
            "prove.status.unknown=2 prove.steps=2044",
        "spill_reg bmc1 bound states=775 depth=40 bmc.frontier_peak=27 "
            "bmc.states=775",
        "spill_reg bmc2 bound states=3381 depth=40 bmc.frontier_peak=127 "
            "bmc.states=3381",
        "stream_fifo k2 contract:io_deq:hold unknown k=0 base=7 starts=0 "
            "steps=12",
        "stream_fifo k2 contract:io_deq:stable conditional k=0 base=0 "
            "starts=0 steps=0",
        "stream_fifo k2 metrics prove.base_states=7 prove.induction_starts=0 "
            "prove.status.unknown=1 prove.steps=12",
        "stream_fifo k4 contract:io_deq:hold unknown k=0 base=21 starts=0 "
            "steps=52",
        "stream_fifo k4 contract:io_deq:stable conditional k=0 base=0 "
            "starts=0 steps=0",
        "stream_fifo k4 metrics prove.base_states=21 "
            "prove.induction_starts=0 prove.status.unknown=1 prove.steps=52",
        "stream_fifo bmc1 budget states=5000 depth=7 bmc.frontier_peak=2890 "
            "bmc.states=5000",
        "stream_fifo bmc2 budget states=5000 depth=4 bmc.frontier_peak=4087 "
            "bmc.states=5000",
        "tlb k2 contract:io_res:hold proved k=0 base=4 starts=0 steps=16",
        "tlb k2 contract:io_res:stable conditional k=0 base=0 starts=0 "
            "steps=0",
        "tlb k2 contract:io_upd:ack-within unknown k=0 base=5 starts=35 "
            "steps=310",
        "tlb k2 metrics prove.base_states=9 prove.induction_starts=35 "
            "prove.status.proved=1 prove.status.unknown=1 prove.steps=326",
        "tlb k4 contract:io_res:hold proved k=0 base=4 starts=0 steps=16",
        "tlb k4 contract:io_res:stable conditional k=0 base=0 starts=0 "
            "steps=0",
        "tlb k4 contract:io_upd:ack-within proved k=4 base=9 starts=311 "
            "steps=9321",
        "tlb k4 metrics prove.base_states=13 prove.induction_starts=311 "
            "prove.status.proved=2 prove.steps=9337",
        "tlb bmc1 violated states=34 depth=1 violated=contract:io_res:stable "
            "bmc.frontier_peak=29 bmc.states=34",
        "tlb bmc2 violated states=56 depth=1 violated=contract:io_res:stable "
            "bmc.frontier_peak=51 bmc.states=56",
        "ptw k2 contract:cpu_res:hold unknown k=0 base=20 starts=0 steps=512",
        "ptw k2 contract:cpu_res:stable unknown k=0 base=20 starts=0 "
            "steps=512",
        "ptw k2 contract:m_mreq:hold unknown k=0 base=20 starts=0 steps=512",
        "ptw k2 contract:m_mreq:stable conditional k=0 base=0 starts=0 "
            "steps=0",
        "ptw k2 metrics prove.base_states=60 prove.induction_starts=0 "
            "prove.status.unknown=3 prove.steps=1536",
        "ptw k4 contract:cpu_res:hold unknown k=0 base=40 starts=0 steps=2240",
        "ptw k4 contract:cpu_res:stable unknown k=0 base=40 starts=0 "
            "steps=2240",
        "ptw k4 contract:m_mreq:hold unknown k=0 base=40 starts=0 steps=2240",
        "ptw k4 contract:m_mreq:stable conditional k=0 base=0 starts=0 "
            "steps=0",
        "ptw k4 metrics prove.base_states=120 prove.induction_starts=0 "
            "prove.status.unknown=3 prove.steps=6720",
        "ptw bmc1 violated states=24 depth=3 violated=contract:m_mreq:stable "
            "bmc.frontier_peak=9 bmc.states=24",
        "ptw bmc2 violated states=58 depth=3 violated=contract:m_mreq:stable "
            "bmc.frontier_peak=33 bmc.states=58",
        "alu k2 metrics",
        "alu k4 metrics",
        "alu bmc1 proved states=9 depth=3 bmc.frontier_peak=4 bmc.states=9",
        "alu bmc2 proved states=65 depth=3 bmc.frontier_peak=48 bmc.states=65",
        "systolic k2 contract:inp_wld:ack-within proved k=0 base=2 starts=0 "
            "steps=4",
        "systolic k2 metrics prove.base_states=2 prove.induction_starts=0 "
            "prove.status.proved=1 prove.steps=4",
        "systolic k4 contract:inp_wld:ack-within proved k=0 base=2 starts=0 "
            "steps=4",
        "systolic k4 metrics prove.base_states=2 prove.induction_starts=0 "
            "prove.status.proved=1 prove.steps=4",
        "systolic bmc1 proved states=163 depth=5 bmc.frontier_peak=72 "
            "bmc.states=163",
        "systolic bmc2 budget states=5000 depth=3 bmc.frontier_peak=4615 "
            "bmc.states=5000",
        "top_safe k2 contract:mem_req:hold proved k=0 base=4 starts=0 "
            "steps=16",
        "top_safe k2 contract:mem_req:stable unknown k=0 base=7 starts=33245 "
            "steps=400000",
        "top_safe k2 metrics prove.base_states=11 "
            "prove.induction_starts=33245 prove.status.proved=1 "
            "prove.status.unknown=1 prove.steps=400016",
        "top_safe k4 contract:mem_req:hold proved k=0 base=4 starts=0 "
            "steps=16",
        "top_safe k4 contract:mem_req:stable unknown k=0 base=17 "
            "starts=33243 steps=400000",
        "top_safe k4 metrics prove.base_states=21 "
            "prove.induction_starts=33243 prove.status.proved=1 "
            "prove.status.unknown=1 prove.steps=400016",
        "top_safe bmc1 bound states=4097 depth=40 bmc.frontier_peak=200 "
            "bmc.states=4097",
        "top_safe bmc2 budget states=5000 depth=25 bmc.frontier_peak=380 "
            "bmc.states=5000",
        "listing2 k2 contract:io_req:ack-within unknown k=0 base=4 starts=67 "
            "steps=566",
        "listing2 k2 contract:io_res:hold proved k=0 base=1 starts=0 steps=2",
        "listing2 k2 contract:io_res:stable proved k=0 base=1 starts=0 "
            "steps=2",
        "listing2 k2 metrics prove.base_states=6 prove.induction_starts=67 "
            "prove.status.proved=2 prove.status.unknown=1 prove.steps=570",
        "listing2 k4 contract:io_req:ack-within proved k=0 base=4 starts=0 "
            "steps=8",
        "listing2 k4 contract:io_res:hold proved k=0 base=1 starts=0 steps=2",
        "listing2 k4 contract:io_res:stable proved k=0 base=1 starts=0 "
            "steps=2",
        "listing2 k4 metrics prove.base_states=6 prove.induction_starts=0 "
            "prove.status.proved=3 prove.steps=12",
        "listing2 bmc1 bound states=159 depth=40 bmc.frontier_peak=6 "
            "bmc.states=159",
        "listing2 bmc2 bound states=159 depth=40 bmc.frontier_peak=6 "
            "bmc.states=159",
        "listing2_dyn1 k2 contract:io_req:ack-within violated k=1 base=3 "
            "starts=0 steps=6 cex=io_req_valid=1,;io_req_valid=1,",
        "listing2_dyn1 k2 contract:io_res:hold proved k=0 base=1 starts=0 "
            "steps=2",
        "listing2_dyn1 k2 contract:io_res:stable proved k=0 base=1 starts=0 "
            "steps=2",
        "listing2_dyn1 k2 metrics prove.base_states=5 "
            "prove.induction_starts=0 prove.status.proved=2 "
            "prove.status.violated=1 prove.steps=10",
        "listing2_dyn1 k4 contract:io_req:ack-within violated k=1 base=3 "
            "starts=0 steps=6 cex=io_req_valid=1,;io_req_valid=1,",
        "listing2_dyn1 k4 contract:io_res:hold proved k=0 base=1 starts=0 "
            "steps=2",
        "listing2_dyn1 k4 contract:io_res:stable proved k=0 base=1 starts=0 "
            "steps=2",
        "listing2_dyn1 k4 metrics prove.base_states=5 "
            "prove.induction_starts=0 prove.status.proved=2 "
            "prove.status.violated=1 prove.steps=10",
        "listing2_dyn1 bmc1 violated states=6 depth=1 "
            "violated=contract:io_req:ack-within bmc.frontier_peak=3 "
            "bmc.states=6",
        "listing2_dyn1 bmc2 violated states=6 depth=1 "
            "violated=contract:io_req:ack-within bmc.frontier_peak=3 "
            "bmc.states=6",
    };
    std::vector<std::string> rows = explorationRows();
    EXPECT_EQ(rows.size(), expected.size());
    for (size_t i = 0; i < std::min(rows.size(), expected.size()); i++)
        EXPECT_EQ(rows[i], expected[i]) << "row " << i;
    if (rows != expected) {
        std::string table;
        for (const auto &r : rows)
            table += "        \"" + r + "\",\n";
        ADD_FAILURE() << "measured table:\n" << table;
    }
}

} // namespace
