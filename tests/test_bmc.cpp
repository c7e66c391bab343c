/**
 * @file
 * Bounded-model-checker tests (Appendix A): the BMC finds shallow
 * assertion violations, proves small designs, and — the paper's
 * point — exhausts its budget on the Listing 2 design whose
 * violation is gated by a 32-bit counter, while Anvil's type checker
 * rejects the equivalent source instantly.  Also checks the packed-
 * state table the explorers share (rows in insertion order, repeats
 * found, across index growth and for zero-word states).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <vector>

#include "anvil/compiler.h"
#include "designs/designs.h"
#include "rtl/interp.h"
#include "support/hash.h"
#include "verif/bmc.h"

using namespace anvil;
using namespace anvil::rtl;
using namespace anvil::verif;

namespace {

TEST(Bmc, FindsShallowViolation)
{
    auto m = std::make_shared<Module>();
    m->name = "cnt";
    auto c = m->reg("c", 4);
    m->update("c", cst(1, 1), c + cst(4, 1));
    // Assert c != 5: violated at depth 5.
    Assertion a{"c_ne_5", cst(1, 1), ne(c, cst(4, 5))};

    BmcResult r = boundedModelCheck(m, {a});
    EXPECT_TRUE(r.foundViolation());
    EXPECT_EQ(r.violated_assertion, "c_ne_5");
}

TEST(Bmc, ProvesSmallStateSpaces)
{
    auto m = std::make_shared<Module>();
    m->name = "mod4";
    auto c = m->reg("c", 2);
    m->update("c", cst(1, 1), c + cst(2, 1));
    Assertion a{"c_lt_4", cst(1, 1), ult(c, cst(3, 4))};
    BmcResult r = boundedModelCheck(m, {a});
    EXPECT_FALSE(r.foundViolation());
    EXPECT_EQ(r.status, BmcResult::Status::Proved);
}

TEST(Bmc, RespectsDepthBound)
{
    auto m = std::make_shared<Module>();
    m->name = "cnt";
    auto c = m->reg("c", 16);
    m->update("c", cst(1, 1), c + cst(16, 1));
    Assertion a{"c_ne_1000", cst(1, 1), ne(c, cst(16, 1000))};
    BmcOptions opts;
    opts.max_depth = 10;
    opts.max_states = 1 << 20;
    BmcResult r = boundedModelCheck(m, {a}, opts);
    EXPECT_FALSE(r.foundViolation());
    EXPECT_EQ(r.status, BmcResult::Status::BoundReached);
}

/**
 * Listing 2: the grandchild's data flips only once a 32-bit counter
 * passes 0x100000.  The stability assertion is violated only near
 * that point — unreachably deep for explicit-state exploration.
 */
std::shared_ptr<Module>
listing2Design()
{
    auto m = std::make_shared<Module>();
    m->name = "example";
    auto cnt = m->reg("cnt", 32);
    m->update("cnt", cst(1, 1), cnt + cst(32, 1));
    auto r = m->reg("r", 1);
    m->update("r", cst(1, 1), ~r);
    // grandchild data: cnt > 0x100000.
    auto gdata = m->wire("gdata",
                         binop(Op::Gt, cnt, cst(32, 0x100000)));
    // child sends r & gdata; Top expects it stable for 3 cycles.
    m->wire("sent", ref("r", 1) & gdata);
    auto prev = m->reg("prev", 1);
    m->update("prev", cst(1, 1), ref("sent", 1));
    auto phase = m->reg("phase", 2);
    m->update("phase", cst(1, 1), phase + cst(2, 1));
    return m;
}

TEST(Bmc, Listing2ViolationTooDeepForBmc)
{
    auto m = listing2Design();
    // Stability assertion: while in the observation phases, the sent
    // value equals the previous cycle's.
    Assertion a{"stable",
                eq(ref("phase", 2), cst(2, 2)),
                eq(ref("sent", 1), ref("prev", 1))};
    BmcOptions opts;
    opts.max_depth = 30000;
    opts.max_states = 20000;
    auto t0 = std::chrono::steady_clock::now();
    BmcResult r = boundedModelCheck(m, {a}, opts);
    auto bmc_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0).count();

    // The 32-bit counter gates the violation behind ~2^20 states: the
    // checker burns its whole budget without finding it.
    EXPECT_FALSE(r.foundViolation()) << r.statusStr();
    EXPECT_GE(r.states_explored, 10000u);

    // Anvil's type checker rejects the equivalent source instantly.
    auto t1 = std::chrono::steady_clock::now();
    CompileOutput out = compileAnvil(designs::anvilListing1Source());
    auto type_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t1).count();
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.diags.render().find(
                  "Value not live long enough in message send!"),
              std::string::npos);
    // Type checking is at least as fast (both are fast in absolute
    // terms here; the bench reports the full numbers).
    EXPECT_LE(type_ms, bmc_ms + 1000);
}

/**
 * Reference exploration that snapshots register state via toHex
 * strings — the pre-interning scheme — mirroring the BMC's traversal
 * exactly.  The production checker now hashes raw BitVec words over
 * the interned register table; both must visit the same states.
 */
uint64_t
stringSnapshotExplore(const std::shared_ptr<const Module> &top,
                      const BmcOptions &opts)
{
    Sim sim(top);
    auto regs = sim.regNames();
    auto inputs = sim.inputNames();

    auto snapshot = [&]() {
        std::string key;
        for (const auto &r : regs) {
            key += sim.regValue(r).toHex();
            key += '|';
        }
        return key;
    };
    auto capture = [&]() {
        std::vector<BitVec> vals;
        for (const auto &r : regs)
            vals.push_back(sim.regValue(r));
        return vals;
    };

    int total_bits = 0;
    for (size_t i = 0; i < inputs.size(); i++)
        total_bits += opts.input_bits_limit;
    total_bits = std::min(total_bits, 12);
    uint64_t combos = 1ull << total_bits;

    struct Node
    {
        std::vector<BitVec> regs;
        int depth;
    };
    std::deque<Node> frontier;
    std::map<std::string, bool> seen;
    frontier.push_back({capture(), 0});
    seen[snapshot()] = true;

    while (!frontier.empty()) {
        Node node = std::move(frontier.front());
        frontier.pop_front();
        if (node.depth >= opts.max_depth)
            continue;
        for (uint64_t combo = 0; combo < combos; combo++) {
            for (size_t i = 0; i < regs.size(); i++)
                sim.setRegValue(regs[i], node.regs[i]);
            uint64_t bits = combo;
            for (const auto &in : inputs) {
                uint64_t v =
                    bits & ((1ull << opts.input_bits_limit) - 1);
                bits >>= opts.input_bits_limit;
                sim.setInput(in, v);
            }
            sim.step();
            std::string key = snapshot();
            if (!seen.count(key)) {
                if (seen.size() >= opts.max_states)
                    return seen.size();
                seen[key] = true;
                frontier.push_back({capture(), node.depth + 1});
            }
        }
    }
    return seen.size();
}

TEST(Bmc, RawWordHashingVisitsIdenticalStates)
{
    // Eval designs with assertions that always hold, so both
    // explorations run to their bound and report the full state set.
    struct Case
    {
        const char *name;
        ModulePtr mod;
        BmcOptions opts;
    };
    BmcOptions shallow;
    shallow.max_depth = 2;
    shallow.max_states = 3000;
    BmcOptions tiny;
    tiny.max_depth = 1;
    tiny.max_states = 3000;
    std::vector<Case> cases = {
        {"fifo", designs::buildFifoBaseline(), shallow},
        {"spill", designs::buildSpillRegBaseline(), shallow},
        {"tlb", designs::buildTlbBaseline(), tiny},
    };
    Assertion always{"true", cst(1, 1), cst(1, 1)};
    for (auto &c : cases) {
        BmcResult r = boundedModelCheck(c.mod, {always}, c.opts);
        uint64_t ref = stringSnapshotExplore(c.mod, c.opts);
        EXPECT_EQ(r.states_explored, ref) << c.name;
        EXPECT_FALSE(r.foundViolation()) << c.name;
    }
}

TEST(Bmc, WholeWordInputLimitHandsFirstInputTheCombo)
{
    // input_bits_limit >= 64: the first input takes every enumerated
    // bit and the shift past it leaves nothing for the next one (a
    // raw shift by 64 is undefined and, on x86, a no-op that would
    // hand `b` the same combo).
    auto m = std::make_shared<Module>();
    m->name = "two_in";
    auto a = m->input("a", 2);
    m->input("b", 8);
    m->reg("r", 2);
    m->update("r", cst(1, 1), a);
    Assertion b_zero{"b_zero", cst(1, 1), eq(ref("b", 8), cst(8, 0))};
    BmcOptions opts;
    opts.input_bits_limit = 64;
    BmcResult r = boundedModelCheck(m, {b_zero}, opts);
    EXPECT_FALSE(r.foundViolation()) << r.violated_assertion;
    EXPECT_EQ(r.status, BmcResult::Status::Proved) << r.statusStr();
    // a takes the combo's low bits: r reaches all four values.
    EXPECT_EQ(r.states_explored, 4u);
}

TEST(Bmc, Listing2AtWholeWordInputLimit)
{
    // The typed Listing-2 design under a 64-bit input limit: its
    // inputs are explored without an out-of-range shift.
    CompileOutput out = compileAnvil(designs::anvilListing2Source());
    ASSERT_TRUE(out.ok) << out.diags.render();
    Assertion always{"true", cst(1, 1), cst(1, 1)};
    BmcOptions opts;
    opts.input_bits_limit = 64;
    opts.max_depth = 2;
    opts.max_states = 500;
    BmcResult r =
        boundedModelCheck(out.module(out.top), {always}, opts);
    EXPECT_FALSE(r.foundViolation());
    EXPECT_GT(r.states_explored, 1u);
}

TEST(Bmc, WithSmallCounterBmcDoesFindIt)
{
    // Control experiment: shrink the counter to 4 bits and the same
    // violation becomes reachable.
    auto m = std::make_shared<Module>();
    m->name = "example_small";
    auto cnt = m->reg("cnt", 4);
    m->update("cnt", cst(1, 1), cnt + cst(4, 1));
    auto r = m->reg("r", 1);
    m->update("r", cst(1, 1), ~r);
    auto gdata = m->wire("gdata", binop(Op::Gt, cnt, cst(4, 8)));
    m->wire("sent", ref("r", 1) & gdata);
    auto prev = m->reg("prev", 1);
    m->update("prev", cst(1, 1), ref("sent", 1));
    Assertion a{"stable", cst(1, 1),
                eq(ref("sent", 1), ref("prev", 1))};
    BmcResult res = boundedModelCheck(m, {a});
    EXPECT_TRUE(res.foundViolation());
}

TEST(PackedStateTable, RowsKeepInsertionOrderAcrossGrowth)
{
    // Rows that differ only in one high bit of one word, enough of
    // them to grow the index many times: each distinct row gets the
    // next index, a repeat returns its first index, and find agrees.
    const size_t stride = 3;
    PackedStateTable t(stride);
    auto rowOf = [](uint64_t i) {
        return std::vector<uint64_t>{7, (i & 1) << 63, i << 40};
    };
    const uint64_t n = 5000;
    for (uint64_t i = 0; i < n; i++) {
        std::vector<uint64_t> r = rowOf(i);
        auto [idx, added] = t.insert(r.data());
        ASSERT_TRUE(added) << i;
        ASSERT_EQ(idx, i);
    }
    ASSERT_EQ(t.size(), n);
    for (uint64_t i = 0; i < n; i++) {
        std::vector<uint64_t> r = rowOf(i);
        ASSERT_EQ(t.find(r.data()), i);
        auto [idx, added] = t.insert(r.data());
        ASSERT_FALSE(added);
        ASSERT_EQ(idx, i);
        ASSERT_TRUE(std::equal(r.begin(), r.end(), t.row(i)));
    }
    std::vector<uint64_t> absent{7, 0, n << 40};
    EXPECT_EQ(t.find(absent.data()), PackedStateTable::npos);
    EXPECT_EQ(t.size(), n);

    // A design without registers packs to zero words: one state.
    PackedStateTable empty(0);
    EXPECT_EQ(empty.find(nullptr), PackedStateTable::npos);
    EXPECT_TRUE(empty.insert(nullptr).second);
    EXPECT_FALSE(empty.insert(nullptr).second);
    EXPECT_EQ(empty.find(nullptr), 0u);
    EXPECT_EQ(empty.size(), 1u);
}

} // namespace
