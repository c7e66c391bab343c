/**
 * @file
 * Compiled-netlist simulator tests: differential equivalence against
 * the reference interpreter (rtl::RefSim) on every evaluation design
 * — peeks, dprint logs, and toggle counts must be bit-identical —
 * plus targeted regressions for child-output alias peeks, lazy
 * (cycle-tolerant) evaluation, and netlist structure, the host
 * executor's node records checked one by one against the BitVec
 * operators on strict, lazy and appended nets and through a JIT unit,
 * the host's scheduling of a dense-only unit (an in-process stand-in,
 * so no compiler is needed), and renames, which share their driver's
 * net.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <utility>

#include "codegen/jit.h"
#include "designs/designs.h"
#include "harness.h"
#include "rtl/interp.h"
#include "rtl/ref_interp.h"

using namespace anvil;
using namespace anvil::rtl;

namespace {

/**
 * Drive both simulators with the same pseudo-random input stream and
 * assert that registers, toggle counts, and logs stay identical.
 */
void
expectEquivalent(const ModulePtr &mod, int cycles, unsigned seed)
{
    Sim fast(mod);
    RefSim ref(mod);

    auto inputs = fast.inputNames();
    ASSERT_EQ(inputs, ref.inputNames());
    auto regs = fast.regNames();
    ASSERT_EQ(regs, ref.regNames());
    ASSERT_EQ(fast.stateBits(), ref.stateBits());

    std::mt19937_64 rng(seed);
    for (int cyc = 0; cyc < cycles; cyc++) {
        for (const auto &in : inputs) {
            uint64_t v = rng();
            fast.setInput(in, v);
            ref.setInput(in, v);
        }
        for (const auto &r : regs) {
            BitVec a = fast.peek(r);
            BitVec b = ref.peek(r);
            ASSERT_EQ(a.width(), b.width()) << r << " @" << cyc;
            ASSERT_EQ(a.toHex(), b.toHex()) << r << " @" << cyc;
        }
        fast.step();
        ref.step();
        ASSERT_EQ(fast.totalToggles(), ref.totalToggles())
            << mod->name << " @" << cyc;
        ASSERT_EQ(fast.cycle(), ref.cycle());
    }
    EXPECT_EQ(fast.log(), ref.log()) << mod->name;
}

TEST(SimDiff, CommonCells)
{
    expectEquivalent(designs::buildFifoBaseline(), 300, 1);
    expectEquivalent(designs::buildSpillRegBaseline(), 300, 2);
    expectEquivalent(designs::buildStreamFifoBaseline(), 300, 3);
}

TEST(SimDiff, Mmu)
{
    expectEquivalent(designs::buildTlbBaseline(), 200, 4);
    expectEquivalent(designs::buildPtwBaseline(), 200, 5);
}

TEST(SimDiff, Axi)
{
    expectEquivalent(designs::buildAxiDemuxBaseline(), 150, 6);
    expectEquivalent(designs::buildAxiMuxBaseline(), 150, 7);
}

TEST(SimDiff, AesAndPipelines)
{
    expectEquivalent(designs::buildAesBaseline(), 60, 8);
    expectEquivalent(designs::buildPipelinedAluBaseline(), 200, 9);
    expectEquivalent(designs::buildSystolicBaseline(), 200, 10);
}

TEST(SimDiff, FigureDemos)
{
    expectEquivalent(designs::buildHazardDemoSystem(), 100, 11);
    expectEquivalent(designs::buildCacheDemoBaseline(), 100, 12);
}

TEST(SimDiff, CompiledAnvilDesigns)
{
    auto fifo = anvil::testing::compileDesign(designs::anvilFifoSource(),
                                       "fifo");
    ASSERT_NE(fifo, nullptr);
    expectEquivalent(fifo, 200, 13);
    auto tlb = anvil::testing::compileDesign(designs::anvilTlbSource(),
                                      "tlb");
    ASSERT_NE(tlb, nullptr);
    expectEquivalent(tlb, 200, 14);
}

TEST(SimDiff, EvalTopMatchesReference)
{
    auto mod = designs::buildFifoBaseline();
    Sim fast(mod);
    RefSim ref(mod);
    auto inputs = fast.inputNames();
    ASSERT_FALSE(inputs.empty());
    // A handful of ad-hoc top-scope expressions, evaluated repeatedly
    // as the state evolves (the BMC usage pattern).
    std::vector<ExprPtr> exprs;
    for (const auto &r : fast.regNames())
        exprs.push_back(unop(Op::RedOr, rtl::ref(r, 1)));
    std::mt19937_64 rng(42);
    for (int cyc = 0; cyc < 50; cyc++) {
        for (const auto &in : inputs) {
            uint64_t v = rng();
            fast.setInput(in, v);
            ref.setInput(in, v);
        }
        for (const auto &e : exprs)
            ASSERT_EQ(fast.evalTop(e).toHex(), ref.evalTop(e).toHex());
        fast.step();
        ref.step();
    }
}

TEST(SimDiff, SetRegValueInvalidatesLikeReference)
{
    auto mod = designs::buildFifoBaseline();
    Sim fast(mod);
    RefSim ref(mod);
    auto regs = fast.regNames();
    std::mt19937_64 rng(5);
    for (int i = 0; i < 30; i++) {
        const auto &r = regs[rng() % regs.size()];
        uint64_t v = rng();
        BitVec bv(fast.regValue(r).width(), v);
        fast.setRegValue(r, bv);
        ref.setRegValue(r, bv);
        for (const auto &q : regs)
            ASSERT_EQ(fast.peek(q).toHex(), ref.peek(q).toHex());
        fast.step();
        ref.step();
    }
}

// --- Alias and lazy-path regressions -------------------------------------

ModulePtr
makeAdderChild()
{
    auto child = std::make_shared<Module>();
    child->name = "adder";
    auto ca = child->input("a", 8);
    auto cb = child->input("b", 8);
    child->output("sum", 8);
    child->wire("sum", ca + cb);
    return child;
}

TEST(SimNetlist, PeekThroughChildOutputAlias)
{
    auto top = std::make_shared<Module>();
    top->name = "top";
    auto x = top->input("x", 8);
    Instance inst;
    inst.name = "u0";
    inst.module = makeAdderChild();
    inst.inputs["a"] = x;
    inst.inputs["b"] = cst(8, 7);
    inst.outputs["x_plus_7"] = "sum";
    top->instances.push_back(std::move(inst));

    Sim sim(top);
    sim.setInput("x", 5);
    // The alias itself must be peekable, resolving to the child wire.
    EXPECT_EQ(sim.peek("x_plus_7").toUint64(), 12u);
    EXPECT_EQ(sim.peek("x_plus_7").width(), 8);
    EXPECT_EQ(sim.peek("u0.sum").toUint64(), 12u);
    // And it stays live across pokes.
    sim.setInput("x", 9);
    EXPECT_EQ(sim.peek("x_plus_7").toUint64(), 16u);
}

TEST(SimNetlist, PeekThroughNestedAliasChain)
{
    // mid wraps adder and re-exports its output; top re-exports mid's.
    auto mid = std::make_shared<Module>();
    mid->name = "mid";
    auto ma = mid->input("a", 8);
    Instance inner;
    inner.name = "u";
    inner.module = makeAdderChild();
    inner.inputs["a"] = ma;
    inner.inputs["b"] = cst(8, 1);
    inner.outputs["inc"] = "sum";
    mid->instances.push_back(std::move(inner));
    mid->output("inc", 8);

    auto top = std::make_shared<Module>();
    top->name = "top";
    auto x = top->input("x", 8);
    Instance outer;
    outer.name = "m";
    outer.module = mid;
    outer.inputs["a"] = x;
    outer.outputs["y"] = "inc";
    top->instances.push_back(std::move(outer));

    Sim sim(top);
    RefSim ref(top);
    sim.setInput("x", 41);
    ref.setInput("x", 41);
    // y -> m.inc -> m.u.sum: a two-hop alias chain.
    EXPECT_EQ(sim.peek("y").toUint64(), 42u);
    EXPECT_EQ(ref.peek("y").toUint64(), 42u);
    EXPECT_EQ(sim.peek("m.inc").toUint64(), 42u);
    EXPECT_EQ(sim.peek("m.u.sum").toUint64(), 42u);
}

TEST(SimNetlist, MuxGuardedCycleIsTolerated)
{
    // A structural cycle hidden behind an untaken mux branch is legal
    // in the reference interpreter; the compiled core must route such
    // nodes through the lazy evaluator rather than reject the design.
    auto m = std::make_shared<Module>();
    m->name = "guarded";
    auto sel = m->input("sel", 1);
    m->wire("w", mux(sel, cst(8, 42), rtl::ref("w", 8)));

    Sim sim(m);
    RefSim ref(m);
    sim.setInput("sel", 1);
    ref.setInput("sel", 1);
    EXPECT_EQ(sim.peek("w").toUint64(), 42u);
    EXPECT_EQ(ref.peek("w").toUint64(), 42u);
    sim.step(3);
    ref.step(3);
    EXPECT_EQ(sim.totalToggles(), ref.totalToggles());

    // Taking the cyclic branch faults, exactly like the reference.
    sim.setInput("sel", 0);
    ref.setInput("sel", 0);
    EXPECT_THROW(sim.peek("w"), std::runtime_error);
    EXPECT_THROW(ref.peek("w"), std::runtime_error);
}

TEST(SimNetlist, PeekFaultsOnlyOnTheRequestedCone)
{
    // A broken wire elsewhere in the design must not poison peeks of
    // healthy signals — the reference interpreter evaluates only the
    // requested cone, and the compiled core must match.
    auto m = std::make_shared<Module>();
    m->name = "partial";
    auto x = m->input("x", 8);
    m->wire("good", x + cst(8, 1));
    m->wire("bad", rtl::ref("bad", 8) + cst(8, 1));   // self-loop

    Sim sim(m);
    RefSim ref(m);
    sim.setInput("x", 4);
    ref.setInput("x", 4);
    EXPECT_EQ(sim.peek("good").toUint64(), 5u);
    EXPECT_EQ(ref.peek("good").toUint64(), 5u);
    EXPECT_THROW(sim.peek("bad"), std::runtime_error);
    EXPECT_THROW(ref.peek("bad"), std::runtime_error);
    // The clock edge evaluates every wire and faults in both.
    EXPECT_THROW(sim.step(), std::runtime_error);
    EXPECT_THROW(ref.step(), std::runtime_error);

    // Same for an unresolved reference: only its own cone faults.
    auto m2 = std::make_shared<Module>();
    m2->name = "dangling";
    auto y = m2->input("y", 8);
    m2->wire("ok", y ^ cst(8, 0xff));
    m2->wire("broken", rtl::ref("no_such", 8));
    Sim sim2(m2);
    RefSim ref2(m2);
    sim2.setInput("y", 0x0f);
    ref2.setInput("y", 0x0f);
    EXPECT_EQ(sim2.peek("ok").toUint64(), 0xf0u);
    EXPECT_EQ(ref2.peek("ok").toUint64(), 0xf0u);
    EXPECT_THROW(sim2.peek("broken"), std::invalid_argument);
    EXPECT_THROW(ref2.peek("broken"), std::invalid_argument);
}

TEST(SimNetlist, LevelizedOrderCoversStrictNodes)
{
    auto mod = designs::buildTlbBaseline();
    Sim sim(mod);
    const Netlist &nl = sim.netlist();
    // Level boundaries partition the strict order monotonically.
    const auto &lb = nl.levelBegin();
    ASSERT_GE(lb.size(), 2u);
    EXPECT_EQ(lb.front(), 0);
    EXPECT_EQ(static_cast<size_t>(lb.back()), nl.order().size());
    for (size_t i = 1; i < lb.size(); i++)
        EXPECT_LE(lb[i - 1], lb[i]);
    // Every operand of a strict node is computed in an earlier slot
    // or is a source node.
    std::vector<int> slot(nl.nets().size(), -1);
    for (size_t i = 0; i < nl.order().size(); i++)
        slot[static_cast<size_t>(nl.order()[i])] =
            static_cast<int>(i);
    for (size_t i = 0; i < nl.order().size(); i++) {
        const Net &n = nl.net(nl.order()[i]);
        auto check = [&](NetId o) {
            if (o == kNoNet)
                return;
            int s = slot[static_cast<size_t>(o)];
            EXPECT_TRUE(s < static_cast<int>(i)) << "net order";
        };
        check(n.a);
        check(n.b);
        check(n.c);
        for (NetId o : n.cargs)
            check(o);
    }
    // The TLB is loop-free: nothing should need the lazy path.
    EXPECT_TRUE(nl.lazyRoots().empty());
}

// --- Host executor ---------------------------------------------------

/** One case of the executor fixture, its expression and its BitVec
 *  reference. */
struct ExecCase
{
    std::string name;
    ExprPtr expr;
    std::function<BitVec(const std::map<std::string, BitVec> &)> want;
};

/** Which nets carry the executor fixture's cases. */
enum class ExecNets
{
    Strict,     // wires over the inputs: strict nets
    Lazy,       // wires behind a mux-guarded self-loop per input
    Appended,   // no wires: each expression goes through Sim::evalTop
};

/** An expression node of an explicit width (the builders pick their
 *  own), so records that truncate or zero-extend get tested too. */
ExprPtr
sized(Expr::Kind kind, int width, std::vector<ExprPtr> args,
      Op op = Op::And, int lo = 0)
{
    auto e = std::make_shared<Expr>();
    e->kind = kind;
    e->width = width;
    e->args = std::move(args);
    e->op = op;
    e->lo = lo;
    return e;
}

/** Input values for one round: random, small (shift amounts and ROM
 *  addresses that land), a shift amount at a width boundary, all
 *  ones, or zero. */
BitVec
execInput(int width, int round, std::mt19937_64 &rng)
{
    static const uint64_t edges[] = {0,  1,   2,   62,  63,  64, 65,
                                     66, 127, 128, 129, 199, 200, 201};
    switch (round % 5) {
      case 0: {
        BitVec v(width);
        for (int k = 0; k < width; k++)
            v.setBit(k, rng() & 1);
        return v;
      }
      case 1:
        return BitVec(width, rng() % 210);
      case 2:
        return BitVec(width, edges[rng() % std::size(edges)]);
      case 3:
        return BitVec::ones(width);
      default:
        return BitVec(width);
    }
}

/**
 * Every Net::Kind and Op the executor lowers, over the inputs a<w>,
 * b<w> and c<w> of widths 1, 63 and 64 (the narrow lane) and 65, 128
 * and 200 (the wide lane), with node widths that truncate and
 * zero-extend, shift amounts at and past the width, slices below bit 0
 * and past bit 64, concats across bit 64 and out-of-range ROM
 * addresses, plus constant operands: a constant b (shift amounts at
 * and past the width among them), constant Mux arms and constant
 * Concat parts of every width, which a unit prints as literals where
 * they fit a word.  Each case's value must equal the BitVec operators'
 * (applyUnop, applyBinop, slice, concatHigh, resize) on the inputs.
 * The cases are strict wires, lazy wires that read each input through
 * l<p><w> = mux(1'b1, <p><w>, l<p><w>), or appended nets (ExecNets).
 */
struct ExecFixture
{
    std::shared_ptr<Module> mod = std::make_shared<Module>();
    std::vector<ExecCase> cases;
    std::vector<int> widths = {1, 63, 64, 65, 128, 200};
    ExecNets nets;

    explicit ExecFixture(ExecNets kind) : nets(kind)
    {
        mod->name = "exec";
        for (const char *p : {"a", "b", "c"})
            for (int w : widths) {
                std::string name = p + std::to_string(w);
                mod->input(name, w);
                if (nets == ExecNets::Lazy)
                    mod->wire("l" + name,
                              sized(Expr::Kind::Mux, w,
                                    {cst(1, 1), ref(name, w),
                                     ref("l" + name, w)}));
            }
        build();
    }

    /** A read of input <p><w> at `width` bits (0: its own), through
     *  its self-loop when the cases are lazy. */
    ExprPtr in(const char *p, int w, int width = 0) const
    {
        std::string name = p + std::to_string(w);
        return ref(nets == ExecNets::Lazy ? "l" + name : name,
                   width ? width : w);
    }
    static const BitVec &val(const std::map<std::string, BitVec> &v,
                             const char *p, int w)
    {
        return v.at(p + std::to_string(w));
    }
    void add(const std::string &name, ExprPtr e,
             std::function<BitVec(const std::map<std::string, BitVec> &)>
                 want)
    {
        if (nets != ExecNets::Appended)
            mod->wire(name, e);
        cases.push_back({name, std::move(e), std::move(want)});
    }

    void build()
    {
        const Op unops[] = {Op::Not, Op::RedOr, Op::RedAnd};
        const Op binops[] = {Op::And, Op::Or, Op::Xor, Op::Add,
                             Op::Sub, Op::Mul, Op::Eq, Op::Ne,
                             Op::Lt, Op::Le, Op::Gt, Op::Ge,
                             Op::Shl, Op::Shr};
        for (int wa : widths) {
            for (Op op : unops)
                add("u" + std::to_string(static_cast<int>(op)) + "_" +
                        std::to_string(wa),
                    unop(op, in("a", wa)), [=](const auto &v) {
                        return applyUnop(op, val(v, "a", wa));
                    });
            // Copy: a reference at another width resizes.
            for (int wn : widths)
                add("cp_" + std::to_string(wa) + "_" +
                        std::to_string(wn),
                    in("a", wa, wn),
                    [=](const auto &v) {
                        return val(v, "a", wa).resize(wn);
                    });
        }
        for (Op op : binops) {
            bool cmp = op >= Op::Eq && op <= Op::Ge;
            for (int wa : widths)
                for (int wb : widths)
                    for (int wn : widths) {
                        if (cmp && wn != 1)
                            continue;   // comparisons are one bit
                        add("bin" + std::to_string(static_cast<int>(op)) +
                                "_" + std::to_string(wa) + "_" +
                                std::to_string(wb) + "_" +
                                std::to_string(wn),
                            sized(Expr::Kind::Binop, wn,
                                  {in("a", wa), in("b", wb)}, op),
                            [=](const auto &v) {
                                return applyBinop(op, val(v, "a", wa),
                                                  val(v, "b", wb), wn);
                            });
                    }
        }
        for (int ws : {1, 65})
            for (int wb : widths)
                for (int wn : {1, 64, 65, 200})
                    add("mux_" + std::to_string(ws) + "_" +
                            std::to_string(wb) + "_" +
                            std::to_string(wn),
                        sized(Expr::Kind::Mux, wn,
                              {in("c", ws), in("a", wb), in("b", 63)}),
                        [=](const auto &v) {
                            return (val(v, "c", ws).any()
                                        ? val(v, "a", wb)
                                        : val(v, "b", 63))
                                .resize(wn);
                        });
        for (int wa : widths)
            for (int lo : {-130, -64, -63, -1, 0, 1, 63, 64, 65, 130, 199,
                           250})
                for (int wn : widths)
                    add("sl_" + std::to_string(wa) + "_" +
                            std::to_string(lo + 1000) + "_" +
                            std::to_string(wn),
                        slice(in("a", wa), lo, wn), [=](const auto &v) {
                            return val(v, "a", wa).slice(lo, wn);
                        });
        // Concats, hi part first, at their natural width and cut to
        // 64 and 65 bits.
        const std::vector<std::vector<std::pair<const char *, int>>> cats =
            {{{"a", 63}, {"b", 1}},
             {{"a", 1}, {"b", 64}},
             {{"a", 63}, {"b", 63}},
             {{"a", 1}, {"b", 1}, {"c", 63}},
             {{"a", 200}, {"b", 1}, {"c", 65}},
             {{"a", 64}, {"b", 64}, {"c", 1}}};
        for (size_t k = 0; k < cats.size(); k++) {
            std::vector<ExprPtr> parts;
            int sum = 0;
            for (const auto &[p, w] : cats[k]) {
                parts.push_back(in(p, w));
                sum += w;
            }
            for (int wn : {sum, 64, 65}) {
                std::vector<std::pair<const char *, int>> spec = cats[k];
                add("cat_" + std::to_string(k) + "_" +
                        std::to_string(wn),
                    sized(Expr::Kind::Concat, wn, parts),
                    [=](const auto &v) {
                        BitVec acc(0);
                        for (auto it = spec.rbegin(); it != spec.rend();
                             ++it)
                            acc = acc.width() == 0
                                ? val(v, it->first, it->second)
                                : acc.concatHigh(
                                      val(v, it->first, it->second));
                        return acc.resize(wn);
                    });
            }
        }
        // A ROM whose entries are wider and narrower than its nodes;
        // random addresses fall past its end.
        auto rom = std::make_shared<std::vector<BitVec>>();
        std::mt19937_64 rng(7);
        for (int k = 0; k < 5; k++)
            rom->push_back(BitVec(64, rng()).concatHigh(
                BitVec(k * 40 + 1, rng())));
        for (int wa : {1, 63, 65})
            for (int wn : widths)
                add("rom_" + std::to_string(wa) + "_" +
                        std::to_string(wn),
                    romLookup(rom, in("a", wa), wn), [=](const auto &v) {
                        uint64_t addr = val(v, "a", wa).toUint64();
                        return addr < rom->size()
                            ? (*rom)[addr].resize(wn)
                            : BitVec(wn);
                    });
        buildConstants(binops);
    }

    /** The constant-operand cases, named k<index>. */
    template <size_t N>
    void buildConstants(const Op (&binops)[N])
    {
        std::mt19937_64 rng(11);
        auto konst = [&](int w) {
            return execInput(w, static_cast<int>(rng() % 5), rng);
        };
        auto name = [&] { return "k" + std::to_string(cases.size()); };
        auto constB = [&](Op op, int wa, const BitVec &k, int wn) {
            add(name(), sized(Expr::Kind::Binop, wn, {in("a", wa), cst(k)}, op),
                [=](const auto &v) {
                    return applyBinop(op, val(v, "a", wa), k, wn);
                });
        };
        size_t nw = widths.size();
        for (Op op : binops) {
            bool cmp = op >= Op::Eq && op <= Op::Ge;
            for (size_t ia = 0; ia < nw; ia++)
                for (size_t in = 0; in < (cmp ? 1 : nw); in++)
                    constB(op, widths[ia], konst(widths[(ia + in) % nw]),
                           cmp ? 1 : widths[in]);
        }
        // Shift amounts one under, at and one past the node's width,
        // the one at the width also as a wide constant.
        for (Op op : {Op::Shl, Op::Shr})
            for (int wa : widths)
                for (int wn : widths)
                    for (int d : {-1, 0, 1})
                        constB(op, wa,
                               BitVec(d ? 8 : 200,
                                      static_cast<uint64_t>(wn + d)),
                               wn);
        for (int ws : {1, 65})
            for (int wk : widths)
                for (int wn : {1, 64, 65, 200}) {
                    BitVec k = konst(wk);
                    add(name(),
                        sized(Expr::Kind::Mux, wn,
                              {in("c", ws), in("a", wk), cst(k)}),
                        [=](const auto &v) {
                            return (val(v, "c", ws).any() ? val(v, "a", wk)
                                                          : k)
                                .resize(wn);
                        });
                    add(name(),
                        sized(Expr::Kind::Mux, wn,
                              {in("c", ws), cst(k), in("b", 63)}),
                        [=](const auto &v) {
                            return (val(v, "c", ws).any() ? k
                                                          : val(v, "b", 63))
                                .resize(wn);
                        });
                }
        // Concats, hi part first: {k, a63} and {a1, k, b64}.
        for (int wk : widths) {
            BitVec k = konst(wk);
            for (int wn : {wk + 63, 64, 65})
                add(name(),
                    sized(Expr::Kind::Concat, wn, {cst(k), in("a", 63)}),
                    [=](const auto &v) {
                        return val(v, "a", 63).concatHigh(k).resize(wn);
                    });
            for (int wn : {wk + 65, 64, 65})
                add(name(),
                    sized(Expr::Kind::Concat, wn,
                          {in("a", 1), cst(k), in("b", 64)}),
                    [=](const auto &v) {
                        return val(v, "b", 64)
                            .concatHigh(k)
                            .concatHigh(val(v, "a", 1))
                            .resize(wn);
                    });
        }
    }
};

/** Whether the JIT can build a unit here: a probe design compiles. */
bool
jitAvailable()
{
    static const bool have = [] {
        auto m = std::make_shared<Module>();
        m->name = "exec_jit_probe";
        m->wire("y", m->input("a", 8) + cst(8, 1));
        Sim probe(m);
        codegen::JitOptions jo;
        jo.opt_level = 1;
        return codegen::jitCompileKernel(probe.netlist(), jo).kernel !=
            nullptr;
    }();
    return have;
}

/** Check every case of the fixture on `nets` over 40 rounds; with
 *  `compiled`, through a JIT unit of the netlist attached first. */
void
expectExecutorMatches(SweepMode mode, ExecNets nets = ExecNets::Strict,
                      bool compiled = false)
{
    ExecFixture fx(nets);
    Sim sim(fx.mod);
    sim.setSweepMode(mode);
    if (compiled) {
        codegen::JitOptions jo;
        jo.opt_level = 1;
        codegen::JitResult jr = codegen::jitCompileKernel(sim.netlist(), jo);
        ASSERT_NE(jr.kernel, nullptr) << jr.error;
        ASSERT_TRUE(sim.attachKernel(codegen::kernelRef(jr.kernel)));
        std::printf("[ JIT      ] %zu cases, %zu strict nodes: %llu source "
                    "bytes, %.0f ms\n",
                    fx.cases.size(), sim.netlist().order().size(),
                    static_cast<unsigned long long>(jr.source_bytes),
                    jr.compile_ns / 1e6);
    }
    // Every strict case is a strict net on the executor, or the input
    // it renames; every lazy case is lazy; every appended case is an
    // appended net or an input.  Wide cases take the wide lane.
    const Netlist &nl = sim.netlist();
    size_t built = nl.layout()->net_count;
    size_t wide = 0;
    for (const ExecCase &c : fx.cases) {
        NetId id = nets == ExecNets::Appended ? sim.topNet(c.expr)
                                              : nl.signals().at(c.name).net;
        const Net &n = nl.net(id);
        bool input = n.kind == Net::Kind::Input;
        switch (nets) {
          case ExecNets::Strict: ASSERT_FALSE(n.lazy) << c.name; break;
          case ExecNets::Lazy: ASSERT_TRUE(n.lazy) << c.name; break;
          case ExecNets::Appended:
            ASSERT_TRUE(input || (n.lazy && static_cast<size_t>(id) >= built))
                << c.name;
            break;
        }
        wide += !input && !n.fast;
    }
    EXPECT_GT(wide, fx.cases.size() / 3);

    std::mt19937_64 rng(2026);
    std::map<std::string, BitVec> vals;
    for (int round = 0; round < 40; round++) {
        for (const char *p : {"a", "b", "c"})
            for (int w : fx.widths) {
                std::string name = p + std::to_string(w);
                // Odd rounds leave some inputs alone, so sparse frames
                // drain partial levels.
                if (round % 2 && rng() % 3 == 0 && vals.count(name))
                    continue;
                vals[name] =
                    execInput(w, round + static_cast<int>(rng() % 5), rng);
                sim.setInput(name, vals[name]);
            }
        for (const ExecCase &c : fx.cases) {
            BitVec want = c.want(vals);
            BitVec got = nets == ExecNets::Appended ? sim.evalTop(c.expr)
                                                    : sim.peek(c.name);
            ASSERT_EQ(got.toHex(), want.resize(got.width()).toHex())
                << c.name << " round " << round;
            ASSERT_EQ(got, want) << c.name << " round " << round;
        }
        sim.step();
    }
    if (compiled) {
        EXPECT_EQ(sim.sweepStats().kernel_dense_frames, 40u);
    }
}

TEST(HostExecutor, DenseBodiesMatchBitVecOperators)
{
    expectExecutorMatches(SweepMode::Full);
}

TEST(HostExecutor, SparseDrainsMatchBitVecOperators)
{
    expectExecutorMatches(SweepMode::Dirty);
}

TEST(HostExecutor, LazyNetsMatchBitVecOperators)
{
    expectExecutorMatches(SweepMode::Dirty, ExecNets::Lazy);
}

TEST(HostExecutor, AppendedNetsMatchBitVecOperators)
{
    expectExecutorMatches(SweepMode::Dirty, ExecNets::Appended);
}

/* The unit's dense bodies, forced every frame, against the same
 * references: narrow constants are literals there. */
TEST(HostExecutor, CompiledUnitMatchesBitVecOperators)
{
    if (!jitAvailable())
        GTEST_SKIP() << "no system compiler available";
    expectExecutorMatches(SweepMode::Full, ExecNets::Strict, true);
}

// --- A dense-only unit without a compiler ----------------------------

/**
 * An in-process stand-in for a JIT unit: per-level dense bodies, as
 * the emitter writes them (every node of the level, in slot order,
 * appending the changed ones), that count their calls and evaluate
 * through the layout's node records.  AnvilLevelFn carries no level,
 * so each level gets its own instantiation.
 */
struct FakeUnit
{
    static constexpr size_t kMaxLevels = 128;
    static inline const KernelLayout *layout = nullptr;
    static inline std::vector<uint32_t> first;   // per level: 1st record
    static inline std::vector<uint64_t> calls;   // per level: body calls
    static inline std::vector<uint64_t> tmp;

    template <size_t L>
    static uint64_t body(AnvilFrame *f)
    {
        calls[L]++;
        const KernelLayout &lay = *layout;
        for (uint32_t k = 0; k < lay.level_size[L]; k++) {
            const KernelLayout::Node &n = lay.nodes[first[L] + k];
            if (execNode(lay, n, f->s, tmp.data()))
                f->out[f->nout++] = n.net;
        }
        return lay.level_size[L];
    }
    template <size_t... L>
    static constexpr std::array<AnvilLevelFn, sizeof...(L)>
    bodies(std::index_sequence<L...>)
    {
        return {body<L>...};
    }

    std::vector<AnvilLevelFn> dense;
    AnvilKernel abi{};

    /** The unit for `nl`; one unit is live at a time. */
    explicit FakeUnit(const Netlist &nl)
    {
        static const auto all = bodies(std::make_index_sequence<kMaxLevels>{});
        layout = nl.layout().get();
        size_t levels = layout->levels();
        EXPECT_LE(levels, kMaxLevels);
        first.assign(levels, 0);
        for (size_t l = 1; l < levels; l++)
            first[l] = first[l - 1] + layout->level_size[l - 1];
        calls.assign(levels, 0);
        tmp.assign(layout->max_words, 0);
        for (size_t l = 0; l < levels; l++)
            dense.push_back(layout->level_size[l] ? all[l] : nullptr);
        abi = {ANVIL_KERNEL_ABI_VERSION,
               static_cast<uint32_t>(layout->net_count), designHash(nl),
               layout->state_words, static_cast<uint32_t>(levels),
               levels ? dense.data() : nullptr};
    }
    KernelRef ref() const { return {&abi, nullptr}; }
};

/** The level holding `net`'s record. */
size_t
levelOf(const Netlist &nl, NetId net)
{
    const auto &order = nl.order();
    size_t i = static_cast<size_t>(
        std::find(order.begin(), order.end(), net) - order.begin());
    size_t l = 0;
    while (static_cast<size_t>(nl.levelBegin()[l + 1]) <= i)
        l++;
    return l;
}

/** 16 inputs x<k>, wires w<k> = x<k> ^ k and v<k> = w<k> + 3 (every
 *  level 16 nodes wide), and registers r<k> <= v<k>. */
ModulePtr
twoLevelModule()
{
    auto m = std::make_shared<Module>();
    m->name = "two_level";
    for (int k = 0; k < 16; k++) {
        std::string i = std::to_string(k);
        auto x = m->input("x" + i, 8);
        auto w = m->wire("w" + i, x ^ cst(8, static_cast<uint64_t>(k)));
        auto v = m->wire("v" + i, w + cst(8, 3));
        m->reg("r" + i, 8);
        m->update("r" + i, cst(1, 1), v);
    }
    return m;
}

/** Step a unit-attached Sim, an executor-only Sim and RefSim in
 *  lockstep under `drive`, comparing changed lists, registers,
 *  toggles and logs every cycle. */
void
expectUnitMatches(
    const ModulePtr &mod, int cycles,
    const std::function<uint64_t(int, const std::string &)> &drive)
{
    Sim unit(mod), exec(mod);
    RefSim ref(mod);
    FakeUnit fake(unit.netlist());
    ASSERT_TRUE(unit.attachKernel(fake.ref()));
    auto inputs = unit.inputNames();
    auto regs = unit.regNames();
    for (int cyc = 0; cyc < cycles; cyc++) {
        for (const std::string &in : inputs) {
            uint64_t v = drive(cyc, in);
            unit.setInput(in, v);
            exec.setInput(in, v);
            ref.setInput(in, v);
        }
        ASSERT_EQ(unit.changedNets(), exec.changedNets()) << "@" << cyc;
        for (const std::string &r : regs) {
            ASSERT_EQ(unit.peek(r), exec.peek(r)) << r << " @" << cyc;
            ASSERT_EQ(unit.peek(r).toHex(), ref.peek(r).toHex())
                << r << " @" << cyc;
        }
        unit.step();
        exec.step();
        ref.step();
        ASSERT_EQ(unit.totalToggles(), exec.totalToggles()) << "@" << cyc;
        ASSERT_EQ(unit.totalToggles(), ref.totalToggles()) << "@" << cyc;
    }
    EXPECT_EQ(unit.log(), ref.log());
    EXPECT_GT(unit.sweepStats().kernel_frames, 0u);
}

TEST(DenseOnlyUnit, HostDrainsBelowTheThresholdAndEscalatesAtIt)
{
    ModulePtr mod = twoLevelModule();
    Sim sim(mod);
    const Netlist &nl = sim.netlist();
    FakeUnit fake(nl);
    ASSERT_TRUE(sim.attachKernel(fake.ref()));
    size_t lw = levelOf(nl, nl.signals().at("w0").net);
    size_t lv = levelOf(nl, nl.signals().at("v0").net);
    ASSERT_LT(lw, lv);
    ASSERT_EQ(nl.layout()->level_size[lw], 16u);
    ASSERT_EQ(nl.layout()->level_size[lv], 16u);
    // The first frame is dense and moves most nodes, so the host's
    // hysteresis runs the next one dense too; that one moves none and
    // hands the frames after it back to the sparse walk.
    sim.step(2);
    EXPECT_EQ(FakeUnit::calls[lw], 2u);
    EXPECT_EQ(sim.sweepStats().kernel_dense_frames, 2u);

    // Three of 16 queued: 3 * kEscalateDiv < 16, so the host drains
    // every level through its records, and each drained change
    // queues its consumers, down to the v level.
    std::vector<uint64_t> calls = FakeUnit::calls;
    std::vector<uint64_t> evals = sim.kernelLevelEvals();
    for (int k = 0; k < 3; k++)
        sim.setInput("x" + std::to_string(k), 100 + k);
    const std::vector<NetId> &changed = sim.changedNets();
    EXPECT_EQ(FakeUnit::calls, calls);
    EXPECT_EQ(sim.kernelLevelEvals()[lw], evals[lw] + 3);
    EXPECT_EQ(sim.kernelLevelEvals()[lv], evals[lv] + 3);
    for (const char *n : {"w0", "w1", "w2", "v0", "v1", "v2"})
        EXPECT_NE(std::find(changed.begin(), changed.end(),
                            nl.signals().at(n).net),
                  changed.end())
            << n;
    sim.step();
    EXPECT_EQ(sim.peek("r2").toUint64(), (102u ^ 2u) + 3u);

    // Four of 16: 4 * kEscalateDiv >= 16, so every level runs the
    // unit's body once, and the host queues the consumers of what
    // each body changed for the next level.
    calls = FakeUnit::calls;
    evals = sim.kernelLevelEvals();
    for (int k = 4; k < 8; k++)
        sim.setInput("x" + std::to_string(k), 200 + k);
    sim.changedNets();
    EXPECT_EQ(FakeUnit::calls[lw], calls[lw] + 1);
    EXPECT_EQ(FakeUnit::calls[lv], calls[lv] + 1);
    EXPECT_EQ(sim.kernelLevelEvals()[lw], evals[lw] + 16);
    EXPECT_EQ(sim.kernelLevelEvals()[lv], evals[lv] + 16);
    sim.step();
    for (unsigned k = 4; k < 8; k++)
        EXPECT_EQ(sim.peek("r" + std::to_string(k)).toUint64(),
                  (((200u + k) ^ k) + 3u) & 0xff)
            << k;
    EXPECT_EQ(sim.sweepStats().kernel_dense_frames, 2u);
}

TEST(DenseOnlyUnit, MatchesTheExecutorAndRefSim)
{
    // Every level of the two-level module, from a single poke (drains)
    // to all 16 (escalations and dense frames).
    std::mt19937_64 rng(23);
    std::vector<int> hot(300);
    for (int &h : hot)
        h = static_cast<int>(rng() % 17);
    expectUnitMatches(twoLevelModule(), 300,
                      [&](int cyc, const std::string &in) {
                          int k = std::stoi(in.substr(1));
                          return k < hot[static_cast<size_t>(cyc)]
                              ? rng()
                              : static_cast<uint64_t>(k);
                      });
    // Designs with wide, ROM, concat and mux records.
    for (const ModulePtr &mod :
         {designs::buildTlbBaseline(), designs::buildAxiDemuxBaseline(),
          designs::buildAesBaseline()}) {
        std::mt19937_64 r(7);
        expectUnitMatches(mod, 60, [&](int, const std::string &) {
            return r() % 4 ? r() : uint64_t(0);
        });
    }
}

// --- Renames -----------------------------------------------------------

/**
 * The net table holds values only, numbered in evaluation order: every
 * net is read (an operand, a signal's net, or an update or print
 * operand), sources and constants come first, then order() as one id
 * range, then the lazy nets; regs() names the register signals' nets.
 */
void
expectNetTable(const Netlist &nl, const std::string &name)
{
    const auto &nets = nl.nets();
    std::vector<uint8_t> read(nets.size(), 0);
    auto mark = [&](NetId o) {
        if (o != kNoNet)
            read[static_cast<size_t>(o)] = 1;
    };
    for (const Net &n : nets)
        Netlist::forEachOperand(n, mark);
    for (const auto &[s, sig] : nl.signals())
        mark(sig.net);
    for (const NetUpdate &u : nl.updates()) {
        mark(u.enable);
        mark(u.value);
    }
    for (const NetPrint &p : nl.prints()) {
        mark(p.enable);
        mark(p.value);
    }
    // regs(), listed before the renumbering, follows it: register i
    // is the i-th register signal's net.
    size_t ri = 0;
    for (const auto &[s, sig] : nl.signals()) {
        if (sig.kind == NetSignal::Kind::Reg) {
            ASSERT_EQ(nl.regs().at(ri++), sig.net) << name << " " << s;
        }
    }
    const auto &order = nl.order();
    size_t first = 0;
    while (first < nets.size() && !nets[first].lazy &&
           !nets[first].computes())
        first++;
    for (size_t i = 0; i < nets.size(); i++) {
        const Net &n = nets[i];
        ASSERT_TRUE(read[i]) << name << " n" << i << " is read by nothing";
        if (i < first)
            continue;
        if (i < first + order.size()) {
            ASSERT_EQ(order[i - first], static_cast<NetId>(i))
                << name << ": order() is not the ids after the sources";
            ASSERT_TRUE(!n.lazy && n.computes()) << name << " n" << i;
        } else {
            ASSERT_TRUE(n.lazy) << name << " n" << i
                                << " is neither in order() nor lazy";
        }
    }
}

/**
 * Every kind of rename in one module: a chain w3 = w2 = w1 = a & b,
 * two wires over one expression (p, q), wires renaming an input, a
 * register, a constant, a 100-bit input and a 100-bit net, and a named
 * wire on a mux-guarded combinational cycle with a rename of its own.
 * An update and a print read renames directly.
 */
ModulePtr
renameModule()
{
    auto m = std::make_shared<Module>();
    m->name = "renames";
    auto a = m->input("a", 8);
    auto b = m->input("b", 8);
    auto sel = m->input("sel", 1);
    auto d = m->input("d", 100);
    auto r = m->reg("r", 8, 3);
    m->reg("acc", 100);
    m->reg("hold", 8);
    auto w1 = m->wire("w1", a & b);
    auto w2 = m->wire("w2", w1);
    auto w3 = m->wire("w3", w2);
    ExprPtr x = a ^ r;
    auto p = m->wire("p", x);
    auto q = m->wire("q", x);
    auto ren_a = m->wire("ren_a", a);
    auto ren_r = m->wire("ren_r", r);
    auto ren_k = m->wire("ren_k", cst(8, 0x5a));
    auto ren_d = m->wire("ren_d", d);
    auto wide = m->wire("wide", d + ren_d);
    auto ren_wide = m->wire("ren_wide", wide);
    auto loop = m->wire("loop", mux(sel, cst(8, 42), ref("loop", 8)));
    m->wire("ren_loop", loop);
    m->update("r", cst(1, 1), w3 + q + ren_r + ren_k + loop);
    m->update("acc", ne(p, ren_a), ren_wide ^ concat({w2, ren_d}));
    m->update("hold", ren_k, w3);
    m->print(slice(p, 0, 1), "p odd", q);
    return m;
}

TEST(Renames, CollapseIntoTheirDrivers)
{
    ModulePtr mod = renameModule();
    Netlist nl(*mod);
    const auto &sig = nl.signals();
    auto netOf = [&](const char *name) { return sig.at(name).net; };
    // Chains and shared expressions land on one strict net, which
    // takes the first name; renames of sources and constants become
    // the source or the constant.
    EXPECT_EQ(netOf("w2"), netOf("w1"));
    EXPECT_EQ(netOf("w3"), netOf("w1"));
    EXPECT_EQ(nl.net(netOf("w1")).kind, Net::Kind::Binop);
    EXPECT_EQ(nl.nameOf(netOf("w1")), "w1");
    EXPECT_EQ(netOf("q"), netOf("p"));
    EXPECT_EQ(nl.nameOf(netOf("p")), "p");
    EXPECT_EQ(netOf("ren_a"), netOf("a"));
    EXPECT_EQ(netOf("ren_r"), netOf("r"));
    EXPECT_EQ(netOf("ren_d"), netOf("d"));
    EXPECT_EQ(nl.nameOf(netOf("ren_r")), "r");
    EXPECT_EQ(nl.net(netOf("ren_k")).kind, Net::Kind::Const);
    EXPECT_EQ(netOf("ren_wide"), netOf("wide"));
    EXPECT_EQ(nl.net(netOf("wide")).width, 100);
    EXPECT_FALSE(nl.net(netOf("wide")).fast);
    // The wire on the cycle and its rename stay lazy Copies, so the
    // lazy walk guards them by name.
    for (const char *name : {"loop", "ren_loop"}) {
        const Net &n = nl.net(netOf(name));
        EXPECT_EQ(n.kind, Net::Kind::Copy) << name;
        EXPECT_TRUE(n.lazy) << name;
        EXPECT_EQ(nl.nameOf(netOf(name)), name);
    }
    // A collapsed Copy has no id: no net anywhere is a strict rename,
    // and no strict node reads a lazy net.
    for (size_t i = 0; i < nl.nets().size(); i++) {
        const Net &n = nl.nets()[i];
        EXPECT_FALSE(!n.lazy && n.kind == Net::Kind::Copy &&
                     nl.net(n.a).width == n.width)
            << "n" << i;
        if (!n.lazy)
            Netlist::forEachOperand(n, [&](NetId o) {
                EXPECT_FALSE(nl.net(o).lazy) << "n" << i << " reads n" << o;
            });
    }
    expectNetTable(nl, "renames");
    // Initial values move with their nets.
    EXPECT_EQ(nl.initValues()[static_cast<size_t>(netOf("r"))].toUint64(),
              3u);
    EXPECT_EQ(nl.initValues()[static_cast<size_t>(netOf("ren_k"))]
                  .toUint64(),
              0x5au);
    // Updates and prints read the drivers too, so the edge refreshes
    // only the cycle's lazy nets: its two wires and r's next value.
    EXPECT_EQ(nl.lazyRoots().size(), 3u);
    EXPECT_EQ(nl.updates().back().enable, netOf("ren_k"));
    EXPECT_EQ(nl.updates().back().value, netOf("w1"));
    EXPECT_EQ(nl.prints().back().value, netOf("p"));
    // The expression cache too: an ad-hoc read of hold's value
    // expression (the Ref w3) resolves to w1's net.
    Sim sim(mod);
    EXPECT_EQ(sim.topNet(mod->updates.back().value), netOf("w1"));
    // Toggle rows: one per net, counting each name it carries.
    const KernelLayout &L = *nl.layout();
    auto namesOn = [&](const char *name) {
        int32_t row = L.wire_of[static_cast<size_t>(netOf(name))];
        return row < 0 ? 0u : L.wires[static_cast<size_t>(row)].names;
    };
    EXPECT_EQ(namesOn("w1"), 3u);
    EXPECT_EQ(namesOn("p"), 2u);
    EXPECT_EQ(namesOn("a"), 1u);
    EXPECT_EQ(namesOn("wide"), 2u);
    EXPECT_EQ(namesOn("loop"), 1u);
}

/** Step an executor Sim, a fake-unit Sim and RefSim in lockstep on
 *  the rename module: every name's peek, the changed lists, the
 *  registers, the toggles and the logs must agree; then the cycle is
 *  taken and all three fault with one message. */
TEST(Renames, MatchTheExecutorTheUnitAndRefSim)
{
    ModulePtr mod = renameModule();
    Sim exec(mod), unit(mod);
    RefSim ref(mod);
    FakeUnit fake(unit.netlist());
    ASSERT_TRUE(unit.attachKernel(fake.ref()));
    std::vector<std::string> names;
    for (const auto &[name, s] : exec.netlist().signals())
        names.push_back(name);
    std::mt19937_64 rng(31);
    for (int cyc = 0; cyc < 200; cyc++) {
        // Hold some inputs, so sparse frames drain partial levels.
        for (const char *in : {"a", "b"})
            if (rng() % 3) {
                uint64_t v = rng() % 5 ? rng() : 0;
                exec.setInput(in, v);
                unit.setInput(in, v);
                ref.setInput(in, v);
            }
        if (rng() % 2) {
            BitVec d(100, rng());
            d = d.concatHigh(BitVec(36, rng())).resize(100);
            exec.setInput("d", d);
            unit.setInput("d", d);
            ref.setInput("d", d);
        }
        for (Sim *s : {&exec, &unit})
            s->setInput("sel", 1);
        ref.setInput("sel", 1);
        ASSERT_EQ(unit.changedNets(), exec.changedNets()) << "@" << cyc;
        for (const std::string &n : names) {
            BitVec want = ref.peek(n);
            ASSERT_EQ(exec.peek(n), want) << n << " @" << cyc;
            ASSERT_EQ(unit.peek(n), want) << n << " @" << cyc;
        }
        exec.step();
        unit.step();
        ref.step();
        ASSERT_EQ(exec.totalToggles(), ref.totalToggles()) << "@" << cyc;
        ASSERT_EQ(unit.totalToggles(), ref.totalToggles()) << "@" << cyc;
        for (const std::string &r : ref.regNames()) {
            ASSERT_EQ(exec.regValue(r), ref.regValue(r)) << r;
            ASSERT_EQ(unit.regValue(r), ref.regValue(r)) << r;
        }
    }
    EXPECT_FALSE(ref.log().empty());
    EXPECT_EQ(exec.log(), ref.log());
    EXPECT_EQ(unit.log(), ref.log());
    EXPECT_GT(unit.sweepStats().kernel_frames, 0u);

    // Taking the cyclic branch faults in the lazy walk, as in RefSim.
    auto fault = [](const std::function<void()> &f) {
        try {
            f();
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string("no fault");
    };
    exec.setInput("sel", 0);
    unit.setInput("sel", 0);
    ref.setInput("sel", 0);
    for (const char *n : {"loop", "ren_loop"}) {
        std::string want = fault([&] { ref.peek(n); });
        EXPECT_EQ(want, "combinational loop through loop") << n;
        EXPECT_EQ(fault([&] { exec.peek(n); }), want) << n;
        EXPECT_EQ(fault([&] { unit.peek(n); }), want) << n;
    }
    std::string want = fault([&] { ref.step(); });
    EXPECT_EQ(fault([&] { exec.step(); }), want);
    EXPECT_EQ(fault([&] { unit.step(); }), want);
}

TEST(Renames, NoDesignKeepsARenameInTheSweep)
{
    std::vector<std::pair<std::string, ModulePtr>> mods = {
        {"mmu_tlb", designs::buildTlbBaseline()},
        {"mmu_ptw", designs::buildPtwBaseline()},
        {"axi_demux", designs::buildAxiDemuxBaseline()},
        {"axi_mux", designs::buildAxiMuxBaseline()},
        {"aes", designs::buildAesBaseline()},
        {"axi_xbar_4x4", designs::buildAxiXbarBaseline(4, 4)},
        {"axi_xbar_8x8", designs::buildAxiXbarBaseline(8, 8)},
        {"tlb_4w64s", designs::buildSetAssocTlbBaseline(4, 64)},
    };
    const std::pair<const char *, std::string (*)()> sources[] = {
        {"fifo", designs::anvilFifoSource},
        {"spill_reg", designs::anvilSpillRegSource},
        {"stream_fifo", designs::anvilStreamFifoSource},
        {"tlb", designs::anvilTlbSource},
        {"ptw", designs::anvilPtwSource},
        {"aes", designs::anvilAesSource},
        {"axi_demux", designs::anvilAxiDemuxSource},
        {"axi_mux", designs::anvilAxiMuxSource},
        {"alu", designs::anvilPipelinedAluSource},
        {"systolic", designs::anvilSystolicSource},
        {"top_unsafe", designs::anvilTopUnsafeSource},
        {"top_safe", designs::anvilTopSafeSource},
        {"encrypt", designs::anvilEncryptSource},
        {"listing1", designs::anvilListing1Source},
        {"listing2", designs::anvilListing2Source},
    };
    for (const auto &[name, text] : sources) {
        // top_unsafe fails the type check on purpose; it still
        // elaborates.
        CompileOutput out = compileAnvil(text());
        mods.emplace_back(name, out.module(out.top));
    }
    for (const auto &[name, mod] : mods) {
        ASSERT_NE(mod, nullptr) << name;
        Netlist nl(*mod);
        for (NetId id : nl.order()) {
            const Net &n = nl.net(id);
            ASSERT_FALSE(n.kind == Net::Kind::Copy &&
                         nl.net(n.a).width == n.width)
                << name << " n" << id << " " << nl.nameOf(id);
        }
        expectNetTable(nl, name);
    }
}

} // namespace
