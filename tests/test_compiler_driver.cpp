/**
 * @file
 * Compiler-driver tests: spawn ordering and cycle detection,
 * hierarchy generation, diagnostics rendering, compile options, and
 * whole-program simulation of spawned hierarchies.
 */

#include <gtest/gtest.h>

#include "anvil/compiler.h"
#include "rtl/interp.h"

using namespace anvil;

namespace {

TEST(Driver, SpawnCycleRejected)
{
    CompileOutput out = compileAnvil(R"(
proc a() { spawn b(); loop { cycle 1 } }
proc b() { spawn a(); loop { cycle 1 } }
)");
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.diags.render().find("recursive spawn"),
              std::string::npos);
}

TEST(Driver, SpawnOfUnknownProcessRejected)
{
    CompileOutput out = compileAnvil(R"(
proc a() { spawn ghost(); loop { cycle 1 } }
)");
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.diags.render().find("unknown process"),
              std::string::npos);
}

TEST(Driver, SpawnArityChecked)
{
    CompileOutput out = compileAnvil(R"(
chan c { left a : (logic@#1) }
proc child(ep : left c) { loop { cycle 1 } }
proc top() { spawn child(); loop { cycle 1 } }
)");
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.diags.render().find("arity"), std::string::npos);
}

TEST(Driver, CheckOnlySkipsCodegen)
{
    CompileOutput out = compileAnvil(R"(
proc p() { reg r : logic[8]; loop { set r := *r + 1 >> cycle 1 } }
)", {.top = "", .codegen = false});
    EXPECT_TRUE(out.ok);
    EXPECT_TRUE(out.modules.empty());
    EXPECT_TRUE(out.systemverilog.empty());
}

TEST(Driver, UnknownTopRejected)
{
    const char *src = R"(
proc p() { reg r : logic[8]; loop { set r := *r + 1 >> cycle 1 } }
)";
    for (bool codegen : {true, false}) {
        CompileOutput out =
            compileAnvil(src, {.top = "nosuch", .codegen = codegen});
        EXPECT_FALSE(out.ok) << "codegen=" << codegen;
        EXPECT_NE(out.diags.render().find("unknown top process 'nosuch'"),
                  std::string::npos);
        EXPECT_TRUE(out.systemverilog.empty());
    }
    EXPECT_TRUE(compileAnvil(src, {.top = "p"}).ok);
}

TEST(Driver, DiagnosticsCarrySourceExcerpts)
{
    CompileOutput out = compileAnvil(R"(
chan c { left d : (logic[8]@#2) }
proc p(ep : right c) {
    reg r : logic[8];
    loop { send ep.d (*r) >> set r := *r + 1 >> cycle 2 }
}
)");
    ASSERT_FALSE(out.ok);
    std::string rendered = out.diags.render();
    // The renderer includes the offending line and a caret marker.
    EXPECT_NE(rendered.find("set r := *r + 1"), std::string::npos);
    EXPECT_NE(rendered.find("^^^"), std::string::npos);
    EXPECT_NE(rendered.find("input.anvil:"), std::string::npos);
}

TEST(Driver, ThreeLevelHierarchySimulates)
{
    // grandchild streams numbers; child doubles them; top accumulates.
    CompileOutput out = compileAnvil(R"(
chan num_ch { right n : (logic[16]@#1) }

proc source(ep : left num_ch) {
    reg k : logic[16];
    loop {
        send ep.n (*k) >>
        set k := *k + 1 >>
        cycle 1
    }
}

proc doubler(up : left num_ch, down : right num_ch) {
    reg v : logic[16];
    loop {
        let x = recv down.n >>
        set v := x + x >>
        send up.n (*v) >>
        cycle 1
    }
}

proc top() {
    reg total : logic[16];
    chan sl -- sr : num_ch;
    chan dl -- dr : num_ch;
    spawn source(dl);
    spawn doubler(sl, dr);
    loop {
        let d = recv sr.n >>
        set total := *total + d >>
        cycle 1
    }
}
)", {.top = "top"});
    ASSERT_TRUE(out.ok) << out.diags.render();

    rtl::Sim sim(out.module("top"));
    sim.step(200);
    uint64_t total = sim.peek("total").toUint64();
    // total accumulates 2 * (0 + 1 + ... + k); just require progress
    // consistent with doubling.
    EXPECT_GT(total, 0u);
    uint64_t k = sim.peek("source_0.k").toUint64();
    ASSERT_GT(k, 2u);
    uint64_t expect = k * (k - 1);   // 2 * sum(0..k-1)
    // The pipeline may hold up to two in-flight items.
    EXPECT_LE(total, expect);
    EXPECT_GE(total + 4 * k, expect);
}

TEST(Driver, SystemVerilogForHierarchyNamesInstances)
{
    CompileOutput out = compileAnvil(R"(
chan c { left a : (logic@#1) }
proc child(ep : left c) {
    reg r : logic;
    loop { set r := recv ep.a >> cycle 1 }
}
proc top() {
    chan l -- rr : c;
    spawn child(l);
    loop { send rr.a (1'b1) >> cycle 2 }
}
)", {.top = "top"});
    ASSERT_TRUE(out.ok) << out.diags.render();
    // The child instance is connected by child-port name to the
    // parent's canonical channel wires.
    EXPECT_NE(out.systemverilog.find(".ep_a_data("), std::string::npos);
    EXPECT_NE(out.systemverilog.find("l_a_data"), std::string::npos);
}

TEST(Driver, DefaultTopIsLastInSpawnOrder)
{
    CompileOutput out = compileAnvil(R"(
chan c { left a : (logic@#1) }
proc child(ep : left c) {
    reg r : logic;
    loop { set r := recv ep.a >> cycle 1 }
}
proc zzz_top() {
    chan l -- rr : c;
    spawn child(l);
    loop { send rr.a (1'b1) >> cycle 2 }
}
)");
    ASSERT_TRUE(out.ok) << out.diags.render();
    EXPECT_NE(out.systemverilog.find("module zzz_top"),
              std::string::npos);
}

TEST(Driver, UnsafeDesignStillProducesModulesForBenches)
{
    // The hazard benches simulate rejected designs; codegen proceeds
    // even when the checker fails.
    CompileOutput out = compileAnvil(R"(
chan c { left d : (logic[8]@#2) }
proc p(ep : right c) {
    reg r : logic[8];
    loop { send ep.d (*r) >> set r := *r + 1 >> cycle 2 }
}
)");
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.module("p"), nullptr);
}

} // namespace
