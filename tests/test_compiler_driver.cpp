/**
 * @file
 * Compiler-driver tests: spawn ordering and cycle detection,
 * hierarchy generation, diagnostics rendering, compile options,
 * whole-program simulation of spawned hierarchies, and a golden of
 * every shipped design's front-end output (regenerate with
 * ANVIL_REGEN_GOLDEN=1).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "anvil/compiler.h"
#include "designs/designs.h"
#include "rtl/interp.h"

#ifndef ANVIL_TEST_DIR
#define ANVIL_TEST_DIR "tests"
#endif

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

/** FNV-1a over the bytes of @p s, as 16 hex digits. */
std::string
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[24];
    snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * One line per artifact of compiling @p src with the optimizer on or
 * off: digests of the rendered diagnostics, of each process's
 * derivation trace and of the top's SystemVerilog, and each process's
 * optimizer statistics in full.
 */
std::string
frontendDigest(const std::string &name, const std::string &src,
               bool optimize)
{
    CompileOutput out = compileAnvil(src, {.top = "", .optimize = optimize});
    std::string tag = name + (optimize ? "/opt " : "/noopt ");
    std::string lines = tag + "diags " + fnv1a(out.diags.render()) + "\n";
    for (const auto &[proc, check] : out.checks)
        lines += tag + "trace:" + proc + " " + fnv1a(check.traceStr()) +
                 "\n";
    for (const auto &[proc, s] : out.opt_stats) {
        lines += tag + "stats:" + proc + " " + std::to_string(s.before) +
                 " -> " + std::to_string(s.after);
        for (const auto &[pass, n] : s.merged_by_pass)
            lines += " " + pass + "=" + std::to_string(n);
        lines += "\n";
    }
    return lines + tag + "sv " + fnv1a(out.systemverilog) + "\n";
}

TEST(Driver, FrontEndOutputMatchesGolden)
{
    const std::pair<const char *, std::string (*)()> designs[] = {
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
    std::vector<std::pair<std::string, std::string>> sources;
    for (const auto &[name, text] : designs)
        sources.emplace_back(name, text());
    for (const char *ex : {"quickstart", "listing2"}) {
        std::string src = readFile(std::string(ANVIL_TEST_DIR) +
                                   "/../examples/" + ex + ".anvil");
        ASSERT_FALSE(src.empty()) << ex;
        sources.emplace_back(std::string("examples/") + ex, src);
    }
    std::string got;
    for (const auto &[name, src] : sources)
        for (bool optimize : {true, false})
            got += frontendDigest(name, src, optimize);

    std::string path =
        std::string(ANVIL_TEST_DIR) + "/golden/frontend_digests.txt";
    if (std::getenv("ANVIL_REGEN_GOLDEN")) {
        std::ofstream os(path);
        ASSERT_TRUE(os.good()) << path;
        os << got;
        return;
    }
    std::string want = readFile(path);
    ASSERT_FALSE(want.empty())
        << "missing golden " << path
        << " (run with ANVIL_REGEN_GOLDEN=1 to create)";
    EXPECT_EQ(got, want);
}

} // namespace
