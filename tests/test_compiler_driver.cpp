/**
 * @file
 * Compiler-driver tests: spawn ordering and cycle detection,
 * hierarchy generation, diagnostics rendering, compile options,
 * whole-program simulation of spawned hierarchies, and goldens of
 * every shipped design's front-end output and of a seeded full-stack
 * simulation of it (regenerate with ANVIL_REGEN_GOLDEN=1).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "anvil/compiler.h"
#include "anvil/sim_runner.h"
#include "codegen/jit.h"
#include "designs/designs.h"
#include "formal/contracts.h"
#include "obs/merge.h"
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

/** The designs both goldens cover, as (name, source): the 15
 *  src/designs Anvil sources, then examples/quickstart and
 *  examples/listing2. */
std::vector<std::pair<std::string, std::string>>
goldenSources()
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
    for (const char *ex : {"quickstart", "listing2"})
        sources.emplace_back(std::string("examples/") + ex,
                             readFile(std::string(ANVIL_TEST_DIR) +
                                      "/../examples/" + ex + ".anvil"));
    return sources;
}

/** Compare @p got with the golden file @p name, or rewrite the file
 *  under ANVIL_REGEN_GOLDEN. */
void
expectGolden(const std::string &name, const std::string &got)
{
    std::string path = std::string(ANVIL_TEST_DIR) + "/golden/" + name;
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

TEST(Driver, FrontEndOutputMatchesGolden)
{
    std::string got;
    for (const auto &[name, src] : goldenSources()) {
        ASSERT_FALSE(src.empty()) << name;
        for (bool optimize : {true, false})
            got += frontendDigest(name, src, optimize);
    }
    expectGolden("frontend_digests.txt", got);
}

/** Cycles and seed of every sim-golden run. */
constexpr uint64_t kGoldenCycles = 2000;
constexpr uint64_t kGoldenSeed = 7;

/** The event stream without its timer lines, with `wall_ns` zeroed
 *  and the temporary directory @p tmp elided: everything in it that
 *  is not wall-clock time or a random path. */
std::string
timerFreeEvents(const std::string &events, const std::string &tmp)
{
    std::istringstream in(events);
    std::string out, line;
    const std::string wall = "\"wall_ns\":";
    while (std::getline(in, line)) {
        if (line.find("\"e\":\"timer\"") != std::string::npos)
            continue;
        for (size_t at; (at = line.find(tmp)) != std::string::npos;)
            line.replace(at, tmp.size(), "tmp");
        size_t at = line.find(wall);
        if (at != std::string::npos) {
            size_t end = at + wall.size();
            while (end < line.size() && isdigit(line[end]))
                end++;
            line.replace(at + wall.size(), end - at - wall.size(), "0");
        }
        out += line + "\n";
    }
    return out;
}

/**
 * One line per artifact of a seeded kGoldenCycles run of @p src's top,
 * with coverage, typed contracts, activity, the flight recorder and a
 * VCD stream: digests of the VCD, the timer-free event stream, the
 * merged coverage summary and report, the flight dumps, the violations
 * (triage report and failure summary), the toggle count and the
 * dprint log.  The log comes from a bare bench on the same seed and
 * stimulus, since a job keeps its Sim to itself.  With @p kernel the
 * job and the bench run on that compiled unit; the event stream then
 * names another backend and its sweep counters differ, so only the
 * backend-independent lines are comparable.
 */
std::string
simDigest(const std::string &name, const std::string &src,
          const rtl::KernelRef &kernel = {})
{
    CompileOutput out = compileAnvil(src, {.top = ""});
    rtl::ModulePtr top = out.module(out.top);
    if (!top)
        return name + " no-module\n";
    auto nl = std::make_shared<const rtl::Netlist>(*top);

    std::string dir = ::testing::TempDir() + "anvil_sim_golden_XXXXXX";
    if (!mkdtemp(dir.data()))
        return name + " no-tempdir\n";
    std::string prefix = dir + "/flight";
    std::ostringstream vcd;
    run::JobConfig jc;
    jc.top = top;
    jc.netlist = nl;
    jc.seed = kGoldenSeed;
    jc.cycles = kGoldenCycles;
    jc.kernel = kernel;
    jc.contracts = formal::checkableSpecs(
        formal::inferContracts(out.program, out.top), *nl);
    jc.coverage = true;
    jc.flight_pre = 16;
    jc.flight_out = prefix;
    jc.telemetry = false;
    jc.vcd = &vcd;
    run::JobResult jr = run::runJob(jc);
    if (kernel.abi &&
        jr.events.find("\"backend\":\"compiled\"") == std::string::npos)
        return name + " kernel-not-attached\n";

    std::string dumps;
    int n_dumps = 0;
    for (;; n_dumps++) {
        std::string path = prefix + "-" + std::to_string(n_dumps) + ".vcd";
        std::string dump = readFile(path);
        if (dump.empty())
            break;
        dumps += dump;
        std::remove(path.c_str());
    }
    rmdir(dir.c_str());

    obs::Merger merged;
    merged.addStreamText(jr.events, name);
    tb::Testbench bench(top, nl, kGoldenSeed);
    if (kernel.abi)
        bench.sim().attachKernel(kernel);
    for (const std::string &in : bench.sim().inputNames())
        bench.driveRandom(in);
    bench.run(kGoldenCycles);
    std::string log;
    for (const std::string &line : bench.sim().log())
        log += line + "\n";

    std::string tag = name + " ";
    return tag + "vcd " + fnv1a(vcd.str()) + "\n" + tag + "events " +
        fnv1a(timerFreeEvents(jr.events, dir)) + "\n" + tag + "coverage " +
        fnv1a(merged.coverage().summaryJson() + "\n" +
              merged.coverage().report()) +
        "\n" + tag + "flight " + std::to_string(n_dumps) + " " +
        fnv1a(dumps) + "\n" + tag + "violations " +
        fnv1a(merged.triageReport() + "\n" + jr.summary) + "\n" + tag +
        "toggles " + std::to_string(jr.toggles) + "\n" + tag + "log " +
        std::to_string(bench.sim().log().size()) + " " + fnv1a(log) + "\n";
}

/** simDigest's lines that no backend changes: all but the stream. */
std::string
backendFree(const std::string &digest)
{
    std::istringstream in(digest);
    std::string out, line;
    while (std::getline(in, line))
        if (line.find(" events ") == std::string::npos)
            out += line + "\n";
    return out;
}

TEST(Driver, SimOutputMatchesGolden)
{
    std::string got;
    for (const auto &[name, src] : goldenSources())
        got += simDigest(name, src);
    expectGolden("sim_digests.txt", got);
}

/** Both examples on the compiled backend match the interpreter's
 *  golden.  Skips without a working compiler (ANVIL_CXX unset and
 *  none found, or set to a broken one). */
TEST(Driver, CompiledBackendMatchesSimGolden)
{
    std::string want = backendFree(readFile(
        std::string(ANVIL_TEST_DIR) + "/golden/sim_digests.txt"));
    ASSERT_FALSE(want.empty());
    bool ran = false;
    for (const auto &[name, src] : goldenSources()) {
        if (name.rfind("examples/", 0) != 0)
            continue;
        CompileOutput out = compileAnvil(src, {.top = ""});
        ASSERT_NE(out.module(out.top), nullptr) << name;
        rtl::Netlist nl(*out.module(out.top));
        codegen::JitOptions jo;
        jo.opt_level = 1;
        codegen::JitResult jit = codegen::jitCompileKernel(nl, jo);
        if (!jit.kernel)
            GTEST_SKIP() << "no JIT compiler: " << jit.error;
        std::string digest =
            simDigest(name, src, codegen::kernelRef(jit.kernel));
        EXPECT_NE(digest.find(" events "), std::string::npos) << digest;
        std::string got = backendFree(digest);
        EXPECT_NE(want.find(got), std::string::npos)
            << name << " on the compiled backend:\n"
            << got;
        ran = true;
    }
    EXPECT_TRUE(ran);
}

} // namespace
