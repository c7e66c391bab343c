/**
 * @file
 * Compiled C++ backend: golden emitted-kernel snapshot for the
 * quickstart design, what the emitted unit leaves out (headers,
 * sparse drains, consumer tables, the wide lane when no record is
 * wide, everything the host runs), the record steps it embeds
 * verbatim, each strict node compiled exactly once in every design,
 * JIT round-trip behaviour against the interpreter, kernel ABI
 * invariants, temp-dir handling (a missing $TMPDIR included), and the
 * no-compiler fallback path (a broken ANVIL_CXX must degrade to the
 * interpreter, never fail the run).
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "codegen/cpp_emitter.h"
#include "codegen/jit.h"
#include "designs/designs.h"
#include "harness.h"
#include "rtl/interp.h"
#include "rtl/kernel_host.h"

using namespace anvil;
using namespace anvil::rtl;

namespace {

#ifndef ANVIL_TEST_DIR
#define ANVIL_TEST_DIR "tests"
#endif

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** rtl/word_ops.h as units embed it: its narrow lane, then its wide
 *  lane. */
const char *const kWordOps[] = {
#define ANVIL_WORD_OPS(...) #__VA_ARGS__,
#include "rtl/word_ops.h"
#undef ANVIL_WORD_OPS
};

/** The quickstart module, compiled from the shipped example. */
ModulePtr
quickstartModule()
{
    std::string src = readFile(std::string(ANVIL_TEST_DIR) +
                               "/../examples/quickstart.anvil");
    if (src.empty())
        return nullptr;
    return anvil::testing::compileDesign(src, "ping_server");
}

/** Deterministic quickstart stimulus (same shape as the VCD golden). */
void
driveQuickstart(Sim &sim, int cyc)
{
    sim.setInput("io_ping_data", 10 + cyc * 7);
    sim.setInput("io_ping_valid", cyc % 4 < 2 ? 1 : 0);
    sim.setInput("io_pong_ack", cyc % 3 != 0 ? 1 : 0);
}

TEST(CppEmitter, QuickstartKernelMatchesGolden)
{
    auto mod = quickstartModule();
    ASSERT_NE(mod, nullptr);
    Netlist nl(*mod);
    std::string got = codegen::emitCppKernel(nl, "ping_server");
    ASSERT_FALSE(got.empty());

    std::string path = std::string(ANVIL_TEST_DIR) +
                       "/golden/quickstart_kernel.cpp";
    if (std::getenv("ANVIL_REGEN_GOLDEN")) {
        std::ofstream os(path);
        ASSERT_TRUE(os.good()) << path;
        os << got;
        return;
    }
    std::ifstream is(path);
    ASSERT_TRUE(is.good())
        << "missing golden " << path
        << " (run with ANVIL_REGEN_GOLDEN=1 to create)";
    std::ostringstream want;
    want << is.rdbuf();
    EXPECT_EQ(got, want.str());
}

size_t
countOf(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + 1))
        n++;
    return n;
}

TEST(CppEmitter, QuickstartUnitCarriesOnlyReachableCode)
{
    auto mod = quickstartModule();
    ASSERT_NE(mod, nullptr);
    Netlist nl(*mod);
    std::string unit = codegen::emitCppKernel(nl, "ping_server");
    // No headers, and only the narrow lane of the record steps: every
    // quickstart node is <= 64 bits wide.
    EXPECT_EQ(unit.find("#include"), std::string::npos);
    EXPECT_NE(unit.find(kWordOps[0]), std::string::npos);
    EXPECT_EQ(unit.find(kWordOps[1]), std::string::npos);
    EXPECT_EQ(unit.find("wideOp<"), std::string::npos);
    // Dense bodies only: the host drains sparse levels through its
    // executor and queues consumers itself, so there is no drain, no
    // drain table and no consumer CSR.  The level walk, the context
    // lifecycle, the clock edge and its tables, and the edge's -O1
    // request all live in the host (rtl::KernelHost) too.
    EXPECT_EQ(countOf(unit, "static uint64_t lvl_d_"),
              static_cast<size_t>(std::count_if(
                  nl.layout()->level_size.begin(),
                  nl.layout()->level_size.end(),
                  [](uint32_t n) { return n != 0; })));
    for (const char *gone :
         {"lvl_s_", "kSparse", "cons_begin", "AnvilConsumer", "wbm",
          "queued", "do_eval", "k_edge", "k_create", "calloc", "kUpd",
          "optimize("})
        EXPECT_EQ(unit.find(gone), std::string::npos) << gone;
    // Every wire, update and register fits a word, so the host runs
    // its one-word edge.
    EXPECT_FALSE(kernelLayout(nl).wide_edge);
}

TEST(CppEmitter, EveryStrictNodeIsCompiledOnce)
{
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
        CompileOutput out = compileAnvil(text());
        ModulePtr mod = out.module(out.top);
        ASSERT_NE(mod, nullptr) << name;
        Netlist nl(*mod);
        std::string unit = codegen::emitCppKernel(nl, name);
        // Each strict node has one body, headed by its `// n<id> w`
        // comment, and nothing else has one.
        for (NetId id : nl.order())
            ASSERT_EQ(countOf(unit, "// n" + std::to_string(id) + " "), 1u)
                << name << " n" << id;
        EXPECT_EQ(countOf(unit, "    // n"), nl.order().size()) << name;
        EXPECT_EQ(unit.find("lvl_s_"), std::string::npos) << name;
    }
}

TEST(CppEmitter, WideDesignCarriesWidePrelude)
{
    Netlist nl(*designs::buildAesBaseline());
    std::string unit = codegen::emitCppKernel(nl, "aes");
    EXPECT_EQ(unit.find("#include"), std::string::npos);
    // Both lanes of the record steps, verbatim, and wide records
    // printed as calls into the wide one over the layout's shapes.
    EXPECT_NE(unit.find(kWordOps[0]), std::string::npos);
    EXPECT_NE(unit.find(kWordOps[1]), std::string::npos);
    EXPECT_NE(unit.find("static const XWide kWideShape["),
              std::string::npos);
    EXPECT_NE(unit.find("wideOp<"), std::string::npos);
    // aes has registers wider than 64 bits: the host edge keeps its
    // multi-word loops.
    EXPECT_TRUE(kernelLayout(nl).wide_edge);
}

TEST(CppEmitter, KernelAbiMatchesNetlist)
{
    if (codegen::jitCompilerPath().empty())
        GTEST_SKIP() << "no system compiler available";
    auto mod = quickstartModule();
    ASSERT_NE(mod, nullptr);
    Sim sim(mod);
    codegen::JitOptions jo;
    jo.opt_level = 1;
    codegen::JitResult jr =
        codegen::jitCompileKernel(sim.netlist(), jo);
    ASSERT_NE(jr.kernel, nullptr) << jr.error;
    const AnvilKernel *abi = jr.kernel->abi();
    ASSERT_NE(abi, nullptr);
    EXPECT_EQ(abi->abi_version, ANVIL_KERNEL_ABI_VERSION);
    EXPECT_EQ(abi->net_count, sim.netlist().nets().size());
    EXPECT_EQ(abi->design_hash, designHash(sim.netlist()));
    EXPECT_GT(abi->state_words, 0u);

    // A second compile of the same design hits the process-wide
    // cache and hands back the exact same kernel object.
    codegen::JitResult again =
        codegen::jitCompileKernel(sim.netlist(), jo);
    EXPECT_EQ(again.kernel.get(), jr.kernel.get());
    EXPECT_TRUE(again.cache_hit);
}

TEST(CppEmitter, EmitterTagBumpForcesRecompile)
{
    if (codegen::jitCompilerPath().empty())
        GTEST_SKIP() << "no system compiler available";
    auto mod = quickstartModule();
    ASSERT_NE(mod, nullptr);
    Sim sim(mod);
    codegen::JitOptions jo;
    jo.opt_level = 1;
    codegen::JitResult base =
        codegen::jitCompileKernel(sim.netlist(), jo);
    ASSERT_NE(base.kernel, nullptr) << base.error;

    // Same design + opt level but a newer codegen revision: the
    // cached object from the old emitter must never be served.
    jo.emitter_tag = codegen::kCppEmitterVersion + 1;
    codegen::JitResult bumped =
        codegen::jitCompileKernel(sim.netlist(), jo);
    ASSERT_NE(bumped.kernel, nullptr) << bumped.error;
    EXPECT_FALSE(bumped.cache_hit);
    EXPECT_NE(bumped.kernel.get(), base.kernel.get());
    EXPECT_GT(bumped.source_bytes, 0u);

    // The bumped tag is itself cached under its own key.
    codegen::JitResult again =
        codegen::jitCompileKernel(sim.netlist(), jo);
    EXPECT_TRUE(again.cache_hit);
    EXPECT_EQ(again.kernel.get(), bumped.kernel.get());
}

TEST(CppEmitter, JitRoundTripMatchesInterpreter)
{
    if (codegen::jitCompilerPath().empty())
        GTEST_SKIP() << "no system compiler available";
    auto mod = quickstartModule();
    ASSERT_NE(mod, nullptr);

    Sim interp(mod), compiled(mod);
    codegen::JitOptions jo;
    jo.opt_level = 1;
    codegen::JitResult jr =
        codegen::jitCompileKernel(compiled.netlist(), jo);
    ASSERT_NE(jr.kernel, nullptr) << jr.error;
    ASSERT_TRUE(compiled.attachKernel(codegen::kernelRef(jr.kernel)));
    ASSERT_TRUE(compiled.kernelAttached());

    for (int cyc = 0; cyc < 200; cyc++) {
        driveQuickstart(interp, cyc);
        driveQuickstart(compiled, cyc);
        interp.step();
        compiled.step();
        ASSERT_EQ(interp.totalToggles(), compiled.totalToggles())
            << "cycle " << cyc;
    }
    auto ra = interp.captureRegs(), rb = compiled.captureRegs();
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); i++)
        EXPECT_EQ(ra[i].toHex(), rb[i].toHex());
    EXPECT_EQ(interp.log(), compiled.log());

    // The kernel's own scheduling counters, over the netlist with its
    // renames collapsed into their drivers.
    const SweepStats &st = compiled.sweepStats();
    EXPECT_EQ(st.nodes_evaluated, 2654u);
    EXPECT_EQ(st.kernel_dense_frames, 101u);
    EXPECT_EQ(st.kernel_fallback_switches, 66u);
    EXPECT_EQ(compiled.kernelLevelEvals(),
              (std::vector<uint64_t>{0, 600, 736, 334, 600, 184, 200}));
}

TEST(CppEmitter, KernelReportsPerLevelEvals)
{
    if (codegen::jitCompilerPath().empty())
        GTEST_SKIP() << "no system compiler available";
    auto mod = quickstartModule();
    ASSERT_NE(mod, nullptr);
    Sim sim(mod);
    codegen::JitOptions jo;
    jo.opt_level = 1;
    codegen::JitResult jr =
        codegen::jitCompileKernel(sim.netlist(), jo);
    ASSERT_NE(jr.kernel, nullptr) << jr.error;
    const AnvilKernel *abi = jr.kernel->abi();
    ASSERT_NE(abi, nullptr);
    // The level tables are sized like the netlist's levelization.
    EXPECT_EQ(abi->level_count,
              sim.netlist().levelBegin().empty()
                  ? 0u
                  : static_cast<uint32_t>(
                        sim.netlist().levelBegin().size() - 1));
    ASSERT_NE(abi->dense, nullptr);
    ASSERT_TRUE(sim.attachKernel(codegen::kernelRef(jr.kernel)));

    for (int cyc = 0; cyc < 50; cyc++) {
        driveQuickstart(sim, cyc);
        sim.step();
    }
    std::vector<uint64_t> per_level = sim.kernelLevelEvals();
    ASSERT_EQ(per_level.size(), abi->level_count);
    uint64_t total = 0;
    for (uint64_t e : per_level)
        total += e;
    // The per-level counters partition the sweep's eval total.
    EXPECT_EQ(total, sim.sweepStats().nodes_evaluated);
    EXPECT_GT(total, 0u);
}

/** JIT `sim`'s netlist with TMPDIR pointed at a fresh dir made from
 *  the mkdtemp template `tmpl`, keeping the work files; `tag` is a
 *  unique emitter tag, so the process-wide kernel cache is bypassed
 *  and the JIT really runs.  Expects the work dir under that dir,
 *  then removes both. */
codegen::JitResult
jitUnderTmpdir(Sim &sim, std::string tmpl, int tag)
{
    EXPECT_NE(::mkdtemp(&tmpl[0]), nullptr);
    const char *saved = std::getenv("TMPDIR");
    std::string saved_val = saved ? saved : "";
    ::setenv("TMPDIR", tmpl.c_str(), 1);

    codegen::JitOptions jo;
    jo.opt_level = 1;
    jo.keep_files = true;
    jo.emitter_tag = tag;
    codegen::JitResult jr =
        codegen::jitCompileKernel(sim.netlist(), jo);

    if (saved)
        ::setenv("TMPDIR", saved_val.c_str(), 1);
    else
        ::unsetenv("TMPDIR");

    // The work dir must have landed under $TMPDIR, not /tmp.
    std::string work;
    if (DIR *d = ::opendir(tmpl.c_str())) {
        while (struct dirent *e = ::readdir(d))
            if (std::string(e->d_name).rfind("anvil-jit-", 0) == 0)
                work = tmpl + "/" + e->d_name;
        ::closedir(d);
    }
    EXPECT_FALSE(work.empty())
        << "no anvil-jit-* work dir under " << tmpl;
    if (!work.empty()) {
        for (const char *f : {"kernel.cpp", "kernel.so", "cc.err"})
            ::unlink((work + "/" + f).c_str());
        ::rmdir(work.c_str());
    }
    ::rmdir(tmpl.c_str());
    return jr;
}

TEST(CppEmitter, JitHonorsTmpdir)
{
    if (codegen::jitCompilerPath().empty())
        GTEST_SKIP() << "no system compiler available";
    auto mod = quickstartModule();
    ASSERT_NE(mod, nullptr);
    Sim sim(mod);
    codegen::JitResult jr = jitUnderTmpdir(
        sim, "/tmp/anvil-tmpdir-test-XXXXXX",
        codegen::kCppEmitterVersion + 1000);
    ASSERT_NE(jr.kernel, nullptr) << jr.error;
}

TEST(CppEmitter, JitFallsBackWithoutTmpdir)
{
    if (codegen::jitCompilerPath().empty())
        GTEST_SKIP() << "no system compiler available";
    auto mod = quickstartModule();
    ASSERT_NE(mod, nullptr);
    Sim sim(mod), interp(mod);
    const char *saved = std::getenv("TMPDIR");
    std::string saved_val = saved ? saved : "";
    ::setenv("TMPDIR", "/nonexistent/dir", 1);
    codegen::JitOptions jo;
    jo.opt_level = 1;
    jo.emitter_tag = codegen::kCppEmitterVersion + 1002;   // no cache hit
    codegen::JitResult jr = codegen::jitCompileKernel(sim.netlist(), jo);
    if (saved)
        ::setenv("TMPDIR", saved_val.c_str(), 1);
    else
        ::unsetenv("TMPDIR");

    // No work dir, no kernel, and a diagnostic naming the directory.
    EXPECT_EQ(jr.kernel, nullptr);
    EXPECT_EQ(jr.error, "mkdtemp failed in /nonexistent/dir");
    // The interpreter keeps running.
    EXPECT_FALSE(sim.attachKernel(codegen::kernelRef(jr.kernel)));
    for (int cyc = 0; cyc < 20; cyc++) {
        driveQuickstart(sim, cyc);
        driveQuickstart(interp, cyc);
        sim.step();
        interp.step();
    }
    EXPECT_EQ(sim.captureRegs(), interp.captureRegs());
    EXPECT_EQ(sim.log(), interp.log());
}

TEST(CppEmitter, JitToleratesSpaceInTmpdir)
{
    if (codegen::jitCompilerPath().empty())
        GTEST_SKIP() << "no system compiler available";
    auto mod = quickstartModule();
    ASSERT_NE(mod, nullptr);
    Sim sim(mod);
    // The compiler command line must quote the work-dir paths.
    codegen::JitResult jr = jitUnderTmpdir(
        sim, "/tmp/anvil tmpdir test-XXXXXX",
        codegen::kCppEmitterVersion + 1001);
    ASSERT_NE(jr.kernel, nullptr) << jr.error;
    EXPECT_TRUE(sim.attachKernel(codegen::kernelRef(jr.kernel)));
    EXPECT_TRUE(sim.kernelAttached());
}

TEST(CppEmitter, BrokenCompilerFallsBackToInterpreter)
{
    // A design no other test compiles, so the JIT cache can't mask
    // the compile failure (the cache is consulted before the
    // compiler probe).
    auto m = std::make_shared<Module>();
    m->name = "fallback_probe";
    auto x = m->input("x", 7);
    auto c = m->reg("c", 7);
    m->update("c", cst(1, 1), c ^ x);

    const char *saved = std::getenv("ANVIL_CXX");
    std::string saved_val = saved ? saved : "";
    ::setenv("ANVIL_CXX", "/nonexistent/cxx", 1);
    // ANVIL_CXX is taken verbatim, even when broken: it is the hook
    // this test (and CI) uses to force the fallback path.
    EXPECT_EQ(codegen::jitCompilerPath(), "/nonexistent/cxx");

    Sim sim(m);
    codegen::JitResult jr = codegen::jitCompileKernel(sim.netlist());
    EXPECT_EQ(jr.kernel, nullptr);
    EXPECT_FALSE(jr.error.empty());

    // A compiler that fails without a word still explains itself.
    ::setenv("ANVIL_CXX", "false", 1);
    codegen::JitResult silent =
        codegen::jitCompileKernel(sim.netlist());
    EXPECT_EQ(silent.kernel, nullptr);
    EXPECT_NE(silent.error.find("exit status 1"), std::string::npos)
        << silent.error;

    if (saved)
        ::setenv("ANVIL_CXX", saved_val.c_str(), 1);
    else
        ::unsetenv("ANVIL_CXX");

    // Attaching an empty kernel ref is refused and the interpreter
    // keeps running correctly.
    EXPECT_FALSE(sim.attachKernel(codegen::kernelRef(jr.kernel)));
    EXPECT_FALSE(sim.kernelAttached());
    sim.setInput("x", 0x55);
    sim.step();
    sim.setInput("x", 0x0f);
    sim.step();
    EXPECT_EQ(sim.captureRegs()[0].toUint64(), 0x55ull ^ 0x0full);
}

} // namespace
