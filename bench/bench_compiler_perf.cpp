/**
 * @file
 * Compiler-throughput microbenchmarks (google-benchmark): parsing,
 * elaboration + type checking, and full compilation of the evaluation
 * designs, the two largest (aes and axi_mux) included.  Supports the
 * "fast, integrated feedback loop" claim of §2.3 with concrete
 * numbers.  The BM_ColdJit rows time the compiled backend's cold JIT
 * (emit, system compiler, dlopen) of the small kernels that a first
 * `anvilc --backend compiled` run waits for; their `cc_cpu_ms`
 * counter is the compiler processes' CPU time per kernel.  Pin them
 * to one core (`taskset -c 2 ./build/bench_compiler_perf
 * --benchmark_filter=ColdJit`) when comparing emitter revisions.
 */

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <fstream>
#include <sstream>

#include "anvil/compiler.h"
#include "codegen/jit.h"
#include "designs/designs.h"
#include "ir/elaborate.h"
#include "lang/parser.h"
#include "types/checker.h"

using namespace anvil;

namespace {

void
BM_ParseFifo(benchmark::State &state)
{
    std::string src = designs::anvilFifoSource();
    for (auto _ : state) {
        DiagEngine d;
        benchmark::DoNotOptimize(parseAnvil(src, d));
    }
}
BENCHMARK(BM_ParseFifo);

/** Two-iteration elaboration plus checkProc: the type checker alone. */
void
typeCheck(benchmark::State &state, const std::string &src,
          const char *proc_name)
{
    DiagEngine d;
    Program prog = parseAnvil(src, d);
    const ProcDef *p = prog.findProc(proc_name);
    for (auto _ : state) {
        DiagEngine cd;
        ProcIR pir = elaborateProc(prog, *p, cd, 2);
        benchmark::DoNotOptimize(checkProc(pir, cd));
    }
}

void
BM_TypeCheckFifo(benchmark::State &state)
{
    typeCheck(state, designs::anvilFifoSource(), "fifo");
}
BENCHMARK(BM_TypeCheckFifo);

void
BM_TypeCheckEncrypt(benchmark::State &state)
{
    typeCheck(state, designs::anvilEncryptSource(), "encrypt");
}
BENCHMARK(BM_TypeCheckEncrypt);

void
BM_TypeCheckAes(benchmark::State &state)
{
    typeCheck(state, designs::anvilAesSource(), "aes");
}
BENCHMARK(BM_TypeCheckAes)->Unit(benchmark::kMillisecond);

void
BM_TypeCheckAxiMux(benchmark::State &state)
{
    typeCheck(state, designs::anvilAxiMuxSource(), "axi_mux");
}
BENCHMARK(BM_TypeCheckAxiMux)->Unit(benchmark::kMillisecond);

void
BM_FullCompilePtw(benchmark::State &state)
{
    std::string src = designs::anvilPtwSource();
    for (auto _ : state)
        benchmark::DoNotOptimize(compileAnvil(src, {.top = "ptw"}));
}
BENCHMARK(BM_FullCompilePtw);

void
BM_FullCompileAes(benchmark::State &state)
{
    std::string src = designs::anvilAesSource();
    for (auto _ : state)
        benchmark::DoNotOptimize(compileAnvil(src, {.top = "aes"}));
}
BENCHMARK(BM_FullCompileAes)->Unit(benchmark::kMillisecond);

void
BM_FullCompileAxiMux(benchmark::State &state)
{
    std::string src = designs::anvilAxiMuxSource();
    for (auto _ : state)
        benchmark::DoNotOptimize(compileAnvil(src, {.top = "axi_mux"}));
}
BENCHMARK(BM_FullCompileAxiMux)->Unit(benchmark::kMillisecond);

/** CPU time of this process's waited-for children, in ms. */
double
childCpuMs()
{
    struct rusage ru;
    ::getrusage(RUSAGE_CHILDREN, &ru);
    return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
        (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

/**
 * Cold JIT of the top process of `src`, at the JIT's default options.
 * Every iteration passes an emitter tag no earlier call used (the
 * framework runs each benchmark more than once), so the in-process
 * kernel cache never hits and each one emits, compiles and loads the
 * unit.
 */
void
coldJit(benchmark::State &state, const std::string &src)
{
    if (codegen::jitCompilerPath().empty()) {
        state.SkipWithError("no system compiler");
        return;
    }
    CompileOutput out = compileAnvil(src);
    if (!out.module(out.top)) {
        state.SkipWithError("design does not compile");
        return;
    }
    rtl::Netlist nl(*out.module(out.top));
    static int tag = 1 << 20;   // clear of every kCppEmitterVersion
    double cc_ms = 0;
    codegen::JitResult jr;
    for (auto _ : state) {
        codegen::JitOptions jo;
        jo.emitter_tag = tag++;
        double cc0 = childCpuMs();
        jr = codegen::jitCompileKernel(nl, jo);
        cc_ms += childCpuMs() - cc0;
        benchmark::DoNotOptimize(jr.kernel.get());
        if (!jr.kernel) {
            state.SkipWithError(jr.error.c_str());
            return;
        }
    }
    state.counters["cc_cpu_ms"] =
        benchmark::Counter(cc_ms, benchmark::Counter::kAvgIterations);
    state.counters["source_bytes"] =
        static_cast<double>(jr.source_bytes);
}

void
BM_ColdJitTopSafe(benchmark::State &state)
{
    coldJit(state, designs::anvilTopSafeSource());
}
BENCHMARK(BM_ColdJitTopSafe)->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_ColdJitListing2(benchmark::State &state)
{
    coldJit(state, designs::anvilListing2Source());
}
BENCHMARK(BM_ColdJitListing2)->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_ColdJitQuickstart(benchmark::State &state)
{
    std::ifstream in(ANVIL_EXAMPLES_DIR "/quickstart.anvil");
    std::ostringstream src;
    src << in.rdbuf();
    coldJit(state, src.str());
}
BENCHMARK(BM_ColdJitQuickstart)->Unit(benchmark::kMillisecond)->UseRealTime();

} // namespace
