/**
 * @file
 * Compiler-throughput microbenchmarks (google-benchmark): parsing,
 * elaboration + type checking, and full compilation of the evaluation
 * designs, the two largest (aes and axi_mux) included.  Supports the "fast, integrated feedback loop" claim of
 * §2.3 with concrete numbers.
 */

#include <benchmark/benchmark.h>

#include "anvil/compiler.h"
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

} // namespace
