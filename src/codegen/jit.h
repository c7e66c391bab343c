/**
 * @file
 * In-process JIT for the compile-to-C++ backend: emit the netlist as
 * a kernel translation unit (codegen/cpp_emitter.h), invoke the
 * system C++ compiler to build a shared object, dlopen it, and hand
 * back a validated AnvilKernel ready for rtl::Sim::attachKernel.
 *
 * Lifecycle (see docs/compile.md): the source and shared object live
 * in a mkdtemp directory that is deleted as soon as the object is
 * mapped — the mapping survives the unlink, and nothing litters /tmp
 * even on crash.  Kernels are cached per (design hash, opt level,
 * emitter revision) for the life of the process, so attaching the
 * same design to many Sims (the differential test matrix, BMC
 * reruns) compiles once — while a codegen change (kCppEmitterVersion
 * bump) can never be served a stale object.
 *
 * Everything degrades gracefully: no compiler on PATH, a failed
 * compile, or a hash mismatch yields a JitResult with a null kernel
 * and a diagnostic string, and callers keep the interpreter.
 */

#ifndef ANVIL_CODEGEN_JIT_H
#define ANVIL_CODEGEN_JIT_H

#include <memory>
#include <string>

#include "codegen/cpp_emitter.h"
#include "rtl/interp.h"
#include "rtl/kernel_abi.h"
#include "rtl/netlist.h"

namespace anvil {
namespace codegen {

struct JitOptions
{
    int opt_level = 2;        // -O<n> passed to the system compiler
                              // (capped to -O1 for multi-MB units,
                              // where -O2 buys only compile time)
    bool keep_files = false;  // keep the temp dir (debugging)
    /** Codegen revision folded into the cache key.  Defaults to the
     *  linked emitter's revision; tests override it to prove a bump
     *  forces a recompile. */
    int emitter_tag = kCppEmitterVersion;
};

/** A dlopen'd kernel; closes the library when the last ref drops. */
class CompiledKernel
{
  public:
    CompiledKernel(void *dl, const AnvilKernel *abi)
        : _dl(dl), _abi(abi)
    {
    }
    ~CompiledKernel();
    CompiledKernel(const CompiledKernel &) = delete;
    CompiledKernel &operator=(const CompiledKernel &) = delete;

    const AnvilKernel *abi() const { return _abi; }

  private:
    void *_dl = nullptr;
    const AnvilKernel *_abi = nullptr;
};

struct JitResult
{
    std::shared_ptr<CompiledKernel> kernel;  // null on failure
    std::string error;                       // why, when null
    uint64_t compile_ns = 0;   // emit + compile + load wall time
    uint64_t source_bytes = 0; // emitted translation-unit size
    bool cache_hit = false;    // served from the per-process cache
};

/**
 * The compiler the JIT would invoke: $ANVIL_CXX verbatim if set (even
 * if broken — that is the no-compiler-present test hook), else the
 * first of c++/g++/clang++ that answers --version.  Empty string when
 * nothing is available.
 */
std::string jitCompilerPath();

/** Emit, compile, and load `nl`.  Never throws; see JitResult. */
JitResult jitCompileKernel(const rtl::Netlist &nl,
                           const JitOptions &opts = {});

/** Package a compiled kernel as the KernelRef Sim/BMC options take. */
rtl::KernelRef kernelRef(const std::shared_ptr<CompiledKernel> &k);

} // namespace codegen
} // namespace anvil

#endif // ANVIL_CODEGEN_JIT_H
