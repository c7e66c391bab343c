/**
 * @file
 * Compile-to-C++ netlist backend: lowers the strict combinational
 * portion of a levelized rtl::Netlist to a self-contained C++
 * translation unit implementing the AnvilKernel ABI
 * (rtl/kernel_abi.h).
 *
 * Layout of the emitted unit (see docs/compile.md):
 *  - the interpreter's fan-out CSR compiled in as static tables
 *    (consumer lists, per-node level/slot, bitmap word offsets);
 *  - two functions per logic level: a sparse one draining the level's
 *    exact occupancy bitmap in ascending slot order through a dense
 *    jump table, and a straight-line dense one for high-activity
 *    frames — whole frames flip with the same ~50%/40% hysteresis as
 *    the interpreter, and a single crowded level (≥ 25% queued)
 *    escalates to its dense body inside a sparse frame;
 *  - the u64 fast lane lowered to native integer arithmetic, wide
 *    values to packed-word helper calls;
 *  - change-cutting at every store: an unchanged value queues no
 *    consumers, and eval()'s changed-net list is exact;
 *  - registers, inputs, and constants as a flat packed-word state
 *    array indexed by per-net offsets.
 *
 * The dump compiles standalone (`c++ -O2 -fPIC -shared`); the JIT
 * (codegen/jit.h) automates compile + dlopen + hash validation.
 */

#ifndef ANVIL_CODEGEN_CPP_EMITTER_H
#define ANVIL_CODEGEN_CPP_EMITTER_H

#include <string>

#include "rtl/netlist.h"

namespace anvil {
namespace codegen {

/**
 * Codegen scheme revision.  Bumped whenever the emitted source for an
 * unchanged netlist changes (new scheduler, table layout, ABI rev) so
 * caches keyed on the design hash alone can never serve a kernel
 * built by an older emitter.  v1: block-granular dirty bitmaps;
 * v2: event-driven per-level exact occupancy bitmaps; v3: per-level
 * evaluation counters + level_stats(); v4: the single AnvilKernel
 * struct and `anvil_kernel` entry symbol.
 */
constexpr int kCppEmitterVersion = 4;

/**
 * Emit `nl` as a C++ kernel translation unit.  `design_name` only
 * appears in the banner comment; behavioural identity is pinned by
 * the embedded rtl::designHash.
 */
std::string emitCppKernel(const rtl::Netlist &nl,
                          const std::string &design_name);

} // namespace codegen
} // namespace anvil

#endif // ANVIL_CODEGEN_CPP_EMITTER_H
