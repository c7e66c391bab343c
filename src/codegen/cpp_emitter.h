/**
 * @file
 * Compile-to-C++ netlist backend: lowers the strict combinational
 * portion of a levelized rtl::Netlist to a self-contained C++
 * translation unit that exports the dense level bodies of the
 * AnvilKernel ABI (rtl/kernel_abi.h).
 *
 * The unit carries only design-specific code (see docs/compile.md):
 *  - a straight-line dense body per non-empty logic level, so each
 *    strict node is compiled exactly once;
 *  - each node as its record in the layout (rtl::KernelLayout::nodes),
 *    printed as a call to the record's step in rtl/word_ops.h with
 *    literal operands (a narrow record's constants as values): the
 *    same functions the host executor runs, embedded verbatim, the
 *    wide lane only when some record is wide;
 *  - change-cutting at every store: an unchanged value is not
 *    appended to the changed list;
 *  - the layout's Concat-part, ROM and wide-shape tables, as far as
 *    the unit's records read them;
 *  - state words addressed at the offsets of the netlist's layout
 *    (rtl::Netlist::layout), the one the host (rtl::KernelHost)
 *    allocates.
 * The emitter holds no operator semantics of its own.
 * The level walk and its escalation rule, the sparse drains (the host
 * executor's node records), consumer queueing, the dense-fallback
 * hysteresis, pokes, statistics and the clock edge are precompiled
 * host code (rtl/kernel_host.h).
 *
 * The unit includes no headers and needs no runtime library; a unit
 * with a wide record may reference libc's mem*, which binds to the
 * loading process.  The dump compiles standalone
 * (`c++ -O2 -fPIC -shared -nostdlib`); the JIT (codegen/jit.h)
 * automates compile + dlopen + validation.
 */

#ifndef ANVIL_CODEGEN_CPP_EMITTER_H
#define ANVIL_CODEGEN_CPP_EMITTER_H

#include <string>

#include "rtl/kernel_host.h"
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
 * struct and `anvil_kernel` entry symbol; v5: no headers (builtin
 * typedefs and mem*, declared calloc/free), sparse drains only for
 * levels that can run them, wide helpers only when a node is wide;
 * v6: ABI v4, the table-driven clock edge (edge() and shadow_ptr());
 * v7: ABI v5, node-only units: the level walk, lifecycle, change hook,
 * statistics and clock edge move to the host (rtl::KernelHost), and
 * the unit exports per-level dense and sparse function tables;
 * v8: ABI v6, dense-only units: the host drains sparse levels with
 * its executor and queues consumers, so the change hook only appends;
 * v9: one operator definition: each node is its layout record printed
 * as a call to the record steps of rtl/word_ops.h, which the unit
 * embeds verbatim, over the layout's side tables.
 */
constexpr int kCppEmitterVersion = 9;

/**
 * Emit `nl` as a C++ kernel translation unit, at the offsets of
 * nl.layout().  `design_name` only appears in the banner comment;
 * behavioural identity is pinned by the embedded rtl::designHash.
 */
std::string emitCppKernel(const rtl::Netlist &nl,
                          const std::string &design_name);

} // namespace codegen
} // namespace anvil

#endif // ANVIL_CODEGEN_CPP_EMITTER_H
