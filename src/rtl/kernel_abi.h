/**
 * @file
 * C ABI between the simulator and a compiled netlist kernel.
 *
 * `anvilc --emit-cpp` (src/codegen/cpp_emitter.cpp) lowers the strict
 * combinational portion of a levelized rtl::Netlist to straight-line
 * C++: one dense body per non-empty logic level, each strict node
 * compiled exactly once, as a call to its layout record's step in
 * rtl/word_ops.h.  Those bodies, the record steps (embedded verbatim;
 * the wide lane only when some record is wide) and the layout's side
 * tables are all the unit carries; the JIT (src/codegen/jit.cpp)
 * compiles it with the system compiler and dlopens the result.  The
 * generated file embeds its own copy of the structs below so an
 * --emit-cpp dump compiles standalone
 * — the two copies are tied together by `abi_version`, and an attach
 * is additionally gated on `design_hash` (rtl::designHash),
 * `net_count`, `state_words` and `level_count`, so a stale object can
 * never be bound to the wrong netlist.
 *
 * Division of labour: the unit holds only what differs between
 * designs, the record calls of its dense bodies.  Everything that
 * is the same for every design is precompiled host code
 * (rtl/kernel_host.h): rtl::KernelHost owns the context, the state
 * words at their per-net offsets, pokes, the occupancy bitmaps, the
 * level walk with its escalation rule, dense-fallback hysteresis and
 * activity counters, and the queueing of consumers.  A level the
 * walk does not escalate is drained by the host executor, which
 * interprets the layout's node records; until a unit is attached the
 * executor runs every level, so attaching a unit swaps functions and
 * moves no value.  The clock edge is not the kernel's: rtl::Sim
 * commits through one rtl::ClockEdge (wire toggles against shadow
 * words, staged updates, register commits) over the same state words.
 * Host, edge and unit agree on the state layout because all of them
 * read the netlist's one rtl::kernelLayout() (rtl::Netlist::layout).
 * Values are packed little-endian 64-bit words, ceil(width/64) (min
 * 1) words per net, normalized (bits at or above the width are zero)
 * exactly like anvil::BitVec.  Nets the simulator appends later for
 * ad-hoc expressions (rtl::Sim::topNet) take words past `state_words`
 * and lie past `net_count`; no unit reads them.
 *
 * The contract for a dense body, called by the host's level walk for
 * a whole dense frame or for one level that escalated inside a sparse
 * frame:
 *  - it evaluates every node of its level, in order, from the state
 *    words of earlier levels and sources;
 *  - a node whose value differs from its stored words is stored and
 *    appended to `out`; an unchanged node is neither (change-cutting).
 *    The host queues the consumers of what a body appended once it
 *    returns, unless the frame is dense;
 *  - the return value is the number of nodes evaluated.
 *
 * Kernels only ever come from the binary that emitted them, so there
 * is no compatibility layer: the JIT and Sim::attachKernel accept
 * exactly ANVIL_KERNEL_ABI_VERSION, which changes with any layout
 * change.
 */

#ifndef ANVIL_RTL_KERNEL_ABI_H
#define ANVIL_RTL_KERNEL_ABI_H

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

#define ANVIL_KERNEL_ABI_VERSION 6u

/** The unit's view of a host context (the host extends it). */
typedef struct AnvilFrame
{
    /** Packed value words of every net, at rtl::kernelLayout()'s
     *  offsets; the unit's dense bodies address them directly. */
    uint64_t *s;
    /** The current frame's changed-net list and its length. */
    int32_t *out;
    uint64_t nout;
} AnvilFrame;

/** A level's dense body; returns nodes evaluated. */
typedef uint64_t (*AnvilLevelFn)(AnvilFrame *f);

/** What a compiled unit exports: its identity and level functions. */
typedef struct AnvilKernel
{
    uint32_t abi_version;   /* == ANVIL_KERNEL_ABI_VERSION */
    uint32_t net_count;     /* nets at emission time */
    uint64_t design_hash;   /* rtl::designHash of the netlist */
    uint64_t state_words;   /* packed value words of those nets */
    uint32_t level_count;   /* levels of the netlist's levelization */
    /** Per level, its straight-line body; null for an empty level.
     *  Null when level_count is 0. */
    const AnvilLevelFn *dense;
} AnvilKernel;

/** Entry point exported by every compiled kernel object. */
typedef const AnvilKernel *(*AnvilKernelEntryFn)(void);

#define ANVIL_KERNEL_ENTRY_SYMBOL "anvil_kernel"

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* ANVIL_RTL_KERNEL_ABI_H */
