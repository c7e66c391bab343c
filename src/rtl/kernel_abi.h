/**
 * @file
 * C ABI between the simulator and a compiled netlist kernel.
 *
 * `anvilc --emit-cpp` (src/codegen/cpp_emitter.cpp) lowers the strict
 * combinational portion of a levelized rtl::Netlist to straight-line
 * C++: one function per logic level plus, for the levels that can
 * drain sparsely, one occupancy-bitmap drain.  Those functions, the
 * design's ROM tables and, when some node is wide, the packed-word
 * helpers are all the unit carries; the JIT (src/codegen/jit.cpp)
 * compiles it with the system compiler and dlopens the result.  The
 * generated file embeds its own copy of the structs below so an
 * --emit-cpp dump compiles standalone — the two copies are tied
 * together by `abi_version`, and an attach is additionally gated on
 * `design_hash` (rtl::designHash), `net_count`, `state_words` and
 * `level_count`, so a stale object can never be bound to the wrong
 * netlist.
 *
 * Division of labour: the unit holds only what differs between
 * designs, the node arithmetic.  Everything that is the same for
 * every design is precompiled host code (rtl/kernel_host.h):
 * rtl::KernelHost owns the context, the state words at their per-net
 * offsets, pokes, the level walk with its escalation rule,
 * dense-fallback hysteresis and activity counters, and the consumer
 * tables the change hook walks.  The same host runs every rtl::Sim:
 * until a unit is attached, its level functions are the host
 * executor's, which interpret the layout's node records with the
 * contract below, so attaching a unit swaps functions and moves no
 * value.  The clock edge is not the kernel's: rtl::Sim commits
 * through one rtl::ClockEdge (wire toggles against shadow words,
 * staged updates, register commits) over the same state words.  The
 * unit keeps one fixed, design-independent change hook that walks
 * the host's tables through the frame: a call into the host for
 * every changed node would cost the sweep more than the hook costs
 * the compile.  Host, edge and unit agree on the state layout because
 * all of them read the netlist's one rtl::kernelLayout()
 * (rtl::Netlist::layout).
 * Values are packed little-endian 64-bit words, ceil(width/64) (min
 * 1) words per net, normalized (bits at or above the width are zero)
 * exactly like anvil::BitVec.
 *
 * The contract for a level function, called by the host's level walk
 * with the level's turn:
 *  - the dense body evaluates every node of its level, in order, from
 *    the state words of earlier levels and sources;
 *  - the sparse drain evaluates exactly the nodes whose slot bits are
 *    set in the level's occupancy-bitmap words, in ascending slot
 *    order, and clears those words;
 *  - either way a node whose value differs from its stored words is
 *    stored and appended to `out`, and, unless the frame is dense, its
 *    consumers are queued (their bits set and their levels' `queued`
 *    counts raised); an unchanged node does neither (change-cutting);
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

#define ANVIL_KERNEL_ABI_VERSION 5u

/** A strict consumer of a net: where its occupancy bit lives. */
typedef struct AnvilConsumer
{
    uint32_t word;    /* occupancy-bitmap word */
    uint32_t bit;     /* bit within that word */
    uint32_t level;   /* the consumer's level */
} AnvilConsumer;

/** The unit's view of a host context (the host extends it). */
typedef struct AnvilFrame
{
    /** Packed value words of every net, at rtl::kernelLayout()'s
     *  offsets; the unit's level functions address them directly. */
    uint64_t *s;
    /** Per-level occupancy bitmaps: level l owns the words at the
     *  layout's bitmap offsets [bm_off[l], bm_off[l + 1]), bit k
     *  marking the level's k-th node queued. */
    uint64_t *wbm;
    /** Per level, enqueues since it was last drained (an upper bound
     *  on its queued nodes). */
    uint32_t *queued;
    /** Consumer CSR: net n's strict consumers are
     *  cons[cons_begin[n] .. cons_begin[n + 1]). */
    const uint32_t *cons_begin;
    const AnvilConsumer *cons;
    /** The current frame's changed-net list and its length. */
    int32_t *out;
    uint64_t nout;
    /** Nonzero while the frame runs every dense body: a change is
     *  listed but queues nothing. */
    uint32_t dense;
} AnvilFrame;

/** A level's dense body or sparse drain; returns nodes evaluated. */
typedef uint64_t (*AnvilLevelFn)(AnvilFrame *f);

/** What a compiled unit exports: its identity and level functions. */
typedef struct AnvilKernel
{
    uint32_t abi_version;   /* == ANVIL_KERNEL_ABI_VERSION */
    uint32_t net_count;     /* nets at emission time */
    uint64_t design_hash;   /* rtl::designHash of the netlist */
    uint64_t state_words;   /* packed value words per context */
    uint32_t level_count;   /* levels of the netlist's levelization */
    /** Per level, its straight-line body; null for an empty level.
     *  Null when level_count is 0. */
    const AnvilLevelFn *dense;
    /** Per level, its occupancy-bitmap drain; null for a level small
     *  enough that the escalation rule always runs its dense body.
     *  Null when level_count is 0. */
    const AnvilLevelFn *sparse;
} AnvilKernel;

/** Entry point exported by every compiled kernel object. */
typedef const AnvilKernel *(*AnvilKernelEntryFn)(void);

#define ANVIL_KERNEL_ENTRY_SYMBOL "anvil_kernel"

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* ANVIL_RTL_KERNEL_ABI_H */
