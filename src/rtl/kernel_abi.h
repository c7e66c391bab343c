/**
 * @file
 * C ABI between the simulator and a compiled netlist kernel.
 *
 * `anvilc --emit-cpp` (src/codegen/cpp_emitter.cpp) lowers the strict
 * combinational portion of a levelized rtl::Netlist to straight-line
 * C++, adds the table-driven clock edge, and wraps both in the struct
 * below; the JIT (src/codegen/jit.cpp)
 * compiles that source with the system compiler and dlopens the
 * resulting shared object.  The generated file embeds its own copy of
 * this struct definition so an --emit-cpp dump compiles standalone —
 * the two copies are tied together by `abi_version`, and an attach is
 * additionally gated on `design_hash` (rtl::designHash) and
 * `net_count` so a stale object can never be bound to the wrong
 * netlist.
 *
 * Division of labour: the kernel owns the arithmetic of the whole
 * cycle.  eval() is the levelized strict sweep (sources in, changed
 * strict nets out); edge() is the clock edge: it counts wire toggles
 * against per-context shadow words, applies the firing register
 * updates, commits the registers that changed, counts their flips and
 * queues their consumers for the next eval().  The host (rtl::Sim)
 * keeps lazy cones, prints, pokes and every observer: it pushes
 * sources in via net_ptr()+poke(), writes each lazy net's evaluated
 * words into that net's slot before edge() (every net has one), and
 * raises the edge's faults (combinational loops, an update of an
 * unknown register) before calling in.  Values are packed
 * little-endian 64-bit words, ceil(width/64) (min 1) words per net,
 * normalized (bits at or above the width are zero) exactly like
 * anvil::BitVec.
 *
 * The contract:
 *  - eval()'s changed list is EXACT — a strict net appears iff its
 *    committed value differs from the previous eval;
 *  - the kernel is event-driven internally (per-level exact worklists
 *    seeded by poke(), change-cutting, and an adaptive dense fallback
 *    mirroring the interpreter's hysteresis);
 *  - stats() exports the kernel's own activity counters so the host
 *    can fold them into its sweep telemetry;
 *  - level_stats() exports cumulative node evaluations per level, so
 *    the host's hot-cone report covers the compiled backend too;
 *  - edge() commits exactly what rtl::Sim's interpreter edge commits
 *    and returns exactly the registers whose value changed.
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

#define ANVIL_KERNEL_ABI_VERSION 4u

/** Activity counters accumulated by a kernel context since create().
 *  Mirrors the host-side SweepStats vocabulary. */
typedef struct AnvilKernelStats
{
    uint64_t frames;            /* eval() + eval_full() calls */
    uint64_t dense_frames;      /* frames run on the dense path */
    uint64_t fallback_switches; /* sparse->dense hysteresis entries */
    uint64_t nodes_evaluated;   /* strict node evaluations, total */
    uint64_t nets_changed;      /* changed-net records, total */
} AnvilKernelStats;

/** Kernel vtable.  All functions are thread-compatible: distinct
 *  contexts may be driven from distinct threads, one context must not
 *  be entered concurrently. */
typedef struct AnvilKernel
{
    uint32_t abi_version;   /* == ANVIL_KERNEL_ABI_VERSION */
    uint32_t net_count;     /* nets at emission time */
    uint64_t design_hash;   /* rtl::designHash of the netlist */
    uint64_t state_words;   /* packed value words per context */

    /** Allocate a context holding the design's initial values.
     *  Returns NULL on allocation failure. */
    void *(*create)(void);
    void (*destroy)(void *ctx);

    /** Pointer to the value words of `net` (valid for the context's
     *  lifetime; ceil(width/64), min 1, words). */
    uint64_t *(*net_ptr)(void *ctx, int32_t net);

    /** Mark a source net changed after the host wrote its words via
     *  net_ptr(): its strict consumers are queued on their levels'
     *  worklists for the next eval().  Idempotent per net between
     *  evals. */
    void (*poke)(void *ctx, int32_t net);

    /**
     * Event-driven sweep: drain the per-level worklists in levelized
     * order, re-evaluating only queued nodes; a node whose value is
     * unchanged does not queue its consumers (change-cutting).  When
     * the previous frame's activity crossed the dense-fallback
     * threshold the whole table is recomputed straight-line instead.
     * Either way, strict nets whose committed value changed — exactly
     * those — are appended to `changed` (caller-provided, net_count
     * capacity) and counted in *n_changed.  Returns the number of
     * node evaluations.
     */
    uint64_t (*eval)(void *ctx, int32_t *changed, uint64_t *n_changed);

    /** Dense sweep: evaluate every strict node, reporting changes by
     *  value comparison (the resync path after attach/mode switch).
     *  Pending worklist state is consumed and cleared. */
    uint64_t (*eval_full)(void *ctx, int32_t *changed,
                          uint64_t *n_changed);

    /** Copy the context's activity counters into *out. */
    void (*stats)(void *ctx, AnvilKernelStats *out);

    /** Logic levels in the emitted design's levelization. */
    uint32_t level_count;

    /** Copy cumulative node evaluations per level into out[0 ..
     *  level_count); caller provides level_count slots.  Counts since
     *  create(), accumulated on both sparse and dense paths. */
    void (*level_stats)(void *ctx, uint64_t *out);

    /**
     * Clock edge, called once per cycle after the frame's eval().
     * `changed` holds the frame's changed nets (n_changed of them;
     * ids at or above net_count are skipped): each toggle-counted
     * wire among them adds the popcount of its value xor its shadow
     * words and then stores its value there.  Every update whose
     * enable is nonzero then writes its value, truncated or
     * zero-extended to the register's width, in declaration order,
     * so the last firing update of a register wins.  Registers whose
     * value moved are committed in ascending register order: their
     * flips are counted, their strict consumers are queued as by
     * poke(), and their net ids are appended to `regs` (caller
     * provided, one slot per register) and counted in *n_regs.
     * Returns the toggles counted: wire toggles plus register flips.
     */
    uint64_t (*edge)(void *ctx, const int32_t *changed,
                     uint64_t n_changed, int32_t *regs,
                     uint64_t *n_regs);

    /** The context's wire shadow: the words of every toggle-counted
     *  wire (rtl::Netlist::wireNets() order, ceil(width/64), min 1,
     *  words each) as edge() last stored them.  Zero after create();
     *  the host seeds it before the first edge(). */
    uint64_t *(*shadow_ptr)(void *ctx);
} AnvilKernel;

/** Entry point exported by every compiled kernel object. */
typedef const AnvilKernel *(*AnvilKernelEntryFn)(void);

#define ANVIL_KERNEL_ENTRY_SYMBOL "anvil_kernel"

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* ANVIL_RTL_KERNEL_ABI_H */
