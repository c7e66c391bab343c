/**
 * @file
 * The host half of the compiled backend: everything a kernel does
 * that is the same for every design, precompiled once with the
 * simulator instead of being emitted into (and compiled with) every
 * JIT unit.
 *
 * A JIT unit (rtl/kernel_abi.h) carries only the per-level node
 * bodies and a fixed change hook.  KernelLayout is the state layout
 * both halves agree on — per-net word offsets, levels and their
 * occupancy-bitmap words, the consumer CSR the change hook walks, and
 * the clock edge's wire, update and register tables — and
 * kernelLayout() is the one function that builds it, called by the
 * C++ emitter for the offsets it bakes into the node bodies and by
 * the JIT for the host, so the two cannot drift.  KernelHost is one
 * kernel context: it owns the state words and the frame the unit's
 * functions see, takes pokes, runs the level walk (per-level
 * escalation, dense-fallback hysteresis, activity counters) and
 * commits the clock edge.
 */

#ifndef ANVIL_RTL_KERNEL_HOST_H
#define ANVIL_RTL_KERNEL_HOST_H

#include <cstdint>
#include <memory>
#include <vector>

#include "rtl/kernel_abi.h"
#include "rtl/netlist.h"

namespace anvil {
namespace rtl {

/** Words a value of `width` bits takes in a kernel's state:
 *  ceil(width/64), at least one. */
inline uint32_t
kernelWords(int width)
{
    return width <= 0 ? 1u : static_cast<uint32_t>((width + 63) / 64);
}

/** How a netlist lies in a kernel context (see kernelLayout). */
struct KernelLayout
{
    /**
     * Per-level escalation rule: inside a sparse frame a level runs
     * its straight-line body once its queued count wn reaches
     * 1/kEscalateDiv of its nodes (wn * kEscalateDiv >= size).  A
     * level is only visited with wn >= 1, so a level of at most
     * kEscalateDiv nodes always escalates and gets no sparse drain.
     */
    static constexpr uint64_t kEscalateDiv = 4;

    /** A toggle-counted wire: its state and shadow words. */
    struct Wire
    {
        uint32_t off, shadow, words;
    };
    /** A register update: its enable and value words, its register. */
    struct Update
    {
        uint32_t en_off, en_words, val_off, val_words, reg;
    };
    /** A register: its net, state words, staging words, top-word mask. */
    struct Reg
    {
        NetId net;
        uint32_t off, words, next;
        uint64_t top;
    };

    size_t net_count = 0;
    std::vector<uint32_t> off;          // per net: first state word
    uint64_t state_words = 1;
    size_t strict_nodes = 0;
    std::vector<uint32_t> level_size;   // per level: strict nodes
    std::vector<uint32_t> bm_off;       // per level, plus the total
    std::vector<uint32_t> cons_begin;   // per net, plus the total
    std::vector<AnvilConsumer> cons;    // consumer CSR, in level order
    std::vector<int32_t> wire_of;       // per net: row in wires, or -1
    std::vector<Wire> wires;            // wireNets() order
    std::vector<Update> updates;        // declaration order
    std::vector<Reg> regs;              // regs() order
    uint64_t shadow_words = 0;
    uint64_t next_words = 0;
    /** Some wire, enable, value or register spans several words. */
    bool wide_edge = false;

    size_t levels() const { return level_size.size(); }
    bool hasSparseDrain(size_t level) const
    {
        return level_size[level] > kEscalateDiv;
    }
    /** Whether a unit's identity fields agree with this layout. */
    bool fits(const AnvilKernel &unit) const;
};

/**
 * The layout of `nl` in a kernel context.  Every net — sources,
 * strict nodes and lazy nodes — gets kernelWords(width) state words,
 * in net id order.  Level l's nodes are order()[levelBegin()[l] ..
 * levelBegin()[l + 1]), each at a dense slot in its level's bitmap
 * words.  A net's consumers are the strict nodes reading it (constant
 * operands excluded, one entry per reading node) in evaluation order.
 * The edge's tables leave out updates of unknown registers, which
 * fault host-side before the edge runs.
 */
KernelLayout kernelLayout(const Netlist &nl);

/**
 * One kernel context: a compiled unit's level functions run over
 * host-owned state.  Not thread-safe; distinct contexts may run on
 * distinct threads (the unit and the layout are immutable).
 */
class KernelHost : private AnvilFrame
{
  public:
    /** A context with every state word zero.  `unit` must fit
     *  `layout` (KernelLayout::fits). */
    KernelHost(const AnvilKernel &unit,
               std::shared_ptr<const KernelLayout> layout);
    KernelHost(const KernelHost &) = delete;
    KernelHost &operator=(const KernelHost &) = delete;

    /** The words of `net` (kernelWords(width) of them); stable for
     *  the context's lifetime. */
    uint64_t *netPtr(NetId net)
    {
        return s + _layout->off[static_cast<size_t>(net)];
    }

    /** Queue the strict consumers of `net`, whose words the caller
     *  just wrote, for the next eval().  Pokes between evals
     *  accumulate. */
    void poke(NetId net);

    /**
     * The levelized sweep.  A sparse frame visits the levels with
     * queued nodes in order and drains each one's bitmap, or runs its
     * dense body once the level escalates; a dense frame (`full`, or
     * the hysteresis after a frame that changed more than half the
     * strict nodes) runs every dense body.  Strict nets whose value
     * changed — exactly those — are appended to `changed` (net_count
     * capacity) and counted in *n_changed.  Returns the nodes
     * evaluated.
     */
    uint64_t eval(int32_t *changed, uint64_t *n_changed, bool full);

    /**
     * The clock edge, after the frame's eval().  Each toggle-counted
     * wire among `changed` (ids at or above the layout's net count
     * are skipped) adds the popcount of its words xor its shadow
     * words and then stores them there.  Every update whose enable is
     * nonzero writes its value, truncated or zero-extended to its
     * register, in declaration order, so the last firing update of a
     * register wins.  Registers whose value moved are committed in
     * ascending register order: their flips are counted, their
     * consumers queued as by poke(), and their nets appended to
     * `regs` (one slot per register) and counted in *n_regs.  Returns
     * the wire toggles plus the register flips.
     */
    uint64_t edge(const int32_t *changed, uint64_t n_changed,
                  int32_t *regs, uint64_t *n_regs);

    /** Every toggle-counted wire's words as edge() last stored them
     *  (wires in wireNets() order, kernelWords(width) each); zero
     *  until the caller seeds them. */
    uint64_t *shadow() { return _shadow.data(); }

    /** Cumulative node evaluations per level, both frame kinds. */
    std::vector<uint64_t> levelEvals() const;
    /** Frames run on the dense path. */
    uint64_t denseFrames() const { return _dense_frames; }
    /** Sparse-to-dense hysteresis entries. */
    uint64_t fallbackSwitches() const { return _fallback_switches; }

  private:
    /** A level's part in the walk. */
    struct Turn
    {
        AnvilLevelFn dense, sparse;
        uint64_t evals;         // nodes evaluated, both frame kinds
        /** A sparse frame drains the level while its queued count
         *  times kEscalateDiv stays below this: the level's size, or
         *  0 when it has no drain. */
        uint32_t drain_below;
        uint32_t bm_begin, bm_end;   // the level's bitmap words
    };

    template <bool Wide>
    uint64_t edgeWords(const int32_t *changed, uint64_t n_changed,
                       int32_t *regs, uint64_t *n_regs);

    std::shared_ptr<const KernelLayout> _layout;
    // Storage behind the frame's s, wbm and queued.
    std::vector<uint64_t> _state;
    std::vector<uint64_t> _bitmap;
    std::vector<uint32_t> _queued;
    std::vector<Turn> _turns;          // per level, in order
    std::vector<uint64_t> _shadow;     // wire words at the last edge
    std::vector<uint64_t> _next;       // staged register words
    std::vector<uint64_t> _staged;     // bitmap of staged registers
    bool _prefer_dense = false;        // hysteresis state
    uint64_t _dense_frames = 0;
    uint64_t _fallback_switches = 0;
};

} // namespace rtl
} // namespace anvil

#endif // ANVIL_RTL_KERNEL_HOST_H
