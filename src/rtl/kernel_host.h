/**
 * @file
 * The word-level simulator: everything that works on a netlist's
 * packed state words, and is the same for every design, so it is
 * precompiled once with the simulator instead of being emitted into
 * (and compiled with) every JIT unit.
 *
 * KernelLayout is the state layout — per-net word offsets, levels and
 * their occupancy-bitmap words, the consumer marks a change queues,
 * the clock edge's wire, update and register tables, and every node
 * that computes lowered once to a fixed-size record over those
 * offsets — and kernelLayout() is the one function that builds it.
 * Each rtl::Netlist builds its layout once (Netlist::layout()) and
 * extends it by the nets it appends later (extendLayout); the C++
 * emitter prints its strict records into the node bodies and every
 * Sim on the netlist reads the same object, so the two cannot drift.
 * What a record computes is defined once, in rtl/word_ops.h: the
 * executor's step dispatches each record to those functions, and
 * every JIT unit calls the same ones.
 *
 * KernelHost runs every rtl::Sim: it owns the state words, the
 * occupancy bitmaps and the frame the level functions see, takes
 * pokes, runs the level walk and queues the consumers of every
 * change, and runs single records for the Sim's lazy walk (exec).
 * The host executor, which interprets the layout's node records, runs
 * every level until a JIT unit is attached; attaching swaps in the
 * unit's dense bodies and moves no value.  With a unit,
 * a sparse frame still drains a level through the executor's records
 * and escalates to the unit's body once the level's queue reaches
 * 1/kEscalateDiv of it, and its frames fall back to dense on the
 * host's hysteresis; without one, the executor drains every queued
 * level exactly and runs a dense frame only when its caller asks.
 * ClockEdge is the clock edge every Sim commits through, over the
 * same words.
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

// The record opcodes and step functions (XOp, XPart, XWide,
// kernelWords, ...), which JIT units embed as text.
#define ANVIL_WORD_OPS(...) __VA_ARGS__
#include "rtl/word_ops.h"
#undef ANVIL_WORD_OPS

/** How a netlist's values lie in packed state words, and its strict
 *  nodes as records over them (see kernelLayout). */
struct KernelLayout
{
    /**
     * The per-level escalation rule with a compiled unit attached:
     * inside a sparse frame a level runs the unit's straight-line body
     * once its queued count wn reaches 1/kEscalateDiv of its nodes
     * (wn * kEscalateDiv >= size), and is drained by the host executor
     * below that.  A level is only visited with wn >= 1, so a level of
     * at most kEscalateDiv nodes always escalates.  Without a unit the
     * executor drains every level and never escalates.
     */
    static constexpr uint64_t kEscalateDiv = 4;

    /** A toggle-counted net: its state and shadow words, and how many
     *  named wires it carries (a rename shares its driver's net), each
     *  of which counts its toggles. */
    struct Wire
    {
        uint32_t off, shadow, words, names;
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
    /**
     * A node record: an XOp (rtl/word_ops.h) over word offsets.  `a`,
     * `b` and `c` are operand offsets or, per opcode (stateArgs), an
     * immediate (a shift, a width) or a side-table range (Concat
     * parts, ROM words).  In the narrow lane (the node and its
     * operands fit a word) `k` is the node's mask; in the wide lane
     * it indexes `wide`.
     */
    struct Node
    {
        uint8_t op;
        NetId net;
        uint32_t dst, a, b, c;
        uint64_t k;
    };
    /** A net's consumers in one bitmap word: their bits, the word,
     *  and the level that owns it. */
    struct Mark
    {
        uint64_t bits;
        uint32_t word, level;
    };

    /** Nets and state words as built, which units know; the nets
     *  Netlist::compile appends later lie past both (extendLayout). */
    size_t net_count = 0;
    std::vector<uint32_t> off;          // per net: first state word
    std::vector<int32_t> width;         // per net: its bits
    uint64_t state_words = 1;
    size_t strict_nodes = 0;
    std::vector<uint32_t> level_size;   // per level: strict nodes
    std::vector<uint32_t> bm_off;       // per level, plus the total
    /** Each net's strict consumers merged per bitmap word, which is
     *  how the host queues them: net n's are marks[mark_begin[n] ..
     *  mark_begin[n + 1]), so a net read by a whole level costs a few
     *  word ORs, not one update per consumer. */
    std::vector<uint32_t> mark_begin;   // per net, plus the total
    std::vector<Mark> marks;
    std::vector<int32_t> wire_of;       // per net: row in wires, or -1
    std::vector<Wire> wires;            // wireNets() order, one per net
    std::vector<Update> updates;        // declaration order
    /** Enable CSR: the rows of `updates` enabled by net n are
     *  en_updates[en_begin[n] .. en_begin[n + 1]). */
    std::vector<uint32_t> en_begin;     // per net, plus the total
    std::vector<uint32_t> en_updates;
    std::vector<Reg> regs;              // regs() order
    uint64_t shadow_words = 0;
    uint64_t next_words = 0;
    /** Some wire, enable, value or register spans several words. */
    bool wide_edge = false;
    /** Every strict node in order() order, so level l's k-th slot is
     *  nodes[levelBegin()[l] + k], then every lazy node that computes;
     *  their side tables; and the most words any wide node writes. */
    std::vector<Node> nodes;
    std::vector<int32_t> node_of;       // per net: its record, or -1
    std::vector<XWide> wide;
    std::vector<XPart> parts;
    std::vector<uint64_t> rom;          // entries at their node's width
    uint32_t max_words = 1;

    size_t levels() const { return level_size.size(); }
    /** Words a context holds: state_words and the appended nets'. */
    uint64_t contextWords() const
    {
        return off.size() > net_count
            ? off.back() + kernelWords(width.back())
            : state_words;
    }
    /** Whether a unit's identity fields agree with this layout. */
    bool fits(const AnvilKernel &unit) const;
};

/**
 * The layout of `nl`'s state words.  Every net — sources, strict
 * nodes and lazy nodes — gets kernelWords(width) state words, in net
 * id order.  Level l's nodes are order()[levelBegin()[l] ..
 * levelBegin()[l + 1]), each at a dense slot in its level's bitmap
 * words.  A net's consumers are the strict nodes reading it (constant
 * operands excluded), each marked once in its level's bitmap.
 * The edge's tables leave out updates of unknown registers, which
 * fault host-side before the edge stages anything.  Each node that
 * computes, strict or lazy, is lowered to one Node record with the
 * semantics of rtl::RefSim's BitVec operators.
 */
KernelLayout kernelLayout(const Netlist &nl);

/**
 * Extend `L`, the layout of `nl`, by the nets nl.compile() appended
 * since: each takes state words past the layout's and, when it
 * computes, a record after the others.  net_count, state_words and
 * every table a unit or the edge reads stay as built.
 */
void extendLayout(const Netlist &nl, KernelLayout &L);

/**
 * The host executor's step for one of `L`'s node records: computes
 * the node from the state words `s` and, when its words moved, stores
 * them and returns true.  `tmp` holds L.max_words words of scratch.
 */
bool execNode(const KernelLayout &L, const KernelLayout::Node &n,
              uint64_t *s, uint64_t *tmp);

/**
 * The dense-fallback hysteresis: a frame that changed more than half
 * of the `strict` nodes moves the next frames onto the dense path,
 * and one that changed under 40% moves them back.  Returns whether
 * this frame entered the dense path.  rtl::Sim applies it to its
 * frames on the executor, KernelHost to a JIT unit's frames.
 */
inline bool
denseFallback(bool &prefer_dense, uint64_t changed, uint64_t strict)
{
    if (!strict)
        return false;
    if (changed * 2 > strict) {
        bool entered = !prefer_dense;
        prefer_dense = true;
        return entered;
    }
    if (changed * 5 < strict * 2)
        prefer_dense = false;
    return false;
}

/**
 * The clock edge over state words at a layout's offsets: wire toggles
 * against a shadow, the firing updates staged (the last one to a
 * register wins), and the registers that moved committed.  rtl::Sim
 * owns one for a whole run and runs it over its KernelHost's state,
 * whichever unit sweeps, so a mid-run attach hands nothing over.  The
 * edge keeps the wire shadow, the armed set (the updates whose enable
 * is nonzero, kept fresh from each frame's changed nets, so an edge
 * costs O(activity)), and the staging words.
 */
class ClockEdge
{
  public:
    explicit ClockEdge(std::shared_ptr<const KernelLayout> layout);

    /**
     * The edge's first half, once the words `s` hold the frame's
     * values.  The first call adopts every wire's words as its shadow
     * and arms every update whose enable is nonzero, counting nothing.
     * Later calls visit only `changed`, the nets that may have moved
     * since the previous edge (ids at or past the layout's net count
     * are skipped): a toggle-counted net adds the popcount of its
     * words xor its shadow words, once per wire it carries, and stores
     * them there, and an enable re-arms its updates.  Returns the wire
     * toggles.
     */
    uint64_t sample(const uint64_t *s, const int32_t *changed,
                    uint64_t n_changed);

    /**
     * The second half: every armed update writes its value, truncated
     * or zero-extended to its register, in declaration order, so the
     * last one to a register wins.  Registers whose value moved are
     * committed into `s` in ascending register order, their nets
     * appended to `regs` (one slot per register) and counted in
     * *n_regs.  Returns their bit flips.
     */
    uint64_t commit(uint64_t *s, int32_t *regs, uint64_t *n_regs);

    /**
     * What commit() would write, without committing: every update
     * whose enable is nonzero in `s` (armed or not) is staged, the
     * last one to a register winning.  The staged registers' indices
     * go to `regs` in ascending order, their words stay readable at
     * staged() until the next stage() or commit(); returns how many.
     * Neither the shadow nor the armed set changes.
     */
    uint64_t stage(const uint64_t *s, int32_t *regs);
    const uint64_t *staged(uint32_t reg) const
    {
        return _next.data() + _layout->regs[reg].next;
    }

  private:
    template <bool Wide>
    uint64_t sampleWords(const uint64_t *s, const int32_t *changed,
                         uint64_t n_changed);
    template <bool Wide>
    uint64_t commitWords(uint64_t *s, int32_t *regs, uint64_t *n_regs);
    template <bool Wide>
    void arm(const uint64_t *s, uint32_t update);
    template <bool Wide>
    void stageUpdate(const uint64_t *s, uint32_t update);

    std::shared_ptr<const KernelLayout> _layout;
    std::vector<uint64_t> _shadow;   // wire words at the last edge
    std::vector<uint64_t> _next;     // staged register words
    std::vector<uint64_t> _staged;   // bitmap of staged registers
    std::vector<uint64_t> _armed;    // bitmap of armed updates
    bool _primed = false;            // the first sample() has run
};

/**
 * One simulation context: state words, occupancy bitmaps and the
 * level walk over them.  Its level functions are the host executor's,
 * which interpret the layout's node records, until attach() swaps in
 * a compiled unit's dense bodies; the executor still drains the
 * levels a unit's sparse frame does not escalate.  The clock edge is
 * the Sim's ClockEdge, run over state().  Not thread-safe; distinct
 * contexts may run on distinct threads (units and layouts are
 * immutable).
 */
class KernelHost : private AnvilFrame
{
  public:
    /** A context with every state word zero, on the executor. */
    explicit KernelHost(std::shared_ptr<const KernelLayout> layout);
    KernelHost(const KernelHost &) = delete;
    KernelHost &operator=(const KernelHost &) = delete;

    /**
     * Run `unit`'s dense bodies from the next eval() on, which must
     * fit the layout (KernelLayout::fits).  The state words and queued
     * nodes stay; the activity counters restart.
     */
    void attach(const AnvilKernel &unit);

    /** Count the executor's node evaluations into counts[net] (null
     *  stops counting; a compiled unit never counts). */
    void countEvals(uint64_t *counts);

    /** The state words (the layout's contextWords() of them); net
     *  n's are at the layout's off[n].  Stable until grow(). */
    uint64_t *state() { return s; }

    /** Take up the words of nets the layout gained since (zero); the
     *  state words move. */
    void grow();

    /** Run net `net`'s record once over the state words (rtl::Sim's
     *  lazy walk); returns whether its words moved. */
    bool exec(NetId net);

    /** Queue the strict consumers of `net`, whose words the caller
     *  just wrote, for the next eval().  Pokes between evals
     *  accumulate. */
    void poke(NetId net);

    /**
     * The levelized sweep.  A sparse frame visits the levels with
     * queued nodes in order and drains each one's bitmap through the
     * executor or, with a compiled unit, runs the unit's dense body
     * once the level escalates, then queues the consumers of what
     * either changed; a dense frame (`full`, or, with a compiled unit,
     * denseFallback() after a frame that changed more than half the
     * strict nodes) runs every dense body.  Strict nets whose value
     * changed — exactly those — are appended to `changed` (capacity:
     * the strict nodes) and counted in *n_changed.  Returns the nodes
     * evaluated.
     */
    uint64_t eval(int32_t *changed, uint64_t *n_changed, bool full);

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
        AnvilLevelFn dense;     // the unit's body, or the executor's
        uint64_t evals;         // nodes evaluated, both frame kinds
        /** A sparse frame drains the level while its queued count
         *  times kEscalateDiv stays below this: the level's size with
         *  a compiled unit, and unbounded for the executor alone,
         *  which drains exactly. */
        uint64_t drain_below;
        uint32_t bm_begin, bm_end;   // the level's bitmap words
        uint32_t node_begin, nodes;  // its records in layout nodes
    };

    /** The executor's level functions over the current turn's
     *  records: every node, or the queued ones (a drain). */
    template <bool Count>
    static uint64_t execDense(AnvilFrame *f);
    template <bool Count>
    static uint64_t execSparse(AnvilFrame *f);
    void useExecutor();

    std::shared_ptr<const KernelLayout> _layout;
    std::vector<uint64_t> _state;      // storage behind the frame's s
    /** Per-level occupancy bitmaps: level l owns the words
     *  [bm_off[l], bm_off[l + 1]), bit k marking its k-th node
     *  queued. */
    std::vector<uint64_t> _bitmap;
    /** Per level, enqueues since it was last drained (an upper bound
     *  on its queued nodes). */
    std::vector<uint32_t> _queued;
    std::vector<Turn> _turns;          // per level, in order
    AnvilLevelFn _drain = nullptr;     // the executor's drain
    const Turn *_turn = nullptr;       // the level being run
    uint64_t *_counts = nullptr;       // executor eval counts, or null
    std::vector<uint64_t> _tmp;        // a wide node's words
    bool _unit = false;                // a compiled unit is attached
    bool _prefer_dense = false;        // a unit's hysteresis state
    uint64_t _dense_frames = 0;
    uint64_t _fallback_switches = 0;
};

} // namespace rtl
} // namespace anvil

#endif // ANVIL_RTL_KERNEL_HOST_H
