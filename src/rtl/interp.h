/**
 * @file
 * Cycle-accurate simulator for the structural RTL IR, built on a
 * compiled netlist (rtl/netlist.h).
 *
 * The design hierarchy is flattened and compiled once at
 * construction: signal names are interned to dense integer ids,
 * expression DAGs become compact ID-resolved nodes, and combinational
 * logic is levelized.  The netlist's layout (rtl::KernelLayout) packs
 * every net into 64-bit state words and lowers every strict node to a
 * fixed-size record over them.  Those words are the simulator's
 * state: inputs and registers are written into them, the sweep reads
 * and writes them, and the clock edge commits into them.
 *
 * Each cycle has two phases, mirroring synchronous RTL semantics: a
 * levelized sweep computes combinational nodes (wires are pure
 * functions of registers and top-level inputs), then the clock edge
 * (rtl::ClockEdge) commits all enabled register updates
 * simultaneously.  The sweep is rtl::KernelHost's level walk, run by
 * the host executor over the node records or, once a JIT unit is
 * attached (attachKernel), by the unit's compiled dense bodies for
 * dense frames and escalated levels, the executor draining the rest.
 *
 * The sweep is event-driven by default (SweepMode::Dirty): a source
 * whose words change queues its strict consumers in per-level
 * occupancy bitmaps, and only the queued nodes are re-evaluated, in
 * levelized order; a node whose words are unchanged queues nothing.
 * Cost is therefore proportional to switching activity, not design
 * size.  When most of the design switches anyway, the sweep falls
 * back to whole dense levels on its own (see rollFrame);
 * SweepMode::Full forces that dense path every cycle and serves as
 * the reference the tests and benchmarks compare against.  Both modes
 * are bit-identical.
 *
 * The per-cycle list of changed nets is exposed (changedNets), so
 * observers — VCD tracing, coverage toggle sampling, contract
 * monitors — consume change events instead of rescanning the whole
 * net table every cycle, and read the changed values as words
 * (words()).  Values as BitVecs (value(), peek()) are copied out of
 * the words on demand and cached.
 *
 * Nets on or behind a combinational cycle or an unresolved reference,
 * and the nets topNet appends, are lazy: a recursive walk evaluates
 * them only when read and at the clock edge, with the reference
 * interpreter's fault semantics, running each node's layout record
 * over the same state words as the sweep.
 *
 * A named wire that only renames a net shares that net (see
 * rtl/netlist.h): the sweep never evaluates it, peeks and observers
 * read the net under every name, and the edge counts the net's toggles
 * once per wire it carries, as the reference interpreter counts each
 * wire.
 *
 * The clock edge also counts per-signal bit toggles, which the
 * synthesis cost model uses as switching activity for dynamic power.
 * The original recursive interpreter is preserved as rtl::RefSim
 * (rtl/ref_interp.h) and serves as the differential-testing oracle;
 * both produce identical peeks, logs, and toggle counts.
 */

#ifndef ANVIL_RTL_INTERP_H
#define ANVIL_RTL_INTERP_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rtl/kernel_abi.h"
#include "rtl/kernel_host.h"
#include "rtl/netlist.h"
#include "rtl/rtl.h"

namespace anvil {
namespace rtl {

/**
 * Monotonic wall clock in nanoseconds — the one time source every
 * telemetry consumer shares (Sim phase timing, observer visit
 * timing, the JIT compile path), so Chrome-trace tracks line up.
 */
uint64_t monotonicNanos();

/** Timed phases of one simulation step, reported to a telemetry sink. */
enum class SimPhase : uint8_t
{
    Sweep,       // the host executor's sweep (dense or dirty)
    KernelEval,  // a compiled kernel's sweep
    Commit,      // clock edge: toggles, next-state, prints, commit
};

constexpr int kSimPhaseCount = 3;

/** Phase name ("sweep", "kernel", "commit"). */
const char *simPhaseName(SimPhase phase);

/**
 * Telemetry times one cycle in kTelemetryStride: rtl::Sim its phases
 * on the cycles where cycle % kTelemetryStride == 0, and
 * obs::ChangeFeed its steady-state observer visits on a hashed one in
 * kTelemetryStride.  Sinks extrapolate whole-run times from those
 * samples; counts stay exact.
 */
constexpr uint64_t kTelemetryStride = 16;

/**
 * Per-phase timing sink (see obs::TraceProfiler).  Installed with
 * Sim::setTelemetry; when none is installed the hot path takes no
 * clock reads at all, and with one installed it reads the clock only
 * on the sampled cycles (kTelemetryStride).  Timestamps come from
 * monotonicNanos().
 */
class SimTelemetry
{
  public:
    virtual ~SimTelemetry() = default;
    /** A phase window of a sampled cycle. */
    virtual void simPhase(SimPhase phase, uint64_t cycle,
                          uint64_t begin_ns, uint64_t end_ns) = 0;
    /** A phase that ran on an unsampled cycle, untimed; sinks that
     *  extrapolate count these. */
    virtual void simPhaseUntimed(SimPhase phase) { (void)phase; }
};

/**
 * A compiled kernel (kernel_abi.h) and whatever owns the unit's
 * lifetime — typically the dlopen'd library held by
 * codegen::CompiledKernel.  The unit was emitted at the offsets of
 * its netlist's layout (Netlist::layout), which a Sim checks it
 * against on attach.  Default-constructed means "no kernel": Sim and
 * the BMC take this by value and simply stay on the host executor
 * when abi is null.
 */
struct KernelRef
{
    const AnvilKernel *abi = nullptr;
    std::shared_ptr<void> hold;   // keeps the mapped library alive
};

/** Strategy used to recompute combinational values each cycle. */
enum class SweepMode : uint8_t
{
    Full,      // force the dense sweep over every strict node
    Dirty,     // event-driven: only the changed fan-out cone
};

/** Human-readable mode name ("full", "dirty"). */
const char *sweepModeName(SweepMode mode);

/**
 * A net's current words: `width` bits, little-endian, in
 * kernelWords(width) words, bits at or above the width zero.
 */
struct WordView
{
    const uint64_t *w;
    int32_t width;

    uint32_t words() const { return kernelWords(width); }
    bool any() const
    {
        for (uint32_t k = 0; k < words(); k++)
            if (w[k])
                return true;
        return false;
    }
};

/**
 * Activity counters for the sweep, accumulated per committed cycle.
 * The activity factor (nodes_evaluated / (cycles * strict_nodes)) is
 * the fraction of the design the dirty sweep actually touches.
 */
struct SweepStats
{
    SweepMode mode = SweepMode::Dirty;
    /** Always 1 (the sweep is single-threaded); kept so readers
     *  such as perfbench/driver.cpp still compile. */
    int threads = 1;
    size_t strict_nodes = 0;      // strict comb nodes in the design
    uint64_t cycles = 0;          // committed cycles observed
    uint64_t nodes_evaluated = 0; // strict node evaluations, total
    uint64_t peak_nodes = 0;      // most evaluations in one cycle
    uint64_t nets_changed = 0;    // changed-net records, total
    uint64_t peak_changed = 0;    // most changed nets in one cycle
    uint64_t kernel_frames = 0;   // sweeps run by a compiled kernel
    /** Times the adaptive fallback switched the dirty sweep onto the
     *  dense path (rollFrame hysteresis entries). */
    uint64_t dense_fallback_switches = 0;
    /** A compiled kernel's own activity (rtl::KernelHost's counters
     *  since the attach, refreshed on each sweepStats() read): frames
     *  it ran densely, and its own sparse->dense hysteresis entries.
     *  Zero on the host executor. */
    uint64_t kernel_dense_frames = 0;
    uint64_t kernel_fallback_switches = 0;

    double avgNodes() const
    {
        return cycles ? static_cast<double>(nodes_evaluated) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
    double avgChanged() const
    {
        return cycles ? static_cast<double>(nets_changed) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * Simulator for a flattened module hierarchy.
 *
 * Signal names use the instance path: a wire `w` inside instance `u`
 * of the top module is `u.w`.  Top-level signals are unprefixed.
 * Names are only touched at the API boundary (setInput/peek/...);
 * stepping works purely on interned ids.  Per-cycle stimulus pokes
 * by id too: resolve each input once with inputId(name), then drive
 * it every cycle with setInput(NetId, const BitVec &) or
 * setInput(NetId, uint64_t) — the name overloads are that lookup
 * plus the same poke.
 *
 * Each step() sweeps (the host executor's level walk, dirty or
 * dense, or an attached kernel's), evaluates the lazy roots, and
 * commits one clock edge through the Sim's ClockEdge.  Sweep and edge
 * run over the same state words, the Sim's KernelHost's; the
 * registers the edge commits stay there and queue the next sweep.
 */
class Sim
{
  public:
    explicit Sim(std::shared_ptr<const Module> top);

    /**
     * Share one prebuilt immutable netlist across many Sim
     * instances (the farm fan-out: compile once, simulate N seeds).
     * All runtime state (values, worklists, register frames) is
     * per-instance, so sharing is thread-safe as long as the
     * netlist itself is never mutated — which is why topNet's
     * ad-hoc compile path throws std::logic_error on a shared-
     * netlist Sim instead of appending nodes.  `netlist` must have
     * been built from `top`.
     */
    Sim(std::shared_ptr<const Module> top,
        std::shared_ptr<const Netlist> netlist);

    ~Sim();
    Sim(Sim &&) = delete;
    Sim &operator=(Sim &&) = delete;

    /**
     * Net of a top-level input, resolved once for per-cycle pokes.
     * Throws std::invalid_argument if `name` is not a top-level
     * input.
     */
    NetId inputId(const std::string &name) const;

    /**
     * Drive a top-level input for the current cycle onwards; the
     * value is truncated or zero-extended to the input's width.  The
     * NetId overloads throw std::invalid_argument for a net that is
     * not a top-level input.
     */
    void setInput(NetId id, const BitVec &v);
    void setInput(NetId id, uint64_t v);
    void setInput(const std::string &name, const BitVec &v);
    void setInput(const std::string &name, uint64_t v);

    /**
     * Select the sweep strategy.  Safe at any time; the next sweep
     * re-evaluates the full table once so every mode starts from
     * identical committed state.  The unnamed int is ignored; it
     * stays so callers such as perfbench/driver.cpp still compile.
     */
    void setSweepMode(SweepMode mode, int = 0);
    SweepMode sweepMode() const { return _mode; }

    /** Activity counters (see SweepStats).  With a kernel attached,
     *  folds the kernel's own activity export in first. */
    const SweepStats &sweepStats() const;

    /**
     * Toggle per-net evaluation counting (off by default).  Counts
     * accumulate in evalCounts() across every executor sweep — full
     * and dirty — and every lazy evaluation, and feed the hot-cone
     * attribution report (obs::buildHotReport).  Strict nets run by
     * an attached kernel are not counted here; see kernelLevelEvals().
     */
    void setEvalCounting(bool on);
    bool evalCounting() const { return _eval_counting; }

    /** Cumulative evaluations per net id (empty until counting is
     *  first enabled). */
    const std::vector<uint64_t> &evalCounts() const
    {
        return _eval_count;
    }

    /**
     * Per-level cumulative node evaluations reported by the attached
     * compiled kernel (KernelHost::levelEvals), indexed by logic level.
     * Empty when no kernel is attached.
     */
    std::vector<uint64_t> kernelLevelEvals() const;

    /**
     * Install (or remove, with nullptr) a per-phase timing sink.
     * The sink must outlive the simulation or be detached first.
     * With no sink installed the step loop reads no clocks.
     */
    void setTelemetry(SimTelemetry *sink) { _telemetry = sink; }

    /**
     * Run the strict combinational sweep with a compiled kernel's
     * dense bodies (anvilc --emit-cpp + codegen/jit.h) for dense
     * frames and escalated levels; the host executor drains the rest.  Validates the ABI version, the design
     * hash and the unit against the netlist's layout; on any mismatch
     * nothing changes and the executor keeps running — the compiled
     * backend is an accelerator, never a correctness dependency.  The
     * unit runs over the same state words, queued nodes and clock
     * edge, so attaching mid-run moves no value and continues the
     * run; lazy cones, prints, faults and the changed-net feed stay
     * the Sim's, so all observers see bit-identical behaviour.
     */
    bool attachKernel(const KernelRef &kernel);
    bool kernelAttached() const { return _kernel.abi != nullptr; }

    /**
     * Nets whose value may have changed since the previous clock
     * edge, deduplicated (a superset: a net poked back to its old
     * value stays listed).  Sweeps first.  Nets NOT listed are
     * guaranteed unchanged since the last edge, so observers that
     * sample once per cycle — before step(), like VcdWriter and
     * Coverage — can visit only this list instead of every net.
     * Lazy nodes appear only once evaluated; observers of lazy nets
     * must read them directly every cycle (value() preserves the
     * on-demand fault semantics).
     */
    const std::vector<NetId> &changedNets();

    /**
     * Monotonic count of source mutations (setInput, setRegValue,
     * loadRegs, clock-edge commits) ever recorded.  Strict-net
     * values only move downstream of a source mutation, so an
     * observer that captures this at its sample can verify at the
     * next sample that nothing was poked between its sample and the
     * clock edge (lastEdgePokeTick() equals the captured tick).  If
     * the ticks differ, changes recorded after the sample were
     * flushed with the edge and the per-cycle feed is incomplete for
     * that observer — it must rescan.
     */
    uint64_t pokeTick() const { return _poke_tick; }

    /** pokeTick() as of the most recent clock-edge frame roll. */
    uint64_t lastEdgePokeTick() const { return _poke_at_roll; }

    /** Read any signal (port, wire, or register) by flat name. */
    BitVec peek(const std::string &name);

    /** Evaluate combinational logic and advance n clock edges. */
    void step(int n = 1);

    uint64_t cycle() const { return _cycle; }

    /** Total bit toggles observed across all signals. */
    uint64_t totalToggles() const { return _total_toggles; }

    /** Number of flattened state bits (for the cost model). */
    int stateBits() const;

    /** Captured dprint output. */
    const std::vector<std::string> &log() const { return _log; }

    /** All flattened register names. */
    std::vector<std::string> regNames() const;

    /** Direct register access by flat name. */
    BitVec regValue(const std::string &flat_name) const;
    void setRegValue(const std::string &flat_name, const BitVec &v);

    /** Every register's committed value, in netlist().regs() order. */
    std::vector<BitVec> captureRegs() const;

    /**
     * Size of the packed register file: every register in
     * netlist().regs() order takes BitVec::words() little-endian
     * words (none when zero-width), bits above its width clear.  The
     * successor-state explorers (verif/bmc.h, formal/kinduction.h)
     * identify states by these words.
     */
    size_t regWords() const { return _reg_off.back(); }

    /** First packed word of register i (netlist().regs() order);
     *  regOffset(regs().size()) == regWords(). */
    size_t regOffset(size_t reg_index) const
    {
        return _reg_off[reg_index];
    }

    /** Write the committed registers, packed, to out[0, regWords()). */
    void packRegs(uint64_t *out) const;

    /**
     * Set the registers from a packed register file, as setRegValue
     * does, without a clock edge.  Only registers whose words differ
     * are poked, so the next sweep re-evaluates the cones of the
     * registers that moved, not the design.
     */
    void loadRegs(const uint64_t *words);

    /**
     * The packed register file the next clock edge would commit,
     * without committing it: sweeps, evaluates the lazy roots (so
     * the edge's combinational faults surface here too), and applies
     * the firing updates in declaration order, the last one to a
     * register winning.  cycle(), the toggle count, the log and the
     * registers are unchanged; an update of an unknown register
     * throws std::invalid_argument as in step().
     */
    void nextRegs(uint64_t *out);

    /**
     * Value of an interned node at the current cycle.  Sweeps if
     * needed; lazy cones are evaluated on demand and fault exactly
     * like peek.  The id-addressed access of coverage and VCD tracing.
     */
    const BitVec &value(NetId id);

    /**
     * The words of a net in the current frame — no copy, no sweep, no
     * lazy walk.  Valid inside a ChangeFeed callback, where sample()
     * has already swept the frame, until the next poke, step() or
     * appending topNet (which moves the state words).  A source's or
     * strict net's words are current there; a lazy net's only once
     * value() evaluated it in the frame.  The per-cycle observer hot
     * path.
     */
    WordView words(NetId id) const
    {
        size_t i = static_cast<size_t>(id);
        return {_words + _layout.off[i], _layout.width[i]};
    }

    /** Top-level input port names. */
    std::vector<std::string> inputNames() const;

    /**
     * Net of an expression in the top-level scope, compiled on first
     * use and cached per expression, so per-frame readers resolve it
     * once and then read value().  A new expression appends lazy nets
     * with state words of their own, which moves the state words (see
     * words()).  Throws std::logic_error for a new expression on a
     * shared netlist.
     */
    NetId topNet(const ExprPtr &e);

    /** Evaluate an expression in the top-level scope. */
    BitVec evalTop(const ExprPtr &e) { return value(topNet(e)); }

    /** The compiled netlist (inspection / cost analyses). */
    const Netlist &netlist() const { return _nl; }

    /**
     * The netlist as a shareable handle — hand it to further Sim
     * instances to skip their compile (always non-null; owned
     * privately unless this Sim was itself built on a shared one).
     */
    std::shared_ptr<const Netlist> sharedNetlist() const
    {
        return _nl_hold;
    }

    /** Name of the top module (VCD scope root). */
    const std::string &topName() const { return _top->name; }

  private:
    void sweep();
    void evalLazy(NetId id);
    const NetSignal *findSignal(const std::string &flat) const;
    const Net &checkedInput(NetId id) const;
    void pokeSource(NetId id);
    void adoptNets();
    void recordChange(NetId id);
    void rollFrame();
    void refresh(NetId id);
    BitVec wordValue(NetId id) const;
    void checkGhostUpdates() const;
    void edge();
    void logPrints();

    /** Whether this cycle's phases are timed (kTelemetryStride). */
    bool timedCycle() const
    {
        return _telemetry && _cycle % kTelemetryStride == 0;
    }
    void endPhase(SimPhase phase, uint64_t cycle, bool timed,
                  uint64_t t0);

    /**
     * Current value of a net as a BitVec: its words, copied into the
     * cache first when it is behind them.
     */
    const BitVec &valOf(NetId id)
    {
        size_t i = static_cast<size_t>(id);
        if (_stale[i])
            refresh(id);
        return _val[i];
    }

    std::shared_ptr<const Module> _top;
    /** Owned mutable netlist; null when riding a shared one. */
    std::shared_ptr<Netlist> _nl_own;
    /** Keeps the netlist alive (owned or shared); never null. */
    std::shared_ptr<const Netlist> _nl_hold;
    const Netlist &_nl;
    const KernelLayout &_layout;       // the netlist's state words
    KernelHost _host;                  // the state and the level walk
    uint64_t *_words;                  // _host.state()
    /** Per net: a cache of its words, behind them where _stale is
     *  set. */
    std::vector<BitVec> _val;
    std::vector<uint8_t> _stale;
    std::vector<size_t> _reg_off;      // packed word offset per reg,
                                       // plus the total
    std::vector<uint64_t> _lazy_gen;   // per-sweep memo for lazy nodes
    std::vector<uint8_t> _visiting;    // lazy-walk loop detection
    std::vector<ExprPtr> _top_exprs;   // keeps topNet keys alive
    std::map<const Expr *, NetId> _top_cache;

    // Sweep scheduling and the changed-net feed.
    SweepMode _mode = SweepMode::Dirty;
    bool _need_full = true;            // next sweep must be dense
    bool _prefer_dense = false;        // activity too high to cut
    std::vector<int32_t> _swept;       // one sweep's changed nets
    std::vector<NetId> _frame_changed; // changed since last edge
    std::vector<uint64_t> _change_mark;// per-net, keyed by _frame_id
    uint64_t _frame_id = 1;
    uint64_t _poke_tick = 0;           // source mutations, ever
    uint64_t _poke_at_roll = 0;        // _poke_tick at last edge
    uint64_t _frame_evals = 0;
    bool _eval_counting = false;
    std::vector<uint64_t> _eval_count;   // per-net evaluations
    mutable SweepStats _stats;   // kernel fields refreshed on read
    SimTelemetry *_telemetry = nullptr;

    KernelRef _kernel;                 // the attached unit, if any

    // The clock edge, over _words.
    ClockEdge _edge;
    std::vector<int32_t> _committed;   // registers the edge committed
    std::vector<int32_t> _ghost_updates;  // updates of unknown regs,
                                          // which fault at the edge

    bool _dirty = true;
    uint64_t _gen = 0;
    uint64_t _cycle = 0;
    uint64_t _total_toggles = 0;
    std::vector<std::string> _log;
};

/**
 * Freshness cursor for consumers of Sim::changedNets().
 *
 * The per-cycle feed only covers an observer's window when (a) the
 * observer sampled the immediately preceding cycle and (b) no source
 * was poked between that sample and its clock edge (a late poke's
 * change records are flushed with the edge and never re-listed).
 * This cursor owns that invariant.  Its one live consumer is the
 * obs::ChangeFeed fan-out hub, which checks and syncs it on behalf
 * of every attached observer: call fresh() before taking the fast
 * path, sync() at the end of every sample (after all reads — reads
 * of lazy cones are fine, they never poke).
 */
class ChangeFeedCursor
{
  public:
    bool fresh(const Sim &sim) const
    {
        return _synced && sim.cycle() == _cycle + 1 &&
            sim.lastEdgePokeTick() == _tick;
    }

    void sync(const Sim &sim)
    {
        _synced = true;
        _cycle = sim.cycle();
        _tick = sim.pokeTick();
    }

  private:
    bool _synced = false;
    uint64_t _cycle = 0;
    uint64_t _tick = 0;
};

} // namespace rtl
} // namespace anvil

#endif // ANVIL_RTL_INTERP_H
