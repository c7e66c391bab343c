/**
 * @file
 * Unified change-feed observer framework.
 *
 * Every per-cycle observer of a simulation — VCD tracing
 * (rtl::VcdWriter), coverage toggle sampling (tb::Coverage), contract
 * monitoring (trace::ContractMonitor), waveform recording
 * (rtl::WaveRecorder), and any new plugin (obs::ChannelSlicer) — used
 * to carry its own copy of the same subtle dance: lazy-net
 * exclusion, a priming pass, and the ChangeFeedCursor freshness
 * check that guards against skipped cycles and late pokes.  The
 * ChangeFeed hub owns all of that in exactly one place:
 *
 *  - sample() runs once per cycle, before Sim::step(): when the
 *    per-cycle feed covers the window since the previous sample
 *    (rtl::ChangeFeedCursor), the hub filters the simulator's
 *    changed-net list once into the fed frame — the changed nets
 *    that are not lazy, deduplicated, in feed order — and hands
 *    that one list to every observer's onCycle(); otherwise (first
 *    sample, skipped cycles, late pokes) every observer gets a full
 *    onPrime() rescan;
 *  - each observer picks its slots out of the frame through its own
 *    NetIndex (below), so any number of observers (or duplicate
 *    traces within one observer) ride one list with no per-observer
 *    copy;
 *  - lazy nets never reach onCycle: the NetIndex keeps an observer's
 *    slots on lazy nets apart, and the observer re-reads them itself
 *    each visit through Sim::value(), which keeps their on-demand
 *    fault semantics;
 *  - the hub sweeps the frame before any visit, so observers read
 *    fed nets straight from the state words (Sim::words).
 *
 * The hub doubles as the telemetry spine: it counts per-observer
 * visits and delivered nets, and with a TraceProfiler attached it
 * bins the fed frame into a per-level activity histogram and times
 * visits onto a per-observer Chrome-trace track: every prime, and the
 * steady-state visits of a hashed one cycle in rtl::kTelemetryStride,
 * from which it estimates the whole run's visit time.
 */

#ifndef ANVIL_OBS_OBSERVER_H
#define ANVIL_OBS_OBSERVER_H

#include <cstdint>
#include <string>
#include <vector>

#include "rtl/interp.h"

namespace anvil {
namespace obs {

class ChangeFeed;
class TraceProfiler;

/**
 * One per-cycle consumer of the change feed.  Lifecycle:
 *
 *  - onAttach(feed) runs once, inside ChangeFeed::attach(); an
 *    observer that needs the feed's netlist to build its tables
 *    does so there;
 *  - onPrime(sim, cycle) is a full visit: the first sample, and any
 *    sample the feed cannot cover (skipped cycles, late pokes).  The
 *    observer re-reads every net it watches;
 *  - onCycle(sim, cycle, changed) is the fast path: `changed` is the
 *    fed frame, every non-lazy net that changed since the previous
 *    visit (deduplicated, feed order), the same list for every
 *    observer.  The observer picks its own nets out of it and
 *    re-reads its lazy nets directly;
 *  - onFinish(sim) runs at ChangeFeed::finish() — flush buffers.
 *
 * Observers are read-only: a visit must not poke the simulation
 * (that would invalidate the very freshness window it runs under).
 * Destroying an attached observer detaches it safely; the feed must
 * outlive its observers' visits, not the observers themselves.
 */
class Observer
{
  public:
    virtual ~Observer();

    virtual void onAttach(ChangeFeed &feed) { (void)feed; }
    virtual void onPrime(rtl::Sim &sim, uint64_t cycle) = 0;
    virtual void onCycle(rtl::Sim &sim, uint64_t cycle,
                         const std::vector<rtl::NetId> &changed) = 0;
    virtual void onFinish(rtl::Sim &sim) { (void)sim; }

    /** Short stable name for telemetry tracks and metrics keys. */
    virtual const char *observerName() const { return "observer"; }

  protected:
    /** The feed this observer is attached to (null before attach). */
    ChangeFeed *feed() const { return _feed; }

  private:
    friend class ChangeFeed;
    ChangeFeed *_feed = nullptr;
    int32_t _index = -1;
};

/**
 * An observer's frame filter: which of its slots the nets of the fed
 * frame feed.  An observer numbers what it watches (its slots), adds
 * each slot's net once, and on a visit picks its slots out of the
 * frame with forFed() and re-reads lazySlots() itself.  It holds
 *
 *  - per net, its first slot (-1 for a net no fed slot watches, which
 *    is most of a frame), and per slot the next slot on the same
 *    net: an alias next to its flat name, names that share a renamed
 *    net, or a channel's valid and ack may all watch one net;
 *  - the slots on lazy nets, or on no net at all (a name that did
 *    not resolve), which the frame never carries: every visit
 *    re-reads them.
 *
 * It is sized to the netlist when built and skips ids past that
 * size: those are nets Sim::topNet appended later, which are always
 * lazy.  Each observer builds its own; farm workers share one
 * netlist, so an index is never cached on it.
 */
class NetIndex
{
  public:
    NetIndex() = default;
    /** An index over `nl`'s nets with no slot yet. */
    explicit NetIndex(const rtl::Netlist &nl);

    /**
     * Watch `net` of `nl` from `slot`.  A lazy net, or kNoNet, puts
     * the slot on the lazy list instead.  A net's slots are visited
     * newest first.
     */
    void add(const rtl::Netlist &nl, rtl::NetId net, uint32_t slot);

    /** Whether `net` has a slot and reaches it through the frame. */
    bool fed(rtl::NetId net) const
    {
        size_t ni = static_cast<size_t>(net);
        return ni < _first.size() && _first[ni] >= 0;
    }

    /** `net`'s current words: a fed net's from the state words, any
     *  other's through Sim::value(), which keeps a lazy net's
     *  on-demand faults. */
    rtl::WordView read(rtl::Sim &sim, rtl::NetId net) const
    {
        return fed(net) ? sim.words(net) : sim.value(net);
    }

    /** Call f(slot) for every slot a net of `frame` feeds, in frame
     *  order. */
    template <typename F>
    void forFed(const std::vector<rtl::NetId> &frame, F &&f) const
    {
        // Locals, so the stores f makes do not force the tables to be
        // reloaded on every net (about 2x on an all-named frame).
        const int32_t *first = _first.data();
        const int32_t *next = _next.data();
        size_t nets = _first.size();
        for (rtl::NetId id : frame) {
            size_t ni = static_cast<size_t>(id);
            if (ni >= nets)
                continue;
            for (int32_t s = first[ni]; s >= 0; s = next[s])
                f(static_cast<uint32_t>(s));
        }
    }

    /** The slots every visit re-reads, in the order added. */
    const std::vector<uint32_t> &lazySlots() const { return _lazy; }

  private:
    std::vector<int32_t> _first;    // net -> its newest slot, or -1
    std::vector<int32_t> _next;     // slot -> next slot on its net
    std::vector<uint32_t> _lazy;    // slots re-read every visit
};

/** Per-observer visit accounting kept by the hub. */
struct ObserverCost
{
    std::string name;          // Observer::observerName at attach
    uint64_t visits = 0;       // total visits (primes + cycles)
    uint64_t primes = 0;       // full-rescan visits among them
    uint64_t nets = 0;         // fed-frame nets handed to onCycle
    /** Visit wall time while a profiler was attached, estimated from
     *  the timed visits: their ns x visits / timed visits. */
    uint64_t ns = 0;
};

/**
 * Multi-observer fan-out hub over Sim::changedNets().
 *
 * Owns the single ChangeFeedCursor, the priming state, the fed
 * frame, and (when a TraceProfiler is attached) the per-observer
 * visit timing and the per-level activity histogram.
 * Drive sample() exactly once per cycle, before Sim::step(), so the
 * visit timestamp matches Sim::cycle().
 */
class ChangeFeed
{
  public:
    explicit ChangeFeed(rtl::Sim &sim);
    ~ChangeFeed();
    ChangeFeed(const ChangeFeed &) = delete;
    ChangeFeed &operator=(const ChangeFeed &) = delete;

    rtl::Sim &sim() { return _sim; }

    /**
     * Attach an observer (calls its onAttach).  An observer attaches
     * to at most one feed at a time; attaching mid-run is fine — the
     * newcomer is primed on its next visit while established
     * observers stay on the fast path.
     */
    void attach(Observer &obs);

    /** Detach (idempotent; also run by Observer's destructor). */
    void detach(Observer &obs);

    /** True when no observer is attached and no profiler is set. */
    bool empty() const;

    /** Visit every attached observer once for the current cycle. */
    void sample();

    /** Fan out onFinish to every attached observer. */
    void finish();

    /**
     * Attach a profiler: visits are timed onto one Chrome-trace
     * track per observer (primes always, steady-state visits on the
     * sampled cycles), and the fed frame is binned into the
     * per-level activity histogram.  Null detaches.
     */
    void setProfiler(TraceProfiler *profiler);

    /** Per-observer visit accounting, in attach order. */
    std::vector<ObserverCost> costs() const;

    /**
     * Changed-net counts binned by netlist level, accumulated over
     * fast-path samples while a profiler is attached (full rescans
     * carry no per-net change information).
     */
    const std::vector<uint64_t> &levelActivity() const
    {
        return _level_activity;
    }

  private:
    struct Slot
    {
        Observer *obs = nullptr;   // null: detached, index retired
        ObserverCost cost;
        bool primed = false;
        int track = -1;            // profiler track id
        uint64_t profiled = 0;     // visits with a profiler attached
        uint64_t timed = 0;        // of those, the timed ones
        uint64_t timed_ns = 0;     // their wall time
    };

    rtl::Sim &_sim;
    std::vector<Slot> _slots;
    /** Net -> its level, or -1 for a lazy net: the fed-frame filter
     *  and the histogram bin in one lookup.  Sized to the netlist at
     *  construction; nets topNet appends later are lazy anyway. */
    std::vector<int32_t> _level;
    /** This cycle's fed frame: the hub's own copy, because a visit
     *  that evaluates a lazy net or a cover expression appends to
     *  the Sim's list, which may then reallocate under a later
     *  observer. */
    std::vector<rtl::NetId> _frame;
    rtl::ChangeFeedCursor _cursor;
    TraceProfiler *_profiler = nullptr;
    std::vector<uint64_t> _level_activity;
};

} // namespace obs
} // namespace anvil

#endif // ANVIL_OBS_OBSERVER_H
