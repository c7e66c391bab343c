/**
 * @file
 * Unified change-feed observer framework.
 *
 * Every per-cycle observer of a simulation — VCD tracing
 * (rtl::VcdWriter), coverage toggle sampling (tb::Coverage), contract
 * monitoring (trace::ContractMonitor), waveform recording
 * (rtl::WaveRecorder), and any new plugin (obs::ChannelSlicer) — used
 * to carry its own copy of the same subtle dance: a net->slot table,
 * lazy-net exclusion, a priming pass, and the ChangeFeedCursor
 * freshness check that guards against skipped cycles and late pokes.
 * The ChangeFeed hub owns all of that in exactly one place:
 *
 *  - observers attach once and subscribe the NetIds they care about;
 *    subscriptions are deduplicated per net, so any number of
 *    observers (or duplicate traces within one observer) ride a
 *    single visit of the changed-net list;
 *  - sample() runs once per cycle, before Sim::step(): when the
 *    per-cycle feed covers the window since the previous sample
 *    (rtl::ChangeFeedCursor), each observer gets onCycle() with just
 *    its own changed subset; otherwise (first sample, skipped
 *    cycles, late pokes) every observer gets a full onPrime() rescan;
 *  - lazy nets are excluded centrally — subscribe() returns false
 *    for them and the observer re-reads those itself each visit,
 *    preserving Sim::value()'s on-demand fault semantics;
 *  - the hub sweeps the frame before any visit, so observers read
 *    fed nets straight from the state words (Sim::words) and lazy
 *    nets through Sim::value(), which keeps their fault semantics.
 *
 * The hub doubles as the telemetry spine: it counts per-observer
 * visits and touched nets, and with a TraceProfiler attached it bins
 * changed nets into a per-level activity histogram and times visits
 * onto a per-observer Chrome-trace track: every prime, and the
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
 *  - onAttach(feed) runs once, inside ChangeFeed::attach(); the
 *    observer subscribes its nets there (subscribe() reports whether
 *    each net rides the feed);
 *  - onPrime(sim, cycle) is a full visit: the first sample, and any
 *    sample the feed cannot cover (skipped cycles, late pokes).  The
 *    observer re-reads every net it watches;
 *  - onCycle(sim, cycle, changed) is the fast path: `changed` holds
 *    exactly this observer's subscribed nets that changed since its
 *    previous visit (deduplicated, feed order).  Unsubscribed nets
 *    (lazy cones, unresolved names) must be re-read directly;
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

    virtual void onAttach(ChangeFeed &feed) = 0;
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

/** Per-observer visit accounting kept by the hub. */
struct ObserverCost
{
    std::string name;          // Observer::observerName at attach
    uint64_t visits = 0;       // total visits (primes + cycles)
    uint64_t primes = 0;       // full-rescan visits among them
    uint64_t nets = 0;         // changed nets delivered to onCycle
    /** Visit wall time while a profiler was attached, estimated from
     *  the timed visits: their ns x visits / timed visits. */
    uint64_t ns = 0;
};

/**
 * Multi-observer fan-out hub over Sim::changedNets().
 *
 * Owns the single ChangeFeedCursor, the priming state, the per-net
 * subscriber lists, and (when a TraceProfiler is attached) the
 * per-observer visit timing and the per-level activity histogram.
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

    /**
     * Subscribe the observer to a net's change events; call from
     * onAttach.  Returns true when the net rides the feed; false for
     * lazy nets, ad-hoc post-construction nodes, and kNoNet — the
     * observer must re-read those itself each visit.  Idempotent per
     * (observer, net); many observers may subscribe one net and each
     * sees it exactly once per change.
     */
    bool subscribe(Observer &obs, rtl::NetId net);

    /**
     * Subscribe the observer to the whole frame: onCycle receives
     * the simulator's raw changed-net list (a superset of any per-net
     * subscription — it includes unnamed internal nodes) and the
     * observer filters it against its own net->slot table.  For an
     * observer tracing most of the design this skips the per-net
     * fan-out copy entirely, which is what keeps an always-on
     * recorder near-free.  Call from onAttach, like subscribe().
     */
    void subscribeAll(Observer &obs);

    /** True when no observer is attached and no profiler is set. */
    bool empty() const;

    /** Visit every attached observer once for the current cycle. */
    void sample();

    /** Fan out onFinish to every attached observer. */
    void finish();

    /**
     * Attach a profiler: visits are timed onto one Chrome-trace
     * track per observer (primes always, steady-state visits on the
     * sampled cycles), and changed nets are binned into the
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
    struct SubNode
    {
        int32_t obs;    // observer index
        int32_t next;   // next subscriber of the same net, or -1
    };
    struct Slot
    {
        Observer *obs = nullptr;   // null: detached, index retired
        ObserverCost cost;
        bool primed = false;
        /** subscribeAll(): onCycle gets the raw frame list and the
         *  scratch subset is never built for this slot. */
        bool all_nets = false;
        std::vector<rtl::NetId> scratch;   // per-cycle changed subset
        int track = -1;                    // profiler track id
        uint64_t profiled = 0;   // visits with a profiler attached
        uint64_t timed = 0;      // of those, the timed ones
        uint64_t timed_ns = 0;   // their wall time
    };

    /** Flatten the subscriber chains into the CSR (below). */
    void rebuildCsr();

    rtl::Sim &_sim;
    std::vector<Slot> _slots;
    std::vector<int32_t> _sub_head;   // net -> first SubNode, or -1
    std::vector<SubNode> _subs;
    // The chains above are the authoritative subscription record
    // (insertion-time dedupe); sample() walks this flattened CSR
    // instead, so the per-changed-net fan-out is a contiguous slice
    // rather than a pointer chase.  Rebuilt lazily — subscriptions
    // change at attach time, not per cycle — and reusing the same
    // buffers, so the steady-state sample() allocates nothing.
    std::vector<uint32_t> _csr_off;   // net -> [off[n], off[n+1])
    std::vector<int32_t> _csr_obs;    // observer indices, flat
    bool _csr_dirty = true;
    rtl::ChangeFeedCursor _cursor;
    TraceProfiler *_profiler = nullptr;
    std::vector<uint64_t> _level_activity;
    /** Net -> its _level_activity bin, or -1 (lazy nets): one compact
     *  lookup per changed net on the profiled hot path. */
    std::vector<int32_t> _level_bin;
};

} // namespace obs
} // namespace anvil

#endif // ANVIL_OBS_OBSERVER_H
