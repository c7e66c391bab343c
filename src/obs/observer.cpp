#include "obs/observer.h"

#include <stdexcept>

#include "obs/profiler.h"

namespace anvil {
namespace obs {

namespace {

/**
 * Whether a steady-state visit on `cycle` is timed: one cycle in
 * rtl::kTelemetryStride, picked by the top bits of a multiplicative
 * (Fibonacci) hash rather than by cycle % 16.  An observer whose cost
 * recurs on a power-of-two period — RollingActivity closes a 64-cycle
 * window on every multiple of 64 — would otherwise be timed on all of
 * its costly cycles and its estimate inflated by the stride.
 */
bool
sampledVisit(uint64_t cycle)
{
    static_assert(rtl::kTelemetryStride == 16, "4 hash bits");
    return (cycle * 0x9e3779b97f4a7c15ull) >> 60 == 0;
}

} // namespace

NetIndex::NetIndex(const rtl::Netlist &nl) : _first(nl.nets().size(), -1)
{
}

void
NetIndex::add(const rtl::Netlist &nl, rtl::NetId net, uint32_t slot)
{
    size_t ni = static_cast<size_t>(net);
    if (net == rtl::kNoNet || ni >= _first.size() || nl.net(net).lazy) {
        _lazy.push_back(slot);
        return;
    }
    if (_next.size() <= slot)
        _next.resize(slot + 1, -1);
    _next[slot] = _first[ni];
    _first[ni] = static_cast<int32_t>(slot);
}

Observer::~Observer()
{
    if (_feed)
        _feed->detach(*this);
}

ChangeFeed::ChangeFeed(rtl::Sim &sim) : _sim(sim)
{
    // A non-lazy net sits below levelCount(): sources at level 0,
    // strict nodes in the levelized order.
    const std::vector<rtl::Net> &nets = _sim.netlist().nets();
    _level.resize(nets.size());
    for (size_t i = 0; i < nets.size(); i++)
        _level[i] = nets[i].lazy ? -1 : nets[i].level;
}

ChangeFeed::~ChangeFeed()
{
    for (Slot &s : _slots)
        if (s.obs) {
            s.obs->_feed = nullptr;
            s.obs->_index = -1;
        }
}

void
ChangeFeed::attach(Observer &obs)
{
    if (obs._feed == this)
        return;
    if (obs._feed)
        throw std::logic_error(
            "observer is already attached to another ChangeFeed");
    obs._feed = this;
    obs._index = static_cast<int32_t>(_slots.size());
    Slot s;
    s.obs = &obs;
    s.cost.name = obs.observerName();
    if (_profiler)
        s.track = _profiler->track("obs:" + s.cost.name);
    _slots.push_back(std::move(s));
    obs.onAttach(*this);
}

void
ChangeFeed::detach(Observer &obs)
{
    if (obs._feed != this)
        return;
    // The index is retired, never reused: sample() skips the empty
    // slot.
    _slots[static_cast<size_t>(obs._index)].obs = nullptr;
    obs._feed = nullptr;
    obs._index = -1;
}

bool
ChangeFeed::empty() const
{
    if (_profiler)
        return false;
    for (const Slot &s : _slots)
        if (s.obs)
            return false;
    return true;
}

void
ChangeFeed::sample()
{
    uint64_t cyc = _sim.cycle();
    bool fresh = _cursor.fresh(_sim);
    // Sweep before any visit, so every observer may read the frame's
    // words (Sim::words), primes included.
    const std::vector<rtl::NetId> &changed = _sim.changedNets();
    bool timing = _profiler != nullptr;
    bool sampled = timing && sampledVisit(cyc);

    if (fresh) {
        // One pass over the simulator's changed-net list builds the
        // fed frame every steady observer gets (and, with a profiler
        // attached, bins it into the per-level histogram).
        _frame.clear();
        for (rtl::NetId id : changed) {
            size_t ni = static_cast<size_t>(id);
            if (ni >= _level.size() || _level[ni] < 0)
                continue;
            _frame.push_back(id);
            if (timing)
                _level_activity[static_cast<size_t>(_level[ni])]++;
        }
    }

    for (Slot &s : _slots) {
        if (!s.obs)
            continue;
        bool steady = fresh && s.primed;
        // Primes are rare and costly, so every one is timed.
        bool timed = sampled || (timing && !steady);
        uint64_t t0 = timed ? rtl::monotonicNanos() : 0;
        if (steady) {
            s.obs->onCycle(_sim, cyc, _frame);
            s.cost.nets += _frame.size();
        } else {
            s.obs->onPrime(_sim, cyc);
            s.primed = true;
            s.cost.primes++;
        }
        s.cost.visits++;
        if (!timing)
            continue;
        s.profiled++;
        if (timed) {
            uint64_t t1 = rtl::monotonicNanos();
            s.timed++;
            s.timed_ns += t1 - t0;
            if (s.track >= 0)
                _profiler->event(s.track, s.cost.name, t0, t1, cyc);
        } else if (s.track >= 0) {
            _profiler->untimed(s.track);
        }
    }
    // Sync after all reads: any poke recorded from here to the clock
    // edge invalidates next cycle's fast path for everyone at once.
    _cursor.sync(_sim);
}

void
ChangeFeed::finish()
{
    for (Slot &s : _slots)
        if (s.obs)
            s.obs->onFinish(_sim);
}

void
ChangeFeed::setProfiler(TraceProfiler *profiler)
{
    _profiler = profiler;
    if (!_profiler)
        return;
    _level_activity.assign(_sim.netlist().levelCount(), 0);
    for (Slot &s : _slots)
        if (s.obs && s.track < 0)
            s.track = _profiler->track("obs:" + s.cost.name);
}

std::vector<ObserverCost>
ChangeFeed::costs() const
{
    std::vector<ObserverCost> out;
    for (const Slot &s : _slots) {
        out.push_back(s.cost);
        out.back().ns = extrapolateNs(s.timed_ns, s.timed, s.profiled);
    }
    return out;
}

} // namespace obs
} // namespace anvil
