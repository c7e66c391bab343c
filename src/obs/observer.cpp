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

Observer::~Observer()
{
    if (_feed)
        _feed->detach(*this);
}

ChangeFeed::ChangeFeed(rtl::Sim &sim) : _sim(sim)
{
    _sub_head.assign(_sim.netlist().nets().size(), -1);
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
    // The index is retired, never reused: per-net subscriber chains
    // keep their entries and sample() skips the empty slot.
    _slots[static_cast<size_t>(obs._index)].obs = nullptr;
    obs._feed = nullptr;
    obs._index = -1;
    _csr_dirty = true;
}

bool
ChangeFeed::subscribe(Observer &obs, rtl::NetId net)
{
    if (obs._feed != this)
        throw std::logic_error(
            "subscribe() from an observer not attached to this feed");
    if (net == rtl::kNoNet ||
        static_cast<size_t>(net) >= _sub_head.size() ||
        _sim.netlist().net(net).lazy)
        return false;
    size_t ni = static_cast<size_t>(net);
    for (int32_t k = _sub_head[ni]; k >= 0; k = _subs[k].next)
        if (_subs[static_cast<size_t>(k)].obs == obs._index)
            return true;   // already subscribed
    _subs.push_back({obs._index, _sub_head[ni]});
    _sub_head[ni] = static_cast<int32_t>(_subs.size() - 1);
    _csr_dirty = true;
    return true;
}

void
ChangeFeed::subscribeAll(Observer &obs)
{
    if (obs._feed != this)
        throw std::logic_error(
            "subscribeAll() from an observer not attached to this "
            "feed");
    _slots[static_cast<size_t>(obs._index)].all_nets = true;
}

void
ChangeFeed::rebuildCsr()
{
    size_t nets = _sub_head.size();
    _csr_off.assign(nets + 1, 0);
    for (size_t ni = 0; ni < nets; ni++)
        for (int32_t k = _sub_head[ni]; k >= 0;
             k = _subs[static_cast<size_t>(k)].next)
            if (_slots[static_cast<size_t>(
                          _subs[static_cast<size_t>(k)].obs)]
                    .obs)
                _csr_off[ni + 1]++;
    for (size_t ni = 0; ni < nets; ni++)
        _csr_off[ni + 1] += _csr_off[ni];
    _csr_obs.resize(_csr_off[nets]);
    std::vector<uint32_t> fill(_csr_off.begin(),
                               _csr_off.end() - 1);
    for (size_t ni = 0; ni < nets; ni++)
        for (int32_t k = _sub_head[ni]; k >= 0;
             k = _subs[static_cast<size_t>(k)].next) {
            int32_t oi = _subs[static_cast<size_t>(k)].obs;
            if (_slots[static_cast<size_t>(oi)].obs)
                _csr_obs[fill[ni]++] = oi;
        }
    _csr_dirty = false;
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
    _sim.changedNets();
    bool timing = _profiler != nullptr;
    bool sampled = timing && sampledVisit(cyc);

    if (fresh) {
        // One pass over the simulator's changed-net list distributes
        // each net to every subscriber's per-cycle subset (and, with
        // a profiler attached, into the per-level histogram) — the
        // dedupe that lets any number of observers trace one net
        // without forcing anyone onto the slow path.
        bool distribute = _profiler != nullptr;
        for (Slot &s : _slots)
            if (s.obs && s.primed && !s.all_nets) {
                s.scratch.clear();
                distribute = true;
            }
        if (distribute) {
            if (_csr_dirty)
                rebuildCsr();
            for (rtl::NetId id : _sim.changedNets()) {
                size_t ni = static_cast<size_t>(id);
                if (_profiler && ni < _level_bin.size() &&
                    _level_bin[ni] >= 0)
                    _level_activity[static_cast<size_t>(
                        _level_bin[ni])]++;
                if (ni >= _sub_head.size())
                    continue;
                for (uint32_t k = _csr_off[ni];
                     k < _csr_off[ni + 1]; k++) {
                    Slot &s = _slots[static_cast<size_t>(
                        _csr_obs[k])];
                    if (s.obs && s.primed)
                        s.scratch.push_back(id);
                }
            }
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
            const std::vector<rtl::NetId> &list =
                s.all_nets ? _sim.changedNets() : s.scratch;
            s.obs->onCycle(_sim, cyc, list);
            s.cost.nets += list.size();
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
    const rtl::Netlist &nl = _sim.netlist();
    _level_activity.assign(nl.levelCount(), 0);
    _level_bin.assign(nl.nets().size(), -1);
    for (size_t i = 0; i < _level_bin.size(); i++) {
        const rtl::Net &n = nl.nets()[i];
        if (!n.lazy && static_cast<size_t>(n.level) < nl.levelCount())
            _level_bin[i] = n.level;
    }
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
