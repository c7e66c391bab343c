#include "obs/flight.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "obs/metrics.h"

namespace anvil {
namespace obs {

FlightRecorder::FlightRecorder(rtl::Sim &sim, Options opts)
    : _opts(std::move(opts)), _sig(sim),
      _base(_sig.lastWords().size(), 0)
{
    // The window spans at most pre + post + 1 cycles and records
    // exist only for cycles with changes, so this capacity guarantees
    // eviction never touches a record inside an open window.  The sum
    // saturates: `--flight` and `--flight-post` each reach 2^63 - 1.
    uint64_t span = _opts.pre + _opts.post;
    _capacity = span < _opts.pre || span > SIZE_MAX - 2
        ? SIZE_MAX
        : static_cast<size_t>(span + 2);
}

FlightRecorder::~FlightRecorder() = default;

void
FlightRecorder::addTrigger(const std::string &name, Trigger counter)
{
    TriggerSlot slot;
    slot.name = name;
    slot.fn = std::move(counter);
    // Start from the counter's current value: failures that predate
    // the recorder do not fire it.
    slot.seen = slot.fn ? slot.fn() : 0;
    _triggers.push_back(std::move(slot));
}

void
FlightRecorder::beginCycle(uint64_t cycle)
{
    if (!_started) {
        _started = true;
        _first_cycle = cycle;
    }
    _last_cycle = cycle;
    _cur = nullptr;
}

/** Fold the oldest record into the base snapshot and retire it. */
void
FlightRecorder::evictOldest()
{
    CycleRec &rec = _ring[_head];
    applyRec(rec, _base);
    rec.slots.clear();
    rec.words.clear();
    _head = (_head + 1) % _ring.size();
    _count--;
}

bool
FlightRecorder::captureSlot(uint32_t slot, const uint64_t *w)
{
    if (!_sig.update(slot, w))
        return false;
    if (!_cur) {
        if (_count == _ring.size()) {
            if (_ring.size() < _capacity)
                _ring.emplace_back();
            else
                evictOldest();
        }
        _cur = &_ring[(_head + _count) % _ring.size()];
        _cur->cycle = _last_cycle;
        _count++;
    }
    uint32_t words = _sig.slot(slot).words;
    _cur->slots.push_back(slot);
    _cur->words.insert(_cur->words.end(), w, w + words);
    _captured_words += words;
    return true;
}

void
FlightRecorder::endCycle(uint64_t cycle)
{
    // Eviction is purely capacity-driven (captureSlot): any window
    // holds at most pre + post + 1 change records, strictly fewer
    // than the ring's capacity, so the evicted record is always
    // older than every open or future window's start.
    pollTriggers(cycle);
    if (_armed && cycle >= _dump_at)
        flushDump(cycle);
}

void
FlightRecorder::pollTriggers(uint64_t cycle)
{
    for (TriggerSlot &tr : _triggers) {
        if (!tr.fn)
            continue;
        uint64_t n = tr.fn();
        if (n <= tr.seen)
            continue;
        tr.seen = n;
        if (!_armed) {
            _armed = true;
            _armed_trigger = tr.name;
            _armed_cycle = cycle;
            _dump_at = cycle + _opts.post;
        } else {
            // Coalesce into the open window; its end extends so the
            // newest trigger still gets `post` cycles of context.
            _dump_at = std::max(_dump_at, cycle + _opts.post);
        }
    }
}

void
FlightRecorder::applyRec(const CycleRec &rec,
                         std::vector<uint64_t> &vals) const
{
    const uint64_t *w = rec.words.data();
    for (uint32_t slot : rec.slots) {
        const rtl::VcdSignals::Slot &h = _sig.slot(slot);
        std::copy_n(w, h.words, vals.data() + h.last);
        w += h.words;
    }
}

void
FlightRecorder::flushDump(uint64_t to)
{
    DumpInfo info;
    info.index = static_cast<int>(_dumps.size());
    info.trigger = _armed_trigger;
    info.trigger_cycle = _armed_cycle;
    uint64_t from = _armed_cycle > _opts.pre
        ? _armed_cycle - _opts.pre
        : 0;
    if (from < _first_cycle)
        from = _first_cycle;
    info.from = from;
    info.to = to;

    std::ostringstream os;
    os << _sig.header();

    // Checkpoint at `from`: the base snapshot advanced through every
    // record at or before the window start — exactly the values a
    // VcdWriter primed at `from` would have read.
    std::vector<uint64_t> vals = _base;
    size_t i = 0;
    for (; i < _count; i++) {
        const CycleRec &rec = _ring[(_head + i) % _ring.size()];
        if (rec.cycle > from)
            break;
        applyRec(rec, vals);
    }
    _sig.writeCheckpoint(os, from, vals.data());

    // Per-cycle deltas through the end of the window, through the
    // writer's formatter, which sorts each record's capture order
    // into declaration order: the sort runs here, on a dump, never
    // on the per-cycle hot path.
    std::vector<uint32_t> order;
    for (; i < _count; i++) {
        const CycleRec &rec = _ring[(_head + i) % _ring.size()];
        if (rec.cycle > to)
            break;
        applyRec(rec, vals);
        order.assign(rec.slots.begin(), rec.slots.end());
        _sig.writeChanges(os, rec.cycle, order, vals.data());
    }

    if (_sink)
        info.path = _sink(info, os.str());
    _dumps.push_back(std::move(info));
    _armed = false;
}

void
FlightRecorder::onPrime(rtl::Sim &sim, uint64_t cycle)
{
    beginCycle(cycle);
    // Full scan: first sample, skipped cycles, late pokes.  The
    // change-compare against the last captured words keeps the
    // records minimal either way; the base snapshot (zeros before the
    // first sample) covers whatever never changes.
    for (uint32_t slot = 0; slot < _sig.size(); slot++)
        captureSlot(slot, _sig.read(sim, slot));
    _traced_changes += _sig.size();   // a rescan lists them all
    endCycle(cycle);
}

void
FlightRecorder::onCycle(rtl::Sim &sim, uint64_t cycle,
                        const std::vector<rtl::NetId> &changed)
{
    beginCycle(cycle);
    // The writer's capture set: the traced slots the fed frame feeds
    // plus every lazy slot, re-read each cycle.  Capture order is
    // arrival order, and fed values come straight out of the frame's
    // state words (sample() already swept), so the per-cycle cost is
    // a compare + copy per actually-changed traced net.
    const NetIndex &index = _sig.index();
    index.forFed(changed, [this, &sim](uint32_t slot) {
        _traced_changes++;
        captureSlot(slot, sim.words(_sig.slot(slot).net).w);
    });
    for (uint32_t slot : index.lazySlots())
        _traced_changes += captureSlot(slot, _sig.read(sim, slot));
    endCycle(cycle);
}

void
FlightRecorder::onFinish(rtl::Sim &sim)
{
    (void)sim;
    // A window opened near the end of the run flushes with whatever
    // post-context the run had left (trigger on the final cycle).
    if (_armed)
        flushDump(_last_cycle);
}

void
FlightRecorder::exportMetrics(MetricsRegistry &reg) const
{
    reg.counter("flight.dumps") +=
        static_cast<uint64_t>(_dumps.size());
    reg.counter("flight.ring_records") +=
        static_cast<uint64_t>(_count);
    reg.counter("flight.capture_words") += _captured_words;
}

} // namespace obs
} // namespace anvil
