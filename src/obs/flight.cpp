#include "obs/flight.h"

#include <algorithm>
#include <sstream>

#include "obs/metrics.h"

namespace anvil {
namespace obs {

FlightRecorder::FlightRecorder(rtl::Sim &sim, Options opts)
    : _sim(sim), _opts(std::move(opts))
{
    const rtl::Netlist &nl = _sim.netlist();
    _net_slot.assign(nl.nets().size(), -1);
    _net_mask.assign((nl.nets().size() + 63) / 64, 0);
    for (const auto &named : nl.signals()) {
        // A parent's name for a child's output traces as the child's
        // signal, as in VcdWriter.
        std::string flat = nl.resolveName("", named.first);
        const rtl::NetSignal &sig = nl.signals().at(flat);
        if (sig.width < 1)
            continue;   // VCD cannot represent zero-width vars
        Traced t;
        t.name = flat;
        t.id = rtl::VcdWriter::idCode(_traced.size());
        t.net = sig.net;
        t.width = sig.width;
        t.words = (t.width + 63) / 64;
        t.is_reg = sig.kind == rtl::NetSignal::Kind::Reg;
        t.fed = !nl.net(t.net).lazy;
        HotSlot h;
        h.words = t.words;
        h.net = t.net;
        h.last = static_cast<uint32_t>(_last.size());
        _last.resize(_last.size() + static_cast<size_t>(t.words));
        if (t.fed) {
            size_t ni = static_cast<size_t>(t.net);
            h.dup_next = _net_slot[ni];
            _net_slot[ni] = static_cast<int32_t>(_traced.size());
            _net_mask[ni >> 6] |= uint64_t(1) << (ni & 63);
        }
        _hot.push_back(h);
        _traced.push_back(std::move(t));
    }
    for (size_t slot = 0; slot < _traced.size(); slot++)
        if (!_traced[slot].fed)
            _unfed.push_back(slot);

    _base.assign(_last.size(), 0);

    // The window spans at most pre + post + 1 cycles and records
    // exist only for cycles with changes, so this capacity guarantees
    // eviction never touches a record inside an open window.
    _ring.resize(static_cast<size_t>(_opts.pre + _opts.post + 2));

    std::vector<rtl::VcdVarDecl> vars;
    vars.reserve(_traced.size());
    for (const Traced &t : _traced)
        vars.push_back({t.name, t.id, t.width, t.is_reg});
    std::ostringstream hdr;
    rtl::writeVcdHeader(hdr, _sim.topName(), vars, "1ns");
    _header = hdr.str();
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

void
FlightRecorder::captureSlot(size_t slot, const uint64_t *w)
{
    const HotSlot &h = _hot[slot];
    uint64_t *last = _last.data() + h.last;
    if (h.words == 1) {
        // The narrow fast path: one compare, no loop.
        if (w[0] == last[0])
            return;
        last[0] = w[0];
    } else {
        if (std::equal(w, w + h.words, last))
            return;
        std::copy_n(w, h.words, last);
    }
    if (!_cur) {
        if (_count == _ring.size())
            evictOldest();
        _cur = &_ring[(_head + _count) % _ring.size()];
        _cur->cycle = _last_cycle;
        _count++;
    }
    _cur->slots.push_back(static_cast<uint32_t>(slot));
    _cur->words.insert(_cur->words.end(), w, w + h.words);
    _captured_words += static_cast<uint64_t>(h.words);
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
        const HotSlot &h = _hot[slot];
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
    os << _header;

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
    os << "#" << from << "\n$dumpvars\n";
    for (size_t slot = 0; slot < _traced.size(); slot++)
        rtl::writeVcdValue(os, _traced[slot].id, _traced[slot].width,
                           vals.data() + _hot[slot].last);
    os << "$end\n";

    // Per-cycle deltas through the end of the window.  Records hold
    // capture (arrival) order; emission re-sorts each into
    // declaration order, matching the writer — the sort runs only
    // here, on a dump, never on the per-cycle hot path.
    std::vector<std::pair<uint32_t, uint32_t>> order;
    for (; i < _count; i++) {
        const CycleRec &rec = _ring[(_head + i) % _ring.size()];
        if (rec.cycle > to)
            break;
        os << "#" << rec.cycle << "\n";
        order.clear();
        order.reserve(rec.slots.size());
        uint32_t w = 0;
        for (uint32_t slot : rec.slots) {
            order.emplace_back(slot, w);
            w += static_cast<uint32_t>(_traced[slot].words);
        }
        std::sort(order.begin(), order.end());
        for (const auto &[slot, off] : order)
            rtl::writeVcdValue(os, _traced[slot].id, _traced[slot].width,
                               rec.words.data() + off);
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
    // change-compare against _last keeps the records minimal either
    // way; the base snapshot (zeros before the first sample) covers
    // whatever never changes.
    for (size_t slot = 0; slot < _traced.size(); slot++) {
        rtl::NetId net = _traced[slot].net;
        captureSlot(slot, _traced[slot].fed ? sim.words(net).w
                                            : sim.value(net).data());
    }
    _traced_changes += _traced.size();   // a rescan lists them all
    endCycle(cycle);
}

void
FlightRecorder::onCycle(rtl::Sim &sim, uint64_t cycle,
                        const std::vector<rtl::NetId> &changed)
{
    beginCycle(cycle);
    // Mirror VcdWriter::onCycle's capture set: the traced subset of
    // the fed frame plus every un-fed (lazy) slot re-read each
    // cycle.  Capture order is arrival order — flushDump re-sorts
    // each record into declaration order — and fed values come
    // straight out of the frame's state words (sample() already
    // swept), so the per-cycle cost is a compare + copy per
    // actually-changed traced net.
    for (rtl::NetId id : changed) {
        size_t ni = static_cast<size_t>(id);
        if (!((_net_mask[ni >> 6] >> (ni & 63)) & 1))
            continue;
        const uint64_t *w = sim.words(id).w;
        for (int32_t slot = _net_slot[ni]; slot >= 0;
             slot = _hot[static_cast<size_t>(slot)].dup_next) {
            _traced_changes++;
            captureSlot(static_cast<size_t>(slot), w);
        }
    }
    for (size_t slot : _unfed) {
        uint64_t before = _captured_words;
        captureSlot(slot, sim.value(_traced[slot].net).data());
        _traced_changes += _captured_words != before;
    }
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
