#include "trace/trace.h"

#include <algorithm>
#include <limits>

#include "rtl/vcd.h"

namespace anvil {
namespace trace {

const BitVec *
TraceSignal::valueAt(uint64_t time) const
{
    // First change strictly after `time`, then step back one.
    auto it = std::upper_bound(
        changes.begin(), changes.end(), time,
        [](uint64_t t, const std::pair<uint64_t, BitVec> &c) {
            return t < c.first;
        });
    if (it == changes.begin())
        return nullptr;
    return &std::prev(it)->second;
}

int
Trace::indexOf(const std::string &name) const
{
    for (size_t i = 0; i < _signals.size(); i++)
        if (_signals[i].name == name)
            return static_cast<int>(i);
    return -1;
}

uint64_t
Trace::startTime() const
{
    uint64_t t = std::numeric_limits<uint64_t>::max();
    for (const auto &s : _signals)
        if (!s.changes.empty())
            t = std::min(t, s.changes.front().first);
    return t == std::numeric_limits<uint64_t>::max() ? 0 : t;
}

uint64_t
Trace::endTime() const
{
    uint64_t t = 0;
    for (const auto &s : _signals)
        if (!s.changes.empty())
            t = std::max(t, s.changes.back().first);
    return t;
}

uint64_t
Trace::cycles() const
{
    if (changeCount() == 0)
        return 0;
    return endTime() - startTime() + 1;
}

uint64_t
Trace::changeCount() const
{
    uint64_t n = 0;
    for (const auto &s : _signals)
        n += s.changes.size();
    return n;
}

void
Trace::writeVcd(std::ostream &os) const
{
    std::vector<rtl::VcdVarDecl> vars;
    vars.reserve(_signals.size());
    for (const TraceSignal &s : _signals)
        vars.push_back({s.name, s.id, s.width, s.is_reg});
    rtl::writeVcdHeader(os, top, vars, timescale);

    if (changeCount() == 0)
        return;

    // Merge the per-signal change lists back into the per-timestamp
    // layout: at each time, changed signals in declaration order.
    std::vector<size_t> next(_signals.size(), 0);
    uint64_t t = startTime();
    bool first = true;
    for (;;) {
        os << "#" << t << "\n";
        if (first)
            os << "$dumpvars\n";
        for (size_t i = 0; i < _signals.size(); i++) {
            const auto &ch = _signals[i].changes;
            while (next[i] < ch.size() && ch[next[i]].first == t) {
                rtl::writeVcdValue(os, _signals[i].id, _signals[i].width,
                                   ch[next[i]].second.data());
                next[i]++;
            }
        }
        if (first)
            os << "$end\n";
        first = false;

        uint64_t next_t = std::numeric_limits<uint64_t>::max();
        for (size_t i = 0; i < _signals.size(); i++) {
            const auto &ch = _signals[i].changes;
            if (next[i] < ch.size())
                next_t = std::min(next_t, ch[next[i]].first);
        }
        if (next_t == std::numeric_limits<uint64_t>::max())
            break;
        t = next_t;
    }
}

TraceCursor::TraceCursor(const Trace &t) : _trace(t)
{
    _cur.reserve(t.signals().size());
    for (const auto &s : t.signals())
        _cur.emplace_back(std::max(s.width, 1));
    _next.assign(t.signals().size(), 0);
}

void
TraceCursor::advanceTo(uint64_t t)
{
    const auto &signals = _trace.signals();
    for (size_t i = 0; i < signals.size(); i++) {
        const auto &ch = signals[i].changes;
        while (_next[i] < ch.size() && ch[_next[i]].first <= t) {
            _cur[i] = ch[_next[i]].second;
            _next[i]++;
        }
    }
}

} // namespace trace
} // namespace anvil
