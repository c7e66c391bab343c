#include "obs/activity.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/stream.h"

namespace anvil {
namespace obs {

RollingActivity::RollingActivity(uint64_t window, EventSink *sink)
    : _window_len(window ? window : 1), _sink(sink)
{
    _ring.assign(static_cast<size_t>(_window_len), 0);
}

void
RollingActivity::onAttach(ChangeFeed &feed)
{
    const rtl::Netlist &nl = feed.sim().netlist();
    _index = NetIndex(nl);
    // One slot per named signal; duplicate nets (aliases) keep the
    // first name so a change counts once, under a stable label.
    for (const auto &[name, sig] : nl.signals()) {
        // Lazy nets never reach the fed frame.
        if (nl.net(sig.net).lazy || _index.fed(sig.net))
            continue;
        _index.add(nl, sig.net, static_cast<uint32_t>(_names.size()));
        _names.push_back(name);
        _changes.push_back(0);
    }
}

void
RollingActivity::onPrime(rtl::Sim &, uint64_t)
{
    // A full rescan carries no per-net change information, so the
    // in-flight window is unreliable — drop it (peaks and whole-run
    // totals survive) and restart the ring from here.
    std::fill(_ring.begin(), _ring.end(), 0);
    _ring_at = 0;
    _ring_fill = 0;
    _window_total = 0;
}

void
RollingActivity::onCycle(rtl::Sim &, uint64_t cycle,
                         const std::vector<rtl::NetId> &changed)
{
    uint64_t named = 0;
    _index.forFed(changed, [this, &named](uint32_t slot) {
        named++;
        _changes[slot]++;
    });

    _window_total += named - _ring[_ring_at];
    _ring[_ring_at] = named;
    _ring_at = (_ring_at + 1) % _ring.size();
    if (_ring_fill < _window_len)
        _ring_fill++;
    if (_ring_fill == _window_len && _ring_at == 0)
        closeWindow(cycle);
}

void
RollingActivity::closeWindow(uint64_t cycle)
{
    _windows++;
    _peak_window = std::max(_peak_window, _window_total);
    if (_sink)
        _sink->window(cycle, _window_total,
                      static_cast<double>(_window_total) /
                          static_cast<double>(_window_len));
}

void
RollingActivity::exportMetrics(MetricsRegistry &reg) const
{
    reg.counter("act.window") = _window_len;
    reg.counter("act.windows") = _windows;
    reg.counter("act.peak_window_changes") = _peak_window;

    uint64_t peak_net = 0;
    for (uint64_t c : _changes)
        peak_net = std::max(peak_net, c);
    reg.counter("act.peak_net_changes") = peak_net;

    // Top-8 hottest signals by whole-run change count; ties break on
    // name so the export is deterministic.
    std::vector<size_t> order(_names.size());
    for (size_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [this](size_t a, size_t b) {
                  if (_changes[a] != _changes[b])
                      return _changes[a] > _changes[b];
                  return _names[a] < _names[b];
              });
    size_t shown = std::min<size_t>(order.size(), 8);
    for (size_t i = 0; i < shown; i++) {
        if (_changes[order[i]] == 0)
            break;
        reg.counter("act.hot." + _names[order[i]]) =
            _changes[order[i]];
    }
}

} // namespace obs
} // namespace anvil
