#include "trace/replay.h"

#include <map>

#include "support/strings.h"

namespace anvil {
namespace trace {

ReplayDriver::ReplayDriver(const Trace &t, rtl::Sim &sim)
    : _trace(t), _cursor(t), _t0(t.startTime())
{
    const auto &signals = t.signals();
    for (const auto &name : sim.inputNames()) {
        bool found = false;
        for (size_t i = 0; i < signals.size(); i++) {
            if (signals[i].name == name) {
                _inputs.emplace_back(i, sim.inputId(name));
                found = true;
                break;
            }
        }
        if (!found)
            _missing.push_back(name);
    }
}

void
ReplayDriver::drive(rtl::Sim &sim, uint64_t cycle, tb::SplitMix64 &)
{
    _cursor.advanceTo(_t0 + cycle);
    for (const auto &[idx, net] : _inputs)
        sim.setInput(net, _cursor.value(idx));
}

ReplayMonitor::ReplayMonitor(const Trace &t, rtl::Sim &sim,
                             std::string name)
    : tb::Monitor(std::move(name)), _trace(t), _cursor(t),
      _t0(t.startTime())
{
    const auto &table = sim.netlist().signals();
    const auto &signals = t.signals();
    for (size_t i = 0; i < signals.size(); i++) {
        auto it = table.find(signals[i].name);
        if (it == table.end() ||
            it->second.kind == rtl::NetSignal::Kind::Input)
            continue;
        _checked.emplace_back(i, it->second.net);
    }
}

void
ReplayMonitor::observe(rtl::Sim &sim, uint64_t cycle)
{
    uint64_t t = _t0 + cycle;
    if (t > _trace.endTime())
        return;   // past the recording; nothing to compare
    _cursor.advanceTo(t);
    for (const auto &[idx, net] : _checked) {
        const BitVec &want = _cursor.value(idx);
        BitVec got = rtl::wordValue(sim.value(net));
        _compared++;
        if (got != want)
            fail(cycle,
                 _trace.signals()[idx].name + ": recorded " +
                     want.toHex() + " resimulated " + got.toHex());
    }
}

uint64_t
attachReplay(tb::Testbench &bench, const Trace &t, bool check)
{
    auto driver = std::make_unique<ReplayDriver>(t, bench.sim());
    uint64_t cycles = driver->cyclesAvailable();
    bench.addDriver(std::move(driver));
    if (check)
        bench.addMonitor(
            std::make_unique<ReplayMonitor>(t, bench.sim()));
    return cycles;
}

uint64_t
gradeCoverage(const rtl::Netlist &nl, const Trace &t,
              tb::Coverage &cov)
{
    cov.bindNetlist(nl);
    if (t.cycles() == 0)
        return 0;

    // Flat signal name -> trace index, resolved once.
    std::map<std::string, size_t> index;
    for (size_t i = 0; i < t.signals().size(); i++)
        index.emplace(t.signals()[i].name, i);

    // The sampler queries the same names in the same order every
    // frame, so the first frame's resolutions are memoized and
    // replayed by position: no per-frame string lookups on an
    // archive-sized grade.
    std::vector<int32_t> order;
    bool primed = false;
    size_t call = 0;

    TraceCursor cursor(t);
    uint64_t frames = 0;
    for (uint64_t time = t.startTime(); time <= t.endTime(); time++) {
        cursor.advanceTo(time);
        call = 0;
        cov.sampleNamed(
            [&](const std::string &name) -> const BitVec * {
                int32_t idx;
                if (!primed) {
                    auto it = index.find(name);
                    idx = it == index.end()
                        ? -1 : static_cast<int32_t>(it->second);
                    order.push_back(idx);
                } else {
                    idx = order[call];
                }
                call++;
                return idx < 0
                    ? nullptr
                    : &cursor.value(static_cast<size_t>(idx));
            });
        primed = true;
        frames++;
    }
    return frames;
}

} // namespace trace
} // namespace anvil
