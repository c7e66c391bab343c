#include "obs/triage.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/stream.h"
#include "support/strings.h"

namespace anvil {
namespace obs {

AssertionTriage::AssertionTriage(
    const trace::ContractMonitor &monitor, EventSink *sink)
    : _monitor(monitor), _sink(sink)
{
}

void
AssertionTriage::onPrime(rtl::Sim &, uint64_t)
{
    drain();
}

void
AssertionTriage::onCycle(rtl::Sim &, uint64_t,
                         const std::vector<rtl::NetId> &)
{
    drain();
}

void
AssertionTriage::onFinish(rtl::Sim &)
{
    // The monitor's visit order within the feed is not guaranteed to
    // precede ours; pick up anything logged after our last visit.
    drain();
}

void
AssertionTriage::drain()
{
    const auto &log = _monitor.violations();
    for (; _seen < log.size(); _seen++) {
        const trace::ContractViolation &v = log[_seen];
        if (_sink)
            _sink->violation(v.cycle, v.channel, v.rule, v.message);
        _total++;
        bool found = false;
        for (Entry &e : _entries)
            if (e.channel == v.channel && e.rule == v.rule) {
                e.count++;
                found = true;
                break;
            }
        if (!found)
            _entries.push_back({v.channel, v.rule, v.cycle, 1});
    }
}

std::vector<AssertionTriage::Entry>
AssertionTriage::ranked() const
{
    std::vector<Entry> out = _entries;
    std::sort(out.begin(), out.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  if (a.first_cycle != b.first_cycle)
                      return a.first_cycle < b.first_cycle;
                  if (a.channel != b.channel)
                      return a.channel < b.channel;
                  return a.rule < b.rule;
              });
    return out;
}

void
AssertionTriage::exportMetrics(MetricsRegistry &reg) const
{
    reg.counter("triage.signatures") = _entries.size();
    reg.counter("triage.violations") = _total;
    for (const Entry &e : _entries)
        reg.counter("triage.sig." + e.channel + "." + e.rule) =
            e.count;
}

std::string
AssertionTriage::format(const std::vector<Entry> &entries)
{
    if (entries.empty())
        return "triage: no contract violations\n";
    std::string out = strfmt("triage: %zu signature(s)\n",
                             entries.size());
    for (const Entry &e : entries)
        out += strfmt("  %-24s %-10s x%-6llu first @%llu\n",
                      e.channel.c_str(), e.rule.c_str(),
                      static_cast<unsigned long long>(e.count),
                      static_cast<unsigned long long>(e.first_cycle));
    return out;
}

} // namespace obs
} // namespace anvil
