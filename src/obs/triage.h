/**
 * @file
 * Online assertion-triage observer plugin.
 *
 * A long farm run against a buggy design can produce thousands of
 * contract violations that are all the same bug.  AssertionTriage
 * rides the obs::ChangeFeed next to a trace::ContractMonitor and
 * dedupes its violations online by signature — the (channel, rule)
 * pair — keeping the first-occurrence cycle and a count per
 * signature instead of the raw flood.  Each raw violation is also
 * streamed into an obs::EventSink as it fires (when one is wired),
 * so the event stream stays lossless while the triage table stays
 * small.
 *
 * exportMetrics() publishes:
 *
 *   triage.signatures            distinct (channel, rule) signatures
 *   triage.violations            total raw violations
 *   triage.sig.<channel>.<rule>  per-signature raw count
 *
 * "triage." counters merge across farm workers by SUM, and the
 * merged report re-ranks signatures fleet-wide: count descending,
 * then first cycle, then name — the most frequent, earliest bug
 * first.  format() is the single renderer, shared with obs::Merger.
 */

#ifndef ANVIL_OBS_TRIAGE_H
#define ANVIL_OBS_TRIAGE_H

#include <cstdint>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "trace/contracts.h"

namespace anvil {
namespace obs {

class EventSink;
class MetricsRegistry;

class AssertionTriage : public Observer
{
  public:
    /** One deduplicated violation signature. */
    struct Entry
    {
        std::string channel;
        std::string rule;          // "ack-within", "stable", "hold"
        uint64_t first_cycle = 0;
        uint64_t count = 0;
    };

    /** monitor must outlive the triage observer; sink (optional)
     *  receives every raw violation as a "violation" event. */
    explicit AssertionTriage(const trace::ContractMonitor &monitor,
                             EventSink *sink = nullptr);

    // obs::Observer
    void onPrime(rtl::Sim &sim, uint64_t cycle) override;
    void onCycle(rtl::Sim &sim, uint64_t cycle,
                 const std::vector<rtl::NetId> &changed) override;
    void onFinish(rtl::Sim &sim) override;
    const char *observerName() const override { return "triage"; }

    /** Signatures in ranked order (count desc, first cycle, name). */
    std::vector<Entry> ranked() const;

    uint64_t totalViolations() const { return _total; }

    /** Publish under "triage." keys (see file comment). */
    void exportMetrics(MetricsRegistry &reg) const;

    /** Render a ranked signature list as the human triage report —
     *  one renderer for single runs and merged farm reports. */
    static std::string format(const std::vector<Entry> &entries);

  private:
    void drain();

    const trace::ContractMonitor &_monitor;
    EventSink *_sink;
    size_t _seen = 0;     // violations() entries already drained
    uint64_t _total = 0;
    std::vector<Entry> _entries;   // insertion order
};

} // namespace obs
} // namespace anvil

#endif // ANVIL_OBS_TRIAGE_H
