/**
 * @file
 * Rolling-activity-window observer plugin.
 *
 * RollingActivity rides the shared obs::ChangeFeed and tracks design
 * switching activity over a sliding K-cycle window: a ring buffer of
 * per-cycle changed-signal counts gives the window total in O(1) per
 * cycle, and a per-net accumulator records which named signals are
 * doing the switching.  Each time the window fills it (optionally)
 * streams a "window" event into an obs::EventSink, so a live event
 * stream carries the activity envelope of the run, not just its
 * end-of-run average.
 *
 * exportMetrics() publishes the run's envelope into a
 * MetricsRegistry under the "act." prefix:
 *
 *   act.window              window length K (cycles)
 *   act.windows             completed windows
 *   act.peak_window_changes busiest window's changed-signal total
 *   act.peak_net_changes    busiest single signal's total changes
 *   act.hot.<signal>        total changes of the top-8 hottest nets
 *
 * "act." counters merge across farm workers by MAX, not sum (see
 * obs::Merger): a peak is a high-water mark, and per-worker change
 * totals from different seeds are alternatives, not parts of one run.
 */

#ifndef ANVIL_OBS_ACTIVITY_H
#define ANVIL_OBS_ACTIVITY_H

#include <cstdint>
#include <string>
#include <vector>

#include "obs/observer.h"

namespace anvil {
namespace obs {

class EventSink;
class MetricsRegistry;

class RollingActivity : public Observer
{
  public:
    /** window: K, the sliding-window length in cycles; sink: stream
     *  to emit "window" events into (null: track silently). */
    explicit RollingActivity(uint64_t window = 64,
                             EventSink *sink = nullptr);

    // obs::Observer
    void onAttach(ChangeFeed &feed) override;
    void onPrime(rtl::Sim &sim, uint64_t cycle) override;
    void onCycle(rtl::Sim &sim, uint64_t cycle,
                 const std::vector<rtl::NetId> &changed) override;
    const char *observerName() const override { return "activity"; }

    /** Publish the envelope under "act." keys (see file comment). */
    void exportMetrics(MetricsRegistry &reg) const;

    uint64_t windows() const { return _windows; }
    uint64_t peakWindowChanges() const { return _peak_window; }

  private:
    void closeWindow(uint64_t cycle);

    uint64_t _window_len;
    EventSink *_sink;

    // Sliding window: ring of per-cycle counts + running total.
    std::vector<uint64_t> _ring;
    size_t _ring_at = 0;
    uint64_t _ring_fill = 0;
    uint64_t _window_total = 0;

    uint64_t _windows = 0;
    uint64_t _peak_window = 0;

    // Whole-run per-net change totals, parallel name table.
    NetIndex _index;                     // fed named nets, one slot each
    std::vector<std::string> _names;     // slot -> signal name
    std::vector<uint64_t> _changes;      // slot -> total changes
};

} // namespace obs
} // namespace anvil

#endif // ANVIL_OBS_ACTIVITY_H
