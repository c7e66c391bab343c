/**
 * @file
 * Chrome-trace / Perfetto profiler for simulation runs.
 *
 * TraceProfiler is the sink for both halves of the telemetry spine:
 * as an rtl::SimTelemetry it receives the simulator's per-phase
 * windows (sweep, kernel eval, commit), and the obs::ChangeFeed
 * reports each observer's visit onto its own track.  Both time one
 * cycle in rtl::kTelemetryStride and report the other runs untimed,
 * so a track's total is a whole-run estimate: its timed windows' ns
 * scaled by runs / timed runs.  Tracks fed only by event() (the
 * prover's and the BMC's) have no untimed runs and stay exact.  Every
 * report is accumulated into per-track totals (cheap, always on);
 * when event recording is enabled the timed windows are also
 * buffered and writeJson() emits them in the Chrome Trace Event
 * format ("X" complete events, one tid per track) that
 * chrome://tracing and Perfetto load directly.  An `anvil` extension
 * object carries the per-level activity histogram and per-track
 * totals; trace viewers ignore unknown top-level keys.
 */

#ifndef ANVIL_OBS_PROFILER_H
#define ANVIL_OBS_PROFILER_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "rtl/interp.h"

namespace anvil {
namespace obs {

/** Whole-run estimate of a sampled timer: the ns of `timed` timed
 *  runs scaled to all `runs` (0 when nothing was timed). */
inline uint64_t
extrapolateNs(uint64_t timed_ns, uint64_t timed, uint64_t runs)
{
    if (!timed)
        return 0;
    return static_cast<uint64_t>(
        static_cast<unsigned __int128>(timed_ns) * runs / timed);
}

class TraceProfiler : public rtl::SimTelemetry
{
  public:
    struct TrackTotal
    {
        std::string name;
        uint64_t ns = 0;      // whole-run estimate (exact if untimed 0)
        uint64_t count = 0;   // timed windows
    };

    /**
     * @param record_events  buffer individual events for writeJson();
     *        false keeps only per-track totals (for --metrics without
     *        --profile the totals are all that is consumed).
     */
    explicit TraceProfiler(bool record_events = true);

    /** Find-or-create a named track; returns its tid. */
    int track(const std::string &name);

    /** Report one timed window [begin_ns, end_ns) on a track. */
    void event(int tid, const std::string &name, uint64_t begin_ns,
               uint64_t end_ns, uint64_t cycle);

    /** Count one untimed run on a track (a sampled track's run off
     *  the sampling grid); totals() extrapolates over it. */
    void untimed(int tid)
    {
        if (tid >= 0 && static_cast<size_t>(tid) < _track_untimed.size())
            _track_untimed[static_cast<size_t>(tid)]++;
    }

    // rtl::SimTelemetry — the simulator's phase windows land on the
    // three fixed tracks created by the constructor.
    void simPhase(rtl::SimPhase phase, uint64_t cycle,
                  uint64_t begin_ns, uint64_t end_ns) override;
    void simPhaseUntimed(rtl::SimPhase phase) override
    {
        untimed(static_cast<int>(phase));
    }

    /** Per-track estimated time and timed-window counts, in tid
     *  order. */
    std::vector<TrackTotal> totals() const;

    /** Install the feed's per-level changed-net histogram. */
    void setLevelActivity(std::vector<uint64_t> activity)
    {
        _level_activity = std::move(activity);
    }

    uint64_t droppedEvents() const { return _dropped; }

    /** Emit the Chrome Trace Event JSON document. */
    void writeJson(std::ostream &os) const;

  private:
    struct Ev
    {
        int tid;
        int32_t name;   // index into _names
        uint64_t begin_ns;
        uint64_t end_ns;
        uint64_t cycle;
    };

    int32_t nameId(const std::string &name);

    bool _record;
    std::vector<std::string> _tracks;
    std::vector<uint64_t> _track_ns;
    std::vector<uint64_t> _track_count;
    std::vector<uint64_t> _track_untimed;
    std::vector<std::string> _names;
    std::vector<Ev> _events;
    uint64_t _dropped = 0;
    std::vector<uint64_t> _level_activity;

    // Bounds the buffer on long runs; totals keep counting past it.
    static constexpr size_t kMaxEvents = 1u << 20;
};

} // namespace obs
} // namespace anvil

#endif // ANVIL_OBS_PROFILER_H
