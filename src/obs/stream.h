/**
 * @file
 * Live telemetry event stream: serializes what a run observes into
 * a versioned JSONL wire format ("anvil-events-v2").
 *
 * An EventSink turns feed-side observations — contract violations
 * as they fire, rolling-activity windows, and the end-of-run
 * coverage / metrics / activity snapshots — into one event object
 * per line.  The stream is the farm's transport: every worker
 * writes one (into memory for `anvilc --farm`, or to disk via
 * `--events`), and obs::Merger folds any number of them back into
 * the exact artifacts a single run would have produced
 * (tb::Coverage::report()/summaryJson(), MetricsRegistry::json(),
 * the anvil-stats-v1 line).
 *
 * Wire format: one JSON object per line, discriminated by "e":
 *
 *   run_begin    schema, design, worker, seed, cycles, sweep, threads
 *                (threads is always 1)
 *   violation    t, channel, rule, msg            (live, one per fire)
 *   window       t, changed, rate                 (live, every K cycles)
 *   window_dump  t, trigger, path, from, to       (flight recorder,
 *                one per flushed trigger window)
 *   cov_signal   name, width, reg, rose[], fell[] (hex mask words)
 *   cov_bins     name, width, hits[]
 *   cov_point    name, count
 *   cov_cross    name, a, b, bins[4]
 *   cov_assert   name, checked, failures, fail_cycles[]
 *   cov_samples  count
 *   counter      k, v          gauge   k, x       (metrics snapshot)
 *   hist         k, counts[]   timer   k, ns
 *   activity     levels[]                 (per-level changed counts)
 *   run_end      cycles, toggles, failures, wall_ns, backend,
 *                activity_pct
 *
 * Coverage and metrics are emitted as end-of-run state snapshots —
 * their merge operators (mask OR, count sum) make per-cycle deltas
 * unnecessary — while violations and windows stream live.  Every
 * stream validates line-by-line against
 * docs/schemas/events.schema.json (json_validate --lines).
 */

#ifndef ANVIL_OBS_STREAM_H
#define ANVIL_OBS_STREAM_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "rtl/interp.h"
#include "tb/coverage.h"

namespace anvil {
namespace obs {

/** Wire-format version tag stamped into every run_begin event, and
 *  the only one obs::Merger accepts. */
constexpr const char *kEventsSchema = "anvil-events-v2";

class EventSink
{
  public:
    /** The stream must outlive the sink's last write. */
    explicit EventSink(std::ostream &os) : _os(os) {}
    EventSink(const EventSink &) = delete;
    EventSink &operator=(const EventSink &) = delete;

    /** Stream header: identifies the design, worker, and seed.  The
     *  unnamed int is ignored ("threads" is always written as 1); it
     *  stays so callers such as perfbench/driver.cpp still compile. */
    void runBegin(const std::string &design, int worker,
                  uint64_t seed, uint64_t cycles,
                  rtl::SweepMode sweep, int = 1);

    /** One contract violation, streamed as it fires. */
    void violation(uint64_t cycle, const std::string &channel,
                   const std::string &rule, const std::string &msg);

    /** One completed rolling-activity window. */
    void window(uint64_t cycle, uint64_t changed, double rate);

    /** One flushed flight-recorder window dump: the trigger that
     *  opened it, the cycle range it covers, and where the VCD went. */
    void windowDump(uint64_t cycle, const std::string &trigger,
                    const std::string &path, uint64_t from,
                    uint64_t to);

    /** End-of-run coverage snapshot (signals, bins, points, samples). */
    void coverage(const tb::Coverage &cov);

    /** End-of-run metrics snapshot (counters/gauges/hists/timers). */
    void metrics(const MetricsRegistry &reg);

    /** Per-level changed-net histogram (profiler-fed runs only). */
    void activity(const std::vector<uint64_t> &levels);

    /** Stream trailer: run totals and the backend actually used. */
    void runEnd(uint64_t cycles, uint64_t toggles, uint64_t failures,
                uint64_t wall_ns, bool compiled_backend,
                double activity_pct);

    /** Events written so far. */
    uint64_t events() const { return _events; }

  private:
    void line(const std::string &s);

    std::ostream &_os;
    uint64_t _events = 0;
};

} // namespace obs
} // namespace anvil

#endif // ANVIL_OBS_STREAM_H
