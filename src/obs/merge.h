/**
 * @file
 * Multi-stream telemetry merger: folds any number of
 * "anvil-events-v2" event streams (obs::EventSink output) into one
 * unified closure report.
 *
 * The merged artifacts are byte-compatible with what a single run
 * emits: coverage() reconstructs a tb::Coverage whose report() /
 * summaryJson() match the single-run forms, metricsJson() is an
 * "anvil-metrics-v1" document, statsJson() an "anvil-stats-v1" line
 * (plus a "workers" count), and triageReport() the ranked
 * assertion-triage table.  Feeding exactly one stream back through
 * the merger reproduces that run's artifacts byte-for-byte — the
 * N=1 identity the merge-correctness tests pin down.
 *
 * Merge semantics, per slot kind:
 *
 *  - coverage: toggle masks OR, bin/point/assert counts sum, merged
 *    fail cycles sorted and truncated to the single-run retention
 *    cap (all commutative);
 *  - counters: sum — except the "act." activity-envelope prefix,
 *    the sweep's "sweep.peak_*" marks and "sweep.strict_nodes",
 *    which keep the MAX (peaks are high-water marks, the strict-node
 *    count is a per-design constant, and hot-net totals from
 *    different seeds are alternatives, not parts);
 *  - timers: sum (aggregate work); histograms: element-wise sum;
 *  - gauges: a gauge carried by exactly one stream passes through
 *    with its original lexeme; one carried by several is folded as
 *    the cycle-weighted mean.  Derived gauges ("cov.*") and triage
 *    counters are recomputed from the merged state instead;
 *  - violations: re-deduplicated fleet-wide by (channel, rule) with
 *    the earliest first-occurrence cycle.
 *
 * Order independence: streams are sorted by (seed, worker, design,
 * label) before folding, so shuffled inputs — including
 * nondeterministic farm-worker completion order — produce identical
 * bytes.  Even the non-associative float folds see one canonical
 * order.
 */

#ifndef ANVIL_OBS_MERGE_H
#define ANVIL_OBS_MERGE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/triage.h"
#include "tb/coverage.h"

namespace anvil {
namespace obs {

class Merger
{
  public:
    /** Per-stream run identity and totals (run_begin + run_end). */
    struct StreamInfo
    {
        std::string design;
        int worker = 0;
        uint64_t seed = 0;
        std::string sweep;
        int threads = 0;
        uint64_t cycles = 0;
        uint64_t toggles = 0;
        uint64_t failures = 0;
        uint64_t wall_ns = 0;
        std::string backend;
        double activity_pct = 0.0;
    };

    /** Fleet-wide totals over every added stream. */
    struct Totals
    {
        size_t workers = 0;
        uint64_t cycles = 0;
        uint64_t toggles = 0;
        uint64_t failures = 0;
        uint64_t wall_ns = 0;   // summed worker wall time
        std::string backend;    // "compiled"/"interp", "mixed"
    };

    /** One flight-recorder window reference (v2 window_dump event),
     *  annotated with the worker/seed of the stream that carried it. */
    struct WindowDump
    {
        std::string trigger;
        std::string path;
        uint64_t trigger_cycle = 0;
        uint64_t from = 0;
        uint64_t to = 0;
        int worker = 0;
        uint64_t seed = 0;
    };

    Merger();
    ~Merger();
    Merger(const Merger &) = delete;
    Merger &operator=(const Merger &) = delete;

    /**
     * Parse and queue one JSONL event stream.  `label` names the
     * stream in diagnostics (a file path, or "worker-N").  Throws
     * std::runtime_error on malformed lines, an unknown schema tag,
     * or a design mismatch against previously added streams.
     */
    void addStreamText(const std::string &text,
                       const std::string &label);

    /** addStreamText over a file's contents. */
    void addStreamFile(const std::string &path);

    size_t streams() const { return _streams.size(); }

    /** Per-stream identities, in canonical (folded) order. */
    std::vector<StreamInfo> streamInfos() const;

    Totals totals() const;

    /** Merged coverage (valid until the next addStream*). */
    const tb::Coverage &coverage() const;

    /** True when any stream carried coverage events. */
    bool hasCoverage() const;

    /** Merged "anvil-metrics-v1" document. */
    std::string metricsJson(bool include_timers = true) const;

    /** One merged metrics counter (0 when no stream carried it). */
    uint64_t counter(const std::string &name) const;

    /**
     * The merged "sweep.*" counters as rtl::SweepStats, mode from the
     * first stream in canonical order: the `sweep:` stats line of a
     * single run, reproduced from its stream (or a fleet's).
     */
    rtl::SweepStats sweepStats() const;

    /** Fleet-ranked triage table (AssertionTriage::format). */
    std::string triageReport() const;

    /** Merged ranked signatures (for callers composing reports). */
    std::vector<AssertionTriage::Entry> triage() const;

    /** Flight-recorder window references carried by the streams, in
     *  canonical fold order, deduplicated by dump path. */
    std::vector<WindowDump> windowDumps() const;

    /**
     * Merged "anvil-stats-v1" line + "workers".  wall_ns_override
     * replaces the summed worker wall time (an in-process farm
     * reports real elapsed time); pass 0 to keep the sum.
     */
    std::string statsJson(uint64_t wall_ns_override = 0) const;

  private:
    struct Stream;
    void fold() const;

    std::vector<std::unique_ptr<Stream>> _streams;

    // Folded state, rebuilt lazily after each addStream*.
    mutable bool _folded = false;
    mutable std::unique_ptr<tb::Coverage> _cov;
    mutable bool _has_cov = false;
    mutable MetricsRegistry _reg;
    mutable std::vector<AssertionTriage::Entry> _triage;
    mutable std::vector<const Stream *> _order;
};

} // namespace obs
} // namespace anvil

#endif // ANVIL_OBS_MERGE_H
