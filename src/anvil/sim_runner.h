/**
 * @file
 * The one run spine behind every anvilc simulation: `--sim`,
 * `--replay` and `--farm N` each build one JobConfig and make one
 * runFarm call (one worker unless `--farm` is given), then print
 * their report from the obs::Merger fold of the workers' streams.
 *
 * A farm shares one immutable rtl::Netlist (and, with the compiled
 * backend, one JIT kernel) across N per-worker rtl::Sim instances —
 * elaboration and compilation are paid once, the per-worker state is
 * just the runtime value tables.  Each worker runs the random
 * testbench at its own seed (base seed + worker), or replays a
 * recorded dump, with the observer stack its JobConfig asks for —
 * contract monitor, coverage, assertion triage, rolling activity,
 * flight recorder, VCD — and serializes everything it observed into
 * an "anvil-events-v2" stream (obs::EventSink).  The streams feed an
 * obs::Merger, whose merged artifacts are byte-compatible with a
 * single stream's; `anvilc --farm 1` and a plain `anvilc --sim` at
 * the same seed print identical reports and write identical files.
 *
 * collectRunMetrics / emitRunTail build every stream's end-of-run
 * tail, so the per-worker stream and the `--metrics`/`--stats-json`
 * artifacts can never drift apart.
 */

#ifndef ANVIL_ANVIL_SIM_RUNNER_H
#define ANVIL_ANVIL_SIM_RUNNER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "codegen/jit.h"
#include "obs/activity.h"
#include "obs/flight.h"
#include "obs/hot.h"
#include "obs/metrics.h"
#include "obs/triage.h"
#include "rtl/interp.h"
#include "tb/testbench.h"
#include "trace/contracts.h"

namespace anvil {
namespace obs {
class EventSink;
class Merger;
class TraceProfiler;
} // namespace obs
namespace trace {
class Trace;
} // namespace trace

namespace run {

/**
 * Assemble the metrics registry from every spine a run exposes.
 * Null spines (no coverage, no profiler, no plugins) skip their
 * sections; what remains matches the single-run layout exactly.
 */
void collectRunMetrics(obs::MetricsRegistry &reg, tb::Testbench &bench,
                       const tb::TbResult &result,
                       const tb::Coverage *coverage,
                       const obs::TraceProfiler *profiler,
                       const codegen::JitResult *jit, uint64_t wall_ns,
                       const obs::RollingActivity *activity,
                       const obs::AssertionTriage *triage);

/**
 * Emit the end-of-run event tail: coverage snapshot, metrics
 * snapshot, per-level activity, run_end.  Call after
 * bench.feed().finish().
 */
void emitRunTail(obs::EventSink &sink, tb::Testbench &bench,
                 const tb::TbResult &result,
                 const tb::Coverage *coverage,
                 const obs::MetricsRegistry &reg, uint64_t wall_ns);

/**
 * Resolve `--dump-on` trigger specs onto a flight recorder:
 * "VIOLATION" polls the bench's total failure count (contract
 * violations, scoreboard and assertion failures), "cover:NAME" polls
 * the named cover point's hit count.  An empty spec list means
 * VIOLATION.  Returns false (with *err set) on an unknown spec or a
 * cover trigger whose point does not exist (or coverage is off);
 * runJob raises that as std::invalid_argument.
 */
bool attachFlightTriggers(obs::FlightRecorder &rec,
                          tb::Testbench &bench,
                          const tb::Coverage *coverage,
                          const std::vector<std::string> &specs,
                          std::string *err);

/**
 * One worker's run configuration.  Wiring the job throws
 * std::invalid_argument for a configuration error: a contract on an
 * unknown channel, an unknown --slice channel, or an unresolvable
 * flight trigger.
 */
struct JobConfig
{
    rtl::ModulePtr top;
    /** Prebuilt immutable netlist; null builds a private one. */
    std::shared_ptr<const rtl::Netlist> netlist;
    uint64_t seed = 1;
    int worker = 0;
    uint64_t cycles = 0;
    rtl::SweepMode sweep_mode = rtl::SweepMode::Dirty;
    /** Ignored (the sweep is single-threaded); kept so readers such
     *  as perfbench/driver.cpp still compile. */
    int sweep_threads = 0;
    /** Shared compiled kernel (abi null: interpreter). */
    rtl::KernelRef kernel;
    /** Per-worker jit provenance for the metrics (may be null). */
    const codegen::JitResult *jit = nullptr;
    std::vector<trace::ContractSpec> contracts;
    bool coverage = false;
    /** Rolling-activity window length K; 0 disables the plugin. */
    uint64_t activity_window = 64;
    /** Flight-recorder pre-trigger window; 0 disables the recorder. */
    uint64_t flight_pre = 0;
    /** Cycles captured after a trigger before the window flushes. */
    uint64_t flight_post = 8;
    /** Trigger specs ("VIOLATION" / "cover:NAME"); empty means
     *  VIOLATION. */
    std::vector<std::string> flight_triggers;
    /** Window dump path prefix; dumps land at <prefix>-<n>.vcd
     *  (runFarm appends .w<worker> when more than one worker runs).
     *  Empty keeps the dumps stream-only (window_dump events with no
     *  path). */
    std::string flight_out;
    /** Install a TraceProfiler: phase timers, per-observer times and
     *  the level-activity histogram in the metrics and stream. */
    bool telemetry = true;
    /** Stream a VCD of the run here (null: no waveform).  A stream
     *  serves one worker; runFarm rejects it for several. */
    std::ostream *vcd = nullptr;
    /** With vcd: dump only this channel's signals. */
    std::string slice;
    /** Write the Chrome-trace profile here after the run; installs
     *  an event-recording profiler even with telemetry off.  One
     *  worker only, as for vcd. */
    std::ostream *profile = nullptr;
    /** Count every node evaluation; JobResult::hot carries the
     *  report and its hot.* metrics join the stream. */
    bool profile_hot = false;
    /** Replay this recorded dump as stimulus (in place of the random
     *  drivers) and diff the run against it.  Must outlive the job. */
    const trace::Trace *replay = nullptr;
};

/** One worker's outcome plus its serialized event stream. */
struct JobResult
{
    int worker = 0;
    uint64_t seed = 0;
    bool ok = false;
    uint64_t cycles = 0;
    uint64_t toggles = 0;
    size_t failures = 0;
    uint64_t wall_ns = 0;
    std::string summary;   // tb::TbResult::summary()
    std::string events;    // the full "anvil-events-v2" stream
    /** Hot-spot attribution (JobConfig::profile_hot only). */
    std::optional<obs::HotReport> hot;
};

/** Run one job to completion (thread-safe per job: every spine is
 *  per-instance, the shared netlist and kernel are read-only). */
JobResult runJob(const JobConfig &cfg);

/** Farm fan-out configuration. */
struct FarmConfig
{
    /**
     * Per-worker template.  Every worker runs a copy with seed =
     * job.seed + worker, its own worker index, and the farm's shared
     * netlist and kernel; every other field is used as given.  A
     * null job.netlist elaborates one from job.top (callers that
     * already elaborated — contract resolution — pass theirs to
     * avoid doing it twice).
     */
    JobConfig job;
    int workers = 1;
    bool compiled_backend = false;
};

/** Farm outcome: per-worker results in worker order. */
struct FarmResult
{
    std::vector<JobResult> jobs;
    uint64_t wall_ns = 0;     // whole-farm elapsed wall time
    std::string jit_note;     // non-empty: degraded to interpreter
    bool anyFailed() const
    {
        for (const JobResult &j : jobs)
            if (!j.ok)
                return true;
        return false;
    }
};

/**
 * Elaborate once, JIT once (when asked — failures degrade to the
 * interpreter with a note), run cfg.workers jobs on their own
 * threads, and feed every event stream into `merger` (worker order,
 * though the merger re-sorts anyway).  A job that throws at run time
 * becomes a failed JobResult; a configuration error
 * (std::invalid_argument, see JobConfig) is rethrown once every
 * worker has stopped.
 */
FarmResult runFarm(const FarmConfig &cfg, obs::Merger &merger);

} // namespace run
} // namespace anvil

#endif // ANVIL_ANVIL_SIM_RUNNER_H
