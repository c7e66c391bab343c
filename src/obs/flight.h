/**
 * @file
 * Flight recorder: always-on ring buffer of per-cycle changed-net
 * deltas that turns into a waveform only when something goes wrong.
 *
 * A full `--vcd` of a million-cycle farm run is unaffordable, yet a
 * violation deep in such a run leaves only a triage line — no
 * waveform context.  The FlightRecorder closes that gap with the
 * classic production-tracing pattern: it rides the shared
 * obs::ChangeFeed like any observer, but instead of formatting VCD
 * text it memcpy's each cycle's changed values into a bounded
 * ring (cost proportional to activity, no I/O, no string work).  On
 * a trigger — any monotonic counter that increased this cycle:
 * contract violations, scoreboard/assertion failures, a named cover
 * point — it keeps capturing for `post` more cycles and then
 * reconstructs the [trigger - pre, trigger + post] window as a
 * standard VCD dump.  The capture is an rtl::VcdSignals, the one
 * rtl::VcdWriter holds (same selection, id-codes, change test and
 * formatter), so a dump is the bytes a VcdWriter attached at the
 * window's first cycle writes, and `--replay` and `--check-trace`
 * consume it unmodified.
 *
 * Reconstruction works from a base snapshot plus the ring: evicting
 * a cycle record folds its deltas into the base, so the base always
 * holds the values just before the oldest retained record and a
 * window checkpoint is base + records up to the window start.
 * Triggers landing inside an open window coalesce (the window's end
 * extends); triggers after a dump flushes open a new window, so
 * distinct failures in one run produce distinct dumps.  A window
 * still open when the run ends is flushed by onFinish — a trigger on
 * the final cycle loses nothing.  The ring grows on demand up to its
 * pre + post + 2 records, so a run of N cycles holds at most N.
 */

#ifndef ANVIL_OBS_FLIGHT_H
#define ANVIL_OBS_FLIGHT_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "rtl/interp.h"
#include "rtl/vcd.h"

namespace anvil {
namespace obs {

class MetricsRegistry;

class FlightRecorder : public Observer
{
  public:
    struct Options
    {
        /** Cycles of context kept before a trigger. */
        uint64_t pre = 64;
        /** Cycles captured after a trigger before the dump flushes. */
        uint64_t post = 8;
    };

    /** One flushed window dump. */
    struct DumpInfo
    {
        int index = 0;            // 0-based flush order
        std::string trigger;      // trigger name that opened it
        uint64_t trigger_cycle = 0;
        uint64_t from = 0;        // first cycle in the window
        uint64_t to = 0;          // last cycle in the window
        std::string path;         // sink-assigned label ("" = none)
    };

    /**
     * A trigger is a monotonic counter; the recorder polls it once
     * per cycle (after capturing that cycle) and fires when the
     * count increased.  Wraps naturally around ContractMonitor
     * violation counts, Testbench failure totals, and Coverage
     * cover-point hits.
     */
    using Trigger = std::function<uint64_t()>;

    /**
     * Receives each flushed window (the full VCD text) and returns
     * the label recorded in DumpInfo::path — typically the file it
     * wrote.  Without a sink, dumps are recorded but the text is
     * dropped.
     */
    using DumpSink =
        std::function<std::string(const DumpInfo &info,
                                  const std::string &vcd)>;

    /** A recorder of every named signal of `sim`, as rtl::VcdWriter
     *  traces them. */
    explicit FlightRecorder(rtl::Sim &sim)
        : FlightRecorder(sim, Options())
    {
    }
    FlightRecorder(rtl::Sim &sim, Options opts);
    ~FlightRecorder() override;

    void addTrigger(const std::string &name, Trigger counter);
    void setDumpSink(DumpSink sink) { _sink = std::move(sink); }

    /** Flushed window dumps, in flush order. */
    const std::vector<DumpInfo> &dumps() const { return _dumps; }

    /** Cycle records currently retained in the ring. */
    size_t ringRecords() const { return _count; }

    /** hot counters for a metrics run: flight.dumps,
     *  flight.ring_records, flight.capture_words. */
    void exportMetrics(MetricsRegistry &reg) const;

    /** Words copied into the ring, and the traced nets the feed
     *  listed as changed (plus the lazy ones whose re-read moved):
     *  their ratio is the recorder's cost per changed traced net. */
    uint64_t capturedWords() const { return _captured_words; }
    uint64_t tracedChanges() const { return _traced_changes; }

    // obs::Observer
    void onPrime(rtl::Sim &sim, uint64_t cycle) override;
    void onCycle(rtl::Sim &sim, uint64_t cycle,
                 const std::vector<rtl::NetId> &changed) override;
    void onFinish(rtl::Sim &sim) override;
    const char *observerName() const override { return "flight"; }

  private:
    /** One cycle's deltas: parallel slot/word arrays, values packed
     *  back to back (each slot contributes its words) in capture
     *  order — flushDump formats them in declaration order, so the
     *  hot path never sorts. */
    struct CycleRec
    {
        uint64_t cycle = 0;
        std::vector<uint32_t> slots;
        std::vector<uint64_t> words;
    };

    struct TriggerSlot
    {
        std::string name;
        Trigger fn;
        uint64_t seen = 0;
    };

    void beginCycle(uint64_t cycle);
    bool captureSlot(uint32_t slot, const uint64_t *w);
    void endCycle(uint64_t cycle);
    void pollTriggers(uint64_t cycle);
    void evictOldest();
    void applyRec(const CycleRec &rec, std::vector<uint64_t> &vals) const;
    void flushDump(uint64_t to);

    Options _opts;
    /** Every named signal, with its last captured words. */
    rtl::VcdSignals _sig;
    /** The words before the oldest record, laid out like
     *  _sig.lastWords(). */
    std::vector<uint64_t> _base;

    // Ring of cycle records, oldest at _head, recycled in place so
    // the steady state allocates nothing.  It grows to _capacity
    // records before its first eviction, which leaves _head at 0
    // until then.
    std::vector<CycleRec> _ring;
    size_t _capacity = 0;
    size_t _head = 0;
    size_t _count = 0;
    CycleRec *_cur = nullptr;         // this cycle's record, once opened

    bool _started = false;
    uint64_t _first_cycle = 0;
    uint64_t _last_cycle = 0;
    uint64_t _captured_words = 0;
    uint64_t _traced_changes = 0;

    std::vector<TriggerSlot> _triggers;
    bool _armed = false;
    std::string _armed_trigger;
    uint64_t _armed_cycle = 0;
    uint64_t _dump_at = 0;

    DumpSink _sink;
    std::vector<DumpInfo> _dumps;
};

} // namespace obs
} // namespace anvil

#endif // ANVIL_OBS_FLIGHT_H
