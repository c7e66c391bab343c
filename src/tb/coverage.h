/**
 * @file
 * Netlist coverage engine: measures what a stimulus actually
 * exercised in a compiled design.
 *
 * Three coverage models, all hooked onto the interned net table of
 * rtl::Netlist so sampling is a dense id-addressed walk:
 *
 *  - toggle coverage: per named signal, a rose/fell bitmask pair; a
 *    bit is covered once it has been observed going 0->1 AND 1->0.
 *    After the first (priming) visit, toggle sampling rides the
 *    unified obs::ChangeFeed: only signals on the fed frame are
 *    revisited — an unchanged signal cannot toggle — so the
 *    per-cycle cost tracks activity, not design size;
 *  - register-value bins: each register's sampled values are hashed
 *    into a small fixed number of bins (exact values for narrow
 *    registers); bin occupancy distinguishes stimuli that park a
 *    state machine from ones that actually walk it.  A live run
 *    bins a register only when it appears on the change feed (or
 *    on a priming rescan): the samples it held its previous bin for
 *    are added then, and every read settles the open holds first,
 *    so per-bin counts equal binning every register every sample
 *    at a cost of O(changed registers) per sample;
 *  - user-declared cover/assert points: top-scope expressions counted
 *    (cover) or checked whenever enabled (assert), with failing
 *    cycles recorded.
 *
 * Reports come in two forms: a human-readable text table and a
 * machine-readable single-line JSON summary.
 */

#ifndef ANVIL_TB_COVERAGE_H
#define ANVIL_TB_COVERAGE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "rtl/interp.h"

namespace anvil {
namespace tb {

/** Per-signal toggle coverage counters. */
struct SignalCoverage
{
    std::string name;
    rtl::NetId net = rtl::kNoNet;
    int width = 1;
    bool is_reg = false;
    /** One bit per signal bit, 64 per word, like BitVec storage. */
    std::vector<uint64_t> rose, fell, last;

    /** Bits observed toggling in both directions. */
    int coveredBits() const;
};

/** A user-declared cover point: counts cycles where expr is true. */
struct CoverPoint
{
    std::string name;
    rtl::ExprPtr expr;
    uint64_t hits = 0;
    bool last = false;   // truth value at the latest sample
};

/**
 * Cross coverage of two cover points: per-cycle occupancy of the
 * four (a, b) truth tuples.  A cross is closed once all four bins
 * have been observed.
 */
struct CrossPoint
{
    std::string name;
    size_t a = 0, b = 0;       // indices into the cover-point list
    uint64_t bins[4] = {0, 0, 0, 0};   // bin (va << 1) | vb

    int binsHit() const;
};

/** A user-declared assertion: expr must hold whenever enable does. */
struct AssertPoint
{
    std::string name;
    rtl::ExprPtr enable;
    rtl::ExprPtr expr;
    uint64_t checked = 0;
    uint64_t failures = 0;
    std::vector<uint64_t> fail_cycles;   // first few failing cycles
};

/** Value-bin occupancy for one register. */
struct RegBins
{
    std::string name;
    int width = 1;
    std::vector<uint64_t> hits;   // per-bin sample counts

    int binsHit() const;
};

class Coverage : public obs::Observer
{
  public:
    /** reg_bins: bin count for wide registers (narrow ones use
     *  2^width exact-value bins). */
    explicit Coverage(int reg_bins = 16);
    ~Coverage() override;

    void addCover(const std::string &name, rtl::ExprPtr expr);
    void addAssert(const std::string &name, rtl::ExprPtr enable,
                   rtl::ExprPtr expr);

    /**
     * Cross two existing cover points (by name): bins the tuple of
     * their truth values every sample.  Throws std::invalid_argument
     * if either point has not been declared yet.
     */
    void cross(const std::string &name, const std::string &pointA,
               const std::string &pointB);

    /**
     * Standalone sampling through a private single-observer feed:
     * sample the design once, on the combinational frame (call
     * before Sim::step so values line up with the current cycle).
     * The first call binds this engine to the sim's netlist.  Not
     * available once attached to an external ChangeFeed — drive
     * that feed instead.
     */
    void sample(rtl::Sim &sim);

    // obs::Observer
    void onAttach(obs::ChangeFeed &feed) override;
    void onPrime(rtl::Sim &sim, uint64_t cycle) override;
    void onCycle(rtl::Sim &sim, uint64_t cycle,
                 const std::vector<rtl::NetId> &changed) override;
    const char *observerName() const override { return "coverage"; }

    /**
     * Offline grading: bind the toggle/reg-bin models to a netlist
     * without a live simulation — recorded traces are then fed
     * through sampleNamed (trace::gradeCoverage).  The signal and
     * bin tables are identical to a live bind, so a full dump of a
     * run grades to the same summary the run printed.
     */
    void bindNetlist(const rtl::Netlist &nl);

    /**
     * One offline sample: `value` returns the frame value of a flat
     * signal name, or null when the recording does not carry it
     * (the signal is skipped that cycle).  User cover/assert points
     * need live expressions and are not evaluated offline.
     */
    void sampleNamed(
        const std::function<const BitVec *(const std::string &)>
            &value);

    uint64_t samples() const { return _samples; }

    /** Toggle coverage as a fraction of all named signal bits. */
    double togglePct() const;

    /** Register bins hit as a fraction of all register bins. */
    double regBinPct() const;

    bool assertsOk() const;

    const std::vector<SignalCoverage> &signals() const
    {
        return _signals;
    }
    /** Per-register bin counts, open holds settled (exact at any
     *  point between samples). */
    const std::vector<RegBins> &regBins() const
    {
        settleRegBins();
        return _reg_bins;
    }
    const std::vector<CoverPoint> &covers() const { return _covers; }
    const std::vector<CrossPoint> &crosses() const
    {
        return _crosses;
    }
    const std::vector<AssertPoint> &asserts() const
    {
        return _asserts;
    }

    // --- Stream merging (obs::Merger) ---------------------------------
    //
    // Rebuild / accumulate coverage state from serialized snapshots
    // (obs::EventSink streams).  Slots are keyed by name and created
    // on first sight, in call order — a merger that feeds signals in
    // the original signals() order reconstructs a table whose
    // report() and summaryJson() are byte-identical to the source
    // run's.  All merge operations are commutative, so multi-stream
    // unions are independent of stream order.

    /** OR a foreign signal's toggle masks into this engine.  Width
     *  mismatches throw std::invalid_argument — streams from
     *  different designs do not merge. */
    void mergeSignal(const std::string &name, int width, bool is_reg,
                     const std::vector<uint64_t> &rose,
                     const std::vector<uint64_t> &fell);

    /** Sum one register's value-bin hit counts, element-wise. */
    void mergeRegBins(const std::string &name, int width,
                      const std::vector<uint64_t> &hits);

    /** Sum a cover point's hit count (point created expressionless). */
    void mergeCover(const std::string &name, uint64_t hits);

    /** Sum a cross point's four bins (end points looked up, or
     *  created, by name). */
    void mergeCross(const std::string &name, const std::string &a,
                    const std::string &b, const uint64_t bins[4]);

    /** Sum an assert point's counts; failing cycles are merged,
     *  sorted, and truncated to the per-run retention cap. */
    void mergeAssert(const std::string &name, uint64_t checked,
                     uint64_t failures,
                     const std::vector<uint64_t> &fail_cycles);

    /** Add externally observed sample count (streams sum). */
    void mergeSamples(uint64_t n) { _samples += n; }

    /** Human-readable coverage report. */
    std::string report() const;

    /** Single-line machine-readable JSON summary. */
    std::string summaryJson() const;

  private:
    /**
     * A register's open hold: it has sat in `bin` since sample
     * `since`, and those samples are not yet in its hits.
     */
    struct RegHold
    {
        int32_t bin = -1;   // -1: no open hold
        uint64_t since = 0;
    };

    void sampleSlot(rtl::Sim &sim, uint32_t slot);
    void sampleTail(rtl::Sim &sim);
    /** Re-bin register `reg` from its current value's folded words,
     *  closing its previous hold into the hits. */
    void binReg(size_t reg, uint64_t folded);
    /** Add every open hold's samples so far to its bin. */
    void settleRegBins() const;

    int _req_bins;
    bool _bound = false;
    uint64_t _samples = 0;
    obs::NetIndex _index;                // slot: a _signals index
    std::vector<int32_t> _slot_reg;      // _signals slot -> reg or -1
    std::vector<SignalCoverage> _signals;
    /** Settled lazily by const readers, hence mutable. */
    mutable std::vector<RegBins> _reg_bins;
    mutable std::vector<RegHold> _reg_hold;   // parallel to _reg_bins
    std::vector<CoverPoint> _covers;
    std::vector<CrossPoint> _crosses;
    std::vector<AssertPoint> _asserts;
    std::unique_ptr<obs::ChangeFeed> _own_feed;   // standalone mode
};

} // namespace tb
} // namespace anvil

#endif // ANVIL_TB_COVERAGE_H
