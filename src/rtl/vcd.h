/**
 * @file
 * Standard VCD (IEEE 1364 value change dump) writer for the compiled
 * simulator, replacing ad-hoc ASCII-only tracing for anything a real
 * waveform viewer should open.
 *
 * Signals are taken straight from the interned netlist table: each
 * traced signal maps its NetId to a compact printable id-code, the
 * dotted instance path becomes the VCD scope hierarchy, and each
 * sample emits value changes only for nets that differ from the
 * previous sample.  The output is fully deterministic (no wall-clock
 * date stamp), so emitted files can be compared against checked-in
 * goldens.
 *
 * Sampling rides the unified obs::ChangeFeed: after the first full
 * checkpoint, a visit compares only the traced nets the fed frame
 * lists, plus the lazy ones (cyclic or ad-hoc cones, re-read every
 * visit through Sim::value(), which keeps their on-demand fault
 * semantics), and sorts and formats only the ones that changed, so
 * the cost per cycle is proportional to activity.  Priming and the
 * rescan fallback for skipped cycles or late pokes are the feed's
 * job; the emitted bytes are identical on either path.  The capture
 * itself (selection, header, last-written words and formatter) is
 * VcdSignals, which obs::FlightRecorder holds too, so a flight
 * window dump is this writer's bytes by construction.
 */

#ifndef ANVIL_RTL_VCD_H
#define ANVIL_RTL_VCD_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "rtl/interp.h"

namespace anvil {
namespace rtl {

/**
 * One declared VCD variable.  The shared currency between VcdSignals
 * below and trace::Trace::writeVcd, which re-emits a loaded trace.
 */
struct VcdVarDecl
{
    std::string name;   // flat dotted instance path
    std::string id;     // printable VCD id-code
    int width = 1;
    bool is_reg = false;
};

/**
 * Emit the deterministic VCD header: fixed date and version text, the
 * `timescale` section, the scope tree derived from the vars' dotted
 * names rooted at `top_scope`, and one $var per entry.  With "1ns",
 * exactly the bytes VcdWriter writes at construction;
 * trace::Trace::writeVcd passes the timescale it read.
 */
void writeVcdHeader(std::ostream &os, const std::string &top_scope,
                    const std::vector<VcdVarDecl> &vars,
                    const std::string &timescale);

/**
 * Emit one value-change line: `0id`/`1id` for 1-bit vars, else
 * `b<binary, leading zeros trimmed> id`.  `w` holds the value's
 * (width + 63) / 64 little-endian words, bits at or above `width`
 * zero: a Sim::words view, or a BitVec's data().
 */
void writeVcdValue(std::ostream &os, const std::string &id, int width,
                   const uint64_t *w);

/**
 * The VCD capture of a set of traced signals: what a dump declares
 * and what it last wrote for each.  VcdWriter and
 * obs::FlightRecorder each hold one.
 *
 *  - Selection: flat dotted names, child-output aliases resolved;
 *    an empty list selects every named signal.  Zero-width signals
 *    are skipped (VCD cannot declare them), and the rest get id-codes
 *    in declaration order, one slot each.
 *  - A frame filter over the slots' nets (obs::NetIndex).
 *  - Each slot's last-written words, back to back, and the
 *    compare-and-copy that keeps them (read, update).
 *  - The formatter: the header, a $dumpvars checkpoint, and one
 *    cycle's changes in declaration order.
 */
class VcdSignals
{
  public:
    /** A slot's per-cycle fields, apart from its strings. */
    struct Slot
    {
        NetId net;
        uint32_t words;   // value words: (width + 63) / 64
        uint32_t last;    // offset of its words in lastWords()
    };

    /** Throws std::invalid_argument for a name with no signal. */
    VcdSignals(const Sim &sim, std::vector<std::string> signals = {});

    size_t size() const { return _slots.size(); }
    const Slot &slot(uint32_t s) const { return _slots[s]; }
    const obs::NetIndex &index() const { return _index; }

    /** The header bytes (writeVcdHeader with "1ns"). */
    const std::string &header() const { return _header; }

    /** Every slot's last words, laid out by Slot::last. */
    const std::vector<uint64_t> &lastWords() const { return _last; }

    /** Slot `s`'s current words (obs::NetIndex::read). */
    const uint64_t *read(Sim &sim, uint32_t s) const
    {
        return _index.read(sim, _slots[s].net).w;
    }

    /** Copy `w` over slot `s`'s last words and return whether they
     *  differed. */
    bool update(uint32_t s, const uint64_t *w)
    {
        const Slot &h = _slots[s];
        uint64_t *last = _last.data() + h.last;
        if (h.words == 1) {
            if (w[0] == last[0])
                return false;
            last[0] = w[0];
            return true;
        }
        if (std::equal(w, w + h.words, last))
            return false;
        std::copy_n(w, h.words, last);
        return true;
    }

    /** `#cycle`, `$dumpvars`, every slot's value from `vals` (laid
     *  out like lastWords()), `$end`. */
    void writeCheckpoint(std::ostream &os, uint64_t cycle,
                         const uint64_t *vals) const;

    /**
     * One cycle's changes: sorts `slots` into declaration order and
     * writes `#cycle` and each slot's value from `vals`; nothing when
     * `slots` is empty.
     */
    void writeChanges(std::ostream &os, uint64_t cycle,
                      std::vector<uint32_t> &slots,
                      const uint64_t *vals) const;

  private:
    void writeSlot(std::ostream &os, uint32_t s,
                   const uint64_t *vals) const;

    std::vector<Slot> _slots;
    std::vector<VcdVarDecl> _vars;   // parallel to _slots
    obs::NetIndex _index;
    std::string _header;
    std::vector<uint64_t> _last;
};

/**
 * Streams a VCD dump of a simulation.
 *
 * The header (scopes and $var declarations) is written at
 * construction.  Attach to a shared obs::ChangeFeed (the Testbench
 * does this), or call sample() once per cycle *before* step() for
 * standalone use — the first visit emits a full $dumpvars
 * checkpoint; later visits emit only changed nets.
 */
class VcdWriter : public obs::Observer
{
  public:
    /**
     * Trace the given signals (flat dotted names; child-output
     * aliases are resolved).  An empty list traces every named
     * signal in the netlist.
     */
    VcdWriter(Sim &sim, std::ostream &os,
              std::vector<std::string> signals = {});
    ~VcdWriter() override;

    /**
     * Standalone sampling: dump changes at timestamp Sim::cycle()
     * through a private single-observer feed.  Not available once
     * attached to an external ChangeFeed — drive that feed instead.
     */
    void sample();

    /** Number of value-change lines written so far. */
    uint64_t changesWritten() const { return _changes; }

    /** Printable VCD id-code for the i-th traced signal. */
    static std::string idCode(size_t index);

    // obs::Observer
    void onPrime(Sim &sim, uint64_t cycle) override;
    void onCycle(Sim &sim, uint64_t cycle,
                 const std::vector<NetId> &changed) override;
    const char *observerName() const override { return "vcd"; }

  private:
    void note(uint32_t s, const uint64_t *w);
    void writeChanges(uint64_t cycle);

    Sim &_sim;
    std::ostream &_os;
    VcdSignals _sig;
    std::vector<uint32_t> _changed;   // this visit's changed slots
    bool _primed = false;
    uint64_t _changes = 0;
    std::unique_ptr<obs::ChangeFeed> _own_feed;   // standalone mode
};

} // namespace rtl
} // namespace anvil

#endif // ANVIL_RTL_VCD_H
