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
 * checkpoint, a visit picks this writer's traced nets out of the fed
 * frame instead of rescanning every traced net, so the cost per
 * cycle is proportional to activity, and compares and formats them
 * from the state words (Sim::words).  Lazy nets (cyclic or ad-hoc
 * cones) are re-read every visit through Sim::value(), preserving
 * their on-demand fault semantics; priming and the rescan fallback
 * for skipped cycles or late pokes are the feed's job — the emitted
 * bytes are identical on either path.  Duplicate traces of one net
 * (an alias next to its flat name) chain off the net's one table
 * entry, so they ride the fast path too.
 */

#ifndef ANVIL_RTL_VCD_H
#define ANVIL_RTL_VCD_H

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "rtl/interp.h"

namespace anvil {
namespace rtl {

/**
 * One declared VCD variable.  The shared currency between the live
 * VcdWriter below and any other emitter that must produce
 * byte-compatible dumps (obs::FlightRecorder reconstructs trigger
 * windows through these same helpers).
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
    struct Traced
    {
        std::string name;   // flat dotted name
        std::string id;     // VCD id-code
        NetId net;
        int width;
        bool is_reg;
        /** Rides the change feed; false for lazy nets, which are
         *  re-read every visit. */
        bool fed;
        /** Next traced slot sharing this net, or -1: duplicate
         *  traces chain off the net's one _net_slot entry. */
        int32_t dup_next = -1;
        uint32_t words;   // value words: (width + 63) / 64
        uint32_t last;    // its previously written words in _last
    };

    /** The traced net's current words: fed nets from the state
     *  words, lazy ones through Sim::value(). */
    const uint64_t *read(const Traced &t);
    void emitValue(const Traced &t, const uint64_t *w);
    void sampleTraced(const Traced &t, bool &stamped);

    Sim &_sim;
    std::ostream &_os;
    std::vector<Traced> _traced;
    std::vector<int32_t> _net_slot;   // net -> first traced slot or -1
    /** Every slot's last written words, back to back (Traced::last). */
    std::vector<uint64_t> _last;
    std::vector<size_t> _scratch;     // changed traced indices
    bool _primed = false;
    uint64_t _changes = 0;
    std::unique_ptr<obs::ChangeFeed> _own_feed;   // standalone mode
};

} // namespace rtl
} // namespace anvil

#endif // ANVIL_RTL_VCD_H
