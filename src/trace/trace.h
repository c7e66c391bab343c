/**
 * @file
 * In-memory value-change trace: the loaded form of a VCD dump.
 *
 * A Trace holds one change list per signal over a shared cycle axis,
 * plus enough header metadata (declaration order, id-codes, scope
 * root, timescale) that writing it back out reproduces an
 * rtl::VcdWriter dump byte for byte.  It is the common substrate of
 * the trace subsystem: VcdReader produces one, ReplayDriver feeds one
 * back into a testbench as stimulus, and ContractMonitor checks one
 * against channel timing contracts offline.
 */

#ifndef ANVIL_TRACE_TRACE_H
#define ANVIL_TRACE_TRACE_H

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "support/bitvec.h"

namespace anvil {
namespace trace {

/** One recorded signal: identity plus its time-ordered change list. */
struct TraceSignal
{
    std::string name;   // dotted path below the root scope
    std::string id;     // VCD id-code (kept for byte-exact rewrite)
    int width = 1;
    bool is_reg = false;
    /** (time, new value) pairs, non-decreasing in time. */
    std::vector<std::pair<uint64_t, BitVec>> changes;

    /**
     * Value at the given time (the latest change at or before it);
     * nullptr before the first change.
     */
    const BitVec *valueAt(uint64_t time) const;
};

/** A loaded dump: signals in declaration order over a cycle axis. */
class Trace
{
  public:
    /** Root scope name (the top module of the recorded sim). */
    std::string top;

    /** Timescale text, e.g. "1ns". */
    std::string timescale = "1ns";

    std::vector<TraceSignal> &signals() { return _signals; }
    const std::vector<TraceSignal> &signals() const
    {
        return _signals;
    }

    /** Index of a signal by dotted name, or -1. */
    int indexOf(const std::string &name) const;

    /** First and last timestamps with any change. */
    uint64_t startTime() const;
    uint64_t endTime() const;

    /** Number of cycles the dump spans (end - start + 1; 0 empty). */
    uint64_t cycles() const;

    /** Total change records across all signals. */
    uint64_t changeCount() const;

    /**
     * Write the trace as VCD in rtl::VcdWriter's exact format, through
     * the same rtl::writeVcdHeader and rtl::writeVcdValue: the header
     * with this trace's timescale, a full $dumpvars checkpoint at the
     * first timestamp, then change-only records in declaration order.
     * Reading a VcdWriter dump and writing it back here is
     * byte-identical.
     */
    void writeVcd(std::ostream &os) const;

  private:
    std::vector<TraceSignal> _signals;
};

/**
 * Step through a trace cycle by cycle, maintaining each signal's
 * current value.  advanceTo() must be called with non-decreasing
 * times.
 */
class TraceCursor
{
  public:
    explicit TraceCursor(const Trace &t);

    /** Apply all changes with time <= t. */
    void advanceTo(uint64_t t);

    /**
     * Current value of the i-th signal (zero of the declared width
     * before its first change).
     */
    const BitVec &value(size_t i) const { return _cur[i]; }

    /** True once the i-th signal has had at least one change. */
    bool defined(size_t i) const { return _next[i] > 0; }

  private:
    const Trace &_trace;
    std::vector<BitVec> _cur;
    std::vector<size_t> _next;   // next unapplied change per signal
};

} // namespace trace
} // namespace anvil

#endif // ANVIL_TRACE_TRACE_H
