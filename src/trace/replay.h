/**
 * @file
 * Trace replay: feed a recorded dump back into a testbench as
 * stimulus and diff the re-simulated design against the recording.
 *
 * ReplayDriver is a tb::Driver that drives every top-level input the
 * trace recorded, cycle by cycle, so any dumped run — randomized
 * benches included — re-executes deterministically without its
 * original stimulus code.  ReplayMonitor is the checking half: each
 * cycle it compares every recorded non-input signal against the live
 * simulation and reports divergences with cycle numbers.
 *
 * Cycle alignment matches rtl::VcdWriter's convention: the dump's
 * timestamp t holds the combinational frame of testbench cycle
 * (t - startTime()), sampled after drivers ran and before the clock
 * edge.
 */

#ifndef ANVIL_TRACE_REPLAY_H
#define ANVIL_TRACE_REPLAY_H

#include <string>
#include <vector>

#include "tb/testbench.h"
#include "trace/trace.h"

namespace anvil {
namespace trace {

/** Drives the recorded values of every top-level input. */
class ReplayDriver : public tb::Driver
{
  public:
    /**
     * Bind the trace's signals to the sim's inputs by flat name,
     * once; each cycle then pokes by net id.  Inputs the trace never
     * recorded are left for other drivers (listed in
     * missingInputs()).
     */
    ReplayDriver(const Trace &t, rtl::Sim &sim);

    void drive(rtl::Sim &sim, uint64_t cycle,
               tb::SplitMix64 &rng) override;

    /** Trace cycles available for replay. */
    uint64_t cyclesAvailable() const { return _trace.cycles(); }

    /** Sim inputs with no recorded signal in the trace. */
    const std::vector<std::string> &missingInputs() const
    {
        return _missing;
    }

  private:
    const Trace &_trace;
    TraceCursor _cursor;
    uint64_t _t0;
    /** (trace signal index, input net), resolved once. */
    std::vector<std::pair<size_t, rtl::NetId>> _inputs;
    std::vector<std::string> _missing;
};

/**
 * Diffs the live simulation against the recording: every recorded
 * signal that resolves to a non-input net is compared each cycle.
 */
class ReplayMonitor : public tb::Monitor
{
  public:
    ReplayMonitor(const Trace &t, rtl::Sim &sim,
                  std::string name = "replay-diff");

    void observe(rtl::Sim &sim, uint64_t cycle) override;

    /** Total per-signal comparisons performed. */
    uint64_t compared() const { return _compared; }

    /** Number of recorded signals being checked. */
    size_t signalsChecked() const { return _checked.size(); }

  private:
    const Trace &_trace;
    TraceCursor _cursor;
    uint64_t _t0;
    std::vector<std::pair<size_t, rtl::NetId>> _checked;
    uint64_t _compared = 0;
};

/**
 * Convenience: attach a ReplayDriver and (optionally) a
 * ReplayMonitor to a bench.  Returns the cycle count to run.
 */
uint64_t attachReplay(tb::Testbench &bench, const Trace &t,
                      bool check = true);

/**
 * Coverage replay: grade a recorded trace against a design's
 * coverage model *offline* — no re-simulation.  The coverage engine
 * is bound to the netlist and every recorded frame is fed through
 * its offline sampler, so a full dump of a run reproduces the run's
 * own toggle / reg-bin summary (pinned by tests); recordings from
 * regression archives are graded the same way.  Returns the number
 * of frames sampled.  User cover/assert points are not evaluated
 * offline (they need live expressions).
 *
 * Frames run from the dump's first to its *last recorded change*: a
 * VCD carries no run length, so trailing cycles in which nothing
 * changed are not graded.  Changeless cycles cannot toggle anything,
 * but the sample count (and thus reg-bin occupancy totals) matches
 * the live run only when the run's final cycle recorded a change —
 * true of change-dense random stimulus, not of runs that end idle.
 */
uint64_t gradeCoverage(const rtl::Netlist &nl, const Trace &t,
                       tb::Coverage &cov);

} // namespace trace
} // namespace anvil

#endif // ANVIL_TRACE_REPLAY_H
