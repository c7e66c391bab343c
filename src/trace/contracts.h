/**
 * @file
 * Runtime timing-contract monitors for valid/ack channels.
 *
 * The static checker proves (Def. C.15 style) that well-typed Anvil
 * programs keep their channel timing obligations; this engine checks
 * the same obligations *dynamically*, against either a live
 * simulation or a recorded trace — including dumps produced by
 * foreign tools.  Each per-channel contract compiles into a small
 * per-cycle checker over the channel's valid/ack/data signals:
 *
 *  - `ack within N`  — once a send is offered (valid rises), it must
 *    fire (valid && ack) within N cycles; N = 1 means the same cycle;
 *  - `stable`        — the payload must not change while the send is
 *    pending (valid high, not yet acked);
 *  - `hold`          — a pending send must not be abandoned: valid
 *    must stay asserted until the ack arrives (the dynamic analogue
 *    of no-send-while-outstanding).
 *
 * Contracts can be written in a one-line syntax
 * ("io_pong: ack within 4, stable, hold"), or inferred from a
 * compiled netlist: every `<ch>_valid` with a sibling `<ch>_ack`
 * whose valid the design itself drives (not a top-level input)
 * gets the default clauses.
 */

#ifndef ANVIL_TRACE_CONTRACTS_H
#define ANVIL_TRACE_CONTRACTS_H

#include <string>
#include <vector>

#include "obs/observer.h"
#include "tb/testbench.h"
#include "trace/trace.h"

namespace anvil {
namespace trace {

/** One channel's timing contract. */
struct ContractSpec
{
    std::string channel;   // signal prefix: <channel>_valid/_ack/_data
    int ack_within = 0;    // max cycles from offer to fire; 0 = none
    bool stable = true;
    bool hold = true;

    /** Render in the parseable one-line syntax. */
    std::string str() const;
};

/**
 * Parse "chan" or "chan: clause, clause, ...".  Clauses: `ack within
 * N`, `stable`, `hold`.  A bare channel name gets the defaults
 * (stable, hold); an explicit clause list enables exactly the listed
 * clauses.  Throws std::invalid_argument on syntax errors.
 */
ContractSpec parseContractSpec(const std::string &text);

/**
 * Infer default contracts from a compiled netlist: one per
 * `<ch>_valid` / `<ch>_ack` pair.  With `outputs_only` (the default)
 * channels whose valid is a top-level input — i.e. driven by the
 * environment, which random stimulus is free to wiggle — are skipped,
 * so the monitors judge the design, not the testbench.
 */
std::vector<ContractSpec> inferContracts(const rtl::Netlist &nl,
                                         bool outputs_only = true);

/** One detected contract violation. */
struct ContractViolation
{
    uint64_t cycle = 0;
    std::string channel;
    std::string rule;      // "ack-within", "stable", "hold"
    std::string message;
};

/** Multi-line human-readable report, one violation per line. */
std::string violationReport(
    const std::vector<ContractViolation> &violations);

/**
 * Per-cycle checker for one channel.  Feed it the channel's
 * combinational frame each cycle; violations are appended to `out`.
 * Each pending send reports each rule at most once.
 */
class ChannelChecker
{
  public:
    explicit ChannelChecker(ContractSpec spec);

    void cycle(uint64_t t, bool valid, bool ack, const BitVec &data,
               std::vector<ContractViolation> &out);

    const ContractSpec &spec() const { return _spec; }

    /** Completed sends (valid && ack observed). */
    uint64_t fired() const { return _fired; }

  private:
    ContractSpec _spec;
    bool _pending = false;
    bool _deadline_reported = false;
    bool _stable_reported = false;
    uint64_t _since = 0;
    BitVec _data0{1};
    uint64_t _fired = 0;
};

/**
 * Check a loaded trace offline against a set of contracts.  Channels
 * whose `<ch>_valid` the trace does not record are skipped (reported
 * in `*skipped` when given); a recorded valid without a recorded ack
 * is a configuration violation.
 *
 * One VCD time unit is treated as one clock cycle (the
 * rtl::VcdWriter convention); dumps sampled on a finer grid must be
 * resampled before `ack within N` deadlines are meaningful.
 */
std::vector<ContractViolation> checkTrace(
    const std::vector<ContractSpec> &specs, const Trace &trace,
    std::vector<std::string> *skipped = nullptr);

/**
 * Live monitoring: a tb::Monitor that runs the same checkers against
 * the simulation each cycle and reports violations as testbench
 * failures ("contract:<channel>").
 *
 * The monitor rides the unified obs::ChangeFeed: channel signal
 * values are cached, and after the priming visit only channels whose
 * nets actually changed are re-read (the checkers themselves still
 * tick every cycle — ack-within deadlines advance even when nothing
 * changes).  Channels touching a lazy net are re-read every visit;
 * skipped cycles and late pokes fall back to the feed's rescan.
 * When attached to a feed (tb::Testbench::addMonitor does this)
 * observe() is a no-op — the feed visit does the work; standalone
 * observe() re-reads everything directly.
 */
class ContractMonitor : public tb::Monitor, public obs::Observer
{
  public:
    ContractMonitor(std::vector<ContractSpec> specs, rtl::Sim &sim);

    void observe(rtl::Sim &sim, uint64_t cycle) override;

    // obs::Observer
    void onPrime(rtl::Sim &sim, uint64_t cycle) override;
    void onCycle(rtl::Sim &sim, uint64_t cycle,
                 const std::vector<rtl::NetId> &changed) override;
    const char *observerName() const override { return "contracts"; }

    const std::vector<ContractViolation> &violations() const
    {
        return _violations;
    }

  private:
    struct Bound
    {
        ChannelChecker checker;
        rtl::NetId valid, ack, data;   // data may be kNoNet
        bool valid_v = false, ack_v = false;   // cached frame values
        BitVec data_v{1};
    };
    void refresh(rtl::Sim &sim, Bound &b);
    void tick(uint64_t cycle);

    std::vector<Bound> _bound;
    /** Slot 3b + k watches bound b's valid (k = 0), ack (1) or data
     *  (2). */
    obs::NetIndex _index;
    std::vector<ContractViolation> _violations;
};

} // namespace trace
} // namespace anvil

#endif // ANVIL_TRACE_CONTRACTS_H
