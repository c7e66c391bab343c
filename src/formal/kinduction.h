/**
 * @file
 * Explicit-state k-induction prover for compiled contract properties.
 *
 * The legacy BMC (src/verif/bmc.h) explores the design's *full*
 * packed register state breadth-first — which is exactly what
 * explodes on wide counters (Listing 2): every counter value is a
 * distinct state, so the budget drowns long before anything
 * interesting happens.  This prover closes that gap for the
 * contracts the formal subsystem compiles, with two ingredients
 * layered on the same interned-netlist substrate:
 *
 *  1. Cone-of-influence projection.  Starting from a property's
 *     `bad` net, the transitive closure over netlist operands and
 *     register update functions yields the registers and inputs that
 *     can influence the property — for handshake contracts a handful
 *     of control bits, regardless of how wide the datapath is.
 *     Registers outside the cone cannot affect the cone's next-state
 *     functions or the property (the closure is transitive), so
 *     states are explored and identified *projected onto the cone*:
 *     the wide counter simply stops existing.
 *
 *  2. k-induction.  Base case: bounded reachability from reset over
 *     projected states, checking the property on every frame — a
 *     violation here is a real, reset-reachable counterexample, and
 *     its input trace is replayed into a VCD that `--replay` and
 *     `--check-trace` consume directly.  Inductive step: from every
 *     *arbitrary* projected state, every loop-free (pairwise-
 *     distinct) path of k property-satisfying frames must lead to a
 *     property-satisfying k-th frame.  If the step holds (and the
 *     base is clean), the property holds in all reachable states,
 *     unboundedly.
 *
 * Environment model: as in BmcOptions, each cone input contributes
 * its low `input_bits_limit` bits nondeterministically and the rest
 * are zero; proofs are relative to that input sampling.  Budgets
 * (cone bits, simulation steps) degrade to an Unknown verdict with a
 * diagnostic, never to a wrong one.
 */

#ifndef ANVIL_FORMAL_KINDUCTION_H
#define ANVIL_FORMAL_KINDUCTION_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "formal/property.h"
#include "rtl/interp.h"

namespace anvil {

namespace obs {
class TraceProfiler;
class MetricsRegistry;
} // namespace obs

namespace formal {

/** Knobs for the prover. */
struct ProveOptions
{
    /** Maximum induction depth to try (and base-case bound). */
    int k_max = 6;
    /** Nondeterministic low bits per cone input (BMC convention);
     *  at least 0. */
    int input_bits_limit = 2;
    /** Cap on total enumerated input bits per frame; below 64. */
    int max_input_bits = 10;
    /** Budget on cone register bits (induction enumerates 2^bits);
     *  below 64. */
    int max_state_bits = 22;
    /** Budget on simulation steps across base + induction. */
    uint64_t max_steps = 4000000;
    /** Sweep strategy of the underlying simulator; Dirty and the
     *  force-dense Full prove identical verdicts (pinned by
     *  tests/test_formal_prove). */
    rtl::SweepMode sweep_mode = rtl::SweepMode::Dirty;
    /** Optional telemetry sinks (both may be null; the prover then
     *  takes no clock reads for them).  Each obligation's base-case
     *  and per-k induction windows land on a "prove:<name>" profiler
     *  track, and prove.* counters plus a prove.states_per_sec gauge
     *  go to the registry — the same spine `--profile`/`--metrics`
     *  use for simulation runs. */
    obs::TraceProfiler *profiler = nullptr;
    obs::MetricsRegistry *metrics = nullptr;
};

/** One recorded counterexample frame: cone inputs driven that cycle. */
struct CexStep
{
    std::vector<std::pair<std::string, uint64_t>> inputs;
};

/** Verdict for one compiled obligation. */
struct ObligationOutcome
{
    /**
     * Proved / Violated / Unknown are the prover's own verdicts.
     * Conditional marks a stable obligation whose payload reads
     * environment inputs combinationally (a `@msg`-relative
     * forwarding contract, like the TLB's `@req` response): no
     * environment-free proof exists, because its stability is
     * exactly what the *peer's* contracts guarantee — the
     * compositional case the type checker discharges statically.
     * The prover classifies it instead of reporting a misleading
     * violation under contract-breaking stimulus.
     */
    enum class Status { Proved, Violated, Unknown, Conditional };

    std::string name;       // assertion name: contract:<ch>:<rule>
    std::string channel;
    std::string rule;
    std::string bad_wire;
    Status status = Status::Unknown;

    /** Proved: k the induction closed at (0 = reachable-space
     *  closure).  Violated: depth of the violating frame. */
    int k = 0;
    /** Proved by exhausting the projected reachable space. */
    bool exhausted = false;

    int coi_regs = 0;
    int coi_bits = 0;
    std::vector<std::string> coi_reg_names;
    std::vector<std::string> coi_inputs;
    uint64_t base_states = 0;       // projected states reached
    uint64_t induction_starts = 0;  // arbitrary states enumerated
    uint64_t steps = 0;             // simulation steps consumed
    double millis = 0.0;
    std::string detail;             // budget reason / cex summary

    /** Reset-reachable violation: per-cycle cone input vectors, the
     *  violating frame last.  Empty unless status == Violated. */
    std::vector<CexStep> cex;

    std::string statusStr() const;
};

/** Outcome of proving every obligation of an instrumented design. */
struct ProveResult
{
    std::vector<ObligationOutcome> obligations;

    bool allProved() const;       // every obligation strictly Proved
    bool anyViolated() const;
    bool anyUnknown() const;      // Unknown only; Conditional is a
                                  // classification, not a budget
    bool anyConditional() const;

    /** One line per obligation; `detailed` adds cone and budget
     *  statistics. */
    std::string report(bool detailed = false) const;
};

/**
 * Prove every compiled property of the instrumented design.  Throws
 * std::invalid_argument, naming the option, when `opts` asks for a
 * 2^64 enumeration (max_input_bits or max_state_bits of 64 or more)
 * or a negative input_bits_limit.
 */
ProveResult prove(const InstrumentedDesign &design,
                  const ProveOptions &opts = {});

/**
 * Replay a Violated obligation's input trace from reset and dump the
 * run as VCD (rtl::VcdWriter format: every named signal, monitor
 * blocks included).  The dump's final frame shows the violation, so
 * `anvilc --check-trace` flags the same contract at the same cycle,
 * and `--replay` re-executes it.  Bytes are identical across sweep
 * modes.
 */
void writeCexVcd(const InstrumentedDesign &design,
                 const ObligationOutcome &outcome, std::ostream &os,
                 rtl::SweepMode mode = rtl::SweepMode::Dirty);

} // namespace formal
} // namespace anvil

#endif // ANVIL_FORMAL_KINDUCTION_H
