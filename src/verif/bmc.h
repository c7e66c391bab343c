/**
 * @file
 * Explicit-state bounded model checker over the RTL IR (Appendix A).
 *
 * Checks safety properties of the form "assertion expression is true
 * whenever its enable expression is true" by exploring the reachable
 * register-state space breadth-first up to a depth bound, with
 * nondeterministic top-level inputs.
 *
 * This substrate reproduces the paper's comparison: on designs with
 * wide counters (Listing 2's 32-bit counter), the reachable state
 * space explodes and BMC exhausts its budget without reaching the
 * violating states, while Anvil's type checker rejects the same
 * design structurally in microseconds.
 *
 * The formal subsystem (src/formal/kinduction.h) layers a
 * cone-of-influence-projected k-induction prover on this same
 * exploration substrate; for contract-shaped properties it closes
 * unboundedly on exactly the designs that exhaust this checker
 * (bench_formal_prove reproduces the comparison).
 */

#ifndef ANVIL_VERIF_BMC_H
#define ANVIL_VERIF_BMC_H

#include <cstdint>
#include <string>
#include <vector>

#include "rtl/interp.h"
#include "rtl/rtl.h"

namespace anvil {

namespace obs {
class TraceProfiler;
class MetricsRegistry;
} // namespace obs

namespace verif {

/** A checked property: when `enable` holds, `expr` must hold. */
struct Assertion
{
    std::string name;
    rtl::ExprPtr enable;
    rtl::ExprPtr expr;
};

/** Outcome of a bounded model-checking run. */
struct BmcResult
{
    enum class Status { Proved, Violated, BoundReached, BudgetExhausted };

    Status status = Status::BoundReached;
    int depth_reached = 0;
    uint64_t states_explored = 0;
    std::string violated_assertion;
    std::vector<std::string> trace;   // input vectors along the cex

    bool foundViolation() const { return status == Status::Violated; }
    std::string statusStr() const;
};

/** Knobs for the exploration. */
struct BmcOptions
{
    int max_depth = 32;
    uint64_t max_states = 200000;
    /** Bits per input sampled nondeterministically (the rest 0). */
    int input_bits_limit = 4;
    /** Optional compiled kernel (codegen/jit.h) for the simulator.
     *  Attach failures fall back to the interpreter silently; the
     *  explored state space is identical either way. */
    rtl::KernelRef kernel;
    /** Optional telemetry sinks (both may be null).  The exploration
     *  window lands on a "bmc" profiler track; bmc.states /
     *  bmc.frontier_peak counters and a bmc.states_per_sec gauge go
     *  to the registry. */
    obs::TraceProfiler *profiler = nullptr;
    obs::MetricsRegistry *metrics = nullptr;
};

/**
 * Explore the design from its reset state.  Inputs take all
 * combinations of their low `input_bits_limit` bits each step.
 * Breadth-first over packed register states (Sim::packRegs): each
 * state is loaded once, and Sim::nextRegs yields its successors
 * without committing clock edges.
 */
BmcResult boundedModelCheck(const std::shared_ptr<const rtl::Module> &top,
                            const std::vector<Assertion> &asserts,
                            const BmcOptions &opts = {});

} // namespace verif
} // namespace anvil

#endif // ANVIL_VERIF_BMC_H
