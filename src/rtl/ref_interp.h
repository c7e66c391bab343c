/**
 * @file
 * Reference interpreter for the structural RTL IR.
 *
 * This is the original string-keyed recursive evaluator: signal names
 * are resolved through a `std::map` on every expression reference and
 * wires are memoized per (cycle, generation).  It is retained verbatim
 * as the semantic oracle for the compiled netlist simulator
 * (rtl/interp.h) — differential tests assert that peeks, dprint logs
 * and toggle counts agree exactly — and as the baseline that
 * bench_sim_perf measures speedups against.  Do not use it on hot
 * paths.
 */

#ifndef ANVIL_RTL_REF_INTERP_H
#define ANVIL_RTL_REF_INTERP_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rtl/rtl.h"

namespace anvil {
namespace rtl {

/**
 * Reference simulator for a flattened module hierarchy.
 *
 * Signal names use the instance path: a wire `w` inside instance `u`
 * of the top module is `u.w`.  Top-level signals are unprefixed.
 */
class RefSim
{
  public:
    explicit RefSim(std::shared_ptr<const Module> top);

    /** Drive a top-level input for the current cycle onwards. */
    void setInput(const std::string &name, const BitVec &v);
    void setInput(const std::string &name, uint64_t v);

    /** Read any signal (port, wire, or register) by flat name. */
    BitVec peek(const std::string &name);

    /** Evaluate combinational logic and advance n clock edges. */
    void step(int n = 1);

    uint64_t cycle() const { return _cycle; }

    /** Total bit toggles observed across all signals. */
    uint64_t totalToggles() const { return _total_toggles; }

    /** Number of flattened state bits (for the cost model). */
    int stateBits() const;

    /** Captured dprint output. */
    const std::vector<std::string> &log() const { return _log; }

    /** All flattened register names. */
    std::vector<std::string> regNames() const;

    /** Direct register access. */
    BitVec regValue(const std::string &flat_name) const;
    void setRegValue(const std::string &flat_name, const BitVec &v);

    /** Top-level input port names. */
    std::vector<std::string> inputNames() const;

    /** Evaluate an expression in the top-level scope. */
    BitVec evalTop(const ExprPtr &e);

  private:
    struct Signal
    {
        enum class Kind { Input, Reg, Wire };
        Kind kind = Kind::Wire;
        int width = 1;
        ExprPtr expr;       // Wire: driver (names resolved in scope)
        std::string scope;  // prefix for resolving expr references
        BitVec value{1};    // Input/Reg: current value
        BitVec next{1};     // Reg: pending next value
        // Evaluation cache (invalidated on input/register pokes).
        uint64_t eval_cycle = UINT64_MAX;
        uint64_t eval_gen = 0;
        BitVec cached{1};
        bool visiting = false;
        uint64_t last_cycle_val_cycle = UINT64_MAX;
        BitVec last_cycle_val{1};
    };

    struct FlatUpdate
    {
        std::string reg;     // flat name
        ExprPtr enable;
        ExprPtr value;
        std::string scope;
    };

    struct FlatPrint
    {
        ExprPtr enable;
        std::string text;
        ExprPtr value;
        std::string scope;
    };

    void flatten(const Module &m, const std::string &prefix);
    std::string resolveName(const std::string &scope,
                            const std::string &name) const;
    BitVec eval(const ExprPtr &e, const std::string &scope);
    BitVec evalSignal(const std::string &flat);
    void evalAll();

    std::shared_ptr<const Module> _top;
    std::map<std::string, Signal> _signals;
    std::vector<FlatUpdate> _updates;
    std::vector<FlatPrint> _prints;
    /** Child-output aliases: parent flat name -> child flat name. */
    std::map<std::string, std::string> _aliases;
    uint64_t _cycle = 0;
    uint64_t _gen = 0;
    uint64_t _total_toggles = 0;
    std::vector<std::string> _log;
};

/** Apply a binary operator to two values, at `width` bits. */
BitVec applyBinop(Op op, const BitVec &a, const BitVec &b, int width);

/** Apply a unary operator. */
BitVec applyUnop(Op op, const BitVec &a);

} // namespace rtl
} // namespace anvil

#endif // ANVIL_RTL_REF_INTERP_H
