/**
 * @file
 * Coverage-driven testbench harness for the compiled simulator.
 *
 * A Testbench owns a rtl::Sim and composes three kinds of pieces:
 *
 *  - drivers, which poke top-level inputs every cycle: fixed
 *    sequences, constrained-random generators (per-field bit ranges,
 *    value sets, duty cycles) fed by one seeded PRNG, and free-form
 *    callbacks for protocol BFMs.  The built-in drivers resolve
 *    their input to a NetId once, at registration, and poke by id;
 *  - monitors and scoreboards, which watch the combinational frame
 *    each cycle and record failures (an in-order expected/observed
 *    scoreboard is provided);
 *  - per-cycle check hooks, lambdas that peek the design and report
 *    violations through Testbench::fail.
 *
 * The same seed always reproduces the same run bit-for-bit: drivers
 * consume randomness from a single SplitMix64 stream in registration
 * order.  Every per-cycle observer — the Coverage engine
 * (tb/coverage.h), a VcdWriter (rtl/vcd.h), monitors that implement
 * obs::Observer, and free plugins via attachObserver() — rides the
 * testbench's shared obs::ChangeFeed, which is driven once per cycle
 * before the clock edge.
 */

#ifndef ANVIL_TB_TESTBENCH_H
#define ANVIL_TB_TESTBENCH_H

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "rtl/interp.h"
#include "rtl/vcd.h"
#include "tb/coverage.h"

namespace anvil {
namespace tb {

/** Small deterministic PRNG (SplitMix64), one stream per testbench. */
class SplitMix64
{
  public:
    explicit SplitMix64(uint64_t seed) : _s(seed) {}

    uint64_t next()
    {
        uint64_t z = (_s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform value in [0, n); n == 0 yields 0. */
    uint64_t below(uint64_t n) { return n == 0 ? 0 : next() % n; }

    /** True with the given percent probability. */
    bool chance(int pct) { return static_cast<int>(below(100)) < pct; }

  private:
    uint64_t _s;
};

/** One constrained-random field of an input: bits [lo, lo+width). */
struct FieldSpec
{
    int lo = 0;
    int width = 1;
    uint64_t min = 0;
    uint64_t max = ~0ull;            // clamped to the field width
    std::vector<uint64_t> choices;   // non-empty: pick from this set
};

/** Constrained-random stimulus description for one input. */
struct RandomSpec
{
    /** Empty: one unconstrained full-width field. */
    std::vector<FieldSpec> fields;
    /** Percent of cycles the input is actively driven. */
    int active_pct = 100;
    /** Value driven on inactive cycles. */
    uint64_t idle_value = 0;
};

/** Drives some set of inputs every cycle. */
class Driver
{
  public:
    virtual ~Driver() = default;
    virtual void drive(rtl::Sim &sim, uint64_t cycle,
                       SplitMix64 &rng) = 0;
};

/** One recorded check failure. */
struct TbFailure
{
    uint64_t cycle = 0;
    std::string check;
    std::string message;
};

/** Watches the design each cycle and records failures. */
class Monitor
{
  public:
    explicit Monitor(std::string name) : _name(std::move(name)) {}
    virtual ~Monitor() = default;

    /** Called on the combinational frame, before the clock edge. */
    virtual void observe(rtl::Sim &sim, uint64_t cycle)
    {
        (void)sim;
        (void)cycle;
    }

    const std::string &name() const { return _name; }
    const std::vector<TbFailure> &failures() const
    {
        return _failures;
    }
    void fail(uint64_t cycle, const std::string &message);

  private:
    std::string _name;
    std::vector<TbFailure> _failures;
};

/**
 * In-order expected/observed scoreboard.  Producers push expected
 * values; the monitor side reports observed ones, and any mismatch,
 * or an observation with nothing outstanding, is a failure.
 */
class Scoreboard : public Monitor
{
  public:
    using Monitor::Monitor;

    void expect(const BitVec &v) { _queue.push_back(v); }
    void expect(uint64_t v, int width) { expect(BitVec(width, v)); }

    void observed(uint64_t cycle, const BitVec &got);

    /** Expected values not yet observed. */
    size_t pending() const { return _queue.size(); }
    uint64_t matched() const { return _matched; }

  private:
    std::deque<BitVec> _queue;
    uint64_t _matched = 0;
};

/** Outcome of a Testbench::run call. */
struct TbResult
{
    uint64_t cycles = 0;
    std::vector<TbFailure> failures;

    bool ok() const { return failures.empty(); }
    std::string summary() const;
};

class Testbench
{
  public:
    explicit Testbench(rtl::ModulePtr top, uint64_t seed = 1);

    /**
     * Farm workers: build the bench's Sim on a shared immutable
     * netlist (compile once, simulate many seeds — see
     * rtl::Sim's shared-netlist constructor).
     */
    Testbench(rtl::ModulePtr top,
              std::shared_ptr<const rtl::Netlist> netlist,
              uint64_t seed);

    rtl::Sim &sim() { return _sim; }
    SplitMix64 &rng() { return _rng; }

    // --- Drivers -------------------------------------------------------

    /** Drive `input` with consecutive values; after the sequence
     *  ends, hold the last value or fall back to zero.  Throws
     *  std::invalid_argument if `input` is not a top-level input. */
    void driveSequence(const std::string &input,
                       std::vector<BitVec> values,
                       bool hold_last = false);

    /** Drive `input` with constrained-random values every cycle.
     *  Throws std::invalid_argument for a non-input or a spec whose
     *  fields fall outside the input or cannot be satisfied. */
    void driveRandom(const std::string &input, RandomSpec spec = {});

    /** Free-form driver callback (runs every cycle, in order). */
    void driveWith(std::function<void(rtl::Sim &, uint64_t cycle,
                                      SplitMix64 &)> fn);

    void addDriver(std::unique_ptr<Driver> d);

    // --- Monitors and checks ------------------------------------------

    /** Register a monitor; the testbench keeps ownership.  A monitor
     *  that also implements obs::Observer (trace::ContractMonitor)
     *  is attached to the shared change feed automatically. */
    Monitor &addMonitor(std::unique_ptr<Monitor> m);

    /** Create and register an in-order scoreboard. */
    Scoreboard &addScoreboard(const std::string &name);

    /** Per-cycle check hook; report violations via fail(). */
    void check(const std::string &name,
               std::function<void(Testbench &)> fn);

    /** Record a failure at the current cycle. */
    void fail(const std::string &check, const std::string &message);

    // --- Coverage and waves -------------------------------------------

    /** Enable (on first use) and access the coverage engine. */
    Coverage &coverage();

    /** Stream a VCD of the run; empty list = all named signals. */
    void attachVcd(std::ostream &os,
                   std::vector<std::string> signals = {});

    /** Attach any observer plugin to the shared change feed; the
     *  testbench keeps ownership. */
    obs::Observer &attachObserver(std::unique_ptr<obs::Observer> o);

    /** The shared per-cycle change feed (telemetry hookup point). */
    obs::ChangeFeed &feed() { return _feed; }

    // --- Running -------------------------------------------------------

    /** Stop a run early once this many failures accumulate. */
    size_t max_failures = 100;

    /**
     * Run `cycles` clock cycles.  Per cycle: drivers poke inputs,
     * check hooks and monitors observe the combinational frame, the
     * change feed visits every attached observer (contracts,
     * coverage, VCD, plugins), then the clock edge commits.
     * Failures from hooks and monitors are merged into the result.
     */
    TbResult run(uint64_t cycles);

    /** Failures recorded so far (check hooks + every monitor) — a
     *  live monotonic counter; obs::FlightRecorder triggers on it. */
    size_t totalFailures() const;

  private:
    rtl::Sim _sim;
    SplitMix64 _rng;
    /** Declared before every observer-owning member: observers
     *  detach themselves from the feed on destruction, so the feed
     *  must be destroyed last. */
    obs::ChangeFeed _feed{_sim};
    std::vector<std::unique_ptr<Driver>> _drivers;
    std::vector<std::unique_ptr<Monitor>> _monitors;
    std::vector<std::pair<std::string,
                          std::function<void(Testbench &)>>> _checks;
    std::vector<TbFailure> _hook_failures;
    Coverage _coverage;
    bool _coverage_enabled = false;
    std::unique_ptr<rtl::VcdWriter> _vcd;
    std::vector<std::unique_ptr<obs::Observer>> _observers;
};

} // namespace tb
} // namespace anvil

#endif // ANVIL_TB_TESTBENCH_H
