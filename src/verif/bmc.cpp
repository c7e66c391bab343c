#include "verif/bmc.h"

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "rtl/interp.h"
#include "support/hash.h"

namespace anvil {
namespace verif {

std::string
BmcResult::statusStr() const
{
    switch (status) {
      case Status::Proved: return "proved (state space exhausted)";
      case Status::Violated: return "VIOLATED";
      case Status::BoundReached: return "bound reached, no violation";
      case Status::BudgetExhausted:
        return "state budget exhausted, no violation";
    }
    return "?";
}

namespace {

/** Scope guard stamping the exploration's telemetry on every return
 *  path: the "bmc" profiler window, state totals, frontier peak, and
 *  throughput. */
struct BmcTelemetry
{
    const BmcOptions &opts;
    const BmcResult &result;
    uint64_t t0 = 0;
    uint64_t frontier_peak = 0;

    BmcTelemetry(const BmcOptions &o, const BmcResult &r)
        : opts(o), result(r)
    {
        if (opts.profiler || opts.metrics)
            t0 = rtl::monotonicNanos();
    }

    ~BmcTelemetry()
    {
        if (!opts.profiler && !opts.metrics)
            return;
        uint64_t t1 = rtl::monotonicNanos();
        if (opts.profiler)
            opts.profiler->event(opts.profiler->track("bmc"),
                                 "explore", t0, t1,
                                 result.states_explored);
        if (opts.metrics) {
            obs::MetricsRegistry &m = *opts.metrics;
            m.counter("bmc.states") += result.states_explored;
            uint64_t &peak = m.counter("bmc.frontier_peak");
            peak = std::max(peak, frontier_peak);
            double secs = static_cast<double>(t1 - t0) * 1e-9;
            m.gauge("bmc.states_per_sec") = secs > 0.0
                ? static_cast<double>(result.states_explored) / secs
                : 0.0;
        }
    }
};

} // namespace

BmcResult
boundedModelCheck(const std::shared_ptr<const rtl::Module> &top,
                  const std::vector<Assertion> &asserts,
                  const BmcOptions &opts)
{
    rtl::Sim sim(top);
    if (opts.kernel.abi)
        sim.attachKernel(opts.kernel);
    std::vector<rtl::NetId> inputs;
    for (const auto &in : sim.inputNames())
        inputs.push_back(sim.inputId(in));

    // Enumerate input vectors: each input contributes its low
    // input_bits_limit bits; the cross product is capped.  A limit
    // of 64 or more hands the first input the whole combo (a shift
    // by >= 64 is undefined, hence the guards below).
    int total_bits = 0;
    for (size_t i = 0; i < inputs.size(); i++)
        total_bits += opts.input_bits_limit;
    total_bits = std::min(total_bits, 12);
    uint64_t combos = 1ull << total_bits;
    bool whole_word = opts.input_bits_limit >= 64;
    uint64_t in_mask =
        whole_word ? ~0ull : (1ull << opts.input_bits_limit) - 1;

    // Assertion nets, compiled once and read per frame.
    std::vector<std::pair<rtl::NetId, rtl::NetId>> checks;
    for (const auto &a : asserts)
        checks.push_back({sim.topNet(a.enable), sim.topNet(a.expr)});

    BmcResult result;
    BmcTelemetry telemetry(opts, result);

    // Breadth-first over packed register states: the table's rows,
    // in insertion order, are the queue, and row i is expanded once
    // at depth[i].  Each node is loaded into the simulator once;
    // every input combo then runs on the live frame, and nextRegs
    // yields the successor without committing an edge.
    PackedStateTable seen(sim.regWords());
    std::vector<int> depth;
    std::vector<uint64_t> next(sim.regWords());
    sim.packRegs(next.data());
    seen.insert(next.data());
    depth.push_back(0);

    bool hit_bound = false;
    for (size_t i = 0; i < seen.size(); i++) {
        result.depth_reached = std::max(result.depth_reached, depth[i]);
        if (depth[i] >= opts.max_depth) {
            hit_bound = true;
            continue;
        }
        sim.loadRegs(seen.row(i));
        for (uint64_t combo = 0; combo < combos; combo++) {
            uint64_t bits = combo;
            for (rtl::NetId in : inputs) {
                sim.setInput(in, bits & in_mask);
                bits = whole_word ? 0 : bits >> opts.input_bits_limit;
            }

            // Check assertions in this combinational frame.
            for (size_t a = 0; a < checks.size(); a++) {
                if (sim.value(checks[a].first).any() &&
                    !sim.value(checks[a].second).any()) {
                    result.status = BmcResult::Status::Violated;
                    result.violated_assertion = asserts[a].name;
                    result.states_explored = seen.size();
                    return result;
                }
            }

            sim.nextRegs(next.data());
            if (seen.size() >= opts.max_states) {
                if (seen.find(next.data()) == PackedStateTable::npos) {
                    result.status =
                        BmcResult::Status::BudgetExhausted;
                    result.states_explored = seen.size();
                    return result;
                }
            } else if (seen.insert(next.data()).second) {
                depth.push_back(depth[i] + 1);
                // Rows after i are the queue still to expand.
                telemetry.frontier_peak = std::max<uint64_t>(
                    telemetry.frontier_peak, seen.size() - i - 1);
            }
        }
    }

    result.status = hit_bound ? BmcResult::Status::BoundReached
                              : BmcResult::Status::Proved;
    result.states_explored = seen.size();
    return result;
}

} // namespace verif
} // namespace anvil
