#include "verif/bmc.h"

#include <deque>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "rtl/interp.h"
#include "support/hash.h"

namespace anvil {
namespace verif {

namespace {

/**
 * Flattened register snapshot packed as raw BitVec words over the
 * interned register table — no string rendering on the exploration
 * hot path.  Register order and widths are fixed for one design, so
 * the packed words identify a state exactly (keys are compared for
 * full equality; the hash below is only the table probe).
 */
std::vector<uint64_t>
packState(const std::vector<BitVec> &regs)
{
    std::vector<uint64_t> words;
    for (const auto &r : regs) {
        words.reserve(words.size() +
                      static_cast<size_t>(r.words()));
        for (int w = 0; w < r.words(); w++)
            words.push_back(r.word(w));
    }
    return words;
}

using StateSet =
    std::unordered_set<std::vector<uint64_t>, PackedWordsHash>;

} // namespace

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
    sim.setSweepMode(opts.sweep_mode);
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

    struct Node
    {
        std::vector<BitVec> regs;
        int depth;
    };

    BmcResult result;
    BmcTelemetry telemetry(opts, result);
    std::deque<Node> frontier;
    StateSet seen;

    frontier.push_back({sim.captureRegs(), 0});
    seen.insert(packState(frontier.back().regs));

    bool hit_bound = false;
    while (!frontier.empty()) {
        Node node = std::move(frontier.front());
        frontier.pop_front();
        result.depth_reached = std::max(result.depth_reached,
                                        node.depth);
        if (node.depth >= opts.max_depth) {
            hit_bound = true;
            continue;
        }

        for (uint64_t combo = 0; combo < combos; combo++) {
            sim.restoreRegs(node.regs);
            uint64_t bits = combo;
            for (rtl::NetId in : inputs) {
                sim.setInput(in, bits & in_mask);
                bits = whole_word ? 0 : bits >> opts.input_bits_limit;
            }

            // Check assertions in this combinational frame.
            for (const auto &a : asserts) {
                if (sim.evalTop(a.enable).any() &&
                    !sim.evalTop(a.expr).any()) {
                    result.status = BmcResult::Status::Violated;
                    result.violated_assertion = a.name;
                    result.states_explored = seen.size();
                    return result;
                }
            }

            sim.step();
            result.states_explored++;
            std::vector<BitVec> next = sim.captureRegs();
            std::vector<uint64_t> key = packState(next);
            if (!seen.count(key)) {
                if (seen.size() >= opts.max_states) {
                    result.status =
                        BmcResult::Status::BudgetExhausted;
                    result.states_explored = seen.size();
                    return result;
                }
                seen.insert(std::move(key));
                frontier.push_back({std::move(next),
                                    node.depth + 1});
                telemetry.frontier_peak = std::max<uint64_t>(
                    telemetry.frontier_peak, frontier.size());
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
