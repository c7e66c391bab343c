#include "formal/kinduction.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "rtl/interp.h"
#include "rtl/vcd.h"
#include "support/hash.h"
#include "support/strings.h"

namespace anvil {
namespace formal {

namespace {

/** The cone of influence of one property's bad net. */
struct Coi
{
    std::vector<int> regs;          // indices into netlist regs()
    std::vector<int> reg_widths;
    std::vector<std::string> inputs;        // enumeration order
    std::vector<rtl::NetId> input_nets;     // parallel to inputs
    std::vector<int> input_bits;            // bits enumerated each
    int state_bits = 0;
    std::vector<std::string> wide_regs;     // over-budget culprits
};

/** Collect the Reg/Input terminals feeding `root` (operand walk). */
void
collectSources(const rtl::Netlist &nl, rtl::NetId root,
               std::vector<uint8_t> &visited,
               std::vector<rtl::NetId> &reg_nets,
               std::vector<rtl::NetId> &input_nets)
{
    std::vector<rtl::NetId> stack{root};
    while (!stack.empty()) {
        rtl::NetId id = stack.back();
        stack.pop_back();
        if (id == rtl::kNoNet || visited[static_cast<size_t>(id)])
            continue;
        visited[static_cast<size_t>(id)] = 1;
        const rtl::Net &n = nl.net(id);
        switch (n.kind) {
          case rtl::Net::Kind::Reg:
            reg_nets.push_back(id);
            continue;
          case rtl::Net::Kind::Input:
            input_nets.push_back(id);
            continue;
          case rtl::Net::Kind::Const:
          case rtl::Net::Kind::BadRef:
            continue;
          default:
            break;
        }
        stack.push_back(n.a);
        stack.push_back(n.b);
        stack.push_back(n.c);
        for (rtl::NetId c : n.cargs)
            stack.push_back(c);
    }
}

/**
 * Transitive cone of `bad`: its sources, plus (to a fixpoint) the
 * sources of every cone register's update enable and value.
 */
Coi
computeCoi(const rtl::Netlist &nl, rtl::NetId bad,
           const ProveOptions &opts)
{
    const auto &regs = nl.regs();
    std::vector<int32_t> reg_index_of(nl.nets().size(), -1);
    for (size_t i = 0; i < regs.size(); i++)
        reg_index_of[static_cast<size_t>(regs[i])] =
            static_cast<int32_t>(i);

    std::vector<std::vector<const rtl::NetUpdate *>> updates_of(
        regs.size());
    for (const auto &u : nl.updates())
        if (u.reg_index >= 0)
            updates_of[static_cast<size_t>(u.reg_index)].push_back(&u);

    std::vector<uint8_t> visited(nl.nets().size(), 0);
    std::vector<uint8_t> reg_in(regs.size(), 0);
    std::vector<rtl::NetId> reg_nets, input_nets, frontier;

    collectSources(nl, bad, visited, reg_nets, input_nets);
    frontier = reg_nets;
    while (!frontier.empty()) {
        rtl::NetId rn = frontier.back();
        frontier.pop_back();
        int32_t ri = reg_index_of[static_cast<size_t>(rn)];
        if (ri < 0 || reg_in[static_cast<size_t>(ri)])
            continue;
        reg_in[static_cast<size_t>(ri)] = 1;
        std::vector<rtl::NetId> found;
        for (const rtl::NetUpdate *u :
             updates_of[static_cast<size_t>(ri)]) {
            collectSources(nl, u->enable, visited, found, input_nets);
            collectSources(nl, u->value, visited, found, input_nets);
        }
        for (rtl::NetId f : found)
            frontier.push_back(f);
    }

    // Input names, in the netlist's (sorted) signal order for
    // deterministic enumeration.
    std::vector<uint8_t> input_in(nl.nets().size(), 0);
    for (rtl::NetId in : input_nets)
        input_in[static_cast<size_t>(in)] = 1;

    Coi coi;
    for (size_t i = 0; i < regs.size(); i++) {
        if (!reg_in[i])
            continue;
        int w = nl.net(regs[i]).width;
        coi.regs.push_back(static_cast<int>(i));
        coi.reg_widths.push_back(w);
        coi.state_bits += w;
        if (w > opts.max_state_bits)
            coi.wide_regs.push_back(nl.nameOf(regs[i]));
    }
    int total_bits = 0;
    for (const auto &[name, sig] : nl.signals()) {
        if (sig.kind != rtl::NetSignal::Kind::Input ||
            !input_in[static_cast<size_t>(sig.net)])
            continue;
        int bits = std::min(sig.width, opts.input_bits_limit);
        if (total_bits + bits > opts.max_input_bits)
            bits = std::max(0, opts.max_input_bits - total_bits);
        total_bits += bits;
        coi.inputs.push_back(name);
        coi.input_nets.push_back(sig.net);
        coi.input_bits.push_back(bits);
    }
    return coi;
}

/** Names of the inputs feeding `root` combinationally. */
std::vector<std::string>
inputSourcesOf(const rtl::Netlist &nl, rtl::NetId root)
{
    std::vector<uint8_t> visited(nl.nets().size(), 0);
    std::vector<rtl::NetId> regs, inputs;
    collectSources(nl, root, visited, regs, inputs);
    std::vector<uint8_t> is_in(nl.nets().size(), 0);
    for (rtl::NetId id : inputs)
        is_in[static_cast<size_t>(id)] = 1;
    std::vector<std::string> names;
    for (const auto &[name, sig] : nl.signals())
        if (sig.kind == rtl::NetSignal::Kind::Input &&
            is_in[static_cast<size_t>(sig.net)])
            names.push_back(name);
    return names;
}

/**
 * Per-obligation exploration machinery sharing one simulator.
 *
 * States are cone projections of the packed register file
 * (rtl::Sim::packRegs layout): each cone register's words, in cone
 * order.  The simulator holds one loaded state at a time; every input
 * combo of a frame runs on it live, and Sim::nextRegs yields the
 * successor without committing an edge.  Registers outside the cone
 * stay parked at reset: their values cannot influence the cone or
 * the property (transitive closure), and since no edge commits they
 * never move, so the dirty sweep keeps cutting the wide datapath
 * cones and loadRegs pokes only cone registers.
 */
class Prover
{
  public:
    /** `reset` is the design's packed reset state. */
    Prover(rtl::Sim &sim, const Coi &coi, rtl::NetId bad,
           const ProveOptions &opts, uint64_t *steps,
           const std::vector<uint64_t> &reset)
        : _sim(sim), _coi(coi), _bad(bad), _opts(opts),
          _steps(steps), _full(reset), _next(reset.size())
    {
        for (int ri : coi.regs) {
            size_t r = static_cast<size_t>(ri);
            size_t off = sim.regOffset(r);
            size_t words = sim.regOffset(r + 1) - off;
            _spans.push_back({off, words});
            _stride += words;
        }
        int bits = 0;
        for (int b : coi.input_bits)
            bits += b;
        _combos = 1ull << bits;
    }

    /** Project a packed register file onto the cone's words. */
    void project(const uint64_t *full, uint64_t *cone) const
    {
        for (const Span &sp : _spans) {
            std::copy(full + sp.off, full + sp.off + sp.words, cone);
            cone += sp.words;
        }
    }

    /** Load a cone state into the simulator. */
    void load(const uint64_t *cone)
    {
        for (const Span &sp : _spans) {
            std::copy(cone, cone + sp.words, _full.data() + sp.off);
            cone += sp.words;
        }
        _sim.loadRegs(_full.data());
    }

    void assignCombo(uint64_t combo)
    {
        for (size_t i = 0; i < _coi.input_nets.size(); i++) {
            int bits = _coi.input_bits[i];
            _sim.setInput(_coi.input_nets[i],
                          combo & ((1ull << bits) - 1));
            combo >>= bits;
        }
    }

    bool badNow() { return _sim.value(_bad).any(); }

    bool budgetLeft() const { return *_steps < _opts.max_steps; }

    /**
     * Bounded reachability from reset, property checked on every
     * frame.  Returns through `out`:
     *   Violated  - with the counterexample input trace
     *   Proved    - the projected reachable space closed clean
     *   Unknown   - bound or budget reached (base is clean to depth
     *               k_max; induction decides)
     * Breadth-first: the table's rows are the queue, with each row's
     * depth, parent row and arriving combo in parallel arrays.
     */
    void baseCase(ObligationOutcome &out)
    {
        PackedStateTable seen(_stride);
        std::vector<int> depth;
        std::vector<int64_t> parent;
        std::vector<uint64_t> via;   // combo applied at the parent
        std::vector<uint64_t> key(_stride);

        project(_full.data(), key.data());   // reset
        seen.insert(key.data());
        depth.push_back(0);
        parent.push_back(-1);
        via.push_back(0);

        bool hit_bound = false;
        for (size_t i = 0; i < seen.size(); i++) {
            if (depth[i] >= _opts.k_max) {
                hit_bound = true;
                continue;
            }
            load(seen.row(i));
            for (uint64_t combo = 0; combo < _combos; combo++) {
                if (!budgetLeft()) {
                    out.detail = "base: step budget exhausted";
                    out.status = ObligationOutcome::Status::Unknown;
                    out.base_states = seen.size();
                    return;
                }
                ++*_steps;
                assignCombo(combo);
                if (badNow()) {
                    out.status = ObligationOutcome::Status::Violated;
                    out.k = depth[i];
                    out.base_states = seen.size();
                    out.detail = strfmt(
                        "reset-reachable violation at depth %d",
                        depth[i]);
                    // Reconstruct the input trace root -> frame.
                    std::vector<uint64_t> path{combo};
                    for (int64_t n = static_cast<int64_t>(i);
                         parent[static_cast<size_t>(n)] >= 0;
                         n = parent[static_cast<size_t>(n)])
                        path.push_back(via[static_cast<size_t>(n)]);
                    std::reverse(path.begin(), path.end());
                    for (uint64_t c : path) {
                        CexStep step;
                        for (size_t j = 0; j < _coi.inputs.size();
                             j++) {
                            int bits = _coi.input_bits[j];
                            step.inputs.push_back(
                                {_coi.inputs[j],
                                 c & ((1ull << bits) - 1)});
                            c >>= bits;
                        }
                        out.cex.push_back(std::move(step));
                    }
                    return;
                }
                _sim.nextRegs(_next.data());
                project(_next.data(), key.data());
                if (seen.insert(key.data()).second) {
                    depth.push_back(depth[i] + 1);
                    parent.push_back(static_cast<int64_t>(i));
                    via.push_back(combo);
                }
            }
        }
        out.base_states = seen.size();
        if (!hit_bound) {
            // The projected reachable space closed without a
            // violation: proved outright.
            out.status = ObligationOutcome::Status::Proved;
            out.exhausted = true;
            out.k = 0;
        }
    }

    /**
     * Inductive step at depth k: from every arbitrary cone state,
     * every loop-free path of k clean frames must end in a clean
     * frame.  Returns Proved / Unknown (budget); a failed step just
     * means "try a larger k", so the caller iterates.
     *
     * Depth-first over input choices, iteratively: row d of a flat
     * word stack holds the path's state at depth d and combo[d] the
     * next combo to try there.  A frame's state is loaded on entry
     * and reloaded only when a child returns to it.
     */
    bool inductionHolds(int k, ObligationOutcome &out, bool *budget_ok)
    {
        uint64_t total = 1ull << _coi.state_bits;
        size_t last = static_cast<size_t>(k);
        std::vector<uint64_t> path((last + 1) * _stride);
        std::vector<uint64_t> combo(last + 1);
        auto row = [&](size_t d) { return path.data() + d * _stride; };

        for (uint64_t s = 0; s < total; s++) {
            out.induction_starts++;
            // Decode the packed enumeration into the cone's words
            // (state_bits <= 63, so each register fits one word).
            uint64_t bits = s;
            uint64_t *w = row(0);
            for (int width : _coi.reg_widths) {
                if (width == 0)
                    continue;
                *w++ = bits & ((1ull << width) - 1);
                bits >>= width;
            }
            load(row(0));
            size_t d = 0;
            combo[0] = 0;
            for (;;) {
                if (combo[d] == _combos) {
                    if (d == 0)
                        break;
                    load(row(--d));
                    continue;
                }
                uint64_t c = combo[d]++;
                if (!budgetLeft()) {
                    *budget_ok = false;
                    return true;   // caller reports Unknown
                }
                ++*_steps;
                assignCombo(c);
                bool bad = badNow();
                if (d == last) {
                    if (bad)
                        return false;   // induction fails at this k
                    continue;
                }
                if (bad)
                    continue;   // path assumption broken: prune
                uint64_t *child = row(d + 1);
                _sim.nextRegs(_next.data());
                project(_next.data(), child);
                bool looped = false;
                for (size_t j = 0; j <= d && !looped; j++)
                    looped = std::equal(child, child + _stride, row(j));
                if (looped)
                    continue;   // uniqueness: loop-free paths only
                combo[++d] = 0;
                load(child);
            }
        }
        return true;
    }

  private:
    /** A cone register's words within the packed register file. */
    struct Span
    {
        size_t off;
        size_t words;
    };

    rtl::Sim &_sim;
    const Coi &_coi;
    rtl::NetId _bad;
    const ProveOptions &_opts;
    uint64_t *_steps;
    std::vector<Span> _spans;        // per cone register
    size_t _stride = 0;              // words per cone state
    std::vector<uint64_t> _full;     // reset outside the cone
    std::vector<uint64_t> _next;     // nextRegs output
    uint64_t _combos = 1;
};

} // namespace

std::string
ObligationOutcome::statusStr() const
{
    switch (status) {
      case Status::Proved:
        return exhausted ? "proved (reachable space exhausted)"
                         : strfmt("proved (k-induction, k=%d)", k);
      case Status::Violated:
        return strfmt("VIOLATED (depth %d)", k);
      case Status::Unknown:
        return "unknown (" + (detail.empty() ? "bound" : detail) + ")";
      case Status::Conditional:
        return "conditional (" + detail + ")";
    }
    return "?";
}

bool
ProveResult::allProved() const
{
    for (const auto &o : obligations)
        if (o.status != ObligationOutcome::Status::Proved)
            return false;
    return !obligations.empty();
}

bool
ProveResult::anyViolated() const
{
    for (const auto &o : obligations)
        if (o.status == ObligationOutcome::Status::Violated)
            return true;
    return false;
}

bool
ProveResult::anyUnknown() const
{
    for (const auto &o : obligations)
        if (o.status == ObligationOutcome::Status::Unknown)
            return true;
    return false;
}

bool
ProveResult::anyConditional() const
{
    for (const auto &o : obligations)
        if (o.status == ObligationOutcome::Status::Conditional)
            return true;
    return false;
}

std::string
ProveResult::report(bool detailed) const
{
    std::string s;
    for (const auto &o : obligations) {
        s += strfmt("%-40s %4d bit %9.2f ms  %s\n", o.name.c_str(),
                    o.coi_bits, o.millis, o.statusStr().c_str());
        if (detailed) {
            std::string ins;
            for (const auto &in : o.coi_inputs)
                ins += (ins.empty() ? "" : ",") + in;
            s += strfmt("    cone: %d reg(s) / %d bit(s), inputs "
                        "[%s]; base %llu state(s), induction %llu "
                        "start(s), %llu step(s), %.1f ms\n",
                        o.coi_regs, o.coi_bits, ins.c_str(),
                        static_cast<unsigned long long>(
                            o.base_states),
                        static_cast<unsigned long long>(
                            o.induction_starts),
                        static_cast<unsigned long long>(o.steps),
                        o.millis);
        }
    }
    return s;
}

ProveResult
prove(const InstrumentedDesign &design, const ProveOptions &opts)
{
    // Input combos and cone states are enumerated in one 64-bit word:
    // a 2^64 enumeration could never finish, and shifts by 64 or by a
    // negative input_bits_limit are undefined.
    if (opts.input_bits_limit < 0)
        throw std::invalid_argument(
            strfmt("ProveOptions::input_bits_limit must be >= 0, got %d",
                   opts.input_bits_limit));
    if (opts.max_input_bits >= 64)
        throw std::invalid_argument(
            strfmt("ProveOptions::max_input_bits must be < 64, got %d",
                   opts.max_input_bits));
    if (opts.max_state_bits >= 64)
        throw std::invalid_argument(
            strfmt("ProveOptions::max_state_bits must be < 64, got %d",
                   opts.max_state_bits));

    ProveResult result;
    if (design.props.empty())
        return result;

    rtl::Sim sim(design.module);
    const rtl::Netlist &nl = sim.netlist();
    std::vector<uint64_t> reset(sim.regWords());
    sim.packRegs(reset.data());

    for (const auto &prop : design.props) {
        ObligationOutcome out;
        out.name = prop.assertion.name;
        out.channel = prop.channel;
        out.rule = prop.rule;
        out.bad_wire = prop.bad_wire;
        auto t0 = std::chrono::steady_clock::now();
        uint64_t steps = 0;

        auto it = nl.signals().find(prop.bad_wire);
        if (it == nl.signals().end()) {
            out.detail = "bad wire not in netlist";
            result.obligations.push_back(std::move(out));
            continue;
        }
        rtl::NetId bad = it->second.net;

        // A stable obligation whose payload is a combinational
        // function of environment inputs (a `@msg`-relative
        // forwarding contract) has no environment-free proof: its
        // stability is exactly what the peer's own contracts
        // guarantee.  Classify instead of "disproving" it with
        // contract-breaking stimulus.
        if (prop.rule == "stable" && !prop.data_wire.empty()) {
            auto dit = nl.signals().find(prop.data_wire);
            if (dit != nl.signals().end()) {
                std::vector<std::string> ins =
                    inputSourcesOf(nl, dit->second.net);
                if (!ins.empty()) {
                    out.status =
                        ObligationOutcome::Status::Conditional;
                    std::string list;
                    for (const auto &in : ins)
                        list += (list.empty() ? "" : ", ") + in;
                    out.detail = "payload reads environment "
                                 "input(s) " + list +
                                 "; stability rests on the peer "
                                 "contracts the type checker "
                                 "verifies compositionally";
                    result.obligations.push_back(std::move(out));
                    continue;
                }
            }
        }

        // Fresh start per obligation: zero inputs (the explorers load
        // every register state they visit in full).
        for (const auto &in : sim.inputNames())
            sim.setInput(in, 0);

        Coi coi = computeCoi(nl, bad, opts);
        out.coi_regs = static_cast<int>(coi.regs.size());
        out.coi_bits = coi.state_bits;
        for (int ri : coi.regs)
            out.coi_reg_names.push_back(
                nl.nameOf(nl.regs()[static_cast<size_t>(ri)]));
        out.coi_inputs = coi.inputs;

        // One profiler track per obligation; its base-case and per-k
        // induction windows become Chrome-trace events alongside the
        // simulator phases.
        int tid = opts.profiler
            ? opts.profiler->track("prove:" + out.name) : -1;

        Prover prover(sim, coi, bad, opts, &steps, reset);
        uint64_t w0 = opts.profiler ? rtl::monotonicNanos() : 0;
        prover.baseCase(out);
        if (opts.profiler)
            opts.profiler->event(tid, "base", w0,
                                 rtl::monotonicNanos(), 0);

        if (out.status == ObligationOutcome::Status::Unknown &&
            out.detail.empty()) {
            // Base clean to the bound: try induction, smallest k
            // first.
            if (coi.state_bits > opts.max_state_bits) {
                out.detail = strfmt(
                    "cone needs %d state bits (budget %d)%s",
                    coi.state_bits, opts.max_state_bits,
                    coi.wide_regs.empty()
                        ? ""
                        : ("; wide: " + coi.wide_regs[0]).c_str());
            } else {
                bool budget_ok = true;
                for (int k = 1; k <= opts.k_max; k++) {
                    uint64_t k0 =
                        opts.profiler ? rtl::monotonicNanos() : 0;
                    bool holds =
                        prover.inductionHolds(k, out, &budget_ok);
                    if (opts.profiler)
                        opts.profiler->event(
                            tid, strfmt("k=%d", k), k0,
                            rtl::monotonicNanos(),
                            static_cast<uint64_t>(k));
                    if (holds) {
                        if (!budget_ok) {
                            out.detail =
                                "induction: step budget exhausted";
                            break;
                        }
                        out.status =
                            ObligationOutcome::Status::Proved;
                        out.k = k;
                        break;
                    }
                    if (!budget_ok) {
                        out.detail =
                            "induction: step budget exhausted";
                        break;
                    }
                }
                if (out.status !=
                        ObligationOutcome::Status::Proved &&
                    out.detail.empty())
                    out.detail = strfmt(
                        "induction inconclusive up to k=%d",
                        opts.k_max);
            }
        }

        out.steps = steps;
        out.millis = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

        if (opts.metrics) {
            obs::MetricsRegistry &m = *opts.metrics;
            m.counter("prove.steps") += out.steps;
            m.counter("prove.base_states") += out.base_states;
            m.counter("prove.induction_starts") +=
                out.induction_starts;
            const char *key = "unknown";
            switch (out.status) {
              case ObligationOutcome::Status::Proved:
                key = "proved"; break;
              case ObligationOutcome::Status::Violated:
                key = "violated"; break;
              case ObligationOutcome::Status::Conditional:
                key = "conditional"; break;
              case ObligationOutcome::Status::Unknown:
                break;
            }
            m.counter(std::string("prove.status.") + key)++;
        }

        result.obligations.push_back(std::move(out));
    }

    if (opts.metrics) {
        // Aggregate throughput over everything this call explored
        // (a step is one projected state visit).
        uint64_t total_steps = 0;
        double total_ms = 0.0;
        for (const auto &o : result.obligations) {
            total_steps += o.steps;
            total_ms += o.millis;
        }
        opts.metrics->gauge("prove.states_per_sec") = total_ms > 0.0
            ? static_cast<double>(total_steps) * 1000.0 / total_ms
            : 0.0;
    }
    return result;
}

void
writeCexVcd(const InstrumentedDesign &design,
            const ObligationOutcome &outcome, std::ostream &os)
{
    rtl::Sim sim(design.module);
    for (const auto &in : sim.inputNames())
        sim.setInput(in, 0);
    rtl::VcdWriter writer(sim, os);
    for (const auto &step : outcome.cex) {
        for (const auto &[name, value] : step.inputs)
            sim.setInput(name, value);
        writer.sample();
        sim.step();
    }
}

} // namespace formal
} // namespace anvil
