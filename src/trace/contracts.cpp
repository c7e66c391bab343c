#include "trace/contracts.h"

#include <sstream>
#include <stdexcept>

#include "support/strings.h"

namespace anvil {
namespace trace {

namespace {

/** Trim ASCII whitespace from both ends. */
std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

} // namespace

std::string
ContractSpec::str() const
{
    std::string s = channel + ":";
    bool first = true;
    auto clause = [&](const std::string &c) {
        s += first ? " " : ", ";
        s += c;
        first = false;
    };
    if (ack_within > 0)
        clause(strfmt("ack within %d", ack_within));
    if (stable)
        clause("stable");
    if (hold)
        clause("hold");
    if (first)
        clause("none");
    return s;
}

ContractSpec
parseContractSpec(const std::string &text)
{
    ContractSpec spec;
    size_t colon = text.find(':');
    spec.channel = trim(colon == std::string::npos
                            ? text
                            : text.substr(0, colon));
    if (spec.channel.empty())
        throw std::invalid_argument(
            "contract spec has no channel name: '" + text + "'");
    if (colon == std::string::npos)
        return spec;   // bare name: default clauses

    // An explicit clause list enables exactly the listed clauses.
    spec.stable = false;
    spec.hold = false;
    std::string clauses = text.substr(colon + 1);
    size_t pos = 0;
    while (pos <= clauses.size()) {
        size_t comma = clauses.find(',', pos);
        std::string c = trim(clauses.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos));
        pos = comma == std::string::npos ? clauses.size() + 1
                                         : comma + 1;
        if (c.empty())
            continue;
        if (c == "stable") {
            spec.stable = true;
        } else if (c == "hold") {
            spec.hold = true;
        } else if (c == "none") {
            // explicit empty clause set
        } else if (c.rfind("ack", 0) == 0) {
            std::istringstream is(c);
            std::string kw_ack, kw_within;
            int n = 0;
            is >> kw_ack >> kw_within >> n;
            if (kw_within != "within" || is.fail() || n < 1)
                throw std::invalid_argument(
                    "bad clause '" + c +
                    "' (expected 'ack within N')");
            spec.ack_within = n;
        } else {
            throw std::invalid_argument("unknown contract clause '" +
                                        c + "'");
        }
    }
    return spec;
}

std::vector<ContractSpec>
inferContracts(const rtl::Netlist &nl, bool outputs_only)
{
    std::vector<ContractSpec> specs;
    const auto &table = nl.signals();
    for (const auto &[name, sig] : table) {
        const std::string suffix = "_valid";
        if (name.size() <= suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        std::string ch = name.substr(0, name.size() - suffix.size());
        if (!table.count(ch + "_ack"))
            continue;
        if (outputs_only &&
            sig.kind == rtl::NetSignal::Kind::Input)
            continue;
        ContractSpec spec;
        spec.channel = ch;
        specs.push_back(std::move(spec));
    }
    return specs;
}

std::string
violationReport(const std::vector<ContractViolation> &violations)
{
    std::string s;
    for (const auto &v : violations)
        s += strfmt("  @%llu %s [%s] %s\n",
                    static_cast<unsigned long long>(v.cycle),
                    v.channel.c_str(), v.rule.c_str(),
                    v.message.c_str());
    return s;
}

ChannelChecker::ChannelChecker(ContractSpec spec)
    : _spec(std::move(spec))
{
}

void
ChannelChecker::cycle(uint64_t t, bool valid, bool ack,
                      const BitVec &data,
                      std::vector<ContractViolation> &out)
{
    if (!_pending) {
        if (!valid)
            return;
        // A send is offered this cycle.
        _since = t;
        _data0 = data;
        _deadline_reported = false;
        _stable_reported = false;
        if (ack) {
            _fired++;
            return;   // fires immediately; nothing left to watch
        }
        _pending = true;
        if (_spec.ack_within == 1) {
            out.push_back(
                {t, _spec.channel, "ack-within",
                 strfmt("send at cycle %llu not acknowledged "
                        "within 1 cycle",
                        static_cast<unsigned long long>(t))});
            _deadline_reported = true;
        }
        return;
    }

    // A send offered at _since is still outstanding.
    if (!valid) {
        if (_spec.hold)
            out.push_back(
                {t, _spec.channel, "hold",
                 strfmt("send pending since cycle %llu retracted "
                        "before acknowledgement",
                        static_cast<unsigned long long>(_since))});
        _pending = false;
        return;
    }
    if (_spec.stable && !_stable_reported && data != _data0) {
        out.push_back(
            {t, _spec.channel, "stable",
             "payload changed while pending (" + _data0.toHex() +
                 " -> " + data.toHex() + ")"});
        _stable_reported = true;
        _data0 = data;   // judge further changes against the new value
    }
    if (ack) {
        _fired++;
        _pending = false;
        return;
    }
    if (_spec.ack_within > 0 && !_deadline_reported &&
        t - _since + 1 >= static_cast<uint64_t>(_spec.ack_within)) {
        out.push_back(
            {t, _spec.channel, "ack-within",
             strfmt("send at cycle %llu not acknowledged within "
                    "%d cycles",
                    static_cast<unsigned long long>(_since),
                    _spec.ack_within)});
        _deadline_reported = true;
    }
}

std::vector<ContractViolation>
checkTrace(const std::vector<ContractSpec> &specs, const Trace &trace,
           std::vector<std::string> *skipped)
{
    std::vector<ContractViolation> out;
    struct Offline
    {
        ChannelChecker checker;
        int valid, ack, data;   // indices into the trace; -1 = none
    };
    std::vector<Offline> checkers;
    for (const auto &spec : specs) {
        int v = trace.indexOf(spec.channel + "_valid");
        if (v < 0) {
            if (skipped)
                skipped->push_back(spec.channel);
            continue;
        }
        int a = trace.indexOf(spec.channel + "_ack");
        if (a < 0) {
            out.push_back({trace.startTime(), spec.channel, "config",
                           "trace records " + spec.channel +
                               "_valid but not " + spec.channel +
                               "_ack"});
            continue;
        }
        checkers.push_back({ChannelChecker(spec), v, a,
                            trace.indexOf(spec.channel + "_data")});
    }
    if (checkers.empty() || trace.cycles() == 0)
        return out;

    TraceCursor cursor(trace);
    static const BitVec kNoData(1);
    for (uint64_t t = trace.startTime(); t <= trace.endTime(); t++) {
        cursor.advanceTo(t);
        for (auto &c : checkers)
            c.checker.cycle(
                t, cursor.value(static_cast<size_t>(c.valid)).any(),
                cursor.value(static_cast<size_t>(c.ack)).any(),
                c.data < 0
                    ? kNoData
                    : cursor.value(static_cast<size_t>(c.data)),
                out);
    }
    return out;
}

ContractMonitor::ContractMonitor(std::vector<ContractSpec> specs,
                                 rtl::Sim &sim)
    : tb::Monitor("contracts"), _index(sim.netlist())
{
    const rtl::Netlist &nl = sim.netlist();
    const auto &table = nl.signals();
    auto find = [&](const std::string &name) {
        auto it = table.find(name);
        return it == table.end() ? rtl::kNoNet : it->second.net;
    };
    for (auto &spec : specs) {
        Bound b{ChannelChecker(std::move(spec)), rtl::kNoNet,
                rtl::kNoNet, rtl::kNoNet};
        const ContractSpec &s = b.checker.spec();
        b.valid = find(s.channel + "_valid");
        b.ack = find(s.channel + "_ack");
        b.data = find(s.channel + "_data");
        if (b.valid == rtl::kNoNet || b.ack == rtl::kNoNet)
            throw std::invalid_argument(
                "contract channel '" + s.channel +
                "' has no valid/ack pair in the design");
        // A lazy net's slot re-reads the whole channel every visit.
        uint32_t slot = 3 * static_cast<uint32_t>(_bound.size());
        const rtl::NetId nets[3] = {b.valid, b.ack, b.data};
        for (uint32_t k = 0; k < 3; k++)
            if (nets[k] != rtl::kNoNet)
                _index.add(nl, nets[k], slot + k);
        _bound.push_back(std::move(b));
    }
}

/** Re-read one channel's frame values from the simulation. */
void
ContractMonitor::refresh(rtl::Sim &sim, Bound &b)
{
    b.valid_v = _index.read(sim, b.valid).any();
    b.ack_v = _index.read(sim, b.ack).any();
    if (b.data != rtl::kNoNet) {
        rtl::WordView d = _index.read(sim, b.data);
        if (b.data_v.width() != d.width)
            b.data_v = BitVec(d.width);
        b.data_v.setWords(d.w, static_cast<int>(d.words()));
    }
}

void
ContractMonitor::tick(uint64_t cycle)
{
    for (auto &b : _bound) {
        size_t before = _violations.size();
        b.checker.cycle(cycle, b.valid_v, b.ack_v, b.data_v,
                        _violations);
        for (size_t i = before; i < _violations.size(); i++)
            fail(cycle, "contract:" + _violations[i].channel + " [" +
                            _violations[i].rule + "] " +
                            _violations[i].message);
    }
}

void
ContractMonitor::onPrime(rtl::Sim &sim, uint64_t cycle)
{
    for (auto &b : _bound)
        refresh(sim, b);
    tick(cycle);
}

void
ContractMonitor::onCycle(rtl::Sim &sim, uint64_t cycle,
                         const std::vector<rtl::NetId> &changed)
{
    // Only channels whose nets actually changed are re-read; every
    // checker still ticks — ack-within deadlines advance even when
    // nothing changes.
    auto refreshSlot = [this, &sim](uint32_t slot) {
        refresh(sim, _bound[slot / 3]);
    };
    _index.forFed(changed, refreshSlot);
    for (uint32_t slot : _index.lazySlots())
        refreshSlot(slot);
    tick(cycle);
}

void
ContractMonitor::observe(rtl::Sim &sim, uint64_t cycle)
{
    // Attached to a shared feed (the Testbench path): the feed visit
    // does the work once per cycle; the run loop's observe() call is
    // then a no-op so checkers do not double-tick.
    if (feed())
        return;
    sim.changedNets();   // sweeps, so the words are the frame's
    for (auto &b : _bound)
        refresh(sim, b);
    tick(cycle);
}

} // namespace trace
} // namespace anvil
