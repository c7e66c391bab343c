#include "rtl/wave.h"

#include <sstream>
#include <stdexcept>

namespace anvil {
namespace rtl {

WaveRecorder::WaveRecorder(Sim &sim, std::vector<std::string> signals)
    : _sim(sim), _samples(signals.size())
{
    const Netlist &nl = sim.netlist();
    _net_slot.assign(nl.nets().size(), -1);
    for (auto &name : signals) {
        Rec r;
        r.name = std::move(name);
        std::string flat = nl.resolveName("", r.name);
        auto it = nl.signals().find(flat);
        if (it != nl.signals().end()) {
            r.net = it->second.net;
            // Lazy nets are re-read directly every visit so their
            // on-demand faults still fire; duplicate traces of one
            // net chain off its single slot entry.
            if (!nl.net(r.net).lazy) {
                size_t ni = static_cast<size_t>(r.net);
                r.dup_next = _net_slot[ni];
                _net_slot[ni] = static_cast<int32_t>(_recs.size());
                r.fed = true;
            }
        }
        _recs.push_back(std::move(r));
    }
}

WaveRecorder::~WaveRecorder() = default;

void
WaveRecorder::directRead(Rec &r)
{
    // Unresolved names keep peek()'s error; resolved ones read the
    // interned value (identical result, no name lookup).
    r.last = r.net == kNoNet ? _sim.peek(r.name) : _sim.value(r.net);
}

void
WaveRecorder::commitRow()
{
    for (size_t i = 0; i < _recs.size(); i++)
        _samples[i].push_back(_recs[i].last);
}

void
WaveRecorder::onPrime(Sim &sim, uint64_t cycle)
{
    (void)sim;
    (void)cycle;
    for (auto &r : _recs)
        directRead(r);
    commitRow();
}

void
WaveRecorder::onCycle(Sim &sim, uint64_t cycle,
                      const std::vector<NetId> &changed)
{
    (void)sim;
    (void)cycle;
    for (NetId id : changed)
        for (int32_t slot = _net_slot[static_cast<size_t>(id)];
             slot >= 0;
             slot = _recs[static_cast<size_t>(slot)].dup_next)
            _recs[static_cast<size_t>(slot)].last = _sim.value(id);
    for (auto &r : _recs)
        if (!r.fed)
            directRead(r);
    commitRow();
}

void
WaveRecorder::sample()
{
    if (!_own_feed) {
        if (feed())
            throw std::logic_error(
                "WaveRecorder::sample(): attached to an external "
                "ChangeFeed; drive that feed instead");
        _own_feed = std::make_unique<obs::ChangeFeed>(_sim);
        _own_feed->attach(*this);
    }
    _own_feed->sample();
}

const std::vector<BitVec> &
WaveRecorder::samplesOf(const std::string &sig) const
{
    for (size_t i = 0; i < _recs.size(); i++)
        if (_recs[i].name == sig)
            return _samples[i];
    throw std::invalid_argument("signal not recorded: " + sig);
}

std::string
WaveRecorder::render() const
{
    std::ostringstream os;
    size_t name_w = 4;
    for (const auto &r : _recs)
        name_w = std::max(name_w, r.name.size());

    size_t cycles = _samples.empty() ? 0 : _samples[0].size();
    os << std::string(name_w, ' ') << " |";
    for (size_t c = 0; c < cycles; c++) {
        std::string h = std::to_string(c);
        os << " " << h << std::string(h.size() < 6 ? 6 - h.size() : 0,
                                      ' ');
    }
    os << "\n";

    for (size_t i = 0; i < _recs.size(); i++) {
        os << _recs[i].name
           << std::string(name_w - _recs[i].name.size(), ' ') << " |";
        for (const auto &v : _samples[i]) {
            std::string h;
            if (v.width() == 1) {
                h = v.any() ? "1" : "0";
            } else {
                h = v.toHex();
            }
            if (h.size() < 6)
                h += std::string(6 - h.size(), ' ');
            os << " " << h;
        }
        os << "\n";
    }
    return os.str();
}

} // namespace rtl
} // namespace anvil
