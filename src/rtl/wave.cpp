#include "rtl/wave.h"

#include <sstream>
#include <stdexcept>

namespace anvil {
namespace rtl {

WaveRecorder::WaveRecorder(Sim &sim, std::vector<std::string> signals)
    : _sim(sim), _index(sim.netlist()), _samples(signals.size())
{
    const Netlist &nl = sim.netlist();
    for (auto &name : signals) {
        Rec r;
        r.name = std::move(name);
        std::string flat = nl.resolveName("", r.name);
        auto it = nl.signals().find(flat);
        if (it != nl.signals().end())
            r.net = it->second.net;
        // Lazy nets and unresolved names are re-read directly every
        // visit so their on-demand faults still fire.
        _index.add(nl, r.net, static_cast<uint32_t>(_recs.size()));
        _recs.push_back(std::move(r));
    }
}

WaveRecorder::~WaveRecorder() = default;

void
WaveRecorder::directRead(Rec &r)
{
    // Unresolved names keep peek()'s error; resolved ones read the
    // interned value (identical result, no name lookup).
    r.last = r.net == kNoNet ? _sim.peek(r.name)
                             : wordValue(_sim.value(r.net));
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
    _index.forFed(changed, [this](uint32_t slot) {
        _recs[slot].last = wordValue(_sim.words(_recs[slot].net));
    });
    for (uint32_t slot : _index.lazySlots())
        directRead(_recs[slot]);
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
