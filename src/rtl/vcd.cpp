#include "rtl/vcd.h"

#include <algorithm>
#include <bit>
#include <map>
#include <sstream>
#include <stdexcept>

namespace anvil {
namespace rtl {

namespace {

/** Nested VCD scope: child scopes by name plus leaf vars. */
struct ScopeNode
{
    std::map<std::string, ScopeNode> children;
    std::vector<size_t> vars;   // indices into the var list
};

} // namespace

void
writeVcdHeader(std::ostream &os, const std::string &top_scope,
               const std::vector<VcdVarDecl> &vars,
               const std::string &timescale)
{
    // Deterministic header: no wall-clock date, fixed version text.
    os << "$date\n    (deterministic)\n$end\n"
       << "$version\n    anvil VcdWriter\n$end\n"
       << "$timescale\n    " << timescale << "\n$end\n";

    ScopeNode root;
    for (size_t i = 0; i < vars.size(); i++) {
        ScopeNode *node = &root;
        const std::string &name = vars[i].name;
        size_t start = 0, dot;
        while ((dot = name.find('.', start)) != std::string::npos) {
            node = &node->children[name.substr(start, dot - start)];
            start = dot + 1;
        }
        node->vars.push_back(i);
    }

    // Recursive emit; leaf var names drop the instance path prefix.
    auto emitScope = [&os, &vars](const ScopeNode &node,
                                  auto &&self) -> void {
        for (size_t i : node.vars) {
            const VcdVarDecl &t = vars[i];
            std::string leaf = t.name.substr(t.name.rfind('.') + 1);
            os << "$var " << (t.is_reg ? "reg" : "wire") << " "
               << t.width << " " << t.id << " " << leaf;
            if (t.width > 1)
                os << " [" << t.width - 1 << ":0]";
            os << " $end\n";
        }
        for (const auto &[name, child] : node.children) {
            os << "$scope module " << name << " $end\n";
            self(child, self);
            os << "$upscope $end\n";
        }
    };

    os << "$scope module " << top_scope << " $end\n";
    emitScope(root, emitScope);
    os << "$upscope $end\n$enddefinitions $end\n";
}

void
writeVcdValue(std::ostream &os, const std::string &id, int width,
              const uint64_t *w)
{
    if (width == 1) {
        os << (w[0] ? '1' : '0') << id << "\n";
        return;
    }
    // Binary with leading zeros stripped (VCD shorthand); "0" when
    // the value is zero.
    int bits = 0;
    for (int k = (width + 63) / 64 - 1; k >= 0 && !bits; k--)
        if (w[k])
            bits = k * 64 + static_cast<int>(std::bit_width(w[k]));
    std::string b = "b";
    if (!bits)
        b += '0';
    for (int i = bits - 1; i >= 0; i--)
        b += (w[i / 64] >> (i % 64)) & 1 ? '1' : '0';
    os << b << " " << id << "\n";
}

std::string
VcdWriter::idCode(size_t index)
{
    // Base-94 over the printable ASCII range '!'..'~'.
    std::string id;
    do {
        id += static_cast<char>('!' + index % 94);
        index /= 94;
    } while (index > 0);
    return id;
}

VcdSignals::VcdSignals(const Sim &sim, std::vector<std::string> signals)
    : _index(sim.netlist())
{
    const Netlist &nl = sim.netlist();
    if (signals.empty())
        for (const auto &[name, sig] : nl.signals())
            signals.push_back(name);

    for (const auto &name : signals) {
        std::string flat = nl.resolveName("", name);
        auto it = nl.signals().find(flat);
        if (it == nl.signals().end())
            throw std::invalid_argument("no such signal: " + name);
        const NetSignal &sig = it->second;
        // VCD has no representation for zero-width vars; skip them
        // rather than emit a malformed "$var wire 0" declaration.
        if (sig.width < 1)
            continue;
        Slot h;
        h.net = sig.net;
        h.words = kernelWords(sig.width);
        h.last = static_cast<uint32_t>(_last.size());
        _last.resize(_last.size() + h.words);
        _index.add(nl, h.net, static_cast<uint32_t>(_slots.size()));
        _slots.push_back(h);
        _vars.push_back({flat, VcdWriter::idCode(_vars.size()),
                         sig.width, sig.kind == NetSignal::Kind::Reg});
    }

    std::ostringstream os;
    writeVcdHeader(os, sim.topName(), _vars, "1ns");
    _header = os.str();
}

void
VcdSignals::writeSlot(std::ostream &os, uint32_t s,
                      const uint64_t *vals) const
{
    writeVcdValue(os, _vars[s].id, _vars[s].width,
                  vals + _slots[s].last);
}

void
VcdSignals::writeCheckpoint(std::ostream &os, uint64_t cycle,
                            const uint64_t *vals) const
{
    os << "#" << cycle << "\n$dumpvars\n";
    for (uint32_t s = 0; s < _slots.size(); s++)
        writeSlot(os, s, vals);
    os << "$end\n";
}

void
VcdSignals::writeChanges(std::ostream &os, uint64_t cycle,
                         std::vector<uint32_t> &slots,
                         const uint64_t *vals) const
{
    if (slots.empty())
        return;
    // Declaration order, whatever order the changes arrived in.
    std::sort(slots.begin(), slots.end());
    os << "#" << cycle << "\n";
    for (uint32_t s : slots)
        writeSlot(os, s, vals);
}

VcdWriter::VcdWriter(Sim &sim, std::ostream &os,
                     std::vector<std::string> signals)
    : _sim(sim), _os(os), _sig(sim, std::move(signals))
{
    _os << _sig.header();
}

VcdWriter::~VcdWriter() = default;

void
VcdWriter::note(uint32_t s, const uint64_t *w)
{
    if (_sig.update(s, w))
        _changed.push_back(s);
}

void
VcdWriter::writeChanges(uint64_t cycle)
{
    _sig.writeChanges(_os, cycle, _changed, _sig.lastWords().data());
    _changes += _changed.size();
    _changed.clear();
}

void
VcdWriter::onPrime(Sim &sim, uint64_t cycle)
{
    // Every traced net is re-read.  The first visit writes them all
    // as the $dumpvars checkpoint; a rescan (skipped cycles, late
    // pokes) writes the changed ones, exactly as the fast path would.
    for (uint32_t s = 0; s < _sig.size(); s++)
        note(s, _sig.read(sim, s));
    if (!_primed) {
        _sig.writeCheckpoint(_os, cycle, _sig.lastWords().data());
        _changes += _sig.size();
        _changed.clear();
        _primed = true;
        return;
    }
    writeChanges(cycle);
}

void
VcdWriter::onCycle(Sim &sim, uint64_t cycle,
                   const std::vector<NetId> &changed)
{
    // Only traced nets the fed frame lists can have changed, plus the
    // lazy ones, which the frame never carries; a cycle with no
    // changes writes nothing at all.
    const obs::NetIndex &index = _sig.index();
    index.forFed(changed, [this, &sim](uint32_t s) {
        note(s, sim.words(_sig.slot(s).net).w);
    });
    for (uint32_t s : index.lazySlots())
        note(s, _sig.read(sim, s));
    writeChanges(cycle);
}

void
VcdWriter::sample()
{
    if (!_own_feed) {
        if (feed())
            throw std::logic_error(
                "VcdWriter::sample(): attached to an external "
                "ChangeFeed; drive that feed instead");
        _own_feed = std::make_unique<obs::ChangeFeed>(_sim);
        _own_feed->attach(*this);
    }
    _own_feed->sample();
}

} // namespace rtl
} // namespace anvil
