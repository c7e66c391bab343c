#include "rtl/vcd.h"

#include <algorithm>
#include <bit>
#include <map>
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

VcdWriter::VcdWriter(Sim &sim, std::ostream &os,
                     std::vector<std::string> signals)
    : _sim(sim), _os(os)
{
    const Netlist &nl = _sim.netlist();
    if (signals.empty())
        for (const auto &[name, sig] : nl.signals())
            signals.push_back(name);

    _net_slot.assign(nl.nets().size(), -1);
    for (const auto &name : signals) {
        std::string flat = nl.resolveName("", name);
        auto it = nl.signals().find(flat);
        if (it == nl.signals().end())
            throw std::invalid_argument("no such signal: " + name);
        // VCD has no representation for zero-width vars; skip them
        // rather than emit a malformed "$var wire 0" declaration.
        if (it->second.width < 1)
            continue;
        Traced t;
        t.name = flat;
        t.id = idCode(_traced.size());
        t.net = it->second.net;
        t.width = it->second.width;
        t.is_reg = it->second.kind == NetSignal::Kind::Reg;
        t.fed = !nl.net(t.net).lazy;
        t.words = static_cast<uint32_t>((t.width + 63) / 64);
        t.last = static_cast<uint32_t>(_last.size());
        _last.resize(_last.size() + t.words);
        if (t.fed) {
            // Duplicate traces of one net (an alias next to its flat
            // name) chain off the net's single slot entry, and
            // onCycle fans the one change out to the whole chain.
            size_t ni = static_cast<size_t>(t.net);
            t.dup_next = _net_slot[ni];
            _net_slot[ni] = static_cast<int32_t>(_traced.size());
        }
        _traced.push_back(std::move(t));
    }

    std::vector<VcdVarDecl> vars;
    vars.reserve(_traced.size());
    for (const Traced &t : _traced)
        vars.push_back({t.name, t.id, t.width, t.is_reg});
    writeVcdHeader(_os, _sim.topName(), vars, "1ns");
}

VcdWriter::~VcdWriter() = default;

const uint64_t *
VcdWriter::read(const Traced &t)
{
    return t.fed ? _sim.words(t.net).w : _sim.value(t.net).data();
}

void
VcdWriter::emitValue(const Traced &t, const uint64_t *w)
{
    writeVcdValue(_os, t.id, t.width, w);
    std::copy_n(w, t.words, _last.data() + t.last);
    _changes++;
}

void
VcdWriter::sampleTraced(const Traced &t, bool &stamped)
{
    const uint64_t *w = read(t);
    if (std::equal(w, w + t.words, _last.data() + t.last))
        return;
    if (!stamped) {
        _os << "#" << _sim.cycle() << "\n";
        stamped = true;
    }
    emitValue(t, w);
}

void
VcdWriter::onPrime(Sim &sim, uint64_t cycle)
{
    (void)sim;
    if (!_primed) {
        _os << "#" << cycle << "\n$dumpvars\n";
        for (const Traced &t : _traced)
            emitValue(t, read(t));
        _os << "$end\n";
        _primed = true;
        return;
    }
    // Rescan fallback (skipped cycles, late pokes): every traced net
    // is re-read; the emitted bytes match the fast path exactly.
    bool stamped = false;
    for (const Traced &t : _traced)
        sampleTraced(t, stamped);
}

void
VcdWriter::onCycle(Sim &sim, uint64_t cycle,
                   const std::vector<NetId> &changed)
{
    (void)sim;
    (void)cycle;
    // Only nets that changed since the previous sample are dumped; a
    // cycle with no changes emits nothing at all.  `changed` is the
    // fed frame, so the scan is proportional to activity; nets
    // outside the feed (lazy cones) are re-read every visit.
    bool stamped = false;
    _scratch.clear();
    for (NetId id : changed)
        for (int32_t slot = _net_slot[static_cast<size_t>(id)];
             slot >= 0;
             slot = _traced[static_cast<size_t>(slot)].dup_next)
            _scratch.push_back(static_cast<size_t>(slot));
    // Emit in declaration order, exactly as the full scan would.
    std::sort(_scratch.begin(), _scratch.end());
    size_t next_unfed = 0;
    for (size_t slot : _scratch) {
        // Interleave un-fed nets to keep the order global.
        for (; next_unfed < slot; next_unfed++)
            if (!_traced[next_unfed].fed)
                sampleTraced(_traced[next_unfed], stamped);
        next_unfed = std::max(next_unfed, slot + 1);
        sampleTraced(_traced[slot], stamped);
    }
    for (; next_unfed < _traced.size(); next_unfed++)
        if (!_traced[next_unfed].fed)
            sampleTraced(_traced[next_unfed], stamped);
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
