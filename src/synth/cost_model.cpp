#include "synth/cost_model.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "rtl/netlist.h"
#include "support/strings.h"

namespace anvil {
namespace synth {

namespace {

using rtl::Net;
using rtl::NetId;
using rtl::Netlist;
using rtl::Op;

// 22 nm-class model constants.
constexpr double kUm2PerGe = 0.2;      // NAND2-equivalent footprint
/** Every operator's area is a whole number of 1/500 um^2 (opGates'
 *  counts times kUm2PerGe), so the logic's area is summed in those
 *  units: exactly, whatever order the nets are numbered in. */
constexpr double kAreaUnitsPerUm2 = 500;
constexpr double kGePerFlopBit = 4.5;
constexpr double kGateDelayPs = 15.0;
constexpr double kClockOverheadPs = 55.0;  // setup + clk->q + skew
constexpr double kDynPjPerToggle = 0.00045; // nJ per bit toggle (scaled)
constexpr double kLeakMwPerUm2 = 0.00008;

int
log2ceil(int w)
{
    int l = 0;
    while ((1 << l) < w)
        l++;
    return std::max(l, 1);
}

/** Gate-equivalents for one operator application. */
double
opGates(Op op, int w)
{
    switch (op) {
      case Op::Not: return 0.5 * w;
      case Op::RedOr: return 1.0 * (w - 1) + 1;
      case Op::RedAnd: return 1.0 * (w - 1) + 1;
      case Op::And: return 1.0 * w;
      case Op::Or: return 1.0 * w;
      case Op::Xor: return 2.2 * w;
      case Op::Add: return 6.5 * w;
      case Op::Sub: return 7.0 * w;
      case Op::Mul: return 4.8 * w * w / 2.0;
      case Op::Eq: return 2.5 * w;
      case Op::Ne: return 2.5 * w;
      case Op::Lt: return 3.0 * w;
      case Op::Le: return 3.0 * w;
      case Op::Gt: return 3.0 * w;
      case Op::Ge: return 3.0 * w;
      case Op::Shl: return 2.2 * w * log2ceil(std::max(w, 2));
      case Op::Shr: return 2.2 * w * log2ceil(std::max(w, 2));
    }
    return 1.0 * w;
}

/** Logic levels contributed by one operator application. */
double
opLevels(Op op, int w)
{
    switch (op) {
      case Op::Not: return 0.6;
      case Op::RedOr: return log2ceil(std::max(w, 2));
      case Op::RedAnd: return log2ceil(std::max(w, 2));
      case Op::And: return 1.0;
      case Op::Or: return 1.0;
      case Op::Xor: return 1.4;
      case Op::Add: return 2.0 * log2ceil(std::max(w, 2)) + 2;
      case Op::Sub: return 2.0 * log2ceil(std::max(w, 2)) + 2.4;
      case Op::Mul: return 4.0 * log2ceil(std::max(w, 2)) + 4;
      case Op::Eq: return log2ceil(std::max(w, 2)) + 1.4;
      case Op::Ne: return log2ceil(std::max(w, 2)) + 1.4;
      case Op::Lt: return log2ceil(std::max(w, 2)) + 2.0;
      case Op::Le: return log2ceil(std::max(w, 2)) + 2.0;
      case Op::Gt: return log2ceil(std::max(w, 2)) + 2.0;
      case Op::Ge: return log2ceil(std::max(w, 2)) + 2.0;
      case Op::Shl: return log2ceil(std::max(w, 2)) + 1;
      case Op::Shr: return log2ceil(std::max(w, 2)) + 1;
    }
    return 1.0;
}

/**
 * Prices a design over the compiled netlist's interned table: the
 * same flattened form the simulator executes, so no re-flattening
 * with string maps happens here.
 *
 * Area applies common-subexpression elimination by structural hash:
 * two cones with the same shape over the same named source signals
 * synthesize to one instance.  Cones end at named signals (a named
 * operand hashes as a leaf by its flat name), so equal shapes over
 * different signals stay distinct hardware, as on silicon.  Depth is
 * a memoized walk over operand ids; defensive cycles (lazy nets)
 * break to zero exactly like the old string-keyed analyzer.
 */
class Analyzer
{
  public:
    SynthReport run(const rtl::Module &top)
    {
        Netlist nl(top);
        const auto &nets = nl.nets();
        _hash.assign(nets.size(), 0);
        _hash_done.assign(nets.size(), 0);
        _depth.assign(nets.size(), 0.0);
        _depth_done.assign(nets.size(), 0);
        _visiting.assign(nets.size(), 0);

        for (NetId r : nl.regs())
            _report.seq_area_um2 +=
                nl.net(r).width * kGePerFlopBit * kUm2PerGe;

        // Synthesized logic is what wires and register updates reach;
        // simulation-only prints are not priced.
        std::vector<uint8_t> reach(nets.size(), 0);
        std::vector<NetId> work;
        auto seed = [&](NetId id) {
            if (id != rtl::kNoNet && !reach[static_cast<size_t>(id)]) {
                reach[static_cast<size_t>(id)] = 1;
                work.push_back(id);
            }
        };
        for (NetId id : nl.wireNets())
            seed(id);
        for (const auto &u : nl.updates()) {
            seed(u.enable);
            seed(u.value);
        }
        while (!work.empty()) {
            NetId id = work.back();
            work.pop_back();
            const Net &n = nl.net(id);
            seed(n.a);
            seed(n.b);
            seed(n.c);
            for (NetId o : n.cargs)
                seed(o);
        }

        double worst = 0;
        for (size_t i = 0; i < nets.size(); i++) {
            if (!reach[i])
                continue;
            NetId id = static_cast<NetId>(i);
            countArea(nl, id);
            worst = std::max(worst, depth(nl, id));
        }
        _report.comb_area_um2 = static_cast<double>(_comb_units) /
            kAreaUnitsPerUm2;
        for (const auto &u : nl.updates()) {
            // Enable gating adds a mux in front of the flop.
            _report.comb_area_um2 +=
                opGates(Op::And, nl.net(u.value).width) * kUm2PerGe;
        }
        _report.crit_path_ps = worst * kGateDelayPs + kClockOverheadPs;
        return _report;
    }

  private:
    /**
     * Structural hash of one net.  Named nets referenced as
     * operands hash as leaves by their flat name (the CSE unit of
     * the expression-level analyzer: a cone ends at named signals),
     * so equal shapes over different signals never merge.
     */
    uint64_t hashOf(const Netlist &nl, NetId id)
    {
        size_t i = static_cast<size_t>(id);
        if (_hash_done[i])
            return _hash[i];
        _hash_done[i] = 1;   // break defensive cycles
        const Net &n = nl.net(id);

        uint64_t h = 1469598103934665603ull;
        auto mix = [&h](uint64_t v) {
            h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        };
        mix(static_cast<uint64_t>(n.kind));
        mix(static_cast<uint64_t>(n.op));
        mix(static_cast<uint64_t>(n.width));
        mix(static_cast<uint64_t>(n.lo));
        if (n.kind == Net::Kind::Const) {
            const BitVec &v = nl.initValues()[i];
            for (int w = 0; w < v.words(); w++)
                mix(v.word(w));
        }
        if (n.rom)
            mix(reinterpret_cast<uintptr_t>(n.rom.get()));

        auto operand = [&](NetId o) {
            if (o == rtl::kNoNet) {
                mix(0x517cc1b727220a95ull);
                return;
            }
            const std::string &name = nl.nameOf(o);
            if (!name.empty())
                mix(std::hash<std::string>{}(name));
            else
                mix(hashOf(nl, o));
        };
        operand(n.a);
        operand(n.b);
        operand(n.c);
        for (NetId o : n.cargs)
            operand(o);

        _hash[i] = h;
        return h;
    }

    void countArea(const Netlist &nl, NetId id)
    {
        const Net &n = nl.net(id);
        double ge = 0;
        switch (n.kind) {
          case Net::Kind::Unop:
            ge = opGates(n.op, nl.net(n.a).width);
            break;
          case Net::Kind::Binop:
            ge = opGates(n.op, n.width);
            break;
          case Net::Kind::Mux:
            ge = 2.2 * n.width;
            break;
          case Net::Kind::Rom:
            // LUT-mapped ROM: entries x width at a packed density.
            ge = 0.32 * static_cast<double>(n.rom->size()) * n.width;
            break;
          default:
            return;  // consts, sources, copies, slices, concats free
        }
        // Common-subexpression elimination: structurally identical
        // cones synthesize to one instance.  A counted node hashes by
        // its structure even when a rename moved a wire's name onto
        // it; the name only makes it a leaf in its readers' hashes,
        // as the wire's Copy was.
        if (!_counted.insert(hashOf(nl, id)).second)
            return;
        _comb_units += std::llround(ge * kUm2PerGe * kAreaUnitsPerUm2);
    }

    double depth(const Netlist &nl, NetId id)
    {
        size_t i = static_cast<size_t>(id);
        if (_depth_done[i])
            return _depth[i];
        if (_visiting[i])
            return 0;   // break defensive cycles, like the old memo
        _visiting[i] = 1;
        const Net &n = nl.net(id);

        double d = 0;
        switch (n.kind) {
          case Net::Kind::Const:
          case Net::Kind::Input:
          case Net::Kind::Reg:
          case Net::Kind::BadRef:
            d = 0;   // path starts at state, inputs, and constants
            break;
          case Net::Kind::Copy:
          case Net::Kind::Slice:
            d = n.a == rtl::kNoNet ? 0 : depth(nl, n.a);
            break;
          case Net::Kind::Unop:
            d = depth(nl, n.a) + opLevels(n.op, nl.net(n.a).width);
            break;
          case Net::Kind::Binop:
            d = std::max(depth(nl, n.a), depth(nl, n.b)) +
                opLevels(n.op, n.width);
            break;
          case Net::Kind::Mux:
            d = std::max({depth(nl, n.a), depth(nl, n.b),
                          depth(nl, n.c)}) + 1.4;
            break;
          case Net::Kind::Concat:
            for (NetId o : n.cargs)
                d = std::max(d, depth(nl, o));
            break;
          case Net::Kind::Rom:
            d = depth(nl, n.a) +
                log2ceil(static_cast<int>(n.rom->size())) * 0.9;
            break;
        }

        _visiting[i] = 0;
        _depth_done[i] = 1;
        _depth[i] = d;
        return d;
    }

    SynthReport _report;
    int64_t _comb_units = 0;   // counted logic, in 1/kAreaUnitsPerUm2
    std::vector<uint64_t> _hash;
    std::vector<uint8_t> _hash_done;
    std::vector<double> _depth;
    std::vector<uint8_t> _depth_done;
    std::vector<uint8_t> _visiting;
    std::set<uint64_t> _counted;
};

} // namespace

double
SynthReport::fmaxMhz() const
{
    double ps = std::max(crit_path_ps, kClockOverheadPs + 10.0);
    return 1e6 / ps;
}

double
SynthReport::powerMw(double freq_mhz, double toggles_per_cycle) const
{
    double dyn = toggles_per_cycle * kDynPjPerToggle * freq_mhz * 1e-3;
    double leak = areaUm2() * kLeakMwPerUm2;
    // Clock tree power scales with sequential area and frequency.
    double clk = seq_area_um2 * 2.4e-7 * freq_mhz;
    return dyn * 1e3 + leak + clk;
}

std::string
SynthReport::str() const
{
    return strfmt("area=%.0fum2 (comb=%.0f seq=%.0f) fmax=%.0fMHz",
                  areaUm2(), comb_area_um2, seq_area_um2, fmaxMhz());
}

SynthReport
synthesize(const rtl::Module &top)
{
    Analyzer a;
    return a.run(top);
}

} // namespace synth
} // namespace anvil
