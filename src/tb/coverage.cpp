#include "tb/coverage.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

#include "support/strings.h"

namespace anvil {
namespace tb {

namespace {

constexpr size_t kMaxFailCyclesKept = 16;

int
wordsFor(int width)
{
    return (width + 63) / 64;
}

int
coveredIn(const std::vector<uint64_t> &rose,
          const std::vector<uint64_t> &fell)
{
    int n = 0;
    for (size_t i = 0; i < rose.size(); i++)
        n += std::popcount(rose[i] & fell[i]);
    return n;
}

/** JSON string escaping for user-provided point names. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

/** Fold a value's words so wide registers bin on all their bits. */
uint64_t
foldWords(const anvil::BitVec &v)
{
    uint64_t h = v.toUint64();
    for (int w = 1; w < v.words(); w++)
        h ^= v.word(w);
    return h;
}

} // namespace

int
SignalCoverage::coveredBits() const
{
    return coveredIn(rose, fell);
}

int
RegBins::binsHit() const
{
    int n = 0;
    for (uint64_t h : hits)
        n += h > 0;
    return n;
}

int
CrossPoint::binsHit() const
{
    int n = 0;
    for (uint64_t h : bins)
        n += h > 0;
    return n;
}

Coverage::Coverage(int reg_bins)
    : _req_bins(std::max(reg_bins, 2))
{
}

Coverage::~Coverage() = default;

void
Coverage::addCover(const std::string &name, rtl::ExprPtr expr)
{
    _covers.push_back({name, std::move(expr), 0, false});
}

void
Coverage::cross(const std::string &name, const std::string &pointA,
                const std::string &pointB)
{
    auto indexOf = [this](const std::string &point) -> size_t {
        for (size_t i = 0; i < _covers.size(); i++)
            if (_covers[i].name == point)
                return i;
        throw std::invalid_argument("cross references unknown cover "
                                    "point '" + point + "'");
    };
    CrossPoint cp;
    cp.name = name;
    cp.a = indexOf(pointA);
    cp.b = indexOf(pointB);
    _crosses.push_back(std::move(cp));
}

void
Coverage::addAssert(const std::string &name, rtl::ExprPtr enable,
                    rtl::ExprPtr expr)
{
    _asserts.push_back(
        {name, std::move(enable), std::move(expr), 0, 0, {}});
}

void
Coverage::bind(rtl::Sim &sim)
{
    bindNetlist(sim.netlist());
}

void
Coverage::bindNetlist(const rtl::Netlist &nl)
{
    _net_slot.assign(nl.nets().size(), -1);
    for (const auto &[name, sig] : nl.signals()) {
        SignalCoverage sc;
        sc.name = name;
        sc.net = sig.net;
        sc.width = sig.width;
        sc.is_reg = sig.kind == rtl::NetSignal::Kind::Reg;
        sc.rose.assign(wordsFor(sig.width), 0);
        sc.fell.assign(wordsFor(sig.width), 0);
        sc.last.assign(wordsFor(sig.width), 0);
        // Lazy nets never appear on the change feed — they are
        // re-read every sample (value() keeps their fault
        // semantics) — and a net can carry only one feed slot.
        // Everything else is change-fed.
        if (nl.net(sig.net).lazy ||
            _net_slot[static_cast<size_t>(sig.net)] >= 0)
            _unfed_slots.push_back(_signals.size());
        else
            _net_slot[static_cast<size_t>(sig.net)] =
                static_cast<int32_t>(_signals.size());
        _signals.push_back(std::move(sc));

        if (sig.kind == rtl::NetSignal::Kind::Reg) {
            RegBins rb;
            rb.name = name;
            rb.width = sig.width;
            int bins = sig.width < 16
                ? std::min(1 << sig.width, _req_bins)
                : _req_bins;
            rb.hits.assign(static_cast<size_t>(bins), 0);
            _slot_reg.push_back(static_cast<int32_t>(_reg_bins.size()));
            _reg_bins.push_back(std::move(rb));
        } else {
            _slot_reg.push_back(-1);
        }
    }
    _bound = true;
}

void
Coverage::sampleSlot(rtl::Sim &sim, size_t slot)
{
    SignalCoverage &sc = _signals[slot];
    const BitVec &v = sim.value(sc.net);
    for (size_t w = 0; w < sc.rose.size(); w++) {
        uint64_t cur = v.word(static_cast<int>(w));
        if (_samples > 0) {
            sc.rose[w] |= cur & ~sc.last[w];
            sc.fell[w] |= ~cur & sc.last[w];
        }
        sc.last[w] = cur;
    }
    if (_slot_reg[slot] >= 0)
        binReg(static_cast<size_t>(_slot_reg[slot]), v);
}

void
Coverage::binReg(size_t reg, const BitVec &v)
{
    RegHold &h = _reg_hold[reg];
    RegBins &rb = _reg_bins[reg];
    if (h.bin >= 0)
        rb.hits[static_cast<size_t>(h.bin)] += _samples - h.since;
    h.bin = static_cast<int32_t>(foldWords(v) % rb.hits.size());
    h.since = _samples;
}

void
Coverage::settleRegBins() const
{
    for (size_t r = 0; r < _reg_hold.size(); r++) {
        RegHold &h = _reg_hold[r];
        if (h.bin < 0)
            continue;
        _reg_bins[r].hits[static_cast<size_t>(h.bin)] +=
            _samples - h.since;
        h.since = _samples;
    }
}

void
Coverage::onAttach(obs::ChangeFeed &feed)
{
    if (!_bound)
        bind(feed.sim());
    // Rebuild the slot tables on the feed: subscriptions are
    // deduplicated per net, so signals sharing a net chain off one
    // subscription instead of dropping to the every-visit list.
    _net_slot.assign(feed.sim().netlist().nets().size(), -1);
    _dup_next.assign(_signals.size(), -1);
    _slot_reg.resize(_signals.size(), -1);
    _reg_hold.resize(_reg_bins.size());
    _unfed_slots.clear();
    for (size_t i = 0; i < _signals.size(); i++) {
        SignalCoverage &sc = _signals[i];
        if (feed.subscribe(*this, sc.net)) {
            size_t ni = static_cast<size_t>(sc.net);
            _dup_next[i] = _net_slot[ni];
            _net_slot[ni] = static_cast<int32_t>(i);
        } else {
            // Lazy nets: re-read every visit, keeping value()'s
            // on-demand fault semantics.
            _unfed_slots.push_back(i);
        }
    }
}

void
Coverage::onPrime(rtl::Sim &sim, uint64_t cycle)
{
    (void)cycle;
    // Priming pass and rescan fallback: every signal is visited and
    // every register re-binned; sampleSlot's `_samples > 0` guard
    // makes the first visit a pure baseline capture with no edges
    // recorded.
    for (size_t slot = 0; slot < _signals.size(); slot++)
        sampleSlot(sim, slot);
    sampleTail(sim);
}

void
Coverage::onCycle(rtl::Sim &sim, uint64_t cycle,
                  const std::vector<rtl::NetId> &changed)
{
    (void)cycle;
    // A signal absent from the changed subset has the same value as
    // at the previous visit: it cannot contribute a new edge, and a
    // register among them stays in its open bin hold.
    for (rtl::NetId id : changed)
        for (int32_t slot = _net_slot[static_cast<size_t>(id)];
             slot >= 0; slot = _dup_next[static_cast<size_t>(slot)])
            sampleSlot(sim, static_cast<size_t>(slot));
    for (size_t slot : _unfed_slots)
        sampleSlot(sim, slot);
    sampleTail(sim);
}

void
Coverage::sample(rtl::Sim &sim)
{
    if (!_own_feed) {
        if (feed())
            throw std::logic_error(
                "Coverage::sample(): attached to an external "
                "ChangeFeed; drive that feed instead");
        _own_feed = std::make_unique<obs::ChangeFeed>(sim);
        _own_feed->attach(*this);
    } else if (&_own_feed->sim() != &sim) {
        throw std::logic_error(
            "Coverage::sample(): called with a different Sim");
    }
    _own_feed->sample();
}

void
Coverage::sampleTail(rtl::Sim &sim)
{
    for (auto &c : _covers) {
        c.last = sim.evalTop(c.expr).any();
        if (c.last)
            c.hits++;
    }
    for (auto &x : _crosses) {
        int bin = (_covers[x.a].last ? 2 : 0) |
                  (_covers[x.b].last ? 1 : 0);
        x.bins[bin]++;
    }
    for (auto &a : _asserts) {
        if (!sim.evalTop(a.enable).any())
            continue;
        a.checked++;
        if (!sim.evalTop(a.expr).any()) {
            a.failures++;
            if (a.fail_cycles.size() < kMaxFailCyclesKept)
                a.fail_cycles.push_back(sim.cycle());
        }
    }
    _samples++;
}

void
Coverage::sampleNamed(
    const std::function<const BitVec *(const std::string &)> &value)
{
    for (auto &sc : _signals) {
        const BitVec *v = value(sc.name);
        if (!v)
            continue;
        for (size_t w = 0; w < sc.rose.size(); w++) {
            uint64_t cur = static_cast<int>(w) < v->words()
                ? v->word(static_cast<int>(w)) : 0;
            if (_samples > 0) {
                sc.rose[w] |= cur & ~sc.last[w];
                sc.fell[w] |= ~cur & sc.last[w];
            }
            sc.last[w] = cur;
        }
    }
    for (auto &rb : _reg_bins) {
        const BitVec *v = value(rb.name);
        if (!v)
            continue;
        rb.hits[static_cast<size_t>(foldWords(*v) %
                                    rb.hits.size())]++;
    }
    _samples++;
}

void
Coverage::mergeSignal(const std::string &name, int width,
                      bool is_reg,
                      const std::vector<uint64_t> &rose,
                      const std::vector<uint64_t> &fell)
{
    SignalCoverage *sc = nullptr;
    for (auto &s : _signals)
        if (s.name == name) {
            sc = &s;
            break;
        }
    if (!sc) {
        SignalCoverage fresh;
        fresh.name = name;
        fresh.width = width;
        fresh.is_reg = is_reg;
        fresh.rose.assign(wordsFor(width), 0);
        fresh.fell.assign(wordsFor(width), 0);
        fresh.last.assign(wordsFor(width), 0);
        _signals.push_back(std::move(fresh));
        sc = &_signals.back();
    } else if (sc->width != width) {
        throw std::invalid_argument(
            "coverage merge: signal '" + name + "' width " +
            std::to_string(width) + " vs " +
            std::to_string(sc->width));
    }
    for (size_t w = 0; w < sc->rose.size() && w < rose.size(); w++)
        sc->rose[w] |= rose[w];
    for (size_t w = 0; w < sc->fell.size() && w < fell.size(); w++)
        sc->fell[w] |= fell[w];
}

void
Coverage::mergeRegBins(const std::string &name, int width,
                       const std::vector<uint64_t> &hits)
{
    RegBins *rb = nullptr;
    for (auto &b : _reg_bins)
        if (b.name == name) {
            rb = &b;
            break;
        }
    if (!rb) {
        RegBins fresh;
        fresh.name = name;
        fresh.width = width;
        _reg_bins.push_back(std::move(fresh));
        rb = &_reg_bins.back();
    }
    if (rb->hits.size() < hits.size())
        rb->hits.resize(hits.size(), 0);
    for (size_t i = 0; i < hits.size(); i++)
        rb->hits[i] += hits[i];
}

void
Coverage::mergeCover(const std::string &name, uint64_t hits)
{
    for (auto &c : _covers)
        if (c.name == name) {
            c.hits += hits;
            return;
        }
    _covers.push_back({name, nullptr, hits, false});
}

void
Coverage::mergeCross(const std::string &name, const std::string &a,
                     const std::string &b, const uint64_t bins[4])
{
    for (auto &x : _crosses)
        if (x.name == name) {
            for (int i = 0; i < 4; i++)
                x.bins[i] += bins[i];
            return;
        }
    auto indexOf = [this](const std::string &point) -> size_t {
        for (size_t i = 0; i < _covers.size(); i++)
            if (_covers[i].name == point)
                return i;
        _covers.push_back({point, nullptr, 0, false});
        return _covers.size() - 1;
    };
    CrossPoint cp;
    cp.name = name;
    cp.a = indexOf(a);
    cp.b = indexOf(b);
    for (int i = 0; i < 4; i++)
        cp.bins[i] = bins[i];
    _crosses.push_back(std::move(cp));
}

void
Coverage::mergeAssert(const std::string &name, uint64_t checked,
                      uint64_t failures,
                      const std::vector<uint64_t> &fail_cycles)
{
    AssertPoint *ap = nullptr;
    for (auto &p : _asserts)
        if (p.name == name) {
            ap = &p;
            break;
        }
    if (!ap) {
        _asserts.push_back({name, nullptr, nullptr, 0, 0, {}});
        ap = &_asserts.back();
    }
    ap->checked += checked;
    ap->failures += failures;
    ap->fail_cycles.insert(ap->fail_cycles.end(),
                           fail_cycles.begin(), fail_cycles.end());
    // Keep the earliest failing cycles, matching the live cap: the
    // sorted-then-truncated union is independent of merge order.
    std::sort(ap->fail_cycles.begin(), ap->fail_cycles.end());
    if (ap->fail_cycles.size() > kMaxFailCyclesKept)
        ap->fail_cycles.resize(kMaxFailCyclesKept);
}

double
Coverage::togglePct() const
{
    int64_t total = 0, covered = 0;
    for (const auto &sc : _signals) {
        total += sc.width;
        covered += sc.coveredBits();
    }
    return total == 0 ? 100.0 : 100.0 * covered / total;
}

double
Coverage::regBinPct() const
{
    settleRegBins();
    int64_t total = 0, hit = 0;
    for (const auto &rb : _reg_bins) {
        total += static_cast<int64_t>(rb.hits.size());
        hit += rb.binsHit();
    }
    return total == 0 ? 100.0 : 100.0 * hit / total;
}

bool
Coverage::assertsOk() const
{
    for (const auto &a : _asserts)
        if (a.failures > 0)
            return false;
    return true;
}

std::string
Coverage::report() const
{
    settleRegBins();
    std::ostringstream os;
    os << strfmt("coverage: %llu samples, toggle %.1f%%, "
                 "reg-bins %.1f%%\n",
                 static_cast<unsigned long long>(_samples),
                 togglePct(), regBinPct());

    // Least-covered signals first so the gaps lead the report.
    std::vector<const SignalCoverage *> by_gap;
    for (const auto &sc : _signals)
        by_gap.push_back(&sc);
    std::sort(by_gap.begin(), by_gap.end(),
              [](const SignalCoverage *a, const SignalCoverage *b) {
                  double ga = static_cast<double>(a->coveredBits()) /
                      a->width;
                  double gb = static_cast<double>(b->coveredBits()) /
                      b->width;
                  if (ga != gb)
                      return ga < gb;
                  return a->name < b->name;
              });
    os << "  toggle (least covered first):\n";
    size_t shown = 0;
    for (const auto *sc : by_gap) {
        if (shown++ >= 12) {
            os << strfmt("    ... %zu more signals\n",
                         by_gap.size() - 12);
            break;
        }
        os << strfmt("    %-32s %3d/%3d bits\n", sc->name.c_str(),
                     sc->coveredBits(), sc->width);
    }

    if (!_reg_bins.empty()) {
        os << "  register value bins:\n";
        for (const auto &rb : _reg_bins)
            os << strfmt("    %-32s %2d/%2zu bins\n", rb.name.c_str(),
                         rb.binsHit(), rb.hits.size());
    }
    for (const auto &c : _covers)
        os << strfmt("  cover  %-24s hits=%llu\n", c.name.c_str(),
                     static_cast<unsigned long long>(c.hits));
    for (const auto &x : _crosses) {
        os << strfmt("  cross  %-24s %d/4 bins (%s x %s:",
                     x.name.c_str(), x.binsHit(),
                     _covers[x.a].name.c_str(),
                     _covers[x.b].name.c_str());
        for (int b = 0; b < 4; b++)
            os << strfmt(" %d%d=%llu", b >> 1, b & 1,
                         static_cast<unsigned long long>(x.bins[b]));
        os << ")\n";
    }
    for (const auto &a : _asserts) {
        os << strfmt("  assert %-24s checked=%llu failures=%llu",
                     a.name.c_str(),
                     static_cast<unsigned long long>(a.checked),
                     static_cast<unsigned long long>(a.failures));
        if (!a.fail_cycles.empty()) {
            os << " (cycles";
            for (uint64_t c : a.fail_cycles)
                os << " " << c;
            os << ")";
        }
        os << "\n";
    }
    return os.str();
}

std::string
Coverage::summaryJson() const
{
    settleRegBins();
    int64_t bits_total = 0, bits_covered = 0;
    for (const auto &sc : _signals) {
        bits_total += sc.width;
        bits_covered += sc.coveredBits();
    }
    int64_t bins_total = 0, bins_hit = 0;
    for (const auto &rb : _reg_bins) {
        bins_total += static_cast<int64_t>(rb.hits.size());
        bins_hit += rb.binsHit();
    }

    std::ostringstream os;
    os << "{\"samples\":" << _samples
       << ",\"toggle_bits\":" << bits_covered
       << ",\"toggle_total\":" << bits_total
       << ",\"toggle_pct\":" << strfmt("%.2f", togglePct())
       << ",\"reg_bins_hit\":" << bins_hit
       << ",\"reg_bins_total\":" << bins_total
       << ",\"covers\":[";
    for (size_t i = 0; i < _covers.size(); i++) {
        if (i)
            os << ",";
        os << "{\"name\":\"" << jsonEscape(_covers[i].name)
           << "\",\"hits\":" << _covers[i].hits << "}";
    }
    os << "],\"crosses\":[";
    for (size_t i = 0; i < _crosses.size(); i++) {
        const CrossPoint &x = _crosses[i];
        if (i)
            os << ",";
        os << "{\"name\":\"" << jsonEscape(x.name)
           << "\",\"bins_hit\":" << x.binsHit() << ",\"bins\":[";
        for (int b = 0; b < 4; b++)
            os << (b ? "," : "") << x.bins[b];
        os << "]}";
    }
    os << "],\"asserts\":[";
    for (size_t i = 0; i < _asserts.size(); i++) {
        if (i)
            os << ",";
        os << "{\"name\":\"" << jsonEscape(_asserts[i].name)
           << "\",\"checked\":" << _asserts[i].checked
           << ",\"failures\":" << _asserts[i].failures << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace tb
} // namespace anvil
