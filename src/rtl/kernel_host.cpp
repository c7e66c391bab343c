#include "rtl/kernel_host.h"

#include <algorithm>

namespace anvil {
namespace rtl {

namespace {

/** Bit-parallel popcount: without a popcnt target, the builtin is a
 *  call into libgcc, and the edge counts a few words every cycle. */
inline uint64_t
pop64(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (x * 0x0101010101010101ull) >> 56;
}

/** Bits in which the n words at d differ from those at s, which then
 *  replace them.  Without Wide every n is 1. */
template <bool Wide>
inline uint64_t
flipTo(uint64_t *d, const uint64_t *s, uint32_t n)
{
    uint64_t f = 0;
    for (uint32_t k = 0; k < (Wide ? n : 1); k++) {
        uint64_t x = d[k] ^ s[k];
        if (x) {
            f += pop64(x);
            d[k] = s[k];
        }
    }
    return f;
}

} // namespace

bool
KernelLayout::fits(const AnvilKernel &unit) const
{
    return unit.net_count == net_count &&
        unit.state_words == state_words && unit.level_count == levels() &&
        (levels() == 0 || (unit.dense && unit.sparse));
}

KernelLayout
kernelLayout(const Netlist &nl)
{
    KernelLayout L;
    const auto &nets = nl.nets();
    L.net_count = nets.size();
    L.off.resize(nets.size());
    uint64_t words = 0;
    for (size_t i = 0; i < nets.size(); i++) {
        L.off[i] = static_cast<uint32_t>(words);
        words += kernelWords(nets[i].width);
    }
    L.state_words = words ? words : 1;

    // Levels and dense within-level slots: the occupancy bitmaps carry
    // slots, so a level's sparse drain dispatches through a contiguous
    // 0..n-1 jump table however net ids are scattered.
    const auto &order = nl.order();
    const auto &lb = nl.levelBegin();
    size_t levels = nl.levelCount();
    L.strict_nodes = order.size();
    L.level_size.resize(levels);
    L.bm_off.assign(levels + 1, 0);
    std::vector<AnvilConsumer> slot(nets.size());
    uint32_t bm = 0;
    for (size_t l = 0; l < levels; l++) {
        size_t b = static_cast<size_t>(lb[l]);
        size_t e = static_cast<size_t>(lb[l + 1]);
        L.level_size[l] = static_cast<uint32_t>(e - b);
        L.bm_off[l] = bm;
        for (size_t i = b; i < e; i++) {
            uint32_t k = static_cast<uint32_t>(i - b);
            slot[static_cast<size_t>(order[i])] = {
                bm + (k >> 6), k & 63, static_cast<uint32_t>(l)};
        }
        bm += static_cast<uint32_t>((e - b + 63) / 64);
    }
    L.bm_off[levels] = bm;

    // Consumer CSR: the netlist's fan-out CSR, which lists a strict
    // node once per read and a node's reads of one net side by side,
    // with the repeats dropped; constants are never poked.
    const auto &fb = nl.fanoutBegin();
    const auto &fo = nl.fanout();
    L.cons_begin.reserve(nets.size() + 1);
    L.cons_begin.push_back(0);
    for (size_t i = 0; i < nets.size(); i++) {
        for (int32_t k = fb[i]; k < fb[i + 1]; k++) {
            NetId c = fo[static_cast<size_t>(k)];
            bool repeat = k > fb[i] && fo[static_cast<size_t>(k - 1)] == c;
            if (nets[i].kind != Net::Kind::Const && !repeat)
                L.cons.push_back(slot[static_cast<size_t>(c)]);
        }
        L.cons_begin.push_back(static_cast<uint32_t>(L.cons.size()));
    }

    // The clock edge: toggle-counted wires and their shadow words,
    // registers and their staging words, updates in declaration order.
    L.wire_of.assign(nets.size(), -1);
    for (NetId w : nl.wireNets()) {
        uint32_t n = kernelWords(nl.net(w).width);
        L.wire_of[static_cast<size_t>(w)] =
            static_cast<int32_t>(L.wires.size());
        L.wires.push_back({L.off[static_cast<size_t>(w)],
                           static_cast<uint32_t>(L.shadow_words), n});
        L.shadow_words += n;
    }
    for (NetId r : nl.regs()) {
        int width = nl.net(r).width;
        uint32_t n = kernelWords(width);
        int top = width % 64 ? width % 64 : 64;
        L.regs.push_back({r, L.off[static_cast<size_t>(r)], n,
                          static_cast<uint32_t>(L.next_words),
                          width <= 0 ? 0
                                     : top == 64 ? ~0ull
                                                 : (1ull << top) - 1});
        L.next_words += n;
    }
    // Updates, and which of them each net enables (a counting sort,
    // so every enable's rows stay in declaration order).
    L.en_begin.assign(nets.size() + 1, 0);
    std::vector<NetId> enable;
    for (const NetUpdate &u : nl.updates()) {
        if (u.reg_index < 0)
            continue;
        L.updates.push_back({L.off[static_cast<size_t>(u.enable)],
                             kernelWords(nl.net(u.enable).width),
                             L.off[static_cast<size_t>(u.value)],
                             kernelWords(nl.net(u.value).width),
                             static_cast<uint32_t>(u.reg_index)});
        enable.push_back(u.enable);
        L.en_begin[static_cast<size_t>(u.enable) + 1]++;
    }
    for (size_t i = 1; i < L.en_begin.size(); i++)
        L.en_begin[i] += L.en_begin[i - 1];
    L.en_updates.resize(L.updates.size());
    std::vector<uint32_t> fill(L.en_begin.begin(), L.en_begin.end() - 1);
    for (size_t u = 0; u < L.updates.size(); u++)
        L.en_updates[fill[static_cast<size_t>(enable[u])]++] =
            static_cast<uint32_t>(u);
    L.wide_edge = L.shadow_words > L.wires.size() ||
        L.next_words > L.regs.size();
    for (const KernelLayout::Update &u : L.updates)
        L.wide_edge |= u.en_words > 1 || u.val_words > 1;
    return L;
}

KernelHost::KernelHost(const AnvilKernel &unit,
                       std::shared_ptr<const KernelLayout> layout)
    : _layout(std::move(layout))
{
    const KernelLayout &L = *_layout;
    _state.assign(L.state_words, 0);
    _bitmap.assign(L.bm_off.back(), 0);
    _queued.assign(L.levels(), 0);
    for (size_t l = 0; l < L.levels(); l++)
        _turns.push_back({unit.dense[l], unit.sparse[l], 0,
                          unit.sparse[l] ? L.level_size[l] : 0,
                          L.bm_off[l], L.bm_off[l + 1]});
    s = _state.data();
    wbm = _bitmap.data();
    queued = _queued.data();
    cons_begin = L.cons_begin.data();
    cons = L.cons.data();
    out = nullptr;
    nout = 0;
    dense = 0;
}

/* Set the consumers' slot bits, as the unit's change hook does.  The
 * bitmap dedupes by construction (setting a set bit is a no-op);
 * `queued` only over-counts repeat pokes, and is read as "level
 * non-empty" plus the escalation rule, where an over-count is
 * harmless. */
void
KernelHost::poke(NetId net)
{
    size_t i = static_cast<size_t>(net);
    for (uint32_t k = cons_begin[i]; k < cons_begin[i + 1]; k++) {
        const AnvilConsumer &c = cons[k];
        wbm[c.word] |= 1ull << c.bit;
        queued[c.level]++;
    }
}

uint64_t
KernelHost::eval(int32_t *changed_out, uint64_t *n_changed, bool full)
{
    out = changed_out;
    nout = 0;
    dense = full || _prefer_dense;
    uint64_t ev = 0;
    if (dense) {
        for (Turn &t : _turns) {
            if (t.dense) {
                uint64_t e = t.dense(this);
                t.evals += e;
                ev += e;
            }
        }
        std::fill(_bitmap.begin(), _bitmap.end(), 0);
        std::fill(_queued.begin(), _queued.end(), 0);
        _dense_frames++;
    } else {
        // A level's queue is only fed from earlier levels and pokes,
        // so testing each level just before its turn is exact.  A
        // level escalates to its dense body when its queue covers
        // >= 1/kEscalateDiv of the level: at that density per-node
        // dispatch costs more than recomputing the stragglers, and
        // the compare-stores keep the changed list exact either way.
        uint32_t *q = queued;
        for (Turn *t = _turns.data(), *end = t + _turns.size(); t != end;
             t++, q++) {
            uint64_t wn = *q;
            if (!wn)
                continue;
            *q = 0;
            uint64_t e;
            if (wn * KernelLayout::kEscalateDiv < t->drain_below) {
                e = t->sparse(this);
            } else {
                // A queued level has nodes, so owns a word.  Not
                // std::fill: its memset call for one word cost ~6% of
                // a small design's eval.
                wbm[t->bm_begin] = 0;
                for (uint32_t k = t->bm_begin + 1; k < t->bm_end; k++)
                    wbm[k] = 0;
                e = t->dense(this);
            }
            t->evals += e;
            ev += e;
        }
    }
    _fallback_switches +=
        denseFallback(_prefer_dense, nout, _layout->strict_nodes);
    *n_changed = nout;
    return ev;
}

std::vector<uint64_t>
KernelHost::levelEvals() const
{
    std::vector<uint64_t> ev;
    ev.reserve(_turns.size());
    for (const Turn &t : _turns)
        ev.push_back(t.evals);
    return ev;
}

ClockEdge::ClockEdge(std::shared_ptr<const KernelLayout> layout)
    : _layout(std::move(layout))
{
    const KernelLayout &L = *_layout;
    _shadow.assign(L.shadow_words, 0);
    _next.assign(L.next_words, 0);
    _staged.assign((L.regs.size() + 63) / 64, 0);
    _armed.assign((L.updates.size() + 63) / 64, 0);
}

uint64_t
ClockEdge::sample(const uint64_t *s, const int32_t *changed,
                  uint64_t n_changed)
{
    return _layout->wide_edge ? sampleWords<true>(s, changed, n_changed)
                              : sampleWords<false>(s, changed, n_changed);
}

uint64_t
ClockEdge::commit(uint64_t *s, int32_t *regs, uint64_t *n_regs)
{
    return _layout->wide_edge ? commitWords<true>(s, regs, n_regs)
                              : commitWords<false>(s, regs, n_regs);
}

/** Arm or disarm an update from its enable's words. */
template <bool Wide>
void
ClockEdge::arm(const uint64_t *s, uint32_t update)
{
    const KernelLayout::Update &u = _layout->updates[update];
    uint64_t en = s[u.en_off];
    for (uint32_t k = 1; Wide && k < u.en_words; k++)
        en |= s[u.en_off + k];
    uint64_t bit = 1ull << (update & 63);
    if (en)
        _armed[update >> 6] |= bit;
    else
        _armed[update >> 6] &= ~bit;
}

/* Without Wide, every wire, enable, value and register is one word and
 * the per-word loops fold away. */
template <bool Wide>
uint64_t
ClockEdge::sampleWords(const uint64_t *s, const int32_t *changed,
                       uint64_t n_changed)
{
    const KernelLayout &L = *_layout;
    if (!_primed) {
        _primed = true;
        for (const KernelLayout::Wire &w : L.wires)
            std::copy_n(s + w.off, w.words, _shadow.data() + w.shadow);
        for (uint32_t u = 0; u < L.updates.size(); u++)
            arm<Wide>(s, u);
        return 0;
    }
    // A net absent from the changed list kept its value: its wire
    // toggles nothing and its updates keep their armed state.
    uint64_t tog = 0;
    for (uint64_t i = 0; i < n_changed; i++) {
        size_t id = static_cast<uint32_t>(changed[i]);
        if (id >= L.net_count)
            continue;
        if (L.wire_of[id] >= 0) {
            const KernelLayout::Wire &w =
                L.wires[static_cast<size_t>(L.wire_of[id])];
            tog += flipTo<Wide>(_shadow.data() + w.shadow, s + w.off,
                                w.words);
        }
        for (uint32_t k = L.en_begin[id]; k < L.en_begin[id + 1]; k++)
            arm<Wide>(s, L.en_updates[k]);
    }
    return tog;
}

template <bool Wide>
uint64_t
ClockEdge::commitWords(uint64_t *s, int32_t *regs, uint64_t *n_regs)
{
    const KernelLayout &L = *_layout;
    // Stage the armed updates in declaration order: the last one to a
    // register wins.
    for (size_t wi = 0; wi < _armed.size(); wi++) {
        for (uint64_t w = _armed[wi]; w; w &= w - 1) {
            const KernelLayout::Update &u =
                L.updates[(wi << 6) + static_cast<size_t>(__builtin_ctzll(w))];
            const KernelLayout::Reg &g = L.regs[u.reg];
            uint64_t *nx = _next.data() + g.next;
            nx[0] = s[u.val_off];
            for (uint32_t k = 1; Wide && k < g.words; k++)
                nx[k] = k < u.val_words ? s[u.val_off + k] : 0;
            nx[g.words - 1] &= g.top;
            _staged[u.reg >> 6] |= 1ull << (u.reg & 63);
        }
    }
    // Commit the staged registers in ascending order; only those that
    // moved count flips.
    uint64_t flips = 0, n = 0;
    for (size_t wi = 0; wi < _staged.size(); wi++) {
        uint64_t w = _staged[wi];
        _staged[wi] = 0;
        for (; w; w &= w - 1) {
            const KernelLayout::Reg &g =
                L.regs[(wi << 6) + static_cast<size_t>(__builtin_ctzll(w))];
            uint64_t f =
                flipTo<Wide>(s + g.off, _next.data() + g.next, g.words);
            if (f) {
                flips += f;
                regs[n++] = g.net;
            }
        }
    }
    *n_regs = n;
    return flips;
}

} // namespace rtl
} // namespace anvil
