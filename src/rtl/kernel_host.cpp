#include "rtl/kernel_host.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>

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

/** The opcode of each rtl::Op, in its declaration order. */
constexpr uint8_t kOpOf[] = {XNot, XRedOr, XRedAnd, XAnd, XOr, XXor,
                             XAdd, XSub,   XMul,    XEq,  XNe, XLt,
                             XLe,  XLt,    XLe,     XShl, XShr};
static_assert(static_cast<size_t>(Op::Shr) + 1 == std::size(kOpOf));

/** ROM tables already in KernelLayout::rom, per (contents, width). */
using RomTables = std::map<std::pair<const void *, int>, uint32_t>;

/**
 * Lower net `id`, which computes, to a record at the end of L.nodes,
 * with its side tables.  Operands are read from their state words,
 * constants included.
 */
void
lowerNode(const Netlist &nl, KernelLayout &L, NetId id, RomTables &roms)
{
    const auto &nets = nl.nets();
    auto off = [&](NetId o) {
        return o == kNoNet ? 0u : L.off[static_cast<size_t>(o)];
    };
    auto bits = [&](NetId o) {
        return o == kNoNet ? 0u
                           : static_cast<uint32_t>(std::max(
                                 nets[static_cast<size_t>(o)].width, 0));
    };
    // ROM tables, one per (contents, width), which units print too.
    auto romTable = [&](const Net &n) {
        auto key = std::make_pair(static_cast<const void *>(n.rom.get()),
                                  n.width);
        auto [it, fresh] =
            roms.emplace(key, static_cast<uint32_t>(L.rom.size()));
        for (const BitVec &e : *n.rom)
            for (uint32_t w = 0; fresh && w < kernelWords(n.width); w++)
                L.rom.push_back(e.resize(n.width).word(static_cast<int>(w)));
        return it->second;
    };

    const Net &n = nets[static_cast<size_t>(id)];
    NetId a = n.a, b = n.b;
    uint8_t op = XCopy;
    switch (n.kind) {
      case Net::Kind::Unop:
      case Net::Kind::Binop:
        op = kOpOf[static_cast<size_t>(n.op)];
        if (n.op == Op::Gt || n.op == Op::Ge)
            std::swap(a, b);
        break;
      case Net::Kind::Mux: op = XMux; break;
      case Net::Kind::Slice: op = XSlice; break;
      case Net::Kind::Concat: op = XCat; break;
      case Net::Kind::Rom: op = XRom; break;
      default: break;
    }
    KernelLayout::Node r{op, id, off(id), off(a), off(b), off(n.c), n.mask};
    // Concat parts from the low end, while they reach the node's
    // words; ROM entries at the node's width.
    uint64_t reach = n.fast ? 64 : kernelWords(n.width) * 64ull;
    if (op == XCat) {
        r.b = static_cast<uint32_t>(L.parts.size());
        uint64_t sh = 0;
        for (auto it = n.cargs.rbegin();
             it != n.cargs.rend() && sh < reach; sh += bits(*it), ++it)
            if (bits(*it))
                L.parts.push_back({off(*it), bits(*it),
                                   static_cast<uint32_t>(sh)});
        r.c = static_cast<uint32_t>(L.parts.size());
    } else if (op == XRom) {
        r.b = romTable(n);
        r.c = static_cast<uint32_t>(n.rom->size());
    }
    if (n.width <= 0) {
        r.op = XNop;
    } else if (n.fast) {
        if (op == XRedAnd)
            r.k = nets[static_cast<size_t>(n.a)].mask;
        if (op == XShl || op == XShr)
            r.c = static_cast<uint32_t>(n.width);
        if (op == XSlice) {
            bool right = n.lo >= 0 && n.lo < 64;
            bool left = n.lo < 0 && n.lo > -64;
            r.op = right ? XShrImm : left ? XShlImm : XZero;
            r.b = right ? static_cast<uint32_t>(n.lo)
                : left  ? static_cast<uint32_t>(-n.lo)
                        : 0;
        }
    } else {
        r.op = static_cast<uint8_t>(op + kWide);
        r.k = L.wide.size();
        L.wide.push_back({static_cast<uint32_t>(n.width), bits(a), bits(b),
                          bits(n.c), n.lo});
        L.max_words = std::max(L.max_words, kernelWords(n.width));
    }
    L.node_of[static_cast<size_t>(id)] = static_cast<int32_t>(L.nodes.size());
    L.nodes.push_back(r);
}

/** Queue net `id`'s consumers: their bits, and their levels' queued
 *  counts raised by as many. */
inline void
queueConsumers(const KernelLayout &L, int32_t id, uint64_t *wbm,
               uint32_t *queued)
{
    const KernelLayout::Mark *m = L.marks.data() + L.mark_begin[id];
    const KernelLayout::Mark *end = L.marks.data() + L.mark_begin[id + 1];
    for (; m != end; m++) {
        wbm[m->word] |= m->bits;
        queued[m->level] += static_cast<uint32_t>(pop64(m->bits));
    }
}

/** A narrow record of opcode Op: its state operands' words, or the
 *  immediates stateArgs leaves, through narrowOp. */
template <int Op>
inline bool
stepNarrow(uint64_t *s, const KernelLayout::Node &n)
{
    constexpr uint32_t st = stateArgs(Op);
    return putWord(s + n.dst,
                   narrowOp<Op>(st & 1 ? s[n.a] : n.a, st & 2 ? s[n.b] : n.b,
                                st & 4 ? s[n.c] : n.c, n.k));
}

/** A wide record: its words computed into t, then stored over its
 *  state words.  Returns whether they moved. */
__attribute__((noinline)) bool
stepWide(uint64_t *s, const KernelLayout::Node &n, const KernelLayout &L,
         uint64_t *t)
{
    const XWide &x = L.wide[n.k];
    const XPart *parts = L.parts.data();
    switch (n.op - kWide) {
      case XCopy: wideOp<XCopy>(t, s, n.a, n.b, n.c, x); break;
      case XNot: wideOp<XNot>(t, s, n.a, n.b, n.c, x); break;
      case XRedOr: wideOp<XRedOr>(t, s, n.a, n.b, n.c, x); break;
      case XRedAnd: wideOp<XRedAnd>(t, s, n.a, n.b, n.c, x); break;
      case XAnd: wideOp<XAnd>(t, s, n.a, n.b, n.c, x); break;
      case XOr: wideOp<XOr>(t, s, n.a, n.b, n.c, x); break;
      case XXor: wideOp<XXor>(t, s, n.a, n.b, n.c, x); break;
      case XAdd: wideOp<XAdd>(t, s, n.a, n.b, n.c, x); break;
      case XSub: wideOp<XSub>(t, s, n.a, n.b, n.c, x); break;
      case XMul: wideOp<XMul>(t, s, n.a, n.b, n.c, x); break;
      case XEq: wideOp<XEq>(t, s, n.a, n.b, n.c, x); break;
      case XNe: wideOp<XNe>(t, s, n.a, n.b, n.c, x); break;
      case XLt: wideOp<XLt>(t, s, n.a, n.b, n.c, x); break;
      case XLe: wideOp<XLe>(t, s, n.a, n.b, n.c, x); break;
      case XShl: wideOp<XShl>(t, s, n.a, n.b, n.c, x); break;
      case XShr: wideOp<XShr>(t, s, n.a, n.b, n.c, x); break;
      case XMux: wideOp<XMux>(t, s, n.a, n.b, n.c, x); break;
      case XSlice: wideOp<XSlice>(t, s, n.a, n.b, n.c, x); break;
      case XCat: wideCat(t, s, parts + n.b, parts + n.c, x); break;
      default: wideRom(t, s + n.a, L.rom.data() + n.b, n.c, x); break;
    }
    return putWords(s + n.dst, t, kernelWords(x.bits));
}

/** One record: computes it and, when its words moved, stores them.
 *  Returns whether they moved. */
inline bool
stepNode(uint64_t *s, const KernelLayout::Node &n, const KernelLayout &L,
         uint64_t *tmp)
{
    switch (n.op) {
      case XNop: return false;
      case XZero: return stepNarrow<XZero>(s, n);
      case XCopy: return stepNarrow<XCopy>(s, n);
      case XNot: return stepNarrow<XNot>(s, n);
      case XRedOr: return stepNarrow<XRedOr>(s, n);
      case XRedAnd: return stepNarrow<XRedAnd>(s, n);
      case XAnd: return stepNarrow<XAnd>(s, n);
      case XOr: return stepNarrow<XOr>(s, n);
      case XXor: return stepNarrow<XXor>(s, n);
      case XAdd: return stepNarrow<XAdd>(s, n);
      case XSub: return stepNarrow<XSub>(s, n);
      case XMul: return stepNarrow<XMul>(s, n);
      case XEq: return stepNarrow<XEq>(s, n);
      case XNe: return stepNarrow<XNe>(s, n);
      case XLt: return stepNarrow<XLt>(s, n);
      case XLe: return stepNarrow<XLe>(s, n);
      case XShl: return stepNarrow<XShl>(s, n);
      case XShr: return stepNarrow<XShr>(s, n);
      case XMux: return stepNarrow<XMux>(s, n);
      case XShrImm: return stepNarrow<XShrImm>(s, n);
      case XShlImm: return stepNarrow<XShlImm>(s, n);
      case XCat:
        return putWord(s + n.dst, narrowCat(s, L.parts.data() + n.b,
                                            L.parts.data() + n.c, n.k));
      case XRom:
        return putWord(s + n.dst,
                       narrowRom(s[n.a], L.rom.data() + n.b, n.c));
      default:   // the wide lane
        return stepWide(s, n, L, tmp);
    }
}

} // namespace

bool
execNode(const KernelLayout &L, const KernelLayout::Node &n, uint64_t *s,
         uint64_t *tmp)
{
    return stepNode(s, n, L, tmp);
}

bool
KernelLayout::fits(const AnvilKernel &unit) const
{
    return unit.net_count == net_count &&
        unit.state_words == state_words && unit.level_count == levels() &&
        (levels() == 0 || unit.dense);
}

KernelLayout
kernelLayout(const Netlist &nl)
{
    KernelLayout L;
    const auto &nets = nl.nets();
    L.net_count = nets.size();
    L.off.resize(nets.size());
    L.width.resize(nets.size());
    uint64_t words = 0;
    for (size_t i = 0; i < nets.size(); i++) {
        L.off[i] = static_cast<uint32_t>(words);
        L.width[i] = nets[i].width;
        words += kernelWords(nets[i].width);
    }
    L.state_words = words ? words : 1;

    // Levels and dense within-level slots: the occupancy bitmaps carry
    // slots, so a level's k-th node is its k-th record however net ids
    // are scattered.
    const auto &order = nl.order();
    const auto &lb = nl.levelBegin();
    size_t levels = nl.levelCount();
    L.strict_nodes = order.size();
    L.level_size.resize(levels);
    L.bm_off.assign(levels + 1, 0);
    struct Slot
    {
        uint32_t word, bit, level;
    };
    std::vector<Slot> slot(nets.size());
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

    // Consumer marks from the netlist's fan-out CSR, which lists a
    // strict node once per read and a node's reads of one net side by
    // side (the repeats are dropped); constants are never poked.
    const auto &fb = nl.fanoutBegin();
    const auto &fo = nl.fanout();
    L.mark_begin.reserve(nets.size() + 1);
    L.mark_begin.push_back(0);
    std::vector<Slot> mine;
    for (size_t i = 0; i < nets.size(); i++) {
        mine.clear();
        for (int32_t k = fb[i]; k < fb[i + 1]; k++) {
            NetId c = fo[static_cast<size_t>(k)];
            bool repeat = k > fb[i] && fo[static_cast<size_t>(k - 1)] == c;
            if (nets[i].kind != Net::Kind::Const && !repeat)
                mine.push_back(slot[static_cast<size_t>(c)]);
        }
        std::sort(mine.begin(), mine.end(), [](const Slot &x, const Slot &y) {
            return x.word < y.word;
        });
        for (size_t k = 0; k < mine.size(); k++) {
            if (k == 0 || mine[k].word != mine[k - 1].word)
                L.marks.push_back({0, mine[k].word, mine[k].level});
            L.marks.back().bits |= 1ull << mine[k].bit;
        }
        L.mark_begin.push_back(static_cast<uint32_t>(L.marks.size()));
    }

    // The clock edge: toggle-counted wires and their shadow words,
    // registers and their staging words, updates in declaration order.
    // Several wires may name one net (renames share their driver's).
    L.wire_of.assign(nets.size(), -1);
    for (NetId w : nl.wireNets()) {
        int32_t &row = L.wire_of[static_cast<size_t>(w)];
        if (row >= 0) {
            L.wires[static_cast<size_t>(row)].names++;
            continue;
        }
        uint32_t n = kernelWords(nl.net(w).width);
        row = static_cast<int32_t>(L.wires.size());
        L.wires.push_back({L.off[static_cast<size_t>(w)],
                           static_cast<uint32_t>(L.shadow_words), n, 1});
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

    // Records: the strict nodes level by level, then the lazy ones.
    L.node_of.assign(nets.size(), -1);
    L.nodes.reserve(order.size() +
                    static_cast<size_t>(std::count_if(
                        nets.begin(), nets.end(), [](const Net &n) {
                            return n.lazy && n.computes();
                        })));
    RomTables roms;
    for (NetId id : order)
        lowerNode(nl, L, id, roms);
    for (size_t i = 0; i < nets.size(); i++)
        if (nets[i].lazy && nets[i].computes())
            lowerNode(nl, L, static_cast<NetId>(i), roms);
    return L;
}

void
extendLayout(const Netlist &nl, KernelLayout &L)
{
    RomTables roms;   // an appended ROM read gets a table of its own
    for (size_t i = L.off.size(); i < nl.nets().size(); i++) {
        const Net &n = nl.nets()[i];
        L.off.push_back(static_cast<uint32_t>(L.contextWords()));
        L.width.push_back(n.width);
        L.node_of.push_back(-1);
        if (n.computes())
            lowerNode(nl, L, static_cast<NetId>(i), roms);
    }
}

KernelHost::KernelHost(std::shared_ptr<const KernelLayout> layout)
    : _layout(std::move(layout))
{
    const KernelLayout &L = *_layout;
    _state.assign(L.contextWords(), 0);
    _bitmap.assign(L.bm_off.back(), 0);
    _queued.assign(L.levels(), 0);
    _tmp.assign(L.max_words, 0);
    s = _state.data();
    out = nullptr;
    nout = 0;
    useExecutor();
}

/** The executor's turns: every level drains exactly, counting or not. */
void
KernelHost::useExecutor()
{
    const KernelLayout &L = *_layout;
    bool count = _counts != nullptr;
    _drain = count ? execSparse<true> : execSparse<false>;
    _turns.clear();
    uint32_t node = 0;
    for (size_t l = 0; l < L.levels(); l++) {
        bool any = L.level_size[l] != 0;
        _turns.push_back(
            {any ? (count ? execDense<true> : execDense<false>) : nullptr,
             0, std::numeric_limits<uint64_t>::max(), L.bm_off[l],
             L.bm_off[l + 1], node, L.level_size[l]});
        node += L.level_size[l];
    }
}

/* The unit's bodies run escalated and dense levels; the executor,
 * without counting, drains the rest. */
void
KernelHost::attach(const AnvilKernel &unit)
{
    const KernelLayout &L = *_layout;
    _drain = execSparse<false>;
    for (size_t l = 0; l < L.levels(); l++)
        _turns[l] = {unit.dense[l], 0, L.level_size[l], L.bm_off[l],
                     L.bm_off[l + 1], _turns[l].node_begin,
                     _turns[l].nodes};
    _unit = true;
    _prefer_dense = false;
    _dense_frames = 0;
    _fallback_switches = 0;
}

void
KernelHost::grow()
{
    const KernelLayout &L = *_layout;
    _state.resize(L.contextWords(), 0);
    _tmp.resize(L.max_words, 0);
    s = _state.data();
}

bool
KernelHost::exec(NetId net)
{
    const KernelLayout &L = *_layout;
    int32_t rec = L.node_of[static_cast<size_t>(net)];
    return stepNode(s, L.nodes[static_cast<size_t>(rec)], L, _tmp.data());
}

void
KernelHost::countEvals(uint64_t *counts)
{
    _counts = counts;
    if (!_unit)
        useExecutor();
}

/* Both keep the frame's fields in locals, so stores to state words
 * cannot force reloads.  A dense body only lists its changes (the walk
 * queues their consumers when the frame is sparse); a drain also
 * queues each change's consumers as it goes. */
template <bool Count>
uint64_t
KernelHost::execDense(AnvilFrame *f)
{
    KernelHost *h = static_cast<KernelHost *>(f);
    const KernelLayout &L = *h->_layout;
    const Turn &t = *h->_turn;
    uint64_t *s = h->s, *tmp = h->_tmp.data();
    int32_t *out = h->out;
    uint64_t nout = h->nout;
    const KernelLayout::Node *n = L.nodes.data() + t.node_begin;
    for (const KernelLayout::Node *end = n + t.nodes; n != end; n++) {
        if (Count)
            h->_counts[n->net]++;
        if (stepNode(s, *n, L, tmp))
            out[nout++] = n->net;
    }
    h->nout = nout;
    return t.nodes;
}

template <bool Count>
uint64_t
KernelHost::execSparse(AnvilFrame *f)
{
    KernelHost *h = static_cast<KernelHost *>(f);
    const KernelLayout &L = *h->_layout;
    const Turn &t = *h->_turn;
    uint64_t *s = h->s, *wbm = h->_bitmap.data(), *tmp = h->_tmp.data();
    uint32_t *queued = h->_queued.data();
    int32_t *out = h->out;
    uint64_t nout = h->nout;
    const KernelLayout::Node *base = L.nodes.data() + t.node_begin;
    uint64_t ev = 0;
    for (uint32_t wi = t.bm_begin; wi < t.bm_end; wi++) {
        uint64_t w = wbm[wi];
        if (!w)
            continue;
        wbm[wi] = 0;
        const KernelLayout::Node *row =
            base + (static_cast<size_t>(wi - t.bm_begin) << 6);
        do {
            const KernelLayout::Node &n =
                row[static_cast<size_t>(__builtin_ctzll(w))];
            ev++;
            if (Count)
                h->_counts[n.net]++;
            if (stepNode(s, n, L, tmp)) {
                out[nout++] = n.net;
                queueConsumers(L, n.net, wbm, queued);
            }
            w &= w - 1;
        } while (w);
    }
    h->nout = nout;
    return ev;
}

/* Set the consumers' slot bits, as a change does.  The bitmap dedupes
 * by construction (setting a set bit is a no-op); `queued` only
 * over-counts repeat pokes, and is read as "level non-empty" plus a
 * unit's escalation rule, where an over-count is harmless. */
void
KernelHost::poke(NetId net)
{
    queueConsumers(*_layout, net, _bitmap.data(), _queued.data());
}

uint64_t
KernelHost::eval(int32_t *changed_out, uint64_t *n_changed, bool full)
{
    const KernelLayout &L = *_layout;
    out = changed_out;
    nout = 0;
    uint64_t ev = 0;
    if (full || _prefer_dense) {
        for (Turn &t : _turns) {
            if (t.dense) {
                _turn = &t;
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
        // so testing each level just before its turn is exact.  With
        // a unit, a level escalates to the unit's dense body when its
        // queue covers >= 1/kEscalateDiv of the level: at that density
        // the executor's per-node dispatch costs more than recomputing
        // the stragglers in compiled code, and the compare-stores keep
        // the changed list exact either way.  The executor alone
        // always drains.
        uint64_t *wbm = _bitmap.data();
        uint32_t *queued = _queued.data(), *q = queued;
        for (Turn *t = _turns.data(), *end = t + _turns.size(); t != end;
             t++, q++) {
            uint64_t wn = *q;
            if (!wn)
                continue;
            *q = 0;
            _turn = t;
            uint64_t e;
            if (wn * KernelLayout::kEscalateDiv < t->drain_below) {
                e = _drain(this);
            } else {
                // A queued level has nodes, so owns a word.  Not
                // std::fill: its memset call for one word cost ~6% of
                // a small design's eval.
                wbm[t->bm_begin] = 0;
                for (uint32_t k = t->bm_begin + 1; k < t->bm_end; k++)
                    wbm[k] = 0;
                uint64_t from = nout;
                e = t->dense(this);
                for (uint64_t k = from; k < nout; k++)
                    queueConsumers(L, out[k], wbm, queued);
            }
            t->evals += e;
            ev += e;
        }
    }
    if (_unit)
        _fallback_switches +=
            denseFallback(_prefer_dense, nout, L.strict_nodes);
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

uint64_t
ClockEdge::stage(const uint64_t *s, int32_t *regs)
{
    const KernelLayout &L = *_layout;
    for (uint32_t u = 0; u < L.updates.size(); u++) {
        const KernelLayout::Update &up = L.updates[u];
        uint64_t en = 0;
        for (uint32_t k = 0; k < up.en_words; k++)
            en |= s[up.en_off + k];
        if (!en)
            continue;
        if (L.wide_edge)
            stageUpdate<true>(s, u);
        else
            stageUpdate<false>(s, u);
    }
    uint64_t n = 0;
    for (size_t wi = 0; wi < _staged.size(); wi++) {
        for (uint64_t w = _staged[wi]; w; w &= w - 1)
            regs[n++] = static_cast<int32_t>(
                (wi << 6) + static_cast<size_t>(__builtin_ctzll(w)));
        _staged[wi] = 0;
    }
    return n;
}

/** Stage an update's value, truncated or zero-extended to its
 *  register, into the register's staging words. */
template <bool Wide>
void
ClockEdge::stageUpdate(const uint64_t *s, uint32_t update)
{
    const KernelLayout::Update &u = _layout->updates[update];
    const KernelLayout::Reg &g = _layout->regs[u.reg];
    uint64_t *nx = _next.data() + g.next;
    nx[0] = s[u.val_off];
    for (uint32_t k = 1; Wide && k < g.words; k++)
        nx[k] = k < u.val_words ? s[u.val_off + k] : 0;
    nx[g.words - 1] &= g.top;
    _staged[u.reg >> 6] |= 1ull << (u.reg & 63);
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
                                w.words) *
                w.names;
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
    for (size_t wi = 0; wi < _armed.size(); wi++)
        for (uint64_t w = _armed[wi]; w; w &= w - 1)
            stageUpdate<Wide>(
                s, static_cast<uint32_t>(
                       (wi << 6) + static_cast<size_t>(__builtin_ctzll(w))));
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
