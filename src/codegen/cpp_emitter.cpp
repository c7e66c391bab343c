#include "codegen/cpp_emitter.h"

#include <cassert>
#include <map>
#include <sstream>
#include <vector>

#include "codegen/emit_util.h"
#include "rtl/kernel_abi.h"
#include "support/strings.h"

namespace anvil {
namespace codegen {

namespace {

using rtl::kNoNet;
using rtl::Net;
using rtl::NetId;
using rtl::Netlist;
using rtl::Op;

uint64_t
maskOf(int width)
{
    if (width <= 0)
        return 0;
    return width >= 64 ? ~0ull : (1ull << width) - 1;
}

std::string
hexU64(uint64_t v)
{
    return strfmt("0x%llxull", static_cast<unsigned long long>(v));
}

/** Rows of a static uint32 table (one dummy row when empty, since C++
 *  has no zero-length arrays). */
void
emitRows(std::ostringstream &os, const char *name, size_t cols,
         const std::vector<std::vector<uint32_t>> &rows)
{
    os << "static const uint32_t " << name << "["
       << (rows.empty() ? 1 : rows.size()) << "][" << cols << "] = {";
    for (const auto &row : rows) {
        os << "\n    {";
        for (uint32_t v : row)
            os << v << ",";
        os << "},";
    }
    if (rows.empty())
        os << "{0}";
    os << "\n};\n";
}

/** Per-level escalation rule: inside a sparse frame a level runs its
 *  straight-line body once its queued count wn reaches 1/kEscalateDiv
 *  of its nodes (wn * kEscalateDiv >= size). */
constexpr size_t kEscalateDiv = 4;

/** A level is only visited with wn >= 1, so a level of at most
 *  kEscalateDiv nodes always escalates: its sparse drain would be
 *  dead code and is not emitted. */
bool
hasSparseDrain(size_t level_size)
{
    return level_size > kEscalateDiv;
}

/** Packed-word helpers, embedded only in units where some node takes
 *  the wide lane.  They replicate anvil::BitVec semantics exactly (see
 *  support/bitvec.cpp): values are little-endian word arrays,
 *  normalized so bits at or above the width are zero; reads beyond a
 *  value's words are zero. */
const char *kWidePrelude = R"(
static inline uint64_t wmask(uint32_t bits)
{
    uint32_t r = bits & 63u;
    return r ? (~0ull >> (64u - r)) : ~0ull;
}
static inline uint64_t wat(const uint64_t *p, uint32_t n, uint32_t i)
{
    return i < n ? p[i] : 0;
}
/* Word i of the value resized (zero-extend / truncate) to dbits. */
static inline uint64_t w_rword(const uint64_t *p, uint32_t n,
                               uint32_t dw, uint32_t dbits, uint32_t i)
{
    if (i >= dw)
        return 0;
    uint64_t v = wat(p, n, i);
    return i == dw - 1 ? v & wmask(dbits) : v;
}
static inline void w_zero(uint64_t *d, uint32_t dw)
{
    for (uint32_t i = 0; i < dw; i++)
        d[i] = 0;
}
static inline void w_copy(uint64_t *d, uint32_t dw, uint32_t dbits,
                          const uint64_t *a, uint32_t aw)
{
    for (uint32_t i = 0; i < dw; i++)
        d[i] = wat(a, aw, i);
    d[dw - 1] &= wmask(dbits);
}
static inline void w_not(uint64_t *d, uint32_t dw, uint32_t dbits,
                         const uint64_t *a, uint32_t aw)
{
    for (uint32_t i = 0; i < dw; i++)
        d[i] = ~wat(a, aw, i);
    d[dw - 1] &= wmask(dbits);
}
static inline void w_and(uint64_t *d, uint32_t dw, uint32_t dbits,
                         const uint64_t *a, uint32_t aw,
                         const uint64_t *b, uint32_t bw)
{
    for (uint32_t i = 0; i < dw; i++)
        d[i] = wat(a, aw, i) & wat(b, bw, i);
    d[dw - 1] &= wmask(dbits);
}
static inline void w_or(uint64_t *d, uint32_t dw, uint32_t dbits,
                        const uint64_t *a, uint32_t aw,
                        const uint64_t *b, uint32_t bw)
{
    for (uint32_t i = 0; i < dw; i++)
        d[i] = wat(a, aw, i) | wat(b, bw, i);
    d[dw - 1] &= wmask(dbits);
}
static inline void w_xor(uint64_t *d, uint32_t dw, uint32_t dbits,
                         const uint64_t *a, uint32_t aw,
                         const uint64_t *b, uint32_t bw)
{
    for (uint32_t i = 0; i < dw; i++)
        d[i] = wat(a, aw, i) ^ wat(b, bw, i);
    d[dw - 1] &= wmask(dbits);
}
static inline void w_add(uint64_t *d, uint32_t dw, uint32_t dbits,
                         const uint64_t *a, uint32_t aw,
                         const uint64_t *b, uint32_t bw)
{
    unsigned __int128 carry = 0;
    for (uint32_t i = 0; i < dw; i++) {
        unsigned __int128 sum = carry;
        sum += wat(a, aw, i);
        sum += wat(b, bw, i);
        d[i] = (uint64_t)sum;
        carry = sum >> 64;
    }
    d[dw - 1] &= wmask(dbits);
}
static inline void w_sub(uint64_t *d, uint32_t dw, uint32_t dbits,
                         const uint64_t *a, uint32_t aw,
                         const uint64_t *b, uint32_t bw)
{
    unsigned __int128 carry = 1;
    for (uint32_t i = 0; i < dw; i++) {
        unsigned __int128 sum = carry;
        sum += wat(a, aw, i);
        sum += ~wat(b, bw, i);
        d[i] = (uint64_t)sum;
        carry = sum >> 64;
    }
    d[dw - 1] &= wmask(dbits);
}
static inline void w_mul(uint64_t *d, uint32_t dw, uint32_t dbits,
                         const uint64_t *a, uint32_t aw,
                         const uint64_t *b, uint32_t bw)
{
    w_zero(d, dw);
    for (uint32_t i = 0; i < dw; i++) {
        unsigned __int128 carry = 0;
        for (uint32_t j = 0; i + j < dw; j++) {
            unsigned __int128 p =
                (unsigned __int128)wat(a, aw, i) * wat(b, bw, j);
            p += d[i + j];
            p += carry;
            d[i + j] = (uint64_t)p;
            carry = p >> 64;
        }
    }
    d[dw - 1] &= wmask(dbits);
}
/* Comparisons are over the original (unresized) operands. */
static inline uint64_t w_eq(const uint64_t *a, uint32_t aw,
                            const uint64_t *b, uint32_t bw)
{
    uint32_t n = aw > bw ? aw : bw;
    for (uint32_t i = 0; i < n; i++)
        if (wat(a, aw, i) != wat(b, bw, i))
            return 0;
    return 1;
}
static inline uint64_t w_ult(const uint64_t *a, uint32_t aw,
                             const uint64_t *b, uint32_t bw)
{
    uint32_t n = aw > bw ? aw : bw;
    for (uint32_t i = n; i-- > 0;) {
        uint64_t x = wat(a, aw, i), y = wat(b, bw, i);
        if (x != y)
            return x < y;
    }
    return 0;
}
static inline uint64_t w_ule(const uint64_t *a, uint32_t aw,
                             const uint64_t *b, uint32_t bw)
{
    return w_ult(a, aw, b, bw) | w_eq(a, aw, b, bw);
}
static inline uint64_t w_any(const uint64_t *a, uint32_t aw)
{
    for (uint32_t i = 0; i < aw; i++)
        if (a[i])
            return 1;
    return 0;
}
static inline uint64_t w_red_and(const uint64_t *a, uint32_t aw,
                                 uint32_t abits)
{
    for (uint32_t i = 0; i < aw; i++) {
        uint64_t want = i == aw - 1 ? wmask(abits) : ~0ull;
        if (a[i] != want)
            return 0;
    }
    return 1;
}
static inline void w_shl(uint64_t *d, uint32_t dw, uint32_t dbits,
                         const uint64_t *a, uint32_t aw, uint64_t sh)
{
    if (sh >= dbits) {
        w_zero(d, dw);
        return;
    }
    uint32_t ws = (uint32_t)(sh / 64), bs = (uint32_t)(sh % 64);
    for (uint32_t j = dw; j-- > ws;) {
        uint64_t w = w_rword(a, aw, dw, dbits, j - ws) << bs;
        if (bs != 0 && j - ws > 0)
            w |= w_rword(a, aw, dw, dbits, j - ws - 1) >> (64 - bs);
        d[j] = w;
    }
    for (uint32_t j = 0; j < ws && j < dw; j++)
        d[j] = 0;
    d[dw - 1] &= wmask(dbits);
}
static inline void w_shr(uint64_t *d, uint32_t dw, uint32_t dbits,
                         const uint64_t *a, uint32_t aw, uint64_t sh)
{
    if (sh >= dbits) {
        w_zero(d, dw);
        return;
    }
    uint32_t ws = (uint32_t)(sh / 64), bs = (uint32_t)(sh % 64);
    for (uint32_t j = 0; j < dw; j++) {
        uint64_t w = w_rword(a, aw, dw, dbits, ws + j) >> bs;
        if (bs != 0)
            w |= w_rword(a, aw, dw, dbits, ws + j + 1) << (64 - bs);
        d[j] = w;
    }
    d[dw - 1] &= wmask(dbits);
}
/* Bits [lo, lo+dbits) of the unresized source; out-of-range bits
 * (including negative indices) read as zero. */
static inline void w_slice(uint64_t *d, uint32_t dw, uint32_t dbits,
                           const uint64_t *a, uint32_t aw, int32_t lo)
{
    if (lo < 0) {
        /* Zeros below index 0: a left shift of the source. */
        uint64_t sh = (uint64_t)(-(int64_t)lo);
        if (sh >= dbits) {
            w_zero(d, dw);
            return;
        }
        uint32_t ws = (uint32_t)(sh / 64), bs = (uint32_t)(sh % 64);
        for (uint32_t j = dw; j-- > ws;) {
            uint64_t w = wat(a, aw, j - ws) << bs;
            if (bs != 0 && j - ws > 0)
                w |= wat(a, aw, j - ws - 1) >> (64 - bs);
            d[j] = w;
        }
        for (uint32_t j = 0; j < ws && j < dw; j++)
            d[j] = 0;
        d[dw - 1] &= wmask(dbits);
        return;
    }
    uint32_t ws = (uint32_t)lo / 64, bs = (uint32_t)lo % 64;
    for (uint32_t j = 0; j < dw; j++) {
        uint64_t w = wat(a, aw, ws + j) >> bs;
        if (bs != 0)
            w |= wat(a, aw, ws + j + 1) << (64 - bs);
        d[j] = w;
    }
    d[dw - 1] &= wmask(dbits);
}
/* OR the low abits bits of a into d at bit offset off (concat part;
 * destination must be pre-zeroed, final mask applied by the caller). */
static inline void w_inject(uint64_t *d, uint32_t dw,
                            const uint64_t *a, uint32_t aw,
                            uint32_t abits, uint32_t off)
{
    uint32_t ws = off / 64, bs = off % 64;
    uint32_t awords = (abits + 63) / 64;
    for (uint32_t j = 0; j < awords; j++) {
        if (ws + j < dw)
            d[ws + j] |= wat(a, aw, j) << bs;
        if (bs != 0 && ws + j + 1 < dw)
            d[ws + j + 1] |= wat(a, aw, j) >> (64 - bs);
    }
}
)";

/** The clock edge: one table-driven function over the changed list,
 *  the updates and the staged registers.  It is a large share of a
 *  small kernel's compile: at -O2 GCC takes about 35 ms per kernel for
 *  it on a 4-vCPU x86-64 host, against about 18 ms at -O1 with the
 *  same runtime, so the edge asks for -O1 (a no-op when the unit is
 *  compiled at -O1 anyway).  Multi-word units are looped over only
 *  when the design has some (kWideEdge); otherwise those loops fold
 *  away.  Flips are counted with an inline bit-parallel popcount,
 *  because __builtin_popcountll compiles to a call into libgcc, which
 *  a -nostdlib unit cannot import. */
const char *kEdgeFns = R"(
#define EDGE_FN static __attribute__((optimize("O1")))
EDGE_FN inline uint64_t pop64(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (x * 0x0101010101010101ull) >> 56;
}

/* Bits in which the n (>= 1) words at d differ from those at s, which
 * then replace them. */
EDGE_FN inline uint64_t flip_to(uint64_t *d, const uint64_t *s, uint32_t n)
{
    uint64_t f = 0;
    for (uint32_t k = 0; k < (kWideEdge ? n : 1); k++) {
        uint64_t x = d[k] ^ s[k];
        if (x) {
            f += pop64(x);
            d[k] = s[k];
        }
    }
    return f;
}

EDGE_FN uint64_t k_edge(void *ctx, const int32_t *changed,
                        uint64_t n_changed, int32_t *regs,
                        uint64_t *n_regs)
{
    Ctx *c = (Ctx *)ctx;
    uint64_t tog = 0;
    // Wire toggles: a wire absent from the changed list kept its value.
    for (uint64_t i = 0; i < n_changed; i++) {
        uint32_t id = (uint32_t)changed[i];
        uint32_t w = id < kNets ? kWireOf[id] : 0;
        if (w)
            tog += flip_to(c->sh + kWire[w - 1][1], c->s + kWire[w - 1][0],
                           kWire[w - 1][2]);
    }
    // Stage every firing update in declaration order: the last one
    // to a register wins.
    for (uint32_t u = 0; u < kUpdates; u++) {
        const uint32_t *up = kUpd[u];
        uint64_t en = c->s[up[0]];
        for (uint32_t k = 1; kWideEdge && k < up[1]; k++)
            en |= c->s[up[0] + k];
        if (!en)
            continue;
        uint32_t r = up[4];
        const uint32_t *g = kReg[r];
        uint64_t *nx = c->nx + g[3];
        nx[0] = c->s[up[2]];
        for (uint32_t k = 1; kWideEdge && k < g[2]; k++)
            nx[k] = k < up[3] ? c->s[up[2] + k] : 0;
        nx[g[2] - 1] &= kRegTop[r];
        c->tbm[r >> 6] |= 1ull << (r & 63);
    }
    // Commit the staged registers in ascending order; only those that
    // moved count flips and wake their consumers.
    uint64_t n = 0;
    for (uint32_t wi = 0; wi < kRegBmWords; wi++) {
        uint64_t w = c->tbm[wi];
        c->tbm[wi] = 0;
        while (w) {
            uint32_t r = (wi << 6) + (uint32_t)__builtin_ctzll(w);
            w &= w - 1;
            const uint32_t *g = kReg[r];
            uint64_t f = flip_to(c->s + g[1], c->nx + g[3], g[2]);
            if (f) {
                tog += f;
                k_poke(c, (int32_t)g[0]);
                regs[n++] = (int32_t)g[0];
            }
        }
    }
    *n_regs = n;
    return tog;
}
static uint64_t *k_shadow_ptr(void *ctx) { return ((Ctx *)ctx)->sh; }
)";

/** The wide lane's compare-and-store hook. */
const char *kWideStores = R"(
static inline void w_store(Ctx *c, int32_t id, uint64_t *dst,
                           const uint64_t *t, uint32_t words)
{
    if (__builtin_memcmp(dst, t, words * 8) != 0) {
        __builtin_memcpy(dst, t, words * 8);
        onChange(c, id);
    }
}
)";

class CppEmitter
{
  public:
    CppEmitter(const Netlist &nl, const std::string &design_name)
        : _nl(nl), _name(design_name)
    {
    }

    std::string run();

  private:
    void layoutState();
    void layoutLevels();
    std::string romTable(const Net &n);
    void emitTables(std::ostringstream &os);
    void emitEdgeTables(std::ostringstream &os);
    void emitNode(std::ostringstream &os, NetId id);
    void emitFastNode(std::ostringstream &os, NetId id);
    void emitWideNode(std::ostringstream &os, NetId id);
    void emitLevelFns(std::ostringstream &os);
    std::string fastVal(NetId o) const;   // u64 value of an operand
    std::string ptrOf(NetId o) const;     // &c->s[off]
    uint32_t wordsOf(NetId o) const
    {
        int w = _nl.net(o).width;
        return w <= 0 ? 1u : static_cast<uint32_t>((w + 63) / 64);
    }

    const Netlist &_nl;
    std::string _name;
    std::vector<uint32_t> _off;           // per-net word offset
    uint64_t _state_words = 0;
    size_t _levels = 0;                   // level count (incl. empty)
    std::vector<std::vector<NetId>> _level_nodes;   // per level
    std::vector<uint32_t> _bm_off;        // per-level bitmap word off
    std::vector<uint32_t> _level_of;      // strict node -> level
    std::vector<uint32_t> _slot_of;       // strict node -> level slot
    std::string _ind;                     // current body indent
    std::map<std::pair<const void *, int>, std::string> _roms;
    std::ostringstream _rom_defs;
    bool _wide = false;                   // some node took the wide lane
};

void
CppEmitter::layoutState()
{
    const auto &nets = _nl.nets();
    _off.resize(nets.size());
    uint64_t off = 0;
    for (size_t i = 0; i < nets.size(); i++) {
        _off[i] = static_cast<uint32_t>(off);
        int w = nets[i].width;
        off += w <= 0 ? 1 : static_cast<uint64_t>((w + 63) / 64);
    }
    _state_words = off ? off : 1;
}

/** Group the strict order by level and assign every strict node a
 *  dense within-level slot: the occupancy bitmaps carry slots, so a
 *  level's dispatch switch is a contiguous 0..n-1 jump table
 *  regardless of how net ids are scattered across the design. */
void
CppEmitter::layoutLevels()
{
    const auto &order = _nl.order();
    const auto &lb = _nl.levelBegin();
    _levels = lb.empty() ? 0 : lb.size() - 1;
    _level_nodes.assign(_levels, {});
    _level_of.assign(_nl.nets().size(), 0);
    _slot_of.assign(_nl.nets().size(), 0);
    _bm_off.assign(_levels + 1, 0);
    uint32_t bm = 0;
    for (size_t l = 0; l < _levels; l++) {
        size_t b = static_cast<size_t>(lb[l]);
        size_t e = static_cast<size_t>(lb[l + 1]);
        _bm_off[l] = bm;
        bm += static_cast<uint32_t>((e - b + 63) / 64);
        for (size_t i = b; i < e; i++) {
            NetId id = order[i];
            _level_nodes[l].push_back(id);
            _level_of[static_cast<size_t>(id)] =
                static_cast<uint32_t>(l);
            _slot_of[static_cast<size_t>(id)] =
                static_cast<uint32_t>(i - b);
        }
    }
    _bm_off[_levels] = bm;
}

std::string
CppEmitter::romTable(const Net &n)
{
    auto key = std::make_pair(
        static_cast<const void *>(n.rom.get()), n.width);
    auto it = _roms.find(key);
    if (it != _roms.end())
        return it->second;
    std::string name = strfmt("kRom%d", static_cast<int>(_roms.size()));
    _roms.emplace(key, name);
    uint32_t stride =
        n.width <= 0 ? 1u : static_cast<uint32_t>((n.width + 63) / 64);
    _rom_defs << "static const uint64_t " << name << "["
              << n.rom->size() * stride << "] = {";
    size_t col = 0;
    for (const BitVec &e : *n.rom) {
        BitVec r = e.resize(n.width <= 0 ? 1 : n.width);
        for (uint32_t w = 0; w < stride; w++) {
            if (col++ % 8 == 0)
                _rom_defs << "\n    ";
            _rom_defs << hexU64(r.word(static_cast<int>(w))) << ",";
        }
    }
    _rom_defs << "\n};\n";
    return name;
}

void
CppEmitter::emitTables(std::ostringstream &os)
{
    size_t nets = _nl.nets().size();
    size_t strict = _nl.order().size();
    os << "enum : uint32_t { kNets = " << nets << "u, kLevels = "
       << _levels << "u, kStrictNodes = " << strict << "u };\n";
    os << "enum : uint64_t { kStateWords = " << _state_words
       << "ull };\n\n";

    os << "static const uint32_t kOff[kNets] = {";
    for (size_t i = 0; i < nets; i++)
        os << (i % 16 == 0 ? "\n    " : "") << _off[i] << ",";
    os << "\n};\n\n";

    os << "static const uint64_t kInit[kStateWords] = {";
    size_t col = 0;
    for (size_t i = 0; i < nets; i++) {
        const BitVec &v = _nl.initValues()[i];
        uint32_t w = wordsOf(static_cast<NetId>(i));
        for (uint32_t j = 0; j < w; j++) {
            os << (col++ % 8 == 0 ? "\n    " : "")
               << hexU64(v.word(static_cast<int>(j))) << ",";
        }
    }
    os << "\n};\n\n";

    // Consumer CSR: the strict nodes reading each net, ascending —
    // exactly the interpreter's fan-out CSR.  poke()/onChange() walk
    // it to queue consumers on their levels' worklists.
    std::vector<std::vector<NetId>> fan(nets);
    for (size_t l = 0; l < _levels; l++)
        for (NetId id : _level_nodes[l])
            Netlist::forEachOperand(_nl.net(id), [&](NetId o) {
                if (_nl.net(o).kind == Net::Kind::Const)
                    return;
                auto &lst = fan[static_cast<size_t>(o)];
                if (lst.empty() || lst.back() != id)
                    lst.push_back(id);
            });
    size_t edges = 0;
    for (auto &lst : fan)
        edges += lst.size();
    os << "static const uint32_t kConsBegin[kNets + 1] = {";
    uint32_t acc = 0;
    for (size_t i = 0; i <= nets; i++) {
        os << (i % 16 == 0 ? "\n    " : "") << acc << ",";
        if (i < nets)
            acc += static_cast<uint32_t>(fan[i].size());
    }
    os << "\n};\n";
    os << "static const int32_t kConsNet[" << (edges ? edges : 1)
       << "] = {";
    col = 0;
    for (const auto &lst : fan)
        for (NetId id : lst)
            os << (col++ % 16 == 0 ? "\n    " : "") << id << ",";
    if (edges == 0)
        os << "0";
    os << "\n};\n\n";

    // Level and within-level slot of every strict node (0 for
    // sources, which are never queued).
    os << "static const uint32_t kLevelOf[kNets] = {";
    for (size_t i = 0; i < nets; i++)
        os << (i % 16 == 0 ? "\n    " : "") << _level_of[i] << ",";
    os << "\n};\n";
    os << "static const uint32_t kSlotOf[kNets] = {";
    for (size_t i = 0; i < nets; i++)
        os << (i % 16 == 0 ? "\n    " : "") << _slot_of[i] << ",";
    os << "\n};\n";

    // Occupancy-bitmap layout: level l owns the words
    // wbm[kBmOff[l], kBmOff[l+1]); bit s marks within-level slot s
    // queued.  Bitmaps dedupe by construction and drain in ascending
    // slot order, which keeps the dispatch jumps monotonic through
    // the level's code.
    os << "static const uint32_t kBmOff[kLevels + 1] = {";
    for (size_t l = 0; l <= _levels; l++)
        os << (l % 16 == 0 ? "\n    " : "") << _bm_off[l] << ",";
    os << "\n};\n";
    os << "enum : uint32_t { kBmWords = " << _bm_off[_levels]
       << "u };\n";
    emitEdgeTables(os);
}

/** The clock edge's tables: which nets are toggle-counted wires and
 *  where their shadow words live, the updates in declaration order,
 *  and each register's slot and staging words. */
void
CppEmitter::emitEdgeTables(std::ostringstream &os)
{
    size_t nets = _nl.nets().size();
    const auto &wires = _nl.wireNets();
    const auto &regs = _nl.regs();
    std::vector<uint32_t> wire_of(nets, 0);
    std::vector<std::vector<uint32_t>> wire_rows, upd_rows, reg_rows;
    uint32_t sh = 0;
    for (size_t i = 0; i < wires.size(); i++) {
        NetId w = wires[i];
        wire_of[static_cast<size_t>(w)] = static_cast<uint32_t>(i + 1);
        wire_rows.push_back(
            {_off[static_cast<size_t>(w)], sh, wordsOf(w)});
        sh += wordsOf(w);
    }
    uint32_t nx = 0;
    std::vector<uint64_t> tops;
    for (NetId r : regs) {
        reg_rows.push_back({static_cast<uint32_t>(r),
                            _off[static_cast<size_t>(r)], wordsOf(r),
                            nx});
        nx += wordsOf(r);
        int w = _nl.net(r).width;
        tops.push_back(w <= 0 ? 0 : maskOf(w % 64 ? w % 64 : 64));
    }
    // An update of an unknown register faults host-side before the
    // kernel's edge runs, so the table leaves it out.
    for (const rtl::NetUpdate &u : _nl.updates())
        if (u.reg_index >= 0)
            upd_rows.push_back({_off[static_cast<size_t>(u.enable)],
                                wordsOf(u.enable),
                                _off[static_cast<size_t>(u.value)],
                                wordsOf(u.value),
                                static_cast<uint32_t>(u.reg_index)});

    os << "\nenum : uint32_t { kWires = " << wires.size()
       << "u, kUpdates = " << upd_rows.size() << "u, kRegs = "
       << regs.size() << "u, kRegBmWords = " << (regs.size() + 63) / 64
       << "u };\n";
    os << "enum : uint64_t { kShadowWords = " << sh
       << "ull, kNextWords = " << nx << "ull };\n";
    // Some wire, enable, value or register spans several words.
    bool wide = sh > wires.size() || nx > regs.size();
    for (const auto &row : upd_rows)
        wide |= row[1] > 1 || row[3] > 1;
    os << "enum : uint32_t { kWideEdge = " << (wide ? 1 : 0) << "u };\n";
    // 1 + the net's row in kWire, or 0 for a net that is not a
    // toggle-counted wire.
    os << "static const uint32_t kWireOf[kNets] = {";
    for (size_t i = 0; i < nets; i++)
        os << (i % 16 == 0 ? "\n    " : "") << wire_of[i] << ",";
    os << "\n};\n";
    os << "/* wire: state offset, shadow offset, words */\n";
    emitRows(os, "kWire", 3, wire_rows);
    os << "/* update: enable offset, enable words, value offset, value "
          "words, register */\n";
    emitRows(os, "kUpd", 5, upd_rows);
    os << "/* register: net, state offset, words, staging offset */\n";
    emitRows(os, "kReg", 4, reg_rows);
    os << "static const uint64_t kRegTop["
       << (tops.empty() ? 1 : tops.size()) << "] = {";
    for (size_t i = 0; i < tops.size(); i++)
        os << (i % 8 == 0 ? "\n    " : "") << hexU64(tops[i]) << ",";
    if (tops.empty())
        os << "0";
    os << "\n};\n";
}

std::string
CppEmitter::fastVal(NetId o) const
{
    const Net &n = _nl.net(o);
    if (n.kind == Net::Kind::Const)
        return hexU64(
            _nl.initValues()[static_cast<size_t>(o)].toUint64());
    return strfmt("c->s[%u]", _off[static_cast<size_t>(o)]);
}

std::string
CppEmitter::ptrOf(NetId o) const
{
    return strfmt("&c->s[%u]", _off[static_cast<size_t>(o)]);
}

void
CppEmitter::emitNode(std::ostringstream &os, NetId id)
{
    const Net &n = _nl.net(id);
    const std::string &nm = _nl.nameOf(id);
    os << _ind << "// n" << id << " w" << n.width;
    if (!nm.empty())
        os << " " << nm;
    os << "\n";
    if (n.width <= 0) {
        // Zero-width values are the empty bit string: permanently
        // zero, evaluated for the activity count only.
        os << _ind << "{ ev++; }\n";
        return;
    }
    if (n.fast)
        emitFastNode(os, id);
    else
        emitWideNode(os, id);
}

void
CppEmitter::emitFastNode(std::ostringstream &os, NetId id)
{
    const Net &n = _nl.net(id);
    uint64_t m = maskOf(n.width);
    std::string M = hexU64(m);
    std::string body;
    switch (n.kind) {
      case Net::Kind::Copy:
        body = strfmt("uint64_t r = %s;", fastVal(n.a).c_str());
        break;
      case Net::Kind::Unop:
        switch (n.op) {
          case Op::Not:
            body = strfmt("uint64_t r = ~%s;", fastVal(n.a).c_str());
            break;
          case Op::RedOr:
            body =
                strfmt("uint64_t r = %s != 0;", fastVal(n.a).c_str());
            break;
          case Op::RedAnd:
            body = strfmt("uint64_t r = %s == %s;",
                          fastVal(n.a).c_str(),
                          hexU64(maskOf(_nl.net(n.a).width)).c_str());
            break;
          default:
            assert(!"bad unary op");
        }
        break;
      case Net::Kind::Binop: {
        std::string a = fastVal(n.a), b = fastVal(n.b);
        const char *tok = opToken(n.op);
        switch (n.op) {
          case Op::And:
          case Op::Or:
          case Op::Xor:
            body = strfmt("uint64_t r = %s %s %s;", a.c_str(), tok,
                          b.c_str());
            break;
          case Op::Add:
          case Op::Sub:
          case Op::Mul:
            body = strfmt("uint64_t r = (%s & %s) %s (%s & %s);",
                          a.c_str(), M.c_str(), tok, b.c_str(),
                          M.c_str());
            break;
          case Op::Eq:
          case Op::Ne:
          case Op::Lt:
          case Op::Le:
          case Op::Gt:
          case Op::Ge:
            body = strfmt("uint64_t r = %s %s %s;", a.c_str(), tok,
                          b.c_str());
            break;
          case Op::Shl:
          case Op::Shr:
            body = strfmt("uint64_t sh = %s & %s; "
                          "uint64_t r = sh >= %dull ? 0 "
                          ": (%s & %s) %s sh;",
                          b.c_str(), M.c_str(), n.width, a.c_str(),
                          M.c_str(), tok);
            break;
          default:
            assert(!"bad binary op");
        }
        break;
      }
      case Net::Kind::Mux:
        body = strfmt("uint64_t r = %s ? %s : %s;",
                      fastVal(n.a).c_str(), fastVal(n.b).c_str(),
                      fastVal(n.c).c_str());
        break;
      case Net::Kind::Slice: {
        std::string a = fastVal(n.a);
        if (n.lo >= 0)
            body = n.lo >= 64
                ? "uint64_t r = 0;"
                : strfmt("uint64_t r = %s >> %d;", a.c_str(), n.lo);
        else
            body = -n.lo >= 64
                ? "uint64_t r = 0;"
                : strfmt("uint64_t r = %s << %d;", a.c_str(), -n.lo);
        break;
      }
      case Net::Kind::Concat: {
        // cargs are hi-first; assemble from the low end.
        body = "uint64_t r = ";
        int sh = 0;
        bool first = true;
        for (auto it = n.cargs.rbegin(); it != n.cargs.rend(); ++it) {
            if (!first)
                body += " | ";
            first = false;
            if (sh == 0)
                body += fastVal(*it);
            else
                body += strfmt("(%s << %d)", fastVal(*it).c_str(), sh);
            sh += _nl.net(*it).width;
            if (sh >= 64)
                break;
        }
        if (first)
            body += "0";
        body += ";";
        break;
      }
      case Net::Kind::Rom: {
        std::string tbl = romTable(n);
        body = strfmt("uint64_t a0 = %s; "
                      "uint64_t r = a0 < %zuull ? %s[a0] : 0;",
                      fastVal(n.a).c_str(), n.rom->size(),
                      tbl.c_str());
        break;
      }
      default:
        assert(!"source in strict order");
    }
    std::string store = n.width >= 64
        ? std::string()
        : strfmt(" r &= %s;", M.c_str());
    os << _ind << "{ ev++; " << body << store
       << " uint64_t *p = &c->s[" << _off[static_cast<size_t>(id)]
       << "]; if (*p != r) { *p = r; onChange(c, " << id
       << "); } }\n";
}

void
CppEmitter::emitWideNode(std::ostringstream &os, NetId id)
{
    _wide = true;
    const Net &n = _nl.net(id);
    uint32_t dw = wordsOf(id);
    int dbits = n.width;
    std::string dsig = strfmt("t, %uu, %du", dw, dbits);
    std::string body;
    auto opnd = [&](NetId o) {
        return strfmt("%s, %uu", ptrOf(o).c_str(), wordsOf(o));
    };
    switch (n.kind) {
      case Net::Kind::Copy:
        body = strfmt("w_copy(%s, %s);", dsig.c_str(),
                      opnd(n.a).c_str());
        break;
      case Net::Kind::Unop:
        switch (n.op) {
          case Op::Not:
            body = strfmt("w_not(%s, %s);", dsig.c_str(),
                          opnd(n.a).c_str());
            break;
          case Op::RedOr:
            body = strfmt("t[0] = w_any(%s);", opnd(n.a).c_str());
            break;
          case Op::RedAnd:
            body = strfmt("t[0] = w_red_and(%s, %du);",
                          opnd(n.a).c_str(), _nl.net(n.a).width);
            break;
          default:
            assert(!"bad unary op");
        }
        break;
      case Net::Kind::Binop: {
        const char *fn = nullptr;
        switch (n.op) {
          case Op::And: fn = "w_and"; break;
          case Op::Or: fn = "w_or"; break;
          case Op::Xor: fn = "w_xor"; break;
          case Op::Add: fn = "w_add"; break;
          case Op::Sub: fn = "w_sub"; break;
          case Op::Mul: fn = "w_mul"; break;
          default: break;
        }
        if (fn) {
            body = strfmt("%s(%s, %s, %s);", fn, dsig.c_str(),
                          opnd(n.a).c_str(), opnd(n.b).c_str());
            break;
        }
        switch (n.op) {
          case Op::Eq:
            body = strfmt("t[0] = w_eq(%s, %s);", opnd(n.a).c_str(),
                          opnd(n.b).c_str());
            break;
          case Op::Ne:
            body = strfmt("t[0] = !w_eq(%s, %s);", opnd(n.a).c_str(),
                          opnd(n.b).c_str());
            break;
          case Op::Lt:
            body = strfmt("t[0] = w_ult(%s, %s);", opnd(n.a).c_str(),
                          opnd(n.b).c_str());
            break;
          case Op::Le:
            body = strfmt("t[0] = w_ule(%s, %s);", opnd(n.a).c_str(),
                          opnd(n.b).c_str());
            break;
          case Op::Gt:
            body = strfmt("t[0] = w_ult(%s, %s);", opnd(n.b).c_str(),
                          opnd(n.a).c_str());
            break;
          case Op::Ge:
            body = strfmt("t[0] = w_ule(%s, %s);", opnd(n.b).c_str(),
                          opnd(n.a).c_str());
            break;
          case Op::Shl:
          case Op::Shr:
            // Shift amount: low word of the operand resized to the
            // node width (BitVec applyBinop semantics).
            body = strfmt(
                "%s(%s, %s, w_rword(%s, %uu, %du, 0));",
                n.op == Op::Shl ? "w_shl" : "w_shr", dsig.c_str(),
                opnd(n.a).c_str(), opnd(n.b).c_str(), dw, dbits);
            break;
          default:
            assert(!"bad binary op");
        }
        break;
      }
      case Net::Kind::Mux: {
        const Net &cn = _nl.net(n.a);
        std::string cond = cn.width <= 64
            ? strfmt("%s != 0", fastVal(n.a).c_str())
            : strfmt("w_any(%s)", opnd(n.a).c_str());
        body = strfmt("if (%s) w_copy(%s, %s); else w_copy(%s, %s);",
                      cond.c_str(), dsig.c_str(), opnd(n.b).c_str(),
                      dsig.c_str(), opnd(n.c).c_str());
        break;
      }
      case Net::Kind::Slice:
        body = strfmt("w_slice(%s, %s, %d);", dsig.c_str(),
                      opnd(n.a).c_str(), n.lo);
        break;
      case Net::Kind::Concat: {
        body = strfmt("w_zero(t, %uu);", dw);
        uint32_t off = 0;
        for (auto it = n.cargs.rbegin(); it != n.cargs.rend(); ++it) {
            int pw = _nl.net(*it).width;
            if (pw <= 0)
                continue;
            if (off < dw * 64)
                body += strfmt(" w_inject(t, %uu, %s, %du, %uu);", dw,
                               opnd(*it).c_str(), pw, off);
            off += static_cast<uint32_t>(pw);
        }
        body += strfmt(" t[%uu] &= wmask(%du);", dw - 1, dbits);
        break;
      }
      case Net::Kind::Rom: {
        std::string tbl = romTable(n);
        body = strfmt("uint64_t a0 = wat(%s, 0); "
                      "if (a0 < %zuull) __builtin_memcpy(t, "
                      "&%s[a0 * %uu], "
                      "%uu * 8); else w_zero(t, %uu);",
                      opnd(n.a).c_str(), n.rom->size(), tbl.c_str(),
                      dw, dw, dw);
        break;
      }
      default:
        assert(!"source in strict order");
    }
    os << _ind << "{ ev++; uint64_t t[" << dw << "]; " << body << " "
       << "w_store(c, " << id << ", "
       << ptrOf(id) << ", t, " << dw << "u); }\n";
}

void
CppEmitter::emitLevelFns(std::ostringstream &os)
{
    // All sparse drains first, all dense bodies after: a sparse
    // frame's control flow then stays inside one contiguous stretch
    // of text instead of hopping over the (usually idle) dense
    // variants between levels.
    for (size_t l = 0; l < _levels; l++) {
        const auto &nodes = _level_nodes[l];
        if (!hasSparseDrain(nodes.size()))
            continue;
        os << "\n/* level " << l << ": " << nodes.size()
           << " nodes, bitmap words [" << _bm_off[l] << ", "
           << _bm_off[l + 1] << ") */\n";

        // Sparse path: drain the level's exact occupancy bitmap in
        // ascending slot order (ctz per word).  Slots are dense
        // within the level, so the dispatch switch is a contiguous
        // jump table and the jumps walk forward through the level's
        // code — the i-cache-friendly order on large designs.
        os << "static uint64_t lvl_s_" << l << "(Ctx *c)\n{\n"
           << "    uint64_t ev = 0;\n"
           << "    c->wn[" << l << "] = 0;\n"
           << "    for (uint32_t wi = " << _bm_off[l]
           << "u; wi < " << _bm_off[l + 1] << "u; wi++) {\n"
           << "        uint64_t w = c->wbm[wi];\n"
           << "        if (!w)\n"
           << "            continue;\n"
           << "        c->wbm[wi] = 0;\n"
           << "        uint32_t base = (wi - " << _bm_off[l]
           << "u) << 6;\n"
           << "        do {\n"
           << "        switch (base + "
              "(uint32_t)__builtin_ctzll(w)) {\n";
        _ind = "            ";
        for (size_t s = 0; s < nodes.size(); s++) {
            os << "        case " << s << "u: {\n";
            emitNode(os, nodes[s]);
            os << "        } break;\n";
        }
        os << "        default: break;\n"
           << "        }\n"
           << "        w &= w - 1;\n"
           << "        } while (w);\n"
           << "    }\n"
           << "    return ev;\n"
           << "}\n";
    }

    for (size_t l = 0; l < _levels; l++) {
        const auto &nodes = _level_nodes[l];
        if (nodes.empty())
            continue;
        // Dense path: straight-line over every node, no queue reads —
        // value comparison alone decides the changed list.  Used for
        // whole dense frames and for single-level escalation inside
        // sparse frames (onChange then still feeds later levels).
        os << "\nstatic uint64_t lvl_d_" << l << "(Ctx *c)\n{\n"
           << "    uint64_t ev = 0;\n";
        _ind = "    ";
        for (NetId id : nodes)
            emitNode(os, id);
        os << "    return ev;\n"
           << "}\n";
    }
    _ind.clear();
}

std::string
CppEmitter::run()
{
    layoutState();
    layoutLevels();

    std::ostringstream body;
    emitLevelFns(body);

    // Tables are rendered after the level functions so every ROM the
    // node bodies reference has been registered.
    std::ostringstream tables;
    emitTables(tables);

    std::ostringstream os;
    os << "// Generated by anvilc --emit-cpp; design '" << _name
       << "'.\n"
       << "// Implements AnvilKernel (see src/rtl/kernel_abi.h and "
          "docs/compile.md);\n"
       << "// compile with: c++ -O2 -fPIC -shared -nostdlib -o "
          "kernel.so <this file>\n"
       << "// No headers and no runtime: the only external symbols are\n"
       << "// libc's calloc, free and mem*, bound from the host process.\n"
       << "typedef __INT32_TYPE__ int32_t;\n"
       << "typedef __INT64_TYPE__ int64_t;\n"
       << "typedef __UINT32_TYPE__ uint32_t;\n"
       << "typedef __UINT64_TYPE__ uint64_t;\n\n"
       << "extern \"C\" {\n"
       << "void *calloc(__SIZE_TYPE__ n, __SIZE_TYPE__ size);\n"
       << "void free(void *p);\n"
       << "typedef struct AnvilKernelStats {\n"
       << "    uint64_t frames;\n"
       << "    uint64_t dense_frames;\n"
       << "    uint64_t fallback_switches;\n"
       << "    uint64_t nodes_evaluated;\n"
       << "    uint64_t nets_changed;\n"
       << "} AnvilKernelStats;\n"
       << "typedef struct AnvilKernel {\n"
       << "    uint32_t abi_version;\n"
       << "    uint32_t net_count;\n"
       << "    uint64_t design_hash;\n"
       << "    uint64_t state_words;\n"
       << "    void *(*create)(void);\n"
       << "    void (*destroy)(void *ctx);\n"
       << "    uint64_t *(*net_ptr)(void *ctx, int32_t net);\n"
       << "    void (*poke)(void *ctx, int32_t net);\n"
       << "    uint64_t (*eval)(void *ctx, int32_t *changed, "
          "uint64_t *n_changed);\n"
       << "    uint64_t (*eval_full)(void *ctx, int32_t *changed, "
          "uint64_t *n_changed);\n"
       << "    void (*stats)(void *ctx, AnvilKernelStats *out);\n"
       << "    uint32_t level_count;\n"
       << "    void (*level_stats)(void *ctx, uint64_t *out);\n"
       << "    uint64_t (*edge)(void *ctx, const int32_t *changed, "
          "uint64_t n_changed,\n"
       << "                     int32_t *regs, uint64_t *n_regs);\n"
       << "    uint64_t *(*shadow_ptr)(void *ctx);\n"
       << "} AnvilKernel;\n"
       << "const AnvilKernel *anvil_kernel(void);\n"
       << "}\n\n"
       << "namespace {\n\n";

    os << tables.str() << "\n";
    os << _rom_defs.str();
    if (_wide)
        os << kWidePrelude << "\n";

    os << R"(struct Ctx
{
    uint64_t s[kStateWords];
    uint64_t wbm[kBmWords ? kBmWords : 1];   // per-level occupancy
    uint32_t wn[kLevels ? kLevels : 1];      // queued-bit upper bound
    int32_t *out;             // changed-net list of the current eval
    uint64_t nout;
    uint64_t dense;           // adaptive: prefer the dense path
    uint64_t fdense;          // current frame runs fully dense
    AnvilKernelStats st;
    uint64_t lvl_ev[kLevels ? kLevels : 1];  // evals per level
    uint64_t sh[kShadowWords ? kShadowWords : 1];  // wires at last edge
    uint64_t nx[kNextWords ? kNextWords : 1];      // staged registers
    uint64_t tbm[kRegBmWords ? kRegBmWords : 1];   // registers staged
};

/* Queue the strict consumers of a changed net: set their slot bits.
 * The bitmap dedupes by construction (setting a set bit is a no-op),
 * so no epoch bookkeeping is needed; wn[] only over-counts repeat
 * enqueues, and is read as "level non-empty" plus an escalation
 * heuristic, where an over-count is harmless. */
static inline void enq(Ctx *c, int32_t id)
{
    for (uint32_t k = kConsBegin[id]; k < kConsBegin[id + 1]; k++) {
        int32_t t = kConsNet[k];
        uint32_t s = kSlotOf[t];
        c->wbm[kBmOff[kLevelOf[t]] + (s >> 6)] |= 1ull << (s & 63);
        c->wn[kLevelOf[t]]++;
    }
}

/* A node's value changed: record it, and queue its consumers unless
 * the whole frame is dense (then every node runs anyway).  Inside a
 * sparse frame a single level can escalate to its straight-line body
 * when its queue is a large fraction of the level, so later levels
 * still rely on exact queues.  Deliberately NOT inlined: the hook
 * appears in every node body, and keeping the bodies at compare +
 * store + call is what keeps the level functions resident in the
 * i-cache on multi-MB designs — the call costs a couple of ns and only
 * on an actual change. */
static __attribute__((noinline)) void onChange(Ctx *c, int32_t id)
{
    c->out[c->nout++] = id;
    if (!c->fdense)
        enq(c, id);
}
)";
    if (_wide)
        os << kWideStores;

    os << body.str();

    os << "\nstatic uint64_t do_eval(Ctx *c, int32_t *out, "
          "uint64_t *nout, int full)\n{\n"
       << "    c->out = out;\n"
       << "    c->nout = 0;\n"
       << "    uint64_t ev = 0;\n"
       << "    int dense = full | (int)c->dense;\n"
       << "    c->fdense = (uint64_t)dense;\n"
       << "    if (dense) {\n";
    for (size_t l = 0; l < _levels; l++)
        if (!_level_nodes[l].empty())
            os << "        { uint64_t e = lvl_d_" << l
               << "(c); ev += e; c->lvl_ev[" << l << "] += e; }\n";
    os << "        __builtin_memset(c->wbm, 0, sizeof(c->wbm));\n"
       << "        __builtin_memset(c->wn, 0, sizeof(c->wn));\n"
       << "        c->st.dense_frames++;\n"
       << "    } else {\n";
    // A level's queue is only fed from strictly earlier levels (and
    // pokes), so testing each depth just before its turn is exact.
    // A level escalates to its straight-line body when its queue
    // covers >= 1/kEscalateDiv of the level: at that density the
    // per-node dispatch costs more than recomputing the stragglers,
    // and compare-stores keep the changed list exact either way.
    for (size_t l = 0; l < _levels; l++) {
        size_t sz = _level_nodes[l].size();
        if (sz == 0)
            continue;
        bool sparse = hasSparseDrain(sz);
        std::string ind = sparse ? "                " : "            ";
        os << "        if (c->wn[" << l << "]) {\n"
           << "            uint64_t e;\n";
        if (sparse)
            os << "            if (c->wn[" << l << "] * " << kEscalateDiv
               << "u >= " << sz << "u) {\n";
        os << ind << "c->wn[" << l << "] = 0;\n"
           << ind << "__builtin_memset(c->wbm + " << _bm_off[l]
           << "u, 0, " << (_bm_off[l + 1] - _bm_off[l]) << "u * 8u);\n"
           << ind << "e = lvl_d_" << l << "(c);\n";
        if (sparse)
            os << "            } else {\n"
               << "                e = lvl_s_" << l << "(c);\n"
               << "            }\n";
        os << "            ev += e;\n"
           << "            c->lvl_ev[" << l << "] += e;\n"
           << "        }\n";
    }
    os << "    }\n"
       << "    if (kStrictNodes) {\n"
       << "        // Adaptive fallback hysteresis, mirroring the\n"
       << "        // interpreter: enter dense above ~50% changed,\n"
       << "        // leave below 40%.\n"
       << "        if (c->nout * 2 > kStrictNodes) {\n"
       << "            if (!c->dense)\n"
       << "                c->st.fallback_switches++;\n"
       << "            c->dense = 1;\n"
       << "        } else if (c->nout * 5 < kStrictNodes * 2) {\n"
       << "            c->dense = 0;\n"
       << "        }\n"
       << "    }\n"
       << "    c->st.frames++;\n"
       << "    c->st.nodes_evaluated += ev;\n"
       << "    c->st.nets_changed += c->nout;\n"
       << "    *nout = c->nout;\n"
       << "    return ev;\n"
       << "}\n\n";

    os << R"(static void *k_create(void)
{
    Ctx *c = (Ctx *)calloc(1, sizeof(Ctx));
    if (!c)
        return 0;
    __builtin_memcpy(c->s, kInit, sizeof(c->s));
    return c;
}
static void k_destroy(void *ctx) { free(ctx); }
static uint64_t *k_net_ptr(void *ctx, int32_t net)
{
    return ((Ctx *)ctx)->s + kOff[net];
}
// Not inlined: the edge calls it too, and one copy of the enqueue
// loop is cheaper to compile than two.
static __attribute__((noinline)) void k_poke(void *ctx, int32_t net)
{
    // Bits persist until drained, so pokes between frames simply
    // accumulate for the next eval.
    enq((Ctx *)ctx, net);
}
static uint64_t k_eval(void *ctx, int32_t *changed, uint64_t *n)
{
    return do_eval((Ctx *)ctx, changed, n, 0);
}
static uint64_t k_eval_full(void *ctx, int32_t *changed, uint64_t *n)
{
    return do_eval((Ctx *)ctx, changed, n, 1);
}
static void k_stats(void *ctx, AnvilKernelStats *out)
{
    *out = ((Ctx *)ctx)->st;
}
static void k_level_stats(void *ctx, uint64_t *out)
{
    __builtin_memcpy(out, ((Ctx *)ctx)->lvl_ev, kLevels * 8);
}
)";

    os << kEdgeFns;

    os << "\nstatic const AnvilKernel kKernel = {\n"
       << "    " << ANVIL_KERNEL_ABI_VERSION << "u, kNets, "
       << hexU64(rtl::designHash(_nl)) << ", kStateWords,\n"
       << "    k_create, k_destroy, k_net_ptr, k_poke, k_eval, "
          "k_eval_full, k_stats,\n"
       << "    kLevels, k_level_stats, k_edge, k_shadow_ptr,\n"
       << "};\n\n"
       << "} // namespace\n\n"
       << "extern \"C\" const AnvilKernel *\nanvil_kernel(void)\n"
       << "{\n    return &kKernel;\n}\n";
    return os.str();
}

} // namespace

std::string
emitCppKernel(const Netlist &nl, const std::string &design_name)
{
    CppEmitter e(nl, design_name);
    return e.run();
}

} // namespace codegen
} // namespace anvil
