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

/** Packed-word helpers embedded in every generated unit.  They
 *  replicate anvil::BitVec semantics exactly (see support/bitvec.cpp):
 *  values are little-endian word arrays, normalized so bits at or
 *  above the width are zero; reads beyond a value's words are zero. */
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
    void emitNode(std::ostringstream &os, NetId id, bool dense);
    void emitFastNode(std::ostringstream &os, NetId id, bool dense);
    void emitWideNode(std::ostringstream &os, NetId id, bool dense);
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
CppEmitter::emitNode(std::ostringstream &os, NetId id, bool dense)
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
        emitFastNode(os, id, dense);
    else
        emitWideNode(os, id, dense);
}

void
CppEmitter::emitFastNode(std::ostringstream &os, NetId id, bool dense)
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
       << "]; if (*p != r) { *p = r; "
       << (dense ? "onChangeD" : "onChange") << "(c, " << id
       << "); } }\n";
}

void
CppEmitter::emitWideNode(std::ostringstream &os, NetId id, bool dense)
{
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
                      "if (a0 < %zuull) memcpy(t, &%s[a0 * %uu], "
                      "%uu * 8); else w_zero(t, %uu);",
                      opnd(n.a).c_str(), n.rom->size(), tbl.c_str(),
                      dw, dw, dw);
        break;
      }
      default:
        assert(!"source in strict order");
    }
    os << _ind << "{ ev++; uint64_t t[" << dw << "]; " << body << " "
       << (dense ? "w_stored" : "w_store") << "(c, " << id << ", "
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
        if (nodes.empty())
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
            emitNode(os, nodes[s], false);
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
        // sparse frames (onChangeD then still feeds later levels).
        os << "\nstatic uint64_t lvl_d_" << l << "(Ctx *c)\n{\n"
           << "    uint64_t ev = 0;\n";
        _ind = "    ";
        for (NetId id : nodes)
            emitNode(os, id, true);
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
       << "// compile with: c++ -O2 -fPIC -shared -o kernel.so "
          "<this file>\n"
       << "#include <stdint.h>\n"
       << "#include <stdlib.h>\n"
       << "#include <string.h>\n\n"
       << "extern \"C\" {\n"
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
       << "} AnvilKernel;\n"
       << "const AnvilKernel *anvil_kernel(void);\n"
       << "}\n\n"
       << "namespace {\n\n";

    os << tables.str() << "\n";
    os << _rom_defs.str();
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

/* Sparse-path change: record it and propagate (change-cutting — an
 * unchanged recompute never reaches here, so consumers stay idle).
 * Deliberately NOT inlined: the hooks appear in every node body, and
 * keeping the bodies at compare + store + call is what keeps the
 * level functions resident in the i-cache on multi-MB designs — the
 * call costs a couple of ns and only on an actual change. */
static __attribute__((noinline)) void onChange(Ctx *c, int32_t id)
{
    c->out[c->nout++] = id;
    enq(c, id);
}

/* Dense-evaluated change: record it, and feed downstream worklists
 * unless the whole frame is dense (then every node runs anyway).  A
 * single level can escalate to its straight-line body inside an
 * otherwise sparse frame when its queue is a large fraction of the
 * level, so later levels still rely on exact queues. */
static __attribute__((noinline)) void onChangeD(Ctx *c, int32_t id)
{
    c->out[c->nout++] = id;
    if (!c->fdense)
        enq(c, id);
}

static inline void w_store(Ctx *c, int32_t id, uint64_t *dst,
                           const uint64_t *t, uint32_t words)
{
    if (memcmp(dst, t, words * 8) != 0) {
        memcpy(dst, t, words * 8);
        onChange(c, id);
    }
}

static inline void w_stored(Ctx *c, int32_t id, uint64_t *dst,
                            const uint64_t *t, uint32_t words)
{
    if (memcmp(dst, t, words * 8) != 0) {
        memcpy(dst, t, words * 8);
        onChangeD(c, id);
    }
}
)";

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
    os << "        memset(c->wbm, 0, sizeof(c->wbm));\n"
       << "        for (uint32_t l = 0; l < kLevels; l++)\n"
       << "            c->wn[l] = 0;\n"
       << "        c->st.dense_frames++;\n"
       << "    } else {\n";
    // A level's queue is only fed from strictly earlier levels (and
    // pokes), so testing each depth just before its turn is exact.
    // A level escalates to its straight-line body when its queue
    // covers >= 25% of the level: at that density the per-node
    // dispatch costs more than recomputing the stragglers, and
    // compare-stores keep the changed list exact either way.
    for (size_t l = 0; l < _levels; l++) {
        if (_level_nodes[l].empty())
            continue;
        size_t sz = _level_nodes[l].size();
        os << "        if (c->wn[" << l << "]) {\n"
           << "            uint64_t e;\n"
           << "            if (c->wn[" << l << "] * 4u >= " << sz
           << "u) {\n"
           << "                c->wn[" << l << "] = 0;\n"
           << "                memset(c->wbm + " << _bm_off[l]
           << "u, 0, " << (_bm_off[l + 1] - _bm_off[l])
           << "u * 8u);\n"
           << "                e = lvl_d_" << l << "(c);\n"
           << "            } else {\n"
           << "                e = lvl_s_" << l << "(c);\n"
           << "            }\n"
           << "            ev += e;\n"
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
    memcpy(c->s, kInit, sizeof(c->s));
    return c;
}
static void k_destroy(void *ctx) { free(ctx); }
static uint64_t *k_net_ptr(void *ctx, int32_t net)
{
    return ((Ctx *)ctx)->s + kOff[net];
}
static void k_poke(void *ctx, int32_t net)
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
    Ctx *c = (Ctx *)ctx;
    for (uint32_t l = 0; l < kLevels; l++)
        out[l] = c->lvl_ev[l];
}
)";

    os << "\nstatic const AnvilKernel kKernel = {\n"
       << "    " << ANVIL_KERNEL_ABI_VERSION << "u, kNets, "
       << hexU64(rtl::designHash(_nl)) << ", kStateWords,\n"
       << "    k_create, k_destroy, k_net_ptr, k_poke, k_eval, "
          "k_eval_full, k_stats,\n"
       << "    kLevels, k_level_stats,\n"
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
