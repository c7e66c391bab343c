#include "codegen/cpp_emitter.h"

#include <cassert>
#include <map>
#include <sstream>

#include "codegen/emit_util.h"
#include "rtl/kernel_abi.h"
#include "rtl/kernel_host.h"
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

/** The change hook: list the node.  The host queues the consumers
 *  of a body's changes once it returns (kernel_abi.h).  Deliberately
 *  NOT inlined: the hook appears in every node body, and keeping the
 *  bodies at compare + store + call is what keeps the level functions
 *  resident in the i-cache on multi-MB designs — the call costs a
 *  couple of ns and only on an actual change. */
const char *kChangeHook = R"(
static __attribute__((noinline)) void onChange(AnvilFrame *f, int32_t id)
{
    f->out[f->nout++] = id;
}
)";

/** The wide lane's compare-and-store hook. */
const char *kWideStores = R"(
static inline void w_store(AnvilFrame *f, int32_t id, uint64_t *dst,
                           const uint64_t *t, uint32_t words)
{
    if (__builtin_memcmp(dst, t, words * 8) != 0) {
        __builtin_memcpy(dst, t, words * 8);
        onChange(f, id);
    }
}
)";

class CppEmitter
{
  public:
    CppEmitter(const Netlist &nl, const rtl::KernelLayout &layout,
               const std::string &design_name)
        : _nl(nl), _L(layout), _name(design_name)
    {
    }

    std::string run();

  private:
    std::string romTable(const Net &n);
    void emitNode(std::ostringstream &os, NetId id);
    void emitFastNode(std::ostringstream &os, NetId id);
    void emitWideNode(std::ostringstream &os, NetId id);
    void emitLevelFns(std::ostringstream &os);
    std::string fastVal(NetId o) const;   // u64 value of an operand
    std::string ptrOf(NetId o) const;     // &s[off]
    uint32_t wordsOf(NetId o) const
    {
        return rtl::kernelWords(_nl.net(o).width);
    }
    uint32_t offOf(NetId o) const
    {
        return _L.off[static_cast<size_t>(o)];
    }
    /** Level l's nodes, in slot order. */
    const NetId *levelNodes(size_t l) const
    {
        return _nl.order().data() + _nl.levelBegin()[l];
    }

    const Netlist &_nl;
    const rtl::KernelLayout &_L;
    std::string _name;
    std::map<std::pair<const void *, int>, std::string> _roms;
    std::ostringstream _rom_defs;
    bool _wide = false;                   // some node took the wide lane
};

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

std::string
CppEmitter::fastVal(NetId o) const
{
    const Net &n = _nl.net(o);
    if (n.kind == Net::Kind::Const)
        return hexU64(
            _nl.initValues()[static_cast<size_t>(o)].toUint64());
    return strfmt("s[%u]", offOf(o));
}

std::string
CppEmitter::ptrOf(NetId o) const
{
    return strfmt("&s[%u]", offOf(o));
}

void
CppEmitter::emitNode(std::ostringstream &os, NetId id)
{
    const Net &n = _nl.net(id);
    const std::string &nm = _nl.nameOf(id);
    os << "    // n" << id << " w" << n.width;
    if (!nm.empty())
        os << " " << nm;
    os << "\n";
    if (n.width <= 0) {
        // Zero-width values are the empty bit string: permanently
        // zero, evaluated for the activity count only.
        os << "    { ev++; }\n";
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
    os << "    { ev++; " << body << store << " uint64_t *p = &s["
       << offOf(id) << "]; if (*p != r) { *p = r; onChange(f, " << id
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
    os << "    { ev++; uint64_t t[" << dw << "]; " << body << " "
       << "w_store(f, " << id << ", "
       << ptrOf(id) << ", t, " << dw << "u); }\n";
}

void
CppEmitter::emitLevelFns(std::ostringstream &os)
{
    // One straight-line body per non-empty level, over every node with
    // no queue reads: value comparison alone decides the changed list.
    // The host runs it for whole dense frames and for a level that
    // escalates inside a sparse frame, and drains the other sparse
    // visits itself, so each node is compiled exactly once.
    for (size_t l = 0; l < _L.levels(); l++) {
        if (_L.level_size[l] == 0)
            continue;
        os << "\nstatic uint64_t lvl_d_" << l << "(AnvilFrame *f)\n{\n"
           << "    uint64_t *s = f->s, ev = 0;\n";
        const NetId *nodes = levelNodes(l);
        for (uint32_t k = 0; k < _L.level_size[l]; k++)
            emitNode(os, nodes[k]);
        os << "    return ev;\n"
           << "}\n";
    }
}

std::string
CppEmitter::run()
{
    // The ROM tables are rendered after the level functions, which
    // register every ROM their node bodies reference.
    std::ostringstream body;
    emitLevelFns(body);

    std::ostringstream os;
    os << "// Generated by anvilc --emit-cpp; design '" << _name
       << "'.\n"
       << "// The dense level bodies of an AnvilKernel (see "
          "src/rtl/kernel_abi.h and\n"
       << "// docs/compile.md), run by the host's rtl::KernelHost;\n"
       << "// compile with: c++ -O2 -fPIC -shared -nostdlib -o "
          "kernel.so <this file>\n"
       << "// No headers and no runtime library.\n"
       << "typedef __INT32_TYPE__ int32_t;\n"
       << "typedef __INT64_TYPE__ int64_t;\n"
       << "typedef __UINT32_TYPE__ uint32_t;\n"
       << "typedef __UINT64_TYPE__ uint64_t;\n\n"
       << "extern \"C\" {\n"
       << "typedef struct AnvilFrame {\n"
       << "    uint64_t *s;\n"
       << "    int32_t *out;\n"
       << "    uint64_t nout;\n"
       << "} AnvilFrame;\n"
       << "typedef uint64_t (*AnvilLevelFn)(AnvilFrame *f);\n"
       << "typedef struct AnvilKernel {\n"
       << "    uint32_t abi_version;\n"
       << "    uint32_t net_count;\n"
       << "    uint64_t design_hash;\n"
       << "    uint64_t state_words;\n"
       << "    uint32_t level_count;\n"
       << "    const AnvilLevelFn *dense;\n"
       << "} AnvilKernel;\n"
       << "const AnvilKernel *anvil_kernel(void);\n"
       << "}\n\n"
       << "namespace {\n\n";

    os << _rom_defs.str();
    if (_wide)
        os << kWidePrelude << "\n";

    os << kChangeHook;
    if (_wide)
        os << kWideStores;

    os << body.str() << "\n";

    size_t levels = _L.levels();
    if (levels) {
        os << "static const AnvilLevelFn kDense[" << levels << "] = {";
        for (size_t l = 0; l < levels; l++)
            os << (l % 4 == 0 ? "\n    " : " ")
               << (_L.level_size[l] ? "lvl_d_" + std::to_string(l) : "0")
               << ",";
        os << "\n};\n";
    }
    os << "\nstatic const AnvilKernel kKernel = {\n"
       << "    " << ANVIL_KERNEL_ABI_VERSION << "u, " << _L.net_count
       << "u, " << hexU64(rtl::designHash(_nl)) << ", "
       << _L.state_words << "ull,\n"
       << "    " << levels << "u, " << (levels ? "kDense" : "0") << ",\n"
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
    CppEmitter e(nl, *nl.layout(), design_name);
    return e.run();
}

} // namespace codegen
} // namespace anvil
