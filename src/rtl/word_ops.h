/**
 * @file
 * The one definition of what a node record computes: the opcodes of
 * rtl::KernelLayout's node records and the per-opcode step functions
 * over packed state words.  rtl::KernelHost's executor runs them for
 * every record it steps, and every JIT unit runs them in its dense
 * bodies, so the two cannot disagree; both are checked against
 * rtl::RefSim's BitVec operators (test_sim_netlist `HostExecutor.*`).
 *
 * The file is code twice over, with no build step.  Its text is two
 * ANVIL_WORD_OPS invocations, the narrow lane and then the wide lane:
 *  - rtl/kernel_host.h compiles them, after
 *    `#define ANVIL_WORD_OPS(...) __VA_ARGS__`;
 *  - codegen/cpp_emitter.cpp embeds them in every unit as strings,
 *    after `#define ANVIL_WORD_OPS(...) #__VA_ARGS__,`; a unit carries
 *    the wide lane only when it has a wide record.
 * So the code below uses no header, macro or directive, and no name a
 * unit lacks: beyond the language, only uint32_t, int64_t, uint64_t
 * and unsigned __int128.  Comments do not reach the unit.
 *
 * Values are little-endian 64-bit words, ceil(width/64) (at least one)
 * per value, normalized (bits at or above the width are zero) exactly
 * like anvil::BitVec.  A step computes a node's value from its
 * operands' words; putWord/putWords store it when it moved.
 */

ANVIL_WORD_OPS(

/* The record opcodes.  Each node kind has a narrow one (the node and
 * its operands fit a word; the record's k masks the result) and a
 * wide one at + kWide (k indexes the wide shapes).  Gt and Ge lower to
 * Lt and Le with their operands swapped, a narrow Slice to a shift by
 * an immediate or to zero. */
enum XOp
{
    XCopy, XNot, XRedOr, XRedAnd, XAnd, XOr, XXor, XAdd, XSub, XMul,
    XEq, XNe, XLt, XLe, XShl, XShr, XMux, XSlice, XCat, XRom,
    kWide,
    XNop = 2 * kWide,   /* zero width: evaluated for the count only */
    XZero,              /* a narrow Slice wholly outside its operand */
    XShrImm, XShlImm,   /* a narrow Slice: b is the shift */
    kOpCount
};

/* Which of a record's a, b and c (bits 0, 1 and 2) are state word
 * offsets.  The others are immediates (a narrow shift's width, a
 * Slice's shift), side-table ranges (Concat parts; ROM words and
 * entries) or unused, and then zero. */
constexpr uint32_t stateArgs(int op)
{
    int base = op < XNop ? op % kWide : op;
    return base == XMux ? 7u
        : base >= XAnd && base <= XShr ? 3u
        : base == XCat || base == XNop || base == XZero ? 0u
        : 1u;
}

/* A Concat operand: its first state word and bits, shifted up by
 * `shift`. */
struct XPart
{
    uint32_t off, bits, shift;
};

/* A narrow node's value from its a, b and c, each an operand's word
 * or the immediate stateArgs leaves, and its mask k (a RedAnd's k is
 * its operand's mask).  A shift amount is b masked to the node's
 * width c; at or past the width the result is zero.  (Each opcode is
 * its own `if constexpr` arm: an instance compiles only its own.) */
template <int Op>
inline __attribute__((always_inline)) uint64_t
narrowOp(uint64_t a, uint64_t b, uint64_t c, uint64_t k)
{
    if constexpr (Op == XCopy) return a & k;
    else if constexpr (Op == XNot) return ~a & k;
    else if constexpr (Op == XRedOr) return a != 0;
    else if constexpr (Op == XRedAnd) return a == k;
    else if constexpr (Op == XAnd) return a & b & k;
    else if constexpr (Op == XOr) return (a | b) & k;
    else if constexpr (Op == XXor) return (a ^ b) & k;
    else if constexpr (Op == XAdd) return ((a & k) + (b & k)) & k;
    else if constexpr (Op == XSub) return ((a & k) - (b & k)) & k;
    else if constexpr (Op == XMul) return ((a & k) * (b & k)) & k;
    else if constexpr (Op == XEq) return a == b;
    else if constexpr (Op == XNe) return a != b;
    else if constexpr (Op == XLt) return a < b;
    else if constexpr (Op == XLe) return a <= b;
    else if constexpr (Op == XShl)
        return (b & k) >= c ? 0 : ((a & k) << (b & k)) & k;
    else if constexpr (Op == XShr)
        return (b & k) >= c ? 0 : (a & k) >> (b & k);
    else if constexpr (Op == XMux) return (a ? b : c) & k;
    else if constexpr (Op == XShrImm) return (a >> b) & k;
    else if constexpr (Op == XShlImm) return (a << b) & k;
    else return 0;
}

/* A narrow Concat of the parts [p, e), each under 64 bits up. */
inline __attribute__((always_inline)) uint64_t
narrowCat(const uint64_t *s, const XPart *p, const XPart *e, uint64_t k)
{
    uint64_t r = 0;
    for (; p != e; p++)
        r |= s[p->off] << p->shift;
    return r & k;
}

/* A narrow ROM read: entry `addr` of the n one-word entries at rom,
 * zero past its end. */
inline __attribute__((always_inline)) uint64_t
narrowRom(uint64_t addr, const uint64_t *rom, uint64_t n)
{
    return addr < n ? rom[addr] : 0;
}

/* Store r over *d; whether it moved. */
inline __attribute__((always_inline)) bool
putWord(uint64_t *d, uint64_t r)
{
    if (*d == r)
        return false;
    *d = r;
    return true;
}

)

ANVIL_WORD_OPS(

/* A wide record's width, its operands' widths, and a Slice's lo. */
struct XWide
{
    uint32_t bits, abits, bbits, cbits;
    int32_t lo;
};

/* Words a value of `width` bits takes: ceil(width/64), at least one. */
inline uint32_t kernelWords(int64_t width)
{
    return width <= 0 ? 1u : static_cast<uint32_t>((width + 63) / 64);
}

/* Bits [p, p + 64) of the value at a, where bits outside [0, limit)
 * read as zero (limit is at most the value's width): the word reader
 * behind the wide lane's shifts and slices. */
inline __attribute__((always_inline)) uint64_t
bitsAt(const uint64_t *a, uint64_t limit, int64_t p)
{
    int64_t left = static_cast<int64_t>(limit) - p;
    if (left <= 0 || p <= -64)
        return 0;
    uint64_t r;
    if (p < 0) {
        r = a[0] << -p;
    } else {
        uint64_t w = static_cast<uint64_t>(p) >> 6, sh = p & 63;
        r = a[w] >> sh;
        if (sh && w + 1 < kernelWords(static_cast<int64_t>(limit)))
            r |= a[w + 1] << (64 - sh);
    }
    return left < 64 ? r & ((1ull << left) - 1) : r;
}

/* Word i of the n words at a, zero past them. */
inline __attribute__((always_inline)) uint64_t
wordAt(const uint64_t *a, uint32_t n, uint32_t i)
{
    return i < n ? a[i] : 0;
}

/* The top word's mask of a `bits`-bit value. */
inline uint64_t topMask(uint32_t bits)
{
    return bits % 64 ? (1ull << (bits % 64)) - 1 : ~0ull;
}

/* Whether any of the n words at a is nonzero. */
inline bool anyWord(const uint64_t *a, uint32_t n)
{
    for (uint32_t i = 0; i < n; i++)
        if (a[i])
            return true;
    return false;
}

/* A wide node's words into t, from its operands' words at s + a, s + b
 * and s + c and its shape x.  Comparisons read the operands
 * unresized; a shift amount is b's low word resized to the node's
 * width, and at or past the width the result is zero. */
template <int Op>
inline void
wideOp(uint64_t *t, const uint64_t *s, uint32_t a, uint32_t b, uint32_t c,
       const XWide &x)
{
    const uint64_t *pa = s + a, *pb = s + b;
    uint32_t dw = kernelWords(x.bits), aw = kernelWords(x.abits);
    uint32_t bw = kernelWords(x.bbits);
    if constexpr (Op == XRedOr || Op == XRedAnd || (Op >= XEq && Op <= XLe)) {
        for (uint32_t i = 1; i < dw; i++)
            t[i] = 0;
        if constexpr (Op == XRedOr) {
            t[0] = anyWord(pa, aw);
        } else if constexpr (Op == XRedAnd) {
            t[0] = 1;
            for (uint32_t i = 0; i < aw; i++)
                t[0] &= pa[i] == (i + 1 < aw ? ~0ull : topMask(x.abits));
        } else {
            int cmp = 0;   /* a against b: -1, 0 or 1 */
            for (uint32_t i = aw > bw ? aw : bw; i-- > 0 && !cmp;) {
                uint64_t u = wordAt(pa, aw, i), v = wordAt(pb, bw, i);
                cmp = u == v ? 0 : u < v ? -1 : 1;
            }
            t[0] = Op == XEq ? cmp == 0 : Op == XNe ? cmp != 0
                : Op == XLt ? cmp < 0 : cmp <= 0;
        }
    } else if constexpr (Op == XAdd || Op == XSub) {
        unsigned __int128 carry = Op == XSub;
        for (uint32_t i = 0; i < dw; i++) {
            uint64_t v = wordAt(pb, bw, i);
            carry += wordAt(pa, aw, i);
            carry += Op == XSub ? ~v : v;
            t[i] = static_cast<uint64_t>(carry);
            carry >>= 64;
        }
    } else if constexpr (Op == XMul) {
        for (uint32_t i = 0; i < dw; i++)
            t[i] = 0;
        for (uint32_t i = 0; i < dw; i++) {
            unsigned __int128 m = 0;
            uint64_t u = wordAt(pa, aw, i);
            for (uint32_t j = 0; i + j < dw; j++) {
                m += static_cast<unsigned __int128>(u) * wordAt(pb, bw, j);
                m += t[i + j];
                t[i + j] = static_cast<uint64_t>(m);
                m >>= 64;
            }
        }
    } else if constexpr (Op == XShl || Op == XShr) {
        int64_t sh = static_cast<int64_t>(
            bitsAt(pb, x.bbits < x.bits ? x.bbits : x.bits, 0));
        for (uint32_t j = 0; j < dw; j++)
            t[j] = static_cast<uint64_t>(sh) >= x.bits ? 0
                : Op == XShl ? bitsAt(pa, x.abits, 64ll * j - sh)
                : bitsAt(pa, x.abits < x.bits ? x.abits : x.bits,
                         64ll * j + sh);
    } else {
        /* The rest read each result word from one operand. */
        bool sel = Op == XMux && anyWord(pa, aw);
        for (uint32_t j = 0; j < dw; j++) {
            if constexpr (Op == XCopy)
                t[j] = wordAt(pa, aw, j);
            else if constexpr (Op == XNot)
                t[j] = ~wordAt(pa, aw, j);
            else if constexpr (Op == XAnd)
                t[j] = wordAt(pa, aw, j) & wordAt(pb, bw, j);
            else if constexpr (Op == XOr)
                t[j] = wordAt(pa, aw, j) | wordAt(pb, bw, j);
            else if constexpr (Op == XXor)
                t[j] = wordAt(pa, aw, j) ^ wordAt(pb, bw, j);
            else if constexpr (Op == XMux)
                t[j] = sel ? wordAt(pb, bw, j)
                           : wordAt(s + c, kernelWords(x.cbits), j);
            else
                t[j] = bitsAt(pa, x.abits, 64ll * j + x.lo);   /* XSlice */
        }
    }
    t[dw - 1] &= topMask(x.bits);
}

/* A wide Concat of the parts [p, e), part by part: each part's words
 * are ORed into the words they cover. */
inline void
wideCat(uint64_t *t, const uint64_t *s, const XPart *p, const XPart *e,
        const XWide &x)
{
    uint32_t dw = kernelWords(x.bits);
    for (uint32_t i = 0; i < dw; i++)
        t[i] = 0;
    for (; p != e; p++) {
        const uint64_t *v = s + p->off;
        uint32_t ws = p->shift / 64, bs = p->shift % 64;
        for (uint32_t j = 0; j < kernelWords(p->bits) && ws + j < dw; j++) {
            t[ws + j] |= v[j] << bs;
            if (bs && ws + j + 1 < dw)
                t[ws + j + 1] |= v[j] >> (64 - bs);
        }
    }
    t[dw - 1] &= topMask(x.bits);
}

/* A wide ROM read: entry a[0] of the n entries at rom, each the node's
 * words, zero past its end. */
inline void
wideRom(uint64_t *t, const uint64_t *a, const uint64_t *rom, uint64_t n,
        const XWide &x)
{
    uint32_t dw = kernelWords(x.bits);
    for (uint32_t i = 0; i < dw; i++)
        t[i] = a[0] < n ? rom[a[0] * dw + i] : 0;
}

/* Store the n words at t over d; whether they moved. */
inline __attribute__((always_inline)) bool
putWords(uint64_t *d, const uint64_t *t, uint32_t n)
{
    if (__builtin_memcmp(d, t, n * 8) == 0)
        return false;
    __builtin_memcpy(d, t, n * 8);
    return true;
}

)
