// Generated by anvilc --emit-cpp; design 'ping_server'.
// The dense level bodies of an AnvilKernel (see src/rtl/kernel_abi.h and
// docs/compile.md), run by the host's rtl::KernelHost; each node calls
// the step of its record in src/rtl/word_ops.h, embedded below.
// compile with: c++ -O2 -fPIC -shared -nostdlib -o kernel.so <this file>
// No headers and no runtime library.
typedef __INT32_TYPE__ int32_t;
typedef __INT64_TYPE__ int64_t;
typedef __UINT32_TYPE__ uint32_t;
typedef __UINT64_TYPE__ uint64_t;

extern "C" {
typedef struct AnvilFrame {
    uint64_t *s;
    int32_t *out;
    uint64_t nout;
} AnvilFrame;
typedef uint64_t (*AnvilLevelFn)(AnvilFrame *f);
typedef struct AnvilKernel {
    uint32_t abi_version;
    uint32_t net_count;
    uint64_t design_hash;
    uint64_t state_words;
    uint32_t level_count;
    const AnvilLevelFn *dense;
} AnvilKernel;
const AnvilKernel *anvil_kernel(void);
}

namespace {

// src/rtl/word_ops.h, narrow lane
enum XOp { XCopy, XNot, XRedOr, XRedAnd, XAnd, XOr, XXor, XAdd, XSub, XMul, XEq, XNe, XLt, XLe, XShl, XShr, XMux, XSlice, XCat, XRom, kWide, XNop = 2 * kWide, XZero, XShrImm, XShlImm, kOpCount }; constexpr uint32_t stateArgs(int op) { int base = op < XNop ? op % kWide : op; return base == XMux ? 7u : base >= XAnd && base <= XShr ? 3u : base == XCat || base == XNop || base == XZero ? 0u : 1u; } struct XPart { uint32_t off, bits, shift; }; template <int Op> inline __attribute__((always_inline)) uint64_t narrowOp(uint64_t a, uint64_t b, uint64_t c, uint64_t k) { if constexpr (Op == XCopy) return a & k; else if constexpr (Op == XNot) return ~a & k; else if constexpr (Op == XRedOr) return a != 0; else if constexpr (Op == XRedAnd) return a == k; else if constexpr (Op == XAnd) return a & b & k; else if constexpr (Op == XOr) return (a | b) & k; else if constexpr (Op == XXor) return (a ^ b) & k; else if constexpr (Op == XAdd) return ((a & k) + (b & k)) & k; else if constexpr (Op == XSub) return ((a & k) - (b & k)) & k; else if constexpr (Op == XMul) return ((a & k) * (b & k)) & k; else if constexpr (Op == XEq) return a == b; else if constexpr (Op == XNe) return a != b; else if constexpr (Op == XLt) return a < b; else if constexpr (Op == XLe) return a <= b; else if constexpr (Op == XShl) return (b & k) >= c ? 0 : ((a & k) << (b & k)) & k; else if constexpr (Op == XShr) return (b & k) >= c ? 0 : (a & k) >> (b & k); else if constexpr (Op == XMux) return (a ? b : c) & k; else if constexpr (Op == XShrImm) return (a >> b) & k; else if constexpr (Op == XShlImm) return (a << b) & k; else return 0; } inline __attribute__((always_inline)) uint64_t narrowCat(const uint64_t *s, const XPart *p, const XPart *e, uint64_t k) { uint64_t r = 0; for (; p != e; p++) r |= s[p->off] << p->shift; return r & k; } inline __attribute__((always_inline)) uint64_t narrowRom(uint64_t addr, const uint64_t *rom, uint64_t n) { return addr < n ? rom[addr] : 0; } inline __attribute__((always_inline)) bool putWord(uint64_t *d, uint64_t r) { if (*d == r) return false; *d = r; return true; }

static __attribute__((noinline)) void onChange(AnvilFrame *f, int32_t id)
{
    f->out[f->nout++] = id;
}

static uint64_t lvl_d_1(AnvilFrame *f)
{
    uint64_t *s = f->s;
    // n19 w1
    { uint64_t r = narrowOp<XNot>(s[4], 0, 0, 0x1ull); if (s[19] != r) { s[19] = r; onChange(f, 19); } }
    // n20 w1
    { uint64_t r = narrowOp<XOr>(s[7], s[6], 0, 0x1ull); if (s[20] != r) { s[20] = r; onChange(f, 20); } }
    // n21 w8
    { uint64_t r = narrowOp<XAdd>(s[0], 0x1ull, 0, 0xffull); if (s[21] != r) { s[21] = r; onChange(f, 21); } }
    return 3;
}

static uint64_t lvl_d_2(AnvilFrame *f)
{
    uint64_t *s = f->s;
    // n22 w1 t0_ev0
    { uint64_t r = narrowOp<XOr>(s[19], s[8], 0, 0x1ull); if (s[22] != r) { s[22] = r; onChange(f, 22); } }
    // n23 w1 t0_ev3
    { uint64_t r = narrowOp<XAnd>(s[20], s[2], 0, 0x1ull); if (s[23] != r) { s[23] = r; onChange(f, 23); } }
    // n24 w8 io_pong_data
    { uint64_t r = narrowOp<XMux>(s[20], s[3], 0x0ull, 0xffull); if (s[24] != r) { s[24] = r; onChange(f, 24); } }
    // n25 w1 io_pong_valid
    { uint64_t r = narrowOp<XOr>(0x0ull, s[20], 0, 0x1ull); if (s[25] != r) { s[25] = r; onChange(f, 25); } }
    return 4;
}

static uint64_t lvl_d_3(AnvilFrame *f)
{
    uint64_t *s = f->s;
    // n26 w1
    { uint64_t r = narrowOp<XOr>(s[5], s[22], 0, 0x1ull); if (s[26] != r) { s[26] = r; onChange(f, 26); } }
    // n27 w1
    { uint64_t r = narrowOp<XNot>(s[23], 0, 0, 0x1ull); if (s[27] != r) { s[27] = r; onChange(f, 27); } }
    return 2;
}

static uint64_t lvl_d_4(AnvilFrame *f)
{
    uint64_t *s = f->s;
    // n28 w1 t0_ev1
    { uint64_t r = narrowOp<XAnd>(s[26], s[1], 0, 0x1ull); if (s[28] != r) { s[28] = r; onChange(f, 28); } }
    // n29 w1 io_ping_ack
    { uint64_t r = narrowOp<XOr>(0x0ull, s[26], 0, 0x1ull); if (s[29] != r) { s[29] = r; onChange(f, 29); } }
    // n30 w1
    { uint64_t r = narrowOp<XAnd>(s[20], s[27], 0, 0x1ull); if (s[30] != r) { s[30] = r; onChange(f, 30); } }
    return 3;
}

static uint64_t lvl_d_5(AnvilFrame *f)
{
    uint64_t *s = f->s;
    // n31 w1
    { uint64_t r = narrowOp<XNot>(s[28], 0, 0, 0x1ull); if (s[31] != r) { s[31] = r; onChange(f, 31); } }
    return 1;
}

static uint64_t lvl_d_6(AnvilFrame *f)
{
    uint64_t *s = f->s;
    // n32 w1
    { uint64_t r = narrowOp<XAnd>(s[26], s[31], 0, 0x1ull); if (s[32] != r) { s[32] = r; onChange(f, 32); } }
    return 1;
}

static const AnvilLevelFn kDense[7] = {
    0, lvl_d_1, lvl_d_2, lvl_d_3,
    lvl_d_4, lvl_d_5, lvl_d_6,
};

static const AnvilKernel kKernel = {
    6u, 33u, 0xf7cad46875daddd1ull, 33ull,
    7u, kDense,
};

} // namespace

extern "C" const AnvilKernel *
anvil_kernel(void)
{
    return &kKernel;
}
