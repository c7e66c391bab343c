// Generated by anvilc --emit-cpp; design 'ping_server'.
// The dense level bodies of an AnvilKernel (see src/rtl/kernel_abi.h and
// docs/compile.md), run by the host's rtl::KernelHost;
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


static __attribute__((noinline)) void onChange(AnvilFrame *f, int32_t id)
{
    f->out[f->nout++] = id;
}

static uint64_t lvl_d_1(AnvilFrame *f)
{
    uint64_t *s = f->s, ev = 0;
    // n18 w1
    { ev++; uint64_t r = ~s[4]; r &= 0x1ull; uint64_t *p = &s[18]; if (*p != r) { *p = r; onChange(f, 18); } }
    // n22 w1
    { ev++; uint64_t r = s[7] | s[6]; r &= 0x1ull; uint64_t *p = &s[22]; if (*p != r) { *p = r; onChange(f, 22); } }
    // n36 w8
    { ev++; uint64_t r = (s[0] & 0xffull) + (0x1ull & 0xffull); r &= 0xffull; uint64_t *p = &s[36]; if (*p != r) { *p = r; onChange(f, 36); } }
    return ev;
}

static uint64_t lvl_d_2(AnvilFrame *f)
{
    uint64_t *s = f->s, ev = 0;
    // n19 w1 t0_ev0
    { ev++; uint64_t r = s[18] | s[8]; r &= 0x1ull; uint64_t *p = &s[19]; if (*p != r) { *p = r; onChange(f, 19); } }
    // n23 w1 t0_ev3
    { ev++; uint64_t r = s[22] & s[2]; r &= 0x1ull; uint64_t *p = &s[23]; if (*p != r) { *p = r; onChange(f, 23); } }
    // n27 w8 io_pong_data
    { ev++; uint64_t r = s[22] ? s[3] : 0x0ull; r &= 0xffull; uint64_t *p = &s[27]; if (*p != r) { *p = r; onChange(f, 27); } }
    // n29 w1 io_pong_valid
    { ev++; uint64_t r = 0x0ull | s[22]; r &= 0x1ull; uint64_t *p = &s[29]; if (*p != r) { *p = r; onChange(f, 29); } }
    return ev;
}

static uint64_t lvl_d_3(AnvilFrame *f)
{
    uint64_t *s = f->s, ev = 0;
    // n20 w1
    { ev++; uint64_t r = s[5] | s[19]; r &= 0x1ull; uint64_t *p = &s[20]; if (*p != r) { *p = r; onChange(f, 20); } }
    // n39 w1
    { ev++; uint64_t r = ~s[23]; r &= 0x1ull; uint64_t *p = &s[39]; if (*p != r) { *p = r; onChange(f, 39); } }
    return ev;
}

static uint64_t lvl_d_4(AnvilFrame *f)
{
    uint64_t *s = f->s, ev = 0;
    // n21 w1 t0_ev1
    { ev++; uint64_t r = s[20] & s[1]; r &= 0x1ull; uint64_t *p = &s[21]; if (*p != r) { *p = r; onChange(f, 21); } }
    // n25 w1 io_ping_ack
    { ev++; uint64_t r = 0x0ull | s[20]; r &= 0x1ull; uint64_t *p = &s[25]; if (*p != r) { *p = r; onChange(f, 25); } }
    // n40 w1
    { ev++; uint64_t r = s[22] & s[39]; r &= 0x1ull; uint64_t *p = &s[40]; if (*p != r) { *p = r; onChange(f, 40); } }
    return ev;
}

static uint64_t lvl_d_5(AnvilFrame *f)
{
    uint64_t *s = f->s, ev = 0;
    // n33 w1
    { ev++; uint64_t r = ~s[21]; r &= 0x1ull; uint64_t *p = &s[33]; if (*p != r) { *p = r; onChange(f, 33); } }
    return ev;
}

static uint64_t lvl_d_6(AnvilFrame *f)
{
    uint64_t *s = f->s, ev = 0;
    // n34 w1
    { ev++; uint64_t r = s[20] & s[33]; r &= 0x1ull; uint64_t *p = &s[34]; if (*p != r) { *p = r; onChange(f, 34); } }
    return ev;
}

static const AnvilLevelFn kDense[7] = {
    0, lvl_d_1, lvl_d_2, lvl_d_3,
    lvl_d_4, lvl_d_5, lvl_d_6,
};

static const AnvilKernel kKernel = {
    6u, 42u, 0x3dcce34e29ebb5a3ull, 42ull,
    7u, kDense,
};

} // namespace

extern "C" const AnvilKernel *
anvil_kernel(void)
{
    return &kKernel;
}
