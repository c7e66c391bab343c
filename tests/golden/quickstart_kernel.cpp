// Generated by anvilc --emit-cpp; design 'ping_server'.
// Implements AnvilKernel (see src/rtl/kernel_abi.h and docs/compile.md);
// compile with: c++ -O2 -fPIC -shared -nostdlib -o kernel.so <this file>
// No headers and no runtime: the only external symbols are
// libc's calloc, free and mem*, bound from the host process.
typedef __INT32_TYPE__ int32_t;
typedef __INT64_TYPE__ int64_t;
typedef __UINT32_TYPE__ uint32_t;
typedef __UINT64_TYPE__ uint64_t;

extern "C" {
void *calloc(__SIZE_TYPE__ n, __SIZE_TYPE__ size);
void free(void *p);
typedef struct AnvilKernelStats {
    uint64_t frames;
    uint64_t dense_frames;
    uint64_t fallback_switches;
    uint64_t nodes_evaluated;
    uint64_t nets_changed;
} AnvilKernelStats;
typedef struct AnvilKernel {
    uint32_t abi_version;
    uint32_t net_count;
    uint64_t design_hash;
    uint64_t state_words;
    void *(*create)(void);
    void (*destroy)(void *ctx);
    uint64_t *(*net_ptr)(void *ctx, int32_t net);
    void (*poke)(void *ctx, int32_t net);
    uint64_t (*eval)(void *ctx, int32_t *changed, uint64_t *n_changed);
    uint64_t (*eval_full)(void *ctx, int32_t *changed, uint64_t *n_changed);
    void (*stats)(void *ctx, AnvilKernelStats *out);
    uint32_t level_count;
    void (*level_stats)(void *ctx, uint64_t *out);
    uint64_t (*edge)(void *ctx, const int32_t *changed, uint64_t n_changed,
                     int32_t *regs, uint64_t *n_regs);
    uint64_t *(*shadow_ptr)(void *ctx);
} AnvilKernel;
const AnvilKernel *anvil_kernel(void);
}

namespace {

enum : uint32_t { kNets = 42u, kLevels = 8u, kStrictNodes = 23u };
enum : uint64_t { kStateWords = 42ull };

static const uint32_t kOff[kNets] = {
    0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,
    16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,
    32,33,34,35,36,37,38,39,40,41,
};

static const uint64_t kInit[kStateWords] = {
    0x0ull,0x0ull,0x0ull,0x0ull,0x0ull,0x0ull,0x0ull,0x0ull,
    0x0ull,0x0ull,0x0ull,0x0ull,0x0ull,0x0ull,0x0ull,0x0ull,
    0x0ull,0x0ull,0x0ull,0x0ull,0x0ull,0x0ull,0x0ull,0x0ull,
    0x0ull,0x0ull,0x0ull,0x0ull,0x0ull,0x0ull,0x1ull,0x1ull,
    0x1ull,0x0ull,0x0ull,0x1ull,0x0ull,0x1ull,0x1ull,0x0ull,
    0x0ull,0x1ull,
};

static const uint32_t kConsBegin[kNets + 1] = {
    0,1,2,3,4,5,6,7,8,9,10,10,11,12,12,13,
    13,13,13,14,15,18,20,24,26,26,27,27,28,28,29,29,
    29,29,30,30,30,30,30,30,31,31,31,
};
static const int32_t kConsNet[31] = {
    11,21,23,27,18,20,12,22,14,20,36,22,19,19,9,21,
    25,34,10,33,23,27,29,40,13,39,15,16,17,34,40,
};

static const uint32_t kLevelOf[kNets] = {
    0,0,0,0,0,0,0,0,0,3,6,1,1,4,1,6,
    4,4,1,2,4,5,2,3,0,5,0,3,0,3,0,0,
    0,6,7,0,2,0,0,4,5,0,
};
static const uint32_t kSlotOf[kNets] = {
    0,0,0,0,0,0,0,0,0,0,0,0,1,0,2,1,
    1,2,3,0,3,0,1,1,0,1,0,2,0,3,0,0,
    0,2,0,0,2,0,0,4,2,0,
};
static const uint32_t kBmOff[kLevels + 1] = {
    0,0,1,2,3,4,5,6,7,
};
enum : uint32_t { kBmWords = 7u };

enum : uint32_t { kWires = 9u, kUpdates = 6u, kRegs = 6u, kRegBmWords = 1u };
enum : uint64_t { kShadowWords = 9ull, kNextWords = 6ull };
enum : uint32_t { kWideEdge = 0u };
static const uint32_t kWireOf[kNets] = {
    0,0,0,0,0,0,0,0,0,4,5,9,6,7,8,1,
    2,3,0,0,0,0,0,0,0,0,0,0,0,0,0,0,
    0,0,0,0,0,0,0,0,0,0,
};
/* wire: state offset, shadow offset, words */
static const uint32_t kWire[9][3] = {
    {15,0,1,},
    {16,1,1,},
    {17,2,1,},
    {9,3,1,},
    {10,4,1,},
    {12,5,1,},
    {13,6,1,},
    {14,7,1,},
    {11,8,1,},
};
/* update: enable offset, enable words, value offset, value words, register */
static const uint32_t kUpd[6][5] = {
    {30,1,31,1,5,},
    {32,1,34,1,3,},
    {10,1,36,1,0,},
    {37,1,10,1,1,},
    {38,1,40,1,4,},
    {41,1,13,1,2,},
};
/* register: net, state offset, words, staging offset */
static const uint32_t kReg[6][4] = {
    {3,3,1,0,},
    {6,6,1,1,},
    {8,8,1,2,},
    {5,5,1,3,},
    {7,7,1,4,},
    {4,4,1,5,},
};
static const uint64_t kRegTop[6] = {
    0xffull,0x1ull,0x1ull,0x1ull,0x1ull,0x1ull,
};

struct Ctx
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

/* level 4: 5 nodes, bitmap words [3, 4) */
static uint64_t lvl_s_4(Ctx *c)
{
    uint64_t ev = 0;
    c->wn[4] = 0;
    for (uint32_t wi = 3u; wi < 4u; wi++) {
        uint64_t w = c->wbm[wi];
        if (!w)
            continue;
        c->wbm[wi] = 0;
        uint32_t base = (wi - 3u) << 6;
        do {
        switch (base + (uint32_t)__builtin_ctzll(w)) {
        case 0u: {
            // n13 w1 t0_ev3
            { ev++; uint64_t r = c->s[23]; r &= 0x1ull; uint64_t *p = &c->s[13]; if (*p != r) { *p = r; onChange(c, 13); } }
        } break;
        case 1u: {
            // n16 w8 io_pong_data
            { ev++; uint64_t r = c->s[27]; r &= 0xffull; uint64_t *p = &c->s[16]; if (*p != r) { *p = r; onChange(c, 16); } }
        } break;
        case 2u: {
            // n17 w1 io_pong_valid
            { ev++; uint64_t r = c->s[29]; r &= 0x1ull; uint64_t *p = &c->s[17]; if (*p != r) { *p = r; onChange(c, 17); } }
        } break;
        case 3u: {
            // n20 w1
            { ev++; uint64_t r = c->s[5] | c->s[9]; r &= 0x1ull; uint64_t *p = &c->s[20]; if (*p != r) { *p = r; onChange(c, 20); } }
        } break;
        case 4u: {
            // n39 w1
            { ev++; uint64_t r = ~c->s[23]; r &= 0x1ull; uint64_t *p = &c->s[39]; if (*p != r) { *p = r; onChange(c, 39); } }
        } break;
        default: break;
        }
        w &= w - 1;
        } while (w);
    }
    return ev;
}

static uint64_t lvl_d_1(Ctx *c)
{
    uint64_t ev = 0;
    // n11 w8 t0_val0
    { ev++; uint64_t r = c->s[0]; r &= 0xffull; uint64_t *p = &c->s[11]; if (*p != r) { *p = r; onChange(c, 11); } }
    // n12 w1 t0_ev2
    { ev++; uint64_t r = c->s[6]; r &= 0x1ull; uint64_t *p = &c->s[12]; if (*p != r) { *p = r; onChange(c, 12); } }
    // n14 w1 t0_ev4
    { ev++; uint64_t r = c->s[8]; r &= 0x1ull; uint64_t *p = &c->s[14]; if (*p != r) { *p = r; onChange(c, 14); } }
    // n18 w1
    { ev++; uint64_t r = ~c->s[4]; r &= 0x1ull; uint64_t *p = &c->s[18]; if (*p != r) { *p = r; onChange(c, 18); } }
    return ev;
}

static uint64_t lvl_d_2(Ctx *c)
{
    uint64_t ev = 0;
    // n19 w1
    { ev++; uint64_t r = c->s[18] | c->s[14]; r &= 0x1ull; uint64_t *p = &c->s[19]; if (*p != r) { *p = r; onChange(c, 19); } }
    // n22 w1
    { ev++; uint64_t r = c->s[7] | c->s[12]; r &= 0x1ull; uint64_t *p = &c->s[22]; if (*p != r) { *p = r; onChange(c, 22); } }
    // n36 w8
    { ev++; uint64_t r = (c->s[11] & 0xffull) + (0x1ull & 0xffull); r &= 0xffull; uint64_t *p = &c->s[36]; if (*p != r) { *p = r; onChange(c, 36); } }
    return ev;
}

static uint64_t lvl_d_3(Ctx *c)
{
    uint64_t ev = 0;
    // n9 w1 t0_ev0
    { ev++; uint64_t r = c->s[19]; r &= 0x1ull; uint64_t *p = &c->s[9]; if (*p != r) { *p = r; onChange(c, 9); } }
    // n23 w1
    { ev++; uint64_t r = c->s[22] & c->s[2]; r &= 0x1ull; uint64_t *p = &c->s[23]; if (*p != r) { *p = r; onChange(c, 23); } }
    // n27 w8
    { ev++; uint64_t r = c->s[22] ? c->s[3] : 0x0ull; r &= 0xffull; uint64_t *p = &c->s[27]; if (*p != r) { *p = r; onChange(c, 27); } }
    // n29 w1
    { ev++; uint64_t r = 0x0ull | c->s[22]; r &= 0x1ull; uint64_t *p = &c->s[29]; if (*p != r) { *p = r; onChange(c, 29); } }
    return ev;
}

static uint64_t lvl_d_4(Ctx *c)
{
    uint64_t ev = 0;
    // n13 w1 t0_ev3
    { ev++; uint64_t r = c->s[23]; r &= 0x1ull; uint64_t *p = &c->s[13]; if (*p != r) { *p = r; onChange(c, 13); } }
    // n16 w8 io_pong_data
    { ev++; uint64_t r = c->s[27]; r &= 0xffull; uint64_t *p = &c->s[16]; if (*p != r) { *p = r; onChange(c, 16); } }
    // n17 w1 io_pong_valid
    { ev++; uint64_t r = c->s[29]; r &= 0x1ull; uint64_t *p = &c->s[17]; if (*p != r) { *p = r; onChange(c, 17); } }
    // n20 w1
    { ev++; uint64_t r = c->s[5] | c->s[9]; r &= 0x1ull; uint64_t *p = &c->s[20]; if (*p != r) { *p = r; onChange(c, 20); } }
    // n39 w1
    { ev++; uint64_t r = ~c->s[23]; r &= 0x1ull; uint64_t *p = &c->s[39]; if (*p != r) { *p = r; onChange(c, 39); } }
    return ev;
}

static uint64_t lvl_d_5(Ctx *c)
{
    uint64_t ev = 0;
    // n21 w1
    { ev++; uint64_t r = c->s[20] & c->s[1]; r &= 0x1ull; uint64_t *p = &c->s[21]; if (*p != r) { *p = r; onChange(c, 21); } }
    // n25 w1
    { ev++; uint64_t r = 0x0ull | c->s[20]; r &= 0x1ull; uint64_t *p = &c->s[25]; if (*p != r) { *p = r; onChange(c, 25); } }
    // n40 w1
    { ev++; uint64_t r = c->s[22] & c->s[39]; r &= 0x1ull; uint64_t *p = &c->s[40]; if (*p != r) { *p = r; onChange(c, 40); } }
    return ev;
}

static uint64_t lvl_d_6(Ctx *c)
{
    uint64_t ev = 0;
    // n10 w1 t0_ev1
    { ev++; uint64_t r = c->s[21]; r &= 0x1ull; uint64_t *p = &c->s[10]; if (*p != r) { *p = r; onChange(c, 10); } }
    // n15 w1 io_ping_ack
    { ev++; uint64_t r = c->s[25]; r &= 0x1ull; uint64_t *p = &c->s[15]; if (*p != r) { *p = r; onChange(c, 15); } }
    // n33 w1
    { ev++; uint64_t r = ~c->s[21]; r &= 0x1ull; uint64_t *p = &c->s[33]; if (*p != r) { *p = r; onChange(c, 33); } }
    return ev;
}

static uint64_t lvl_d_7(Ctx *c)
{
    uint64_t ev = 0;
    // n34 w1
    { ev++; uint64_t r = c->s[20] & c->s[33]; r &= 0x1ull; uint64_t *p = &c->s[34]; if (*p != r) { *p = r; onChange(c, 34); } }
    return ev;
}

static uint64_t do_eval(Ctx *c, int32_t *out, uint64_t *nout, int full)
{
    c->out = out;
    c->nout = 0;
    uint64_t ev = 0;
    int dense = full | (int)c->dense;
    c->fdense = (uint64_t)dense;
    if (dense) {
        { uint64_t e = lvl_d_1(c); ev += e; c->lvl_ev[1] += e; }
        { uint64_t e = lvl_d_2(c); ev += e; c->lvl_ev[2] += e; }
        { uint64_t e = lvl_d_3(c); ev += e; c->lvl_ev[3] += e; }
        { uint64_t e = lvl_d_4(c); ev += e; c->lvl_ev[4] += e; }
        { uint64_t e = lvl_d_5(c); ev += e; c->lvl_ev[5] += e; }
        { uint64_t e = lvl_d_6(c); ev += e; c->lvl_ev[6] += e; }
        { uint64_t e = lvl_d_7(c); ev += e; c->lvl_ev[7] += e; }
        __builtin_memset(c->wbm, 0, sizeof(c->wbm));
        __builtin_memset(c->wn, 0, sizeof(c->wn));
        c->st.dense_frames++;
    } else {
        if (c->wn[1]) {
            uint64_t e;
            c->wn[1] = 0;
            __builtin_memset(c->wbm + 0u, 0, 1u * 8u);
            e = lvl_d_1(c);
            ev += e;
            c->lvl_ev[1] += e;
        }
        if (c->wn[2]) {
            uint64_t e;
            c->wn[2] = 0;
            __builtin_memset(c->wbm + 1u, 0, 1u * 8u);
            e = lvl_d_2(c);
            ev += e;
            c->lvl_ev[2] += e;
        }
        if (c->wn[3]) {
            uint64_t e;
            c->wn[3] = 0;
            __builtin_memset(c->wbm + 2u, 0, 1u * 8u);
            e = lvl_d_3(c);
            ev += e;
            c->lvl_ev[3] += e;
        }
        if (c->wn[4]) {
            uint64_t e;
            if (c->wn[4] * 4u >= 5u) {
                c->wn[4] = 0;
                __builtin_memset(c->wbm + 3u, 0, 1u * 8u);
                e = lvl_d_4(c);
            } else {
                e = lvl_s_4(c);
            }
            ev += e;
            c->lvl_ev[4] += e;
        }
        if (c->wn[5]) {
            uint64_t e;
            c->wn[5] = 0;
            __builtin_memset(c->wbm + 4u, 0, 1u * 8u);
            e = lvl_d_5(c);
            ev += e;
            c->lvl_ev[5] += e;
        }
        if (c->wn[6]) {
            uint64_t e;
            c->wn[6] = 0;
            __builtin_memset(c->wbm + 5u, 0, 1u * 8u);
            e = lvl_d_6(c);
            ev += e;
            c->lvl_ev[6] += e;
        }
        if (c->wn[7]) {
            uint64_t e;
            c->wn[7] = 0;
            __builtin_memset(c->wbm + 6u, 0, 1u * 8u);
            e = lvl_d_7(c);
            ev += e;
            c->lvl_ev[7] += e;
        }
    }
    if (kStrictNodes) {
        // Adaptive fallback hysteresis, mirroring the
        // interpreter: enter dense above ~50% changed,
        // leave below 40%.
        if (c->nout * 2 > kStrictNodes) {
            if (!c->dense)
                c->st.fallback_switches++;
            c->dense = 1;
        } else if (c->nout * 5 < kStrictNodes * 2) {
            c->dense = 0;
        }
    }
    c->st.frames++;
    c->st.nodes_evaluated += ev;
    c->st.nets_changed += c->nout;
    *nout = c->nout;
    return ev;
}

static void *k_create(void)
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

static const AnvilKernel kKernel = {
    4u, kNets, 0xdc86a9e7102982f5ull, kStateWords,
    k_create, k_destroy, k_net_ptr, k_poke, k_eval, k_eval_full, k_stats,
    kLevels, k_level_stats, k_edge, k_shadow_ptr,
};

} // namespace

extern "C" const AnvilKernel *
anvil_kernel(void)
{
    return &kKernel;
}
