#include "rtl/interp.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace anvil {
namespace rtl {

namespace {

/** Copy a value's words to w[0, v.words()). */
void
storeWords(const BitVec &v, uint64_t *w)
{
    for (int k = 0; k < v.words(); k++)
        w[k] = v.word(k);
}

/** Words a value of `width` bits takes in a kernel's state:
 *  ceil(width/64), at least one. */
size_t
slotWords(int width)
{
    return width <= 0 ? 1 : static_cast<size_t>((width + 63) / 64);
}

} // namespace

const char *
sweepModeName(SweepMode mode)
{
    switch (mode) {
      case SweepMode::Full: return "full";
      case SweepMode::Dirty: return "dirty";
    }
    return "?";
}

uint64_t
monotonicNanos()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

const char *
simPhaseName(SimPhase phase)
{
    switch (phase) {
      case SimPhase::Sweep: return "sweep";
      case SimPhase::KernelEval: return "kernel";
      case SimPhase::Commit: return "commit";
    }
    return "?";
}

BitVec
applyUnop(Op op, const BitVec &a)
{
    switch (op) {
      case Op::Not:
        return ~a;
      case Op::RedOr:
        return BitVec(1, a.any() ? 1 : 0);
      case Op::RedAnd:
        return BitVec(1, a == BitVec::ones(a.width()) ? 1 : 0);
      default:
        throw std::logic_error("bad unary op");
    }
}

BitVec
applyBinop(Op op, const BitVec &a, const BitVec &b, int width)
{
    auto ra = a.resize(width);
    auto rb = b.resize(width);
    switch (op) {
      case Op::And: return ra & rb;
      case Op::Or: return ra | rb;
      case Op::Xor: return ra ^ rb;
      case Op::Add: return ra + rb;
      case Op::Sub: return ra - rb;
      case Op::Mul: return ra * rb;
      case Op::Eq: return BitVec(1, a == b ? 1 : 0);
      case Op::Ne: return BitVec(1, a != b ? 1 : 0);
      case Op::Lt: return BitVec(1, a.ult(b) ? 1 : 0);
      case Op::Le: return BitVec(1, a.ule(b) ? 1 : 0);
      case Op::Gt: return BitVec(1, b.ult(a) ? 1 : 0);
      case Op::Ge: return BitVec(1, b.ule(a) ? 1 : 0);
      case Op::Shl: {
        // A shift amount at or beyond the width clears the value;
        // do not feed huge amounts into the word shifter.
        uint64_t sh = rb.toUint64();
        if (sh >= static_cast<uint64_t>(width))
            return BitVec(width);
        return ra << static_cast<int>(sh);
      }
      case Op::Shr: {
        uint64_t sh = rb.toUint64();
        if (sh >= static_cast<uint64_t>(width))
            return BitVec(width);
        return ra >> static_cast<int>(sh);
      }
      default:
        throw std::logic_error("bad binary op");
    }
}

Sim::Sim(std::shared_ptr<const Module> top)
    : Sim(std::move(top), nullptr)
{
}

Sim::Sim(std::shared_ptr<const Module> top,
         std::shared_ptr<const Netlist> netlist)
    : _top(std::move(top)),
      _nl_own(netlist ? nullptr : std::make_shared<Netlist>(*_top)),
      _nl_hold(netlist ? std::move(netlist)
                       : std::shared_ptr<const Netlist>(_nl_own)),
      _nl(*_nl_hold)
{
    _val = _nl.initValues();
    _lazy_gen.assign(_val.size(), 0);
    _visiting.assign(_val.size(), 0);
    _reg_next.reserve(_nl.regs().size());
    _reg_off.reserve(_nl.regs().size() + 1);
    _reg_off.push_back(0);
    for (NetId r : _nl.regs()) {
        const BitVec &v = _val[static_cast<size_t>(r)];
        _reg_next.push_back(v);
        _reg_off.push_back(_reg_off.back() +
                           static_cast<size_t>(v.words()));
    }
    _wire_last.reserve(_nl.wireNets().size());
    _wire_slot.assign(_val.size(), -1);
    for (size_t i = 0; i < _nl.wireNets().size(); i++) {
        NetId w = _nl.wireNets()[i];
        _wire_last.emplace_back(_nl.net(w).width);
        _wire_slot[static_cast<size_t>(w)] =
            static_cast<int32_t>(i);
    }
    _buckets.resize(_nl.levelCount());
    _dirty_mark.assign(_val.size(), 0);
    _change_mark.assign(_val.size(), 0);
    _level_of.reserve(_val.size());
    for (const Net &n : _nl.nets())
        _level_of.push_back(n.level);
    _stats.strict_nodes = _nl.order().size();
    _stats.mode = _mode;

    // Enable-net -> update-indices CSR for the clock edge (counting
    // sort, so each enable's updates stay in declaration order and
    // last-wins semantics are preserved).
    const auto &updates = _nl.updates();
    _upd_begin.assign(_val.size() + 1, 0);
    for (const auto &u : updates)
        _upd_begin[static_cast<size_t>(u.enable) + 1]++;
    for (size_t i = 1; i < _upd_begin.size(); i++)
        _upd_begin[i] += _upd_begin[i - 1];
    _upd_list.resize(updates.size());
    {
        std::vector<int32_t> fill(_upd_begin.begin(),
                                  _upd_begin.end() - 1);
        for (size_t u = 0; u < updates.size(); u++)
            _upd_list[static_cast<size_t>(
                fill[static_cast<size_t>(updates[u].enable)]++)] =
                static_cast<int32_t>(u);
    }
    _armed.assign(updates.size(), 0);
    _reg_touched.assign(_nl.regs().size(), 0);
    for (size_t u = 0; u < updates.size(); u++)
        if (updates[u].reg_index < 0)
            _ghost_updates.push_back(static_cast<int32_t>(u));
}

Sim::~Sim()
{
    if (_kctx)
        _kernel.abi->destroy(_kctx);
}

void
Sim::setSweepMode(SweepMode mode, int)
{
    _mode = mode;
    _stats.mode = _mode;
    // Re-sweep the whole table once so the new mode starts from a
    // fully consistent frame regardless of pending dirty state.
    _need_full = true;
    _dirty = true;
}

const SweepStats &
Sim::sweepStats() const
{
    if (_kctx) {
        // The kernel schedules internally (worklists + its own dense
        // fallback); surface its counters alongside the host's.
        AnvilKernelStats ks;
        _kernel.abi->stats(_kctx, &ks);
        _stats.kernel_dense_frames = ks.dense_frames;
        _stats.kernel_fallback_switches = ks.fallback_switches;
    }
    return _stats;
}

void
Sim::setEvalCounting(bool on)
{
    _eval_counting = on;
    if (on && _eval_count.size() < _nl.nets().size())
        _eval_count.resize(_nl.nets().size(), 0);
}

std::vector<uint64_t>
Sim::kernelLevelEvals() const
{
    std::vector<uint64_t> out;
    if (_kctx && _kernel.abi->level_count) {
        out.resize(_kernel.abi->level_count, 0);
        _kernel.abi->level_stats(_kctx, out.data());
    }
    return out;
}

const NetSignal *
Sim::findSignal(const std::string &flat) const
{
    auto it = _nl.signals().find(flat);
    return it == _nl.signals().end() ? nullptr : &it->second;
}

void
Sim::recordChange(NetId id)
{
    size_t i = static_cast<size_t>(id);
    if (_change_mark[i] == _frame_id)
        return;
    _change_mark[i] = _frame_id;
    _frame_changed.push_back(id);
}

void
Sim::seedSource(NetId id)
{
    _seeds.push_back(id);
    _poke_tick++;
    if (_kctx) {
        // A poke (setInput, setRegValue, loadRegs): mirror the new
        // value into the kernel's state array and queue its
        // consumers.  The kernel's own edge commits never pass here.
        size_t i = static_cast<size_t>(id);
        storeWords(_val[i], _kptr[i]);
        _kernel.abi->poke(_kctx, static_cast<int32_t>(id));
    }
}

bool
Sim::attachKernel(const KernelRef &kernel)
{
    if (!kernel.abi ||
        kernel.abi->abi_version != ANVIL_KERNEL_ABI_VERSION ||
        kernel.abi->design_hash != designHash(_nl) ||
        kernel.abi->net_count != _nl.nets().size())
        return false;
    void *ctx = kernel.abi->create();
    if (!ctx)
        return false;
    // The kernel starts from this Sim's values, strict nets included,
    // so its first (dense) sweep reports exactly the nets that moved
    // since the last edge, and from the wire values that edge saw, so
    // toggles continue without a jump.
    size_t nets = _nl.nets().size();
    for (size_t i = 0; i < nets; i++)
        storeWords(valOf(static_cast<NetId>(i)),
                   kernel.abi->net_ptr(ctx, static_cast<int32_t>(i)));
    if (_toggles_primed) {
        uint64_t *sh = kernel.abi->shadow_ptr(ctx);
        if (_kctx) {
            size_t words = 0;
            for (NetId w : _nl.wireNets())
                words += slotWords(_nl.net(w).width);
            std::copy_n(_kernel.abi->shadow_ptr(_kctx), words, sh);
        } else {
            packWires(sh);
        }
    }
    if (_kctx)
        _kernel.abi->destroy(_kctx);
    _kernel = kernel;
    _kctx = ctx;
    _kchanged.assign(nets, 0);
    _kregs.assign(_nl.regs().size(), 0);
    _kstale.assign(_val.size(), 0);
    _kptr.resize(nets);
    for (size_t i = 0; i < nets; i++)
        _kptr[i] = kernel.abi->net_ptr(ctx, static_cast<int32_t>(i));
    _need_full = true;
    _dirty = true;
    return true;
}

/** Copy one net's value out of the kernel's packed-word state. */
void
Sim::refreshFromKernel(NetId id)
{
    size_t i = static_cast<size_t>(id);
    _kstale[i] = 0;
    const uint64_t *p = _kptr[i];
    BitVec &v = _val[i];
    if (v.width() <= 64)
        v.setUint64(p[0]);
    else
        v.setWords(p, (v.width() + 63) / 64);
}

/**
 * Sweep by calling into the attached kernel.  The kernel runs the
 * same levelized event-driven schedule (exact per-level worklists,
 * change-cutting, its own dense-fallback hysteresis); its exact
 * changed-net list feeds the interpreter's frame bookkeeping, and the
 * values themselves are copied back lazily (valOf) only when an
 * observer or the clock edge actually reads them.
 */
void
Sim::sweepKernel()
{
    bool full = _need_full || _mode == SweepMode::Full;
    uint64_t n = 0;
    uint64_t ev = full
        ? _kernel.abi->eval_full(_kctx, _kchanged.data(), &n)
        : _kernel.abi->eval(_kctx, _kchanged.data(), &n);
    _frame_evals += ev;
    _seeds.clear();
    _need_full = false;
    for (uint64_t k = 0; k < n; k++) {
        NetId id = _kchanged[static_cast<size_t>(k)];
        _kstale[static_cast<size_t>(id)] = 1;
        recordChange(id);
    }
}

/** Mark the strict consumers of a changed net for re-evaluation. */
void
Sim::pushConsumers(NetId id)
{
    const auto &fb = _nl.fanoutBegin();
    // Nets appended after construction (evalTop) are lazy and have
    // no CSR entry.
    if (static_cast<size_t>(id) + 1 >= fb.size())
        return;
    const auto &fo = _nl.fanout();
    for (int32_t k = fb[static_cast<size_t>(id)];
         k < fb[static_cast<size_t>(id) + 1]; k++) {
        NetId c = fo[static_cast<size_t>(k)];
        size_t ci = static_cast<size_t>(c);
        if (_dirty_mark[ci] == _sweep_id)
            continue;
        _dirty_mark[ci] = _sweep_id;
        _buckets[static_cast<size_t>(_level_of[ci])].push_back(c);
    }
}

NetId
Sim::inputId(const std::string &name) const
{
    const NetSignal *sig = findSignal(name);
    if (!sig || sig->kind != NetSignal::Kind::Input)
        throw std::invalid_argument("no such input: " + name);
    return sig->net;
}

/** Value index of a top-level input net; throws for any other id. */
size_t
Sim::checkedInput(NetId id) const
{
    if (id < 0 || static_cast<size_t>(id) >= _nl.nets().size() ||
        _nl.net(id).kind != Net::Kind::Input)
        throw std::invalid_argument("not an input net: " +
                                    std::to_string(id));
    return static_cast<size_t>(id);
}

/** Publish a source value just stored into _val. */
void
Sim::pokeSource(NetId id)
{
    recordChange(id);
    seedSource(id);
    _dirty = true;
}

void
Sim::setInput(NetId id, const BitVec &v)
{
    BitVec &cur = _val[checkedInput(id)];
    if (v.width() == cur.width()) {
        if (v == cur)
            return;
        cur = v;
    } else {
        BitVec nv = v.resize(cur.width());
        if (nv == cur)
            return;
        cur = std::move(nv);
    }
    pokeSource(id);
}

void
Sim::setInput(NetId id, uint64_t v)
{
    BitVec &cur = _val[checkedInput(id)];
    int w = cur.width();
    if (w <= 64) {
        // No temporary: compare and store the masked word in place.
        uint64_t nv = w == 64 ? v : v & ((1ull << w) - 1);
        if (nv == cur.toUint64())
            return;
        cur.setUint64(nv);
    } else {
        BitVec nv(w, v);
        if (nv == cur)
            return;
        cur = std::move(nv);
    }
    pokeSource(id);
}

void
Sim::setInput(const std::string &name, const BitVec &v)
{
    setInput(inputId(name), v);
}

void
Sim::setInput(const std::string &name, uint64_t v)
{
    setInput(inputId(name), v);
}

/**
 * Compute one strict node from its already-computed operands.
 * Returns whether the node's value actually changed — the signal the
 * dirty sweep uses to cut propagation and the changed-net list uses
 * to feed observers.
 */
bool
Sim::computeNet(NetId id)
{
    const Net &n = _nl.net(id);
    BitVec &out = _val[static_cast<size_t>(id)];

    // Attribution hook (setEvalCounting).  Nets appended after
    // counting was enabled (evalTop) are skipped.
    if (_eval_counting &&
        static_cast<size_t>(id) < _eval_count.size())
        _eval_count[static_cast<size_t>(id)]++;

    if (n.fast) {
        // u64 lane: every involved value fits one word.  Operand
        // values are normalized, so toUint64() is the whole value;
        // setUint64() re-applies this node's width mask.
        uint64_t old = out.toUint64();
        uint64_t r = 0;
        switch (n.kind) {
          case Net::Kind::Copy:
            r = _val[static_cast<size_t>(n.a)].toUint64();
            break;
          case Net::Kind::Unop: {
            uint64_t a = _val[static_cast<size_t>(n.a)].toUint64();
            switch (n.op) {
              case Op::Not: r = ~a; break;
              case Op::RedOr: r = a != 0; break;
              case Op::RedAnd: r = a == _nl.net(n.a).mask; break;
              default: throw std::logic_error("bad unary op");
            }
            break;
          }
          case Net::Kind::Binop: {
            uint64_t a = _val[static_cast<size_t>(n.a)].toUint64();
            uint64_t b = _val[static_cast<size_t>(n.b)].toUint64();
            uint64_t m = n.mask;
            switch (n.op) {
              case Op::And: r = a & b; break;
              case Op::Or: r = a | b; break;
              case Op::Xor: r = a ^ b; break;
              case Op::Add: r = (a & m) + (b & m); break;
              case Op::Sub: r = (a & m) - (b & m); break;
              case Op::Mul: r = (a & m) * (b & m); break;
              case Op::Eq: r = a == b; break;
              case Op::Ne: r = a != b; break;
              case Op::Lt: r = a < b; break;
              case Op::Le: r = a <= b; break;
              case Op::Gt: r = a > b; break;
              case Op::Ge: r = a >= b; break;
              case Op::Shl: {
                uint64_t sh = b & m;
                r = sh >= static_cast<uint64_t>(n.width)
                    ? 0 : (a & m) << sh;
                break;
              }
              case Op::Shr: {
                uint64_t sh = b & m;
                r = sh >= static_cast<uint64_t>(n.width)
                    ? 0 : (a & m) >> sh;
                break;
              }
              default: throw std::logic_error("bad binary op");
            }
            break;
          }
          case Net::Kind::Mux:
            r = _val[static_cast<size_t>(n.a)].toUint64() != 0
                ? _val[static_cast<size_t>(n.b)].toUint64()
                : _val[static_cast<size_t>(n.c)].toUint64();
            break;
          case Net::Kind::Slice: {
            uint64_t a = _val[static_cast<size_t>(n.a)].toUint64();
            if (n.lo >= 0)
                r = n.lo >= 64 ? 0 : a >> n.lo;
            else
                // Bits below index 0 read as zero: a left shift.
                r = -n.lo >= 64 ? 0 : a << -n.lo;
            break;
          }
          case Net::Kind::Concat: {
            uint64_t acc = 0;
            int sh = 0;
            // cargs are hi-first; assemble from the low end.
            for (auto it = n.cargs.rbegin(); it != n.cargs.rend();
                 ++it) {
                acc |= _val[static_cast<size_t>(*it)].toUint64()
                    << sh;
                sh += _nl.net(*it).width;
                if (sh >= 64)
                    break;
            }
            r = acc;
            break;
          }
          case Net::Kind::Rom: {
            uint64_t addr =
                _val[static_cast<size_t>(n.a)].toUint64();
            r = addr < n.rom->size() ? (*n.rom)[addr].toUint64() : 0;
            break;
          }
          default:
            break;   // sources are never in the sweep order
        }
        out.setUint64(r);
        return (r & n.mask) != old;
    }

    BitVec nv(n.width);
    switch (n.kind) {
      case Net::Kind::Copy:
        nv = _val[static_cast<size_t>(n.a)].resize(n.width);
        break;
      case Net::Kind::Unop:
        nv = applyUnop(n.op, _val[static_cast<size_t>(n.a)]);
        break;
      case Net::Kind::Binop:
        nv = applyBinop(n.op, _val[static_cast<size_t>(n.a)],
                        _val[static_cast<size_t>(n.b)], n.width);
        break;
      case Net::Kind::Mux:
        nv = (_val[static_cast<size_t>(n.a)].any()
                  ? _val[static_cast<size_t>(n.b)]
                  : _val[static_cast<size_t>(n.c)])
                 .resize(n.width);
        break;
      case Net::Kind::Slice:
        nv = _val[static_cast<size_t>(n.a)].slice(n.lo, n.width);
        break;
      case Net::Kind::Concat: {
        BitVec acc(0);
        bool first = true;
        for (auto it = n.cargs.rbegin(); it != n.cargs.rend(); ++it) {
            const BitVec &part = _val[static_cast<size_t>(*it)];
            if (first) {
                acc = part;
                first = false;
            } else {
                acc = acc.concatHigh(part);
            }
        }
        nv = acc.resize(n.width);
        break;
      }
      case Net::Kind::Rom: {
        uint64_t addr = _val[static_cast<size_t>(n.a)].toUint64();
        nv = addr >= n.rom->size()
            ? BitVec(n.width)
            : (*n.rom)[addr].resize(n.width);
        break;
      }
      case Net::Kind::BadRef:
        throw std::invalid_argument("no such signal: " +
                                    _nl.nameOf(id));
      default:
        break;
    }
    if (nv == out)
        return false;
    out = std::move(nv);
    return true;
}

/**
 * Evaluate a lazy node recursively, reproducing the reference
 * interpreter's order of effects: mux branches short-circuit,
 * unresolved references fault only when reached, and re-entering a
 * named wire raises the combinational-loop error.
 */
const BitVec &
Sim::evalLazy(NetId id)
{
    size_t i = static_cast<size_t>(id);
    const Net &n = _nl.net(id);
    if (!n.lazy)
        return valOf(id);   // strict values may live in the kernel
    if (_lazy_gen[i] == _gen)
        return _val[i];
    switch (n.kind) {
      case Net::Kind::Const:
      case Net::Kind::Input:
      case Net::Kind::Reg:
        _lazy_gen[i] = _gen;
        return _val[i];
      case Net::Kind::BadRef:
        throw std::invalid_argument("no such signal: " +
                                    _nl.nameOf(id));
      default:
        break;
    }

    // Loop detection guards named wire roots, as in the reference
    // interpreter (cycles can only close through named wires).
    bool guard =
        n.kind == Net::Kind::Copy && !_nl.nameOf(id).empty();
    if (guard) {
        if (_visiting[i])
            throw std::runtime_error("combinational loop through " +
                                     _nl.nameOf(id));
        _visiting[i] = 1;
    }

    if (n.kind == Net::Kind::Mux) {
        bool taken = evalLazy(n.a).any();
        const BitVec &src = evalLazy(taken ? n.b : n.c);
        if (n.fast) {
            uint64_t old = _val[i].toUint64();
            _val[i].setUint64(src.toUint64());
            if (_val[i].toUint64() != old)
                recordChange(id);
        } else {
            BitVec nv = src.resize(n.width);
            if (nv != _val[i]) {
                _val[i] = std::move(nv);
                recordChange(id);
            }
        }
    } else {
        if (n.a != kNoNet)
            evalLazy(n.a);
        if (n.b != kNoNet)
            evalLazy(n.b);
        if (n.c != kNoNet)
            evalLazy(n.c);
        for (NetId arg : n.cargs)
            evalLazy(arg);
        if (computeNet(id))
            recordChange(id);
    }

    if (guard)
        _visiting[i] = 0;
    _lazy_gen[i] = _gen;
    return _val[i];
}

/** Dense fallback: recompute every strict node in levelized order. */
void
Sim::sweepFull()
{
    const auto &order = _nl.order();
    for (NetId id : order)
        if (computeNet(id))
            recordChange(id);
    _frame_evals += order.size();
    _seeds.clear();
    _need_full = false;
}

/**
 * Event-driven sweep: seed the per-level worklists with the strict
 * consumers of every source that changed since the last sweep, then
 * walk levels bottom-up re-evaluating only marked nodes.  A node
 * whose value is unchanged does not propagate, so the cost is the
 * size of the *changing* cone, not the design.
 */
void
Sim::sweepDirty()
{
    _sweep_id++;
    for (NetId s : _seeds)
        pushConsumers(s);
    _seeds.clear();

    for (size_t l = 0; l < _buckets.size(); l++) {
        auto &bucket = _buckets[l];
        if (bucket.empty())
            continue;
        _frame_evals += bucket.size();
        for (NetId id : bucket)
            if (computeNet(id)) {
                recordChange(id);
                pushConsumers(id);
            }
        bucket.clear();
    }
}

/**
 * Recompute strict combinational values if anything changed.  Strict
 * nodes are acyclic and fully resolved, so this never faults; lazy
 * nodes are evaluated on demand (peek/evalTop touch only the
 * requested cone, matching the reference interpreter's fault
 * behaviour) or in bulk by step().
 */
void
Sim::sweep()
{
    if (!_dirty)
        return;
    _gen++;
    bool timed = timedCycle();
    uint64_t t0 = timed ? monotonicNanos() : 0;
    if (_kctx) {
        sweepKernel();
        _stats.kernel_frames++;
        _dirty = false;
        endPhase(SimPhase::KernelEval, _cycle, timed, t0);
        return;
    }
    if (_mode == SweepMode::Full || _need_full)
        sweepFull();
    else if (_prefer_dense)
        // Adaptive fallback: on frames where most of the design is
        // switching anyway (see rollFrame), worklist bookkeeping
        // costs more than it saves — run the dense path, which
        // produces the same values and the same changed-net feed.
        sweepFull();
    else
        sweepDirty();
    _dirty = false;
    endPhase(SimPhase::Sweep, _cycle, timed, t0);
}

/** Report a phase: its window on a sampled cycle, else just its run. */
void
Sim::endPhase(SimPhase phase, uint64_t cycle, bool timed, uint64_t t0)
{
    if (timed)
        _telemetry->simPhase(phase, cycle, t0, monotonicNanos());
    else if (_telemetry)
        _telemetry->simPhaseUntimed(phase);
}

const std::vector<NetId> &
Sim::changedNets()
{
    sweep();
    return _frame_changed;
}

/** Close the per-cycle activity window: stats, then a fresh frame. */
void
Sim::rollFrame()
{
    _stats.cycles++;
    _stats.nodes_evaluated += _frame_evals;
    _stats.peak_nodes = std::max(_stats.peak_nodes, _frame_evals);
    uint64_t changed = _frame_changed.size();
    _stats.nets_changed += changed;
    _stats.peak_changed = std::max(_stats.peak_changed, changed);
    // Hysteresis for the adaptive dense fallback: enter when more
    // than half the strict table changed this frame, leave once the
    // fraction drops below 40%.
    uint64_t strict = _stats.strict_nodes;
    if (strict > 0) {
        if (changed * 2 > strict) {
            if (!_prefer_dense)
                _stats.dense_fallback_switches++;
            _prefer_dense = true;
        } else if (changed * 5 < strict * 2) {
            _prefer_dense = false;
        }
    }
    _frame_evals = 0;
    _frame_changed.clear();
    _frame_id++;
    _poke_at_roll = _poke_tick;
}

BitVec
Sim::peek(const std::string &name)
{
    std::string flat = _nl.resolveName("", name);
    const NetSignal *sig = findSignal(flat);
    if (!sig)
        throw std::invalid_argument("no such signal: " + flat);
    sweep();
    return evalLazy(sig->net);
}

void
Sim::step(int n)
{
    for (int it = 0; it < n; it++) {
        sweep();
        // The edge evaluates every wire (like the reference
        // interpreter's evalAll), so cyclic or unresolved regions
        // fault here even when unpeeked.
        for (NetId id : _nl.lazyRoots())
            evalLazy(id);

        bool timed = timedCycle();
        uint64_t t0 = timed ? monotonicNanos() : 0;
        if (_kctx)
            edgeKernel();
        else
            edgeHost();
        _cycle++;
        _dirty = true;
        endPhase(SimPhase::Commit, _cycle - 1, timed, t0);
    }
}

/** Log the dprints whose enable is set, in declaration order. */
void
Sim::logPrints()
{
    for (const auto &p : _nl.prints()) {
        if (valOf(p.enable).any()) {
            std::string line = p.text;
            if (p.value != kNoNet)
                line += " " + valOf(p.value).toHex();
            _log.push_back(line);
        }
    }
}

/** The interpreter's clock edge, after the frame's sweep. */
void
Sim::edgeHost()
{
    const auto &regs = _nl.regs();
    const auto &updates = _nl.updates();

    // Keep the armed-update set fresh from this frame's changed-net
    // delta (a full enable scan only on the first cycle): an enable
    // net that is not in the list kept its value, so its updates kept
    // their armed state.
    if (!_armed_primed) {
        _armed_count = 0;
        for (size_t u = 0; u < updates.size(); u++) {
            _armed[u] = valOf(updates[u].enable).any() ? 1 : 0;
            if (_armed[u])
                _armed_count++;
        }
        _armed_primed = true;
    } else {
        for (NetId id : _frame_changed) {
            size_t i = static_cast<size_t>(id);
            if (i + 1 >= _upd_begin.size())
                continue;
            for (int32_t k = _upd_begin[i]; k < _upd_begin[i + 1];
                 k++) {
                size_t u =
                    static_cast<size_t>(_upd_list[static_cast<size_t>(k)]);
                uint8_t armed = valOf(updates[u].enable).any() ? 1 : 0;
                if (armed == _armed[u])
                    continue;
                _armed[u] = armed;
                if (armed)
                    _armed_count++;
                else
                    _armed_count--;
            }
        }
    }

    // Toggle accounting against the previous cycle's values, driven
    // by the changed-net list: a wire absent from the list is
    // unchanged and contributes no toggles.  The xor popcount works
    // straight off the two values' words, so the delta never
    // materializes.
    if (_toggles_primed) {
        for (NetId id : _frame_changed) {
            int32_t slot = _wire_slot[static_cast<size_t>(id)];
            if (slot < 0)
                continue;
            size_t s = static_cast<size_t>(slot);
            const BitVec &cur = valOf(id);
            _total_toggles +=
                static_cast<uint64_t>(cur.xorPopcount(_wire_last[s]));
            _wire_last[s] = cur;
        }
    } else {
        primeToggles();
    }

    // Next-state only where an armed update fires; untouched
    // registers hold their value by construction, so the edge costs
    // O(armed updates), not O(registers).
    if (_armed_count != 0) {
        for (size_t u = 0; u < updates.size(); u++) {
            if (!_armed[u])
                continue;
            size_t ri = stageUpdate(updates[u]);
            if (!_reg_touched[ri]) {
                _reg_touched[ri] = 1;
                _touched_regs.push_back(static_cast<int32_t>(ri));
            }
        }
    }
    logPrints();

    // The pre-edge frame is complete: fold it into the activity stats
    // and start the next one, so the commits below seed the new
    // frame's changed list.
    rollFrame();

    // Commit the touched registers (ascending, the same order the
    // dense scan visited them), count register toggles, and seed the
    // next sweep with those that changed.
    if (!_touched_regs.empty()) {
        std::sort(_touched_regs.begin(), _touched_regs.end());
        for (int32_t r : _touched_regs) {
            size_t i = static_cast<size_t>(r);
            _reg_touched[i] = 0;
            BitVec &cur = _val[static_cast<size_t>(regs[i])];
            int flips = _reg_next[i].xorPopcount(cur);
            if (flips == 0)
                continue;
            _total_toggles += static_cast<uint64_t>(flips);
            cur = _reg_next[i];
            recordChange(regs[i]);
            seedSource(regs[i]);
        }
        _touched_regs.clear();
    }
}

/**
 * The clock edge on the compiled backend.  The kernel counts the
 * toggles and stages and commits the registers (AnvilKernel::edge);
 * the host raises the edge's faults, hands the kernel the lazy values
 * it evaluated, logs the prints, and records the committed registers.
 */
void
Sim::edgeKernel()
{
    const auto &updates = _nl.updates();
    for (int32_t u : _ghost_updates) {
        const NetUpdate &up = updates[static_cast<size_t>(u)];
        if (valOf(up.enable).any())
            stageUpdate(up);   // throws: the register is unknown
    }
    for (NetId id : _nl.lazyRoots())
        storeWords(_val[static_cast<size_t>(id)],
                   _kptr[static_cast<size_t>(id)]);
    if (!_toggles_primed) {
        primeToggles();
        packWires(_kernel.abi->shadow_ptr(_kctx));
    }
    logPrints();

    uint64_t n = 0;
    _total_toggles += _kernel.abi->edge(_kctx, _frame_changed.data(),
                                        _frame_changed.size(),
                                        _kregs.data(), &n);
    rollFrame();
    for (uint64_t k = 0; k < n; k++) {
        NetId r = _kregs[static_cast<size_t>(k)];
        refreshFromKernel(r);
        recordChange(r);
    }
    _poke_tick += n;
}

/** The first edge adopts every wire's value without counting toggles. */
void
Sim::primeToggles()
{
    const auto &wires = _nl.wireNets();
    for (size_t i = 0; i < wires.size(); i++)
        _wire_last[i] = valOf(wires[i]);
    _toggles_primed = true;
}

/**
 * Pack the last-seen wire values (_wire_last) in wireNets() order,
 * each into its kernel slot's word count — the layout of the kernel's
 * wire shadow.
 */
void
Sim::packWires(uint64_t *out) const
{
    for (const BitVec &v : _wire_last) {
        storeWords(v, out);
        out += slotWords(v.width());
    }
}

/**
 * What a firing update writes at the edge: its value, truncated or
 * zero-extended to the register's width, staged in _reg_next (in
 * place, so no allocation when the widths match).  Returns the
 * register index.  The one definition of the edge's write, shared by
 * step() and nextRegs().
 */
size_t
Sim::stageUpdate(const NetUpdate &up)
{
    if (up.reg_index < 0)
        throw std::invalid_argument("update of unknown reg: " +
                                    up.reg_name);
    size_t ri = static_cast<size_t>(up.reg_index);
    const BitVec &v = valOf(up.value);
    BitVec &next = _reg_next[ri];
    if (next.width() <= 64)
        next.setUint64(v.toUint64());
    else if (v.width() == next.width())
        next = v;
    else
        next = v.resize(next.width());
    return ri;
}

void
Sim::packRegs(uint64_t *out) const
{
    const auto &regs = _nl.regs();
    for (size_t i = 0; i < regs.size(); i++)
        storeWords(_val[static_cast<size_t>(regs[i])],
                   out + _reg_off[i]);
}

void
Sim::loadRegs(const uint64_t *words)
{
    const auto &regs = _nl.regs();
    for (size_t i = 0; i < regs.size(); i++) {
        BitVec &cur = _val[static_cast<size_t>(regs[i])];
        const uint64_t *w = words + _reg_off[i];
        int n = cur.words();
        int k = 0;
        while (k < n && cur.word(k) == w[k])
            k++;
        if (k == n)
            continue;
        if (n == 1)
            cur.setUint64(w[0]);
        else
            cur.setWords(w, n);
        pokeSource(regs[i]);
    }
}

void
Sim::nextRegs(uint64_t *out)
{
    sweep();
    for (NetId id : _nl.lazyRoots())
        evalLazy(id);
    packRegs(out);
    for (const NetUpdate &up : _nl.updates()) {
        if (!valOf(up.enable).any())
            continue;
        size_t ri = stageUpdate(up);
        storeWords(_reg_next[ri], out + _reg_off[ri]);
    }
}

int
Sim::stateBits() const
{
    int bits = 0;
    for (NetId r : _nl.regs())
        bits += _nl.net(r).width;
    return bits;
}

std::vector<std::string>
Sim::regNames() const
{
    std::vector<std::string> out;
    for (const auto &[name, sig] : _nl.signals())
        if (sig.kind == NetSignal::Kind::Reg)
            out.push_back(name);
    return out;
}

BitVec
Sim::regValue(const std::string &flat_name) const
{
    const NetSignal *sig = findSignal(flat_name);
    if (!sig || sig->kind != NetSignal::Kind::Reg)
        throw std::invalid_argument("no such register: " + flat_name);
    return _val[static_cast<size_t>(sig->net)];
}

void
Sim::setRegValue(const std::string &flat_name, const BitVec &v)
{
    const NetSignal *sig = findSignal(flat_name);
    if (!sig || sig->kind != NetSignal::Kind::Reg)
        throw std::invalid_argument("no such register: " + flat_name);
    size_t i = static_cast<size_t>(sig->net);
    BitVec nv = v.resize(sig->width);
    if (nv == _val[i])
        return;
    _val[i] = std::move(nv);
    pokeSource(sig->net);
}

std::vector<BitVec>
Sim::captureRegs() const
{
    std::vector<BitVec> vals;
    vals.reserve(_nl.regs().size());
    for (NetId r : _nl.regs())
        vals.push_back(_val[static_cast<size_t>(r)]);
    return vals;
}

const BitVec &
Sim::value(NetId id)
{
    if (id < 0 || static_cast<size_t>(id) >= _val.size())
        throw std::invalid_argument("no such net id");
    sweep();
    return evalLazy(id);
}

std::vector<std::string>
Sim::inputNames() const
{
    std::vector<std::string> out;
    for (const auto &[name, sig] : _nl.signals())
        if (sig.kind == NetSignal::Kind::Input)
            out.push_back(name);
    return out;
}

void
Sim::growRuntimeArrays(size_t n)
{
    const auto &init = _nl.initValues();
    for (size_t i = _val.size(); i < n; i++)
        _val.push_back(init[i]);
    _lazy_gen.resize(n, 0);
    _visiting.resize(n, 0);
    _dirty_mark.resize(n, 0);
    _change_mark.resize(n, 0);
    _wire_slot.resize(n, -1);
    if (!_kstale.empty())
        _kstale.resize(n, 0);   // appended nets are never in the kernel
    if (!_kptr.empty())
        _kptr.resize(n, nullptr);
    // Appended nets are lazy and never drive updates; keep the CSR
    // indexable for changed-net consumers.
    _upd_begin.resize(n + 1, _upd_begin.back());
}

NetId
Sim::topNet(const ExprPtr &e)
{
    auto it = _top_cache.find(e.get());
    if (it != _top_cache.end())
        return it->second;
    // Ad-hoc expressions append lazy nodes to the netlist —
    // impossible when the netlist is shared immutably across Sim
    // instances (the farm fan-out).
    if (!_nl_own)
        throw std::logic_error(
            "Sim::topNet: cannot compile ad-hoc expressions "
            "on a shared immutable netlist");
    NetId id = _nl_own->compile(e, "");
    // Appended nodes are lazy; grow the runtime arrays.
    growRuntimeArrays(_nl.initValues().size());
    _top_cache.emplace(e.get(), id);
    _top_exprs.push_back(e);
    return id;
}

} // namespace rtl
} // namespace anvil
