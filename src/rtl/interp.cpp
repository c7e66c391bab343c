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

/** Store `v`, of the net's width, over its `n` words at w when they
 *  differ; returns whether they did. */
bool
storeChanged(const BitVec &v, uint64_t *w, uint32_t n)
{
    bool moved = false;
    for (uint32_t k = 0; k < n; k++) {
        uint64_t x = v.word(static_cast<int>(k));
        moved |= w[k] != x;
        w[k] = x;
    }
    return moved;
}

/** The inverse: set a value from its words at w. */
void
loadWords(BitVec &v, const uint64_t *w)
{
    if (v.width() <= 64)
        v.setUint64(w[0]);
    else
        v.setWords(w, v.words());
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
      _nl(*_nl_hold),
      _layout(*_nl.layout()),
      _host(_nl.layout()),
      _words(_host.state()),
      _edge(_nl.layout())
{
    adoptNets();
    _reg_off.reserve(_nl.regs().size() + 1);
    _reg_off.push_back(0);
    for (NetId r : _nl.regs())
        _reg_off.push_back(_reg_off.back() +
                           static_cast<size_t>(
                               _val[static_cast<size_t>(r)].words()));
    _swept.resize(_layout.strict_nodes);
    _committed.resize(_nl.regs().size());
    _stats.strict_nodes = _layout.strict_nodes;
    _stats.mode = _mode;

    const auto &updates = _nl.updates();
    for (size_t u = 0; u < updates.size(); u++)
        if (updates[u].reg_index < 0)
            _ghost_updates.push_back(static_cast<int32_t>(u));
}

Sim::~Sim() = default;

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
    if (_kernel.abi) {
        // The kernel schedules itself (its escalation and dense
        // fallback); surface its counters alongside the Sim's.
        _stats.kernel_dense_frames = _host.denseFrames();
        _stats.kernel_fallback_switches = _host.fallbackSwitches();
    }
    return _stats;
}

void
Sim::setEvalCounting(bool on)
{
    _eval_counting = on;
    if (on && _eval_count.size() < _nl.nets().size())
        _eval_count.resize(_nl.nets().size(), 0);
    _host.countEvals(on ? _eval_count.data() : nullptr);
}

std::vector<uint64_t>
Sim::kernelLevelEvals() const
{
    return _kernel.abi ? _host.levelEvals() : std::vector<uint64_t>();
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

bool
Sim::attachKernel(const KernelRef &kernel)
{
    if (!kernel.abi ||
        kernel.abi->abi_version != ANVIL_KERNEL_ABI_VERSION ||
        kernel.abi->design_hash != designHash(_nl) ||
        !_layout.fits(*kernel.abi))
        return false;
    _host.attach(*kernel.abi);
    _kernel = kernel;
    return true;
}

/** Copy one net's words into its cached value. */
void
Sim::refresh(NetId id)
{
    size_t i = static_cast<size_t>(id);
    _stale[i] = 0;
    loadWords(_val[i], _words + _layout.off[i]);
}

/** A net's words as a fresh value, leaving the cache alone. */
BitVec
Sim::wordValue(NetId id) const
{
    size_t i = static_cast<size_t>(id);
    BitVec v(_layout.width[i]);
    loadWords(v, _words + _layout.off[i]);
    return v;
}

NetId
Sim::inputId(const std::string &name) const
{
    const NetSignal *sig = findSignal(name);
    if (!sig || sig->kind != NetSignal::Kind::Input)
        throw std::invalid_argument("no such input: " + name);
    return sig->net;
}

/** The net of a top-level input; throws for any other id. */
const Net &
Sim::checkedInput(NetId id) const
{
    if (id < 0 || static_cast<size_t>(id) >= _nl.nets().size() ||
        _nl.net(id).kind != Net::Kind::Input)
        throw std::invalid_argument("not an input net: " +
                                    std::to_string(id));
    return _nl.net(id);
}

/** Publish a source whose words were just written: its value moved,
 *  and the next sweep starts from its consumers. */
void
Sim::pokeSource(NetId id)
{
    _stale[static_cast<size_t>(id)] = 1;
    recordChange(id);
    _host.poke(id);
    _poke_tick++;
    _dirty = true;
}

void
Sim::setInput(NetId id, const BitVec &v)
{
    const Net &n = checkedInput(id);
    uint64_t *w = _words + _layout.off[static_cast<size_t>(id)];
    bool moved = v.width() == n.width
        ? storeChanged(v, w, kernelWords(n.width))
        : storeChanged(v.resize(n.width), w, kernelWords(n.width));
    if (moved)
        pokeSource(id);
}

void
Sim::setInput(NetId id, uint64_t v)
{
    const Net &n = checkedInput(id);
    uint64_t *w = _words + _layout.off[static_cast<size_t>(id)];
    if (n.width <= 64) {
        // No temporary: compare and store the masked word in place.
        uint64_t nv = v & n.mask;
        if (nv == *w)
            return;
        *w = nv;
    } else if (!storeChanged(BitVec(n.width, v), w,
                             kernelWords(n.width))) {
        return;
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
 * Bring a lazy node's words up to date, recursively, reproducing the
 * reference interpreter's order of effects: mux branches
 * short-circuit, unresolved references fault only when reached, and
 * re-entering a named wire raises the combinational-loop error.  Each
 * node runs its layout record over the state words, as in the sweep.
 */
void
Sim::evalLazy(NetId id)
{
    size_t i = static_cast<size_t>(id);
    const Net &n = _nl.net(id);
    if (!n.lazy || _lazy_gen[i] == _gen)
        return;   // the sweep's words, or already current this frame
    if (n.kind == Net::Kind::BadRef)
        throw std::invalid_argument("no such signal: " + _nl.nameOf(id));

    // Loop detection guards named wire roots, as in the reference
    // interpreter (cycles can only close through named wires, whose
    // lazy Copies are never collapsed into their drivers).
    bool guard =
        n.kind == Net::Kind::Copy && !_nl.nameOf(id).empty();
    if (guard) {
        if (_visiting[i])
            throw std::runtime_error("combinational loop through " +
                                     _nl.nameOf(id));
        _visiting[i] = 1;
    }

    if (n.kind == Net::Kind::Mux) {
        evalLazy(n.a);
        evalLazy(words(n.a).any() ? n.b : n.c);
    } else {
        Netlist::forEachOperand(n, [this](NetId o) { evalLazy(o); });
    }
    // An appended constant has no record: its words hold it.
    if (_layout.node_of[i] >= 0) {
        // Attribution hook (setEvalCounting).  Nets appended after
        // counting was enabled (evalTop) are skipped.
        if (_eval_counting && i < _eval_count.size())
            _eval_count[i]++;
        if (_host.exec(id)) {
            _stale[i] = 1;
            recordChange(id);
        }
    }

    if (guard)
        _visiting[i] = 0;
    _lazy_gen[i] = _gen;
}

/**
 * Recompute strict combinational values if anything changed: one
 * KernelHost level walk, by the executor or an attached unit.  Strict
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
    // A unit falls back to dense frames on its own; the executor's
    // frames go dense on the Sim's activity measurement (rollFrame):
    // where most of the design switches anyway, queueing costs more
    // than it saves, and the dense walk yields the same values and
    // the same changed-net feed.
    bool jit = _kernel.abi != nullptr;
    bool full = _need_full || _mode == SweepMode::Full ||
        (!jit && _prefer_dense);
    uint64_t n = 0;
    _frame_evals += _host.eval(_swept.data(), &n, full);
    _need_full = false;
    for (uint64_t k = 0; k < n; k++) {
        NetId id = _swept[static_cast<size_t>(k)];
        _stale[static_cast<size_t>(id)] = 1;
        recordChange(id);
    }
    _dirty = false;
    if (jit)
        _stats.kernel_frames++;
    endPhase(jit ? SimPhase::KernelEval : SimPhase::Sweep, _cycle, timed,
             t0);
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
    _stats.dense_fallback_switches +=
        denseFallback(_prefer_dense, changed, _stats.strict_nodes);
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
    evalLazy(sig->net);
    return valOf(sig->net);
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
        edge();
        _cycle++;
        _dirty = true;
        endPhase(SimPhase::Commit, _cycle - 1, timed, t0);
    }
}

/** Log the dprints whose enable is set, in declaration order (lazy
 *  enables' and values' words are current: step evaluated them). */
void
Sim::logPrints()
{
    for (const auto &p : _nl.prints()) {
        if (words(p.enable).any()) {
            std::string line = p.text;
            if (p.value != kNoNet)
                line += " " + valOf(p.value).toHex();
            _log.push_back(line);
        }
    }
}

/** An update of an unknown register faults once its enable fires. */
void
Sim::checkGhostUpdates() const
{
    const auto &updates = _nl.updates();
    for (int32_t u : _ghost_updates) {
        const NetUpdate &up = updates[static_cast<size_t>(u)];
        if (words(up.enable).any())
            throw std::invalid_argument("update of unknown reg: " +
                                        up.reg_name);
    }
}

/**
 * The clock edge, after the frame's sweep and lazy roots: ClockEdge
 * over the state words.  Wire toggles count before the edge's faults,
 * as in the reference interpreter.  The committed registers stay in
 * the words and queue the next sweep.
 */
void
Sim::edge()
{
    _total_toggles += _edge.sample(_words, _frame_changed.data(),
                                   _frame_changed.size());
    checkGhostUpdates();
    logPrints();

    // The pre-edge frame is complete: fold it into the activity stats
    // and start the next one, so the commits below seed the new
    // frame's changed list.
    rollFrame();
    uint64_t n = 0;
    _total_toggles += _edge.commit(_words, _committed.data(), &n);
    for (uint64_t k = 0; k < n; k++)
        pokeSource(_committed[static_cast<size_t>(k)]);
}

void
Sim::packRegs(uint64_t *out) const
{
    for (size_t i = 0; i < _layout.regs.size(); i++)
        std::copy_n(_words + _layout.regs[i].off,
                    _reg_off[i + 1] - _reg_off[i], out + _reg_off[i]);
}

void
Sim::loadRegs(const uint64_t *words)
{
    for (size_t i = 0; i < _layout.regs.size(); i++) {
        const KernelLayout::Reg &g = _layout.regs[i];
        const uint64_t *src = words + _reg_off[i];
        uint64_t *dst = _words + g.off;
        size_t n = _reg_off[i + 1] - _reg_off[i];
        bool moved = false;
        for (size_t k = 0; k < n; k++) {
            uint64_t x = k + 1 == n ? src[k] & g.top : src[k];
            moved |= dst[k] != x;
            dst[k] = x;
        }
        if (moved)
            pokeSource(g.net);
    }
}

void
Sim::nextRegs(uint64_t *out)
{
    sweep();
    for (NetId id : _nl.lazyRoots())
        evalLazy(id);
    checkGhostUpdates();
    packRegs(out);
    uint64_t n = _edge.stage(_words, _committed.data());
    for (uint64_t k = 0; k < n; k++) {
        size_t ri = static_cast<size_t>(_committed[static_cast<size_t>(k)]);
        std::copy_n(_edge.staged(static_cast<uint32_t>(ri)),
                    _reg_off[ri + 1] - _reg_off[ri], out + _reg_off[ri]);
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
    return wordValue(sig->net);
}

void
Sim::setRegValue(const std::string &flat_name, const BitVec &v)
{
    const NetSignal *sig = findSignal(flat_name);
    if (!sig || sig->kind != NetSignal::Kind::Reg)
        throw std::invalid_argument("no such register: " + flat_name);
    size_t i = static_cast<size_t>(sig->net);
    if (storeChanged(v.resize(sig->width), _words + _layout.off[i],
                     kernelWords(sig->width)))
        pokeSource(sig->net);
}

std::vector<BitVec>
Sim::captureRegs() const
{
    std::vector<BitVec> vals;
    vals.reserve(_nl.regs().size());
    for (NetId r : _nl.regs())
        vals.push_back(wordValue(r));
    return vals;
}

const BitVec &
Sim::value(NetId id)
{
    if (id < 0 || static_cast<size_t>(id) >= _val.size())
        throw std::invalid_argument("no such net id");
    sweep();
    evalLazy(id);
    return valOf(id);
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

/** Take up the nets the netlist holds beyond those already adopted
 *  (all of them on construction, appended ones after topNet): their
 *  words and cached values start at their initial values. */
void
Sim::adoptNets()
{
    _host.grow();
    _words = _host.state();
    const auto &init = _nl.initValues();
    size_t from = _val.size();
    _val.insert(_val.end(), init.begin() + static_cast<std::ptrdiff_t>(from),
                init.end());
    for (size_t i = from; i < init.size(); i++)
        storeWords(init[i], _words + _layout.off[i]);
    size_t n = _val.size();
    _stale.resize(n, 0);
    _lazy_gen.resize(n, 0);
    _visiting.resize(n, 0);
    _change_mark.resize(n, 0);
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
    // Appended nodes are lazy, with words and records of their own.
    adoptNets();
    _top_cache.emplace(e.get(), id);
    _top_exprs.push_back(e);
    return id;
}

} // namespace rtl
} // namespace anvil
