#include "rtl/netlist.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "rtl/kernel_host.h"

namespace anvil {
namespace rtl {

namespace {

uint64_t
maskFor(int width)
{
    if (width <= 0)
        return 0;
    if (width >= 64)
        return ~0ull;
    return (1ull << width) - 1;
}

} // namespace

Netlist::Netlist(const Module &top)
{
    flatten(top, "");

    // All named signals exist now; compile the drivers.  Wire roots
    // were reserved up front so references among wires (in either
    // direction, including cycles) resolve to stable ids.
    for (const auto &pw : _pending_wires)
        _nets[static_cast<size_t>(pw.root)].a =
            compile(pw.expr, pw.scope);

    // Register nodes in name order (one per surviving name).
    std::map<std::string, int32_t> reg_index;
    for (const auto &[name, sig] : _signals) {
        if (sig.kind == NetSignal::Kind::Reg) {
            reg_index[name] = static_cast<int32_t>(_regs.size());
            _regs.push_back(sig.net);
        } else if (sig.kind == NetSignal::Kind::Wire) {
            _wire_nets.push_back(sig.net);
        }
    }

    for (const auto &pu : _pending_updates) {
        NetUpdate u;
        u.reg_name = pu.reg;
        auto it = reg_index.find(pu.reg);
        auto sig = _signals.find(pu.reg);
        if (it != reg_index.end() && sig != _signals.end() &&
            sig->second.kind == NetSignal::Kind::Reg)
            u.reg_index = it->second;
        u.enable = compile(pu.enable, pu.scope);
        u.value = compile(pu.value, pu.scope);
        _updates.push_back(std::move(u));
    }
    for (const auto &pp : _pending_prints) {
        NetPrint p;
        p.text = pp.text;
        p.enable = compile(pp.enable, pp.scope);
        if (pp.value)
            p.value = compile(pp.value, pp.scope);
        _prints.push_back(std::move(p));
    }
    _pending_wires.clear();
    _pending_updates.clear();
    _pending_prints.clear();

    // Wire roots were finalized before their operands existed;
    // recompute every node's mask and fast-lane eligibility now.
    for (Net &n : _nets)
        finalizeNode(n);

    levelize();

    // Lazy nodes the clock edge must refresh every cycle: named
    // wires (toggle accounting reads their values) and update/print
    // operands.  peek/evalTop evaluate lazy cones on demand instead.
    auto add_lazy_root = [this](NetId id) {
        if (id != kNoNet && _nets[static_cast<size_t>(id)].lazy)
            _lazy_roots.push_back(id);
    };
    for (NetId id : _wire_nets)
        add_lazy_root(id);
    for (const auto &u : _updates) {
        add_lazy_root(u.enable);
        add_lazy_root(u.value);
    }
    for (const auto &p : _prints) {
        add_lazy_root(p.enable);
        add_lazy_root(p.value);
    }

    _layout = std::make_shared<KernelLayout>(kernelLayout(*this));
    _constructed = true;
}

NetId
Netlist::newNet(Net n)
{
    finalizeNode(n);
    n.lazy |= _constructed;   // appended nodes are outside the sweep order
    NetId id = static_cast<NetId>(_nets.size());
    _init.emplace_back(n.width);
    _names.emplace_back();
    _nets.push_back(std::move(n));
    if (_constructed)
        extendLayout(*this, *_layout);
    return id;
}

void
Netlist::finalizeNode(Net &n)
{
    n.mask = maskFor(n.width);
    if (!n.computes() || n.width < 1 || n.width > 64) {
        n.fast = false;
        return;
    }
    bool fast = true;
    auto check = [&](NetId id) {
        if (id != kNoNet &&
            _nets[static_cast<size_t>(id)].width > 64)
            fast = false;
    };
    check(n.a);
    check(n.b);
    check(n.c);
    for (NetId id : n.cargs)
        check(id);
    n.fast = fast;
}

NetId
Netlist::internSource(NetSignal::Kind kind, const std::string &flat,
                      int width, const BitVec &init)
{
    Net n;
    n.kind = kind == NetSignal::Kind::Input ? Net::Kind::Input
                                            : Net::Kind::Reg;
    n.width = width;
    NetId id = newNet(std::move(n));
    _init[static_cast<size_t>(id)] = init.resize(width);
    _signals[flat] = {kind, id, width};
    _names[static_cast<size_t>(id)] = flat;
    return id;
}

void
Netlist::flatten(const Module &m, const std::string &prefix)
{
    for (const auto &p : m.ports) {
        if (p.is_input && prefix.empty())
            internSource(NetSignal::Kind::Input, p.name, p.width,
                         BitVec(p.width));
        // Non-top input ports become wires during instance wiring;
        // output ports resolve to the same-named wire/reg.
    }
    for (const auto &r : m.regs)
        internSource(NetSignal::Kind::Reg, prefix + r.name, r.width,
                     r.init);
    for (const auto &w : m.wires) {
        Net n;
        n.kind = Net::Kind::Copy;   // operand filled after interning
        n.width = w.width;
        NetId root = newNet(std::move(n));
        _signals[prefix + w.name] = {NetSignal::Kind::Wire, root,
                                     w.width};
        _names[static_cast<size_t>(root)] = prefix + w.name;
        _pending_wires.push_back({root, w.expr, prefix});
    }
    for (const auto &u : m.updates)
        _pending_updates.push_back(
            {prefix + u.reg, u.enable, u.value, prefix});
    for (const auto &pr : m.prints)
        _pending_prints.push_back(
            {pr.enable, pr.value, pr.text, prefix});

    for (const auto &inst : m.instances) {
        std::string child_prefix = prefix + inst.name + ".";
        flatten(*inst.module, child_prefix);
        // Child inputs: wires in the child scope, driven by parent
        // expressions evaluated in the parent scope.
        for (const auto &[port, expr] : inst.inputs) {
            const Port *p = inst.module->findPort(port);
            int w = p ? p->width : expr->width;
            Net n;
            n.kind = Net::Kind::Copy;
            n.width = w;
            NetId root = newNet(std::move(n));
            _signals[child_prefix + port] = {NetSignal::Kind::Wire,
                                             root, w};
            _names[static_cast<size_t>(root)] = child_prefix + port;
            _pending_wires.push_back({root, expr, prefix});
        }
        // Child outputs: alias parent names to child signals.
        for (const auto &[parent_wire, child_port] : inst.outputs)
            _aliases[prefix + parent_wire] = child_prefix + child_port;
    }
}

std::string
Netlist::resolveName(const std::string &scope,
                     const std::string &name) const
{
    std::string flat = scope + name;
    auto it = _aliases.find(flat);
    while (it != _aliases.end()) {
        flat = it->second;
        it = _aliases.find(flat);
    }
    return flat;
}

NetId
Netlist::compile(const ExprPtr &e, const std::string &scope)
{
    auto key = std::make_pair(e.get(), scope);
    auto hit = _expr_cache.find(key);
    if (hit != _expr_cache.end())
        return hit->second;

    NetId id = kNoNet;
    switch (e->kind) {
      case Expr::Kind::Const: {
        Net n;
        n.kind = Net::Kind::Const;
        n.width = e->value.width();
        id = newNet(std::move(n));
        _init[static_cast<size_t>(id)] = e->value;
        break;
      }
      case Expr::Kind::Ref: {
        std::string flat = resolveName(scope, e->name);
        auto it = _signals.find(flat);
        if (it == _signals.end()) {
            Net n;
            n.kind = Net::Kind::BadRef;
            n.width = e->width;
            n.lazy = true;
            id = newNet(std::move(n));
            _names[static_cast<size_t>(id)] = flat;
        } else if (it->second.width == e->width) {
            id = it->second.net;
        } else {
            Net n;
            n.kind = Net::Kind::Copy;
            n.width = e->width;
            n.a = it->second.net;
            id = newNet(std::move(n));
        }
        break;
      }
      case Expr::Kind::Unop: {
        Net n;
        n.kind = Net::Kind::Unop;
        n.op = e->op;
        n.a = compile(e->args[0], scope);
        // Faithful to the reference evaluator: Not keeps the operand
        // width, reductions produce one bit (e->width is ignored).
        n.width = (e->op == Op::RedOr || e->op == Op::RedAnd)
            ? 1
            : net(n.a).width;
        id = newNet(std::move(n));
        break;
      }
      case Expr::Kind::Binop: {
        Net n;
        n.kind = Net::Kind::Binop;
        n.op = e->op;
        n.width = e->width;
        n.a = compile(e->args[0], scope);
        n.b = compile(e->args[1], scope);
        id = newNet(std::move(n));
        break;
      }
      case Expr::Kind::Mux: {
        Net n;
        n.kind = Net::Kind::Mux;
        n.width = e->width;
        n.a = compile(e->args[0], scope);
        n.b = compile(e->args[1], scope);
        n.c = compile(e->args[2], scope);
        id = newNet(std::move(n));
        break;
      }
      case Expr::Kind::Slice: {
        Net n;
        n.kind = Net::Kind::Slice;
        n.width = e->width;
        n.lo = e->lo;
        n.a = compile(e->args[0], scope);
        id = newNet(std::move(n));
        break;
      }
      case Expr::Kind::Concat: {
        Net n;
        n.kind = Net::Kind::Concat;
        n.width = e->width;
        for (const auto &arg : e->args)
            n.cargs.push_back(compile(arg, scope));
        id = newNet(std::move(n));
        break;
      }
      case Expr::Kind::Rom: {
        Net n;
        n.kind = Net::Kind::Rom;
        n.width = e->width;
        n.rom = e->rom;
        n.a = compile(e->args[0], scope);
        id = newNet(std::move(n));
        break;
      }
    }
    assert(id != kNoNet);
    _expr_cache.emplace(key, id);
    return id;
}

namespace {

/**
 * The consumer edges of `nets` as a CSR built from their operands:
 * the nets i accepted by `keep` that read net o are
 * edges[begin[o] .. begin[o + 1]), in ascending i, a net's reads of
 * one operand side by side.
 */
template <typename Keep>
void
consumerCsr(const std::vector<Net> &nets, Keep keep,
            std::vector<int32_t> &begin, std::vector<NetId> &edges)
{
    size_t count = nets.size();
    begin.assign(count + 1, 0);
    for (size_t i = 0; i < count; i++)
        if (keep(i))
            Netlist::forEachOperand(nets[i], [&](NetId o) {
                begin[static_cast<size_t>(o) + 1]++;
            });
    for (size_t i = 1; i <= count; i++)
        begin[i] += begin[i - 1];
    edges.resize(static_cast<size_t>(begin[count]));
    std::vector<int32_t> cursor(begin.begin(), begin.end() - 1);
    for (size_t i = 0; i < count; i++)
        if (keep(i))
            Netlist::forEachOperand(nets[i], [&](NetId o) {
                edges[static_cast<size_t>(
                    cursor[static_cast<size_t>(o)]++)] =
                    static_cast<NetId>(i);
            });
}

} // namespace

void
Netlist::levelize()
{
    size_t count = _nets.size();
    std::vector<int32_t> indeg(count, 0);
    std::vector<uint8_t> tainted(count, 0);
    for (size_t i = 0; i < count; i++) {
        const Net &n = _nets[i];
        tainted[i] = n.kind == Net::Kind::BadRef;
        forEachOperand(n, [&](NetId) { indeg[i]++; });
    }
    std::vector<int32_t> cons_begin;
    std::vector<NetId> cons;
    consumerCsr(_nets, [](size_t) { return true; }, cons_begin, cons);

    std::vector<NetId> queue;
    for (size_t i = 0; i < count; i++)
        if (indeg[i] == 0)
            queue.push_back(static_cast<NetId>(i));
    for (size_t popped = 0; popped < queue.size(); popped++) {
        size_t o = static_cast<size_t>(queue[popped]);
        for (int32_t k = cons_begin[o]; k < cons_begin[o + 1]; k++) {
            size_t ci = static_cast<size_t>(cons[static_cast<size_t>(k)]);
            tainted[ci] = static_cast<uint8_t>(tainted[ci] | tainted[o]);
            if (--indeg[ci] == 0)
                queue.push_back(static_cast<NetId>(ci));
        }
    }

    // Unpopped nodes sit on (or behind) a combinational cycle; they
    // and anything tainted by a bad reference fall back to the lazy
    // evaluator, which reproduces the reference fault behaviour.
    for (size_t i = 0; i < count; i++)
        if (indeg[i] != 0 || tainted[i])
            _nets[i].lazy = true;

    // Renames.  A strict Copy at its operand's width equals that
    // operand, which is a strict net, a source or a constant, so
    // every reader is redirected to the operand and the Copy leaves
    // the sweep.  Kahn's order resolves an operand before its
    // readers, so chains collapse in the same pass that relevels.
    // A collapsed Copy stays in nets() as an unread lazy node; its
    // name moves to its target unless the target has one.
    std::vector<NetId> alias(count);
    std::iota(alias.begin(), alias.end(), 0);
    auto redirect = [&](NetId &o) {
        if (o != kNoNet)
            o = alias[static_cast<size_t>(o)];
    };
    auto redirectOperands = [&](Net &n) {
        redirect(n.a);
        redirect(n.b);
        redirect(n.c);
        for (NetId &o : n.cargs)
            redirect(o);
    };
    int32_t max_level = 0;
    for (NetId id : queue) {
        Net &n = _nets[static_cast<size_t>(id)];
        redirectOperands(n);
        if (!n.lazy && n.kind == Net::Kind::Copy &&
            _nets[static_cast<size_t>(n.a)].width == n.width) {
            alias[static_cast<size_t>(id)] = n.a;
            n.lazy = true;
            std::string &to = _names[static_cast<size_t>(n.a)];
            std::string &from = _names[static_cast<size_t>(id)];
            if (to.empty())
                to.swap(from);
            from.clear();
            continue;
        }
        n.level = 0;
        forEachOperand(n, [&](NetId o) {
            n.level = std::max(n.level,
                               _nets[static_cast<size_t>(o)].level + 1);
        });
        if (!n.lazy && n.computes())
            max_level = std::max(max_level, n.level);
    }
    for (size_t i = 0; i < count; i++)
        if (indeg[i] != 0)
            redirectOperands(_nets[i]);
    for (auto &[name, sig] : _signals)
        redirect(sig.net);
    for (NetId &w : _wire_nets)
        redirect(w);
    for (auto &[key, id] : _expr_cache)
        redirect(id);
    for (NetUpdate &u : _updates) {
        redirect(u.enable);
        redirect(u.value);
    }
    for (NetPrint &p : _prints) {
        redirect(p.enable);
        redirect(p.value);
    }

    // The strict order by level, ties by id (a counting sort).
    auto strict = [this](size_t i) {
        return !_nets[i].lazy && _nets[i].computes();
    };
    _level_begin.assign(static_cast<size_t>(max_level) + 2, 0);
    for (size_t i = 0; i < count; i++)
        if (strict(i))
            _level_begin[static_cast<size_t>(_nets[i].level) + 1]++;
    for (size_t l = 1; l < _level_begin.size(); l++)
        _level_begin[l] += _level_begin[l - 1];
    _order.resize(static_cast<size_t>(_level_begin.back()));
    std::vector<int32_t> cursor(_level_begin.begin(),
                                _level_begin.end() - 1);
    for (size_t i = 0; i < count; i++)
        if (strict(i))
            _order[static_cast<size_t>(
                cursor[static_cast<size_t>(_nets[i].level)]++)] =
                static_cast<NetId>(i);

    // Fan-out CSR over strict consumers only: the edge list the
    // event-driven sweep follows when a net's value changes.  Lazy
    // nodes are evaluated by the recursive walk, which never consults
    // the dirty sets, so they are left out.
    consumerCsr(_nets, strict, _fanout_begin, _fanout);
}

const std::string &
Netlist::nameOf(NetId id) const
{
    static const std::string empty;
    size_t i = static_cast<size_t>(id);
    return i < _names.size() ? _names[i] : empty;
}

uint64_t
designHash(const Netlist &nl)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t w) {
        h ^= w;
        h *= 1099511628211ull;
    };
    mix(nl.nets().size());
    for (const Net &n : nl.nets()) {
        mix(static_cast<uint64_t>(n.kind) |
            (static_cast<uint64_t>(n.op) << 8) |
            (static_cast<uint64_t>(n.fast) << 16) |
            (static_cast<uint64_t>(n.lazy) << 17));
        mix((static_cast<uint64_t>(static_cast<uint32_t>(n.width))
             << 32) |
            static_cast<uint32_t>(n.lo));
        mix((static_cast<uint64_t>(static_cast<uint32_t>(n.a))
             << 32) |
            static_cast<uint32_t>(n.b));
        mix(static_cast<uint64_t>(static_cast<uint32_t>(n.c)));
        mix(n.cargs.size());
        for (NetId c : n.cargs)
            mix(static_cast<uint64_t>(c));
        if (n.rom) {
            mix(n.rom->size());
            for (const BitVec &e : *n.rom) {
                mix(static_cast<uint64_t>(e.width()));
                for (int w = 0; w < e.words(); w++)
                    mix(e.word(w));
            }
        }
    }
    for (const BitVec &v : nl.initValues()) {
        mix(static_cast<uint64_t>(v.width()));
        for (int w = 0; w < v.words(); w++)
            mix(v.word(w));
    }
    return h;
}

} // namespace rtl
} // namespace anvil
