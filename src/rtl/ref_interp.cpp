#include "rtl/ref_interp.h"

#include <stdexcept>

#include "support/strings.h"

namespace anvil {
namespace rtl {

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

RefSim::RefSim(std::shared_ptr<const Module> top)
    : _top(std::move(top))
{
    flatten(*_top, "");
}

void
RefSim::flatten(const Module &m, const std::string &prefix)
{
    for (const auto &p : m.ports) {
        if (p.is_input && prefix.empty()) {
            Signal s;
            s.kind = Signal::Kind::Input;
            s.width = p.width;
            s.value = BitVec(p.width);
            _signals[p.name] = std::move(s);
        }
        // Non-top input ports become wires during instance wiring;
        // output ports resolve to the same-named wire/reg.
    }
    for (const auto &r : m.regs) {
        Signal s;
        s.kind = Signal::Kind::Reg;
        s.width = r.width;
        s.value = r.init;
        s.next = r.init;
        _signals[prefix + r.name] = std::move(s);
    }
    for (const auto &w : m.wires) {
        Signal s;
        s.kind = Signal::Kind::Wire;
        s.width = w.width;
        s.expr = w.expr;
        s.scope = prefix;
        _signals[prefix + w.name] = std::move(s);
    }
    for (const auto &u : m.updates)
        _updates.push_back({prefix + u.reg, u.enable, u.value, prefix});
    for (const auto &pr : m.prints)
        _prints.push_back({pr.enable, pr.text, pr.value, prefix});

    for (const auto &inst : m.instances) {
        std::string child_prefix = prefix + inst.name + ".";
        flatten(*inst.module, child_prefix);
        // Child inputs: wires in the child scope, driven by parent
        // expressions evaluated in the parent scope.
        for (const auto &[port, expr] : inst.inputs) {
            const Port *p = inst.module->findPort(port);
            int w = p ? p->width : expr->width;
            Signal s;
            s.kind = Signal::Kind::Wire;
            s.width = w;
            s.expr = expr;
            s.scope = prefix;   // resolve in the parent scope
            _signals[child_prefix + port] = std::move(s);
        }
        // Child outputs: alias parent names to child signals.
        for (const auto &[parent_wire, child_port] : inst.outputs)
            _aliases[prefix + parent_wire] = child_prefix + child_port;
    }
}

std::string
RefSim::resolveName(const std::string &scope, const std::string &name) const
{
    std::string flat = scope + name;
    auto it = _aliases.find(flat);
    while (it != _aliases.end()) {
        flat = it->second;
        it = _aliases.find(flat);
    }
    return flat;
}

void
RefSim::setInput(const std::string &name, const BitVec &v)
{
    auto it = _signals.find(name);
    if (it == _signals.end() || it->second.kind != Signal::Kind::Input)
        throw std::invalid_argument("no such input: " + name);
    it->second.value = v.resize(it->second.width);
    _gen++;
}

void
RefSim::setInput(const std::string &name, uint64_t v)
{
    auto it = _signals.find(name);
    if (it == _signals.end() || it->second.kind != Signal::Kind::Input)
        throw std::invalid_argument("no such input: " + name);
    it->second.value = BitVec(it->second.width, v);
    _gen++;
}

BitVec
RefSim::evalSignal(const std::string &flat)
{
    auto it = _signals.find(flat);
    if (it == _signals.end())
        throw std::invalid_argument("no such signal: " + flat);
    Signal &s = it->second;
    if (s.kind != Signal::Kind::Wire)
        return s.value;
    if (s.eval_cycle == _cycle && s.eval_gen == _gen)
        return s.cached;
    if (s.visiting)
        throw std::runtime_error("combinational loop through " + flat);
    s.visiting = true;
    BitVec v = eval(s.expr, s.scope).resize(s.width);
    s.visiting = false;
    s.eval_cycle = _cycle;
    s.eval_gen = _gen;
    s.cached = v;
    return v;
}

BitVec
RefSim::eval(const ExprPtr &e, const std::string &scope)
{
    switch (e->kind) {
      case Expr::Kind::Const:
        return e->value;
      case Expr::Kind::Ref:
        return evalSignal(resolveName(scope, e->name)).resize(e->width);
      case Expr::Kind::Unop:
        return applyUnop(e->op, eval(e->args[0], scope));
      case Expr::Kind::Binop:
        return applyBinop(e->op, eval(e->args[0], scope),
                          eval(e->args[1], scope), e->width);
      case Expr::Kind::Mux:
        return eval(e->args[0], scope).any()
            ? eval(e->args[1], scope).resize(e->width)
            : eval(e->args[2], scope).resize(e->width);
      case Expr::Kind::Slice:
        return eval(e->args[0], scope).slice(e->lo, e->width);
      case Expr::Kind::Concat: {
        BitVec acc(1);
        bool first = true;
        // args are hi-first; build from the low end.
        for (auto it = e->args.rbegin(); it != e->args.rend(); ++it) {
            BitVec part = eval(*it, scope);
            if (first) {
                acc = part;
                first = false;
            } else {
                acc = acc.concatHigh(part);
            }
        }
        return acc.resize(e->width);
      }
      case Expr::Kind::Rom: {
        uint64_t addr = eval(e->args[0], scope).toUint64();
        if (addr >= e->rom->size())
            return BitVec(e->width);
        return (*e->rom)[addr].resize(e->width);
      }
    }
    throw std::logic_error("bad expr kind");
}

BitVec
RefSim::peek(const std::string &name)
{
    return evalSignal(resolveName("", name));
}

void
RefSim::evalAll()
{
    for (auto &[name, s] : _signals) {
        if (s.kind != Signal::Kind::Wire)
            continue;
        BitVec v = evalSignal(name);
        // Toggle accounting against the previous cycle's value.
        if (s.last_cycle_val_cycle != UINT64_MAX) {
            BitVec diff = v ^ s.last_cycle_val.resize(v.width());
            _total_toggles += diff.popcount();
        }
        s.last_cycle_val = v;
        s.last_cycle_val_cycle = _cycle;
    }
}

void
RefSim::step(int n)
{
    for (int i = 0; i < n; i++) {
        evalAll();

        // Compute next-state for all registers.
        for (auto &[name, s] : _signals) {
            if (s.kind == Signal::Kind::Reg)
                s.next = s.value;
        }
        for (const auto &u : _updates) {
            if (eval(u.enable, u.scope).any()) {
                auto it = _signals.find(u.reg);
                if (it == _signals.end())
                    throw std::invalid_argument("update of unknown reg: "
                                                + u.reg);
                it->second.next =
                    eval(u.value, u.scope).resize(it->second.width);
            }
        }
        for (const auto &p : _prints) {
            if (eval(p.enable, p.scope).any()) {
                std::string line = p.text;
                if (p.value)
                    line += " " + eval(p.value, p.scope).toHex();
                _log.push_back(line);
            }
        }

        // Clock edge: commit and count register toggles.
        for (auto &[name, s] : _signals) {
            if (s.kind == Signal::Kind::Reg) {
                BitVec diff = s.next ^ s.value;
                _total_toggles += diff.popcount();
                s.value = s.next;
            }
        }
        _cycle++;
    }
}

int
RefSim::stateBits() const
{
    int bits = 0;
    for (const auto &[name, s] : _signals)
        if (s.kind == Signal::Kind::Reg)
            bits += s.width;
    return bits;
}

std::vector<std::string>
RefSim::regNames() const
{
    std::vector<std::string> out;
    for (const auto &[name, s] : _signals)
        if (s.kind == Signal::Kind::Reg)
            out.push_back(name);
    return out;
}

BitVec
RefSim::regValue(const std::string &flat_name) const
{
    auto it = _signals.find(flat_name);
    if (it == _signals.end() || it->second.kind != Signal::Kind::Reg)
        throw std::invalid_argument("no such register: " + flat_name);
    return it->second.value;
}

void
RefSim::setRegValue(const std::string &flat_name, const BitVec &v)
{
    auto it = _signals.find(flat_name);
    if (it == _signals.end() || it->second.kind != Signal::Kind::Reg)
        throw std::invalid_argument("no such register: " + flat_name);
    it->second.value = v.resize(it->second.width);
    _gen++;
}

std::vector<std::string>
RefSim::inputNames() const
{
    std::vector<std::string> out;
    for (const auto &[name, s] : _signals)
        if (s.kind == Signal::Kind::Input)
            out.push_back(name);
    return out;
}

BitVec
RefSim::evalTop(const ExprPtr &e)
{
    return eval(e, "");
}

} // namespace rtl
} // namespace anvil
