/**
 * @file
 * Compiled netlist: the flat, index-addressed form of a module
 * hierarchy that the simulator executes.
 *
 * At construction the hierarchy is flattened once, every named signal
 * (top-level input, register, wire, child port wire) is interned into
 * a dense table addressed by an integer NetId, and every expression
 * DAG is rewritten into compact nodes whose operands are NetIds — no
 * strings, maps, or shared_ptr chasing remain on the evaluation path.
 * Combinational nodes are then levelized (topologically sorted with a
 * per-node logic level) so a simulation step is a dense per-level
 * sweep over index arrays.
 *
 * Each named wire starts as a Copy of its driver.  A strict Copy at
 * its operand's width is a rename, so levelization collapses it into
 * that operand — a strict node, a source or a constant: every reader,
 * update, print and signals() entry points at the operand, which takes
 * the wire's name unless it has one, and the Copy leaves the netlist.
 * Several names can then share one net, and a wire's net may be an
 * input, a register or a constant.
 *
 * Levelization then numbers the nets that remain in evaluation order:
 * sources and constants first, then the strict nodes level by level
 * (order() is one id range), then the lazy nets; the nets compile()
 * appends later come last.  Every net is a value something reads.
 *
 * Structural cycles and unresolved references cannot always be
 * rejected eagerly: the reference interpreter only faults when an
 * evaluation actually reaches them (a loop hidden behind an untaken
 * mux branch is legal).  Nodes on or downstream of a cycle or a bad
 * reference are therefore marked `lazy` and evaluated by a recursive
 * short-circuiting walk that reproduces the reference semantics
 * exactly, including "combinational loop through <name>" faults; the
 * walk runs each node's layout record, as the sweep does.  Lazy
 * Copies are never collapsed, so a named wire on a cycle keeps its own
 * net and the walk's loop guard.
 */

#ifndef ANVIL_RTL_NETLIST_H
#define ANVIL_RTL_NETLIST_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rtl/rtl.h"

namespace anvil {
namespace rtl {

struct KernelLayout;

/** Interned index of a signal or expression node in the netlist. */
using NetId = int32_t;

constexpr NetId kNoNet = -1;

/** One compiled node.  Sources hold state; the rest compute. */
struct Net
{
    enum class Kind : uint8_t
    {
        Const,   // value fixed at compile time
        Input,   // top-level input (poked by the driver)
        Reg,     // register (committed on the clock edge)
        Copy,    // operand a, resized to this node's width
        Unop,    // op(a)
        Binop,   // op(a, b) at this node's width
        Mux,     // a ? b : c, resized to this node's width
        Slice,   // a[lo +: width]
        Concat,  // cargs, hi-first, resized to this node's width
        Rom,     // rom[a], resized; out-of-range reads zero
        BadRef,  // unresolved name; faults only if evaluated
    };

    Kind kind = Kind::Const;
    Op op = Op::And;
    /** Evaluated in the u64 lane (width and operands fit a word). */
    bool fast = false;
    /** Evaluated by the recursive walk, not the levelized sweep. */
    bool lazy = false;
    int32_t width = 1;
    int32_t lo = 0;                       // Slice
    int32_t level = 0;
    NetId a = kNoNet, b = kNoNet, c = kNoNet;
    uint64_t mask = 1;                    // low-word mask, width <= 64
    std::vector<NetId> cargs;             // Concat operands, hi-first
    std::shared_ptr<const std::vector<BitVec>> rom;

    /** Computes from operands: not a source, constant or BadRef. */
    bool computes() const
    {
        return kind != Kind::Const && kind != Kind::Input &&
            kind != Kind::Reg && kind != Kind::BadRef;
    }
};

/** A named flattened signal (dotted instance path). */
struct NetSignal
{
    enum class Kind { Input, Reg, Wire };
    Kind kind = Kind::Wire;
    NetId net = kNoNet;
    int32_t width = 1;
};

/** Guarded register update, ID-resolved. */
struct NetUpdate
{
    int32_t reg_index = -1;   // into regs(); -1 = unknown register
    NetId enable = kNoNet;
    NetId value = kNoNet;
    std::string reg_name;     // flat name, for diagnostics
};

/** Simulation-only print, ID-resolved. */
struct NetPrint
{
    NetId enable = kNoNet;
    NetId value = kNoNet;     // kNoNet: no value printed
    std::string text;
};

/**
 * The compiled form of one module hierarchy.
 *
 * `compile` may be called after construction (the simulator compiles
 * ad-hoc top-scope expressions for evalTop); nodes added then are
 * marked lazy so the levelized order stays valid.
 */
class Netlist
{
  public:
    explicit Netlist(const Module &top);

    /** Every net, in evaluation order (see the file comment): each is
     *  read by a node, a signal, an update or a print, and no
     *  collapsed rename keeps an id. */
    const std::vector<Net> &nets() const { return _nets; }
    const Net &net(NetId id) const
    {
        return _nets[static_cast<size_t>(id)];
    }

    /** Initial value of every node (register init, zeros, consts). */
    const std::vector<BitVec> &initValues() const { return _init; }

    /** Strict combinational nodes in evaluation order (no renames):
     *  consecutive ids, the first right after the sources and
     *  constants, ascending by level. */
    const std::vector<NetId> &order() const { return _order; }

    /** order()[level_begin[l] .. level_begin[l+1]) is level l. */
    const std::vector<int32_t> &levelBegin() const
    {
        return _level_begin;
    }

    /**
     * Fan-out cone edges, CSR form: the strict combinational nodes
     * that read net `id` directly are
     * fanout()[fanoutBegin()[id] .. fanoutBegin()[id+1]).  Built once
     * during levelization; kernelLayout() turns these edges into the
     * consumer CSR the event-driven sweep walks to re-evaluate only
     * the cone downstream of a changed source.  Lazy consumers are
     * excluded (the recursive walk re-reads its whole cone every
     * evaluation anyway).
     */
    const std::vector<int32_t> &fanoutBegin() const
    {
        return _fanout_begin;
    }
    const std::vector<NetId> &fanout() const { return _fanout; }

    /** Number of distinct levels in the strict order. */
    size_t levelCount() const
    {
        return _level_begin.empty() ? 0 : _level_begin.size() - 1;
    }

    /** Lazy nodes the clock edge must evaluate every cycle. */
    const std::vector<NetId> &lazyRoots() const { return _lazy_roots; }

    /** Flat signal name -> interned signal (sorted by name); renames
     *  share their driver's net. */
    const std::map<std::string, NetSignal> &signals() const
    {
        return _signals;
    }

    /** Each named wire's net, one entry per wire: a net shared by
     *  several names repeats, and a rename's net may be a source or a
     *  constant. */
    const std::vector<NetId> &wireNets() const { return _wire_nets; }

    /** Register nodes in name order. */
    const std::vector<NetId> &regs() const { return _regs; }

    const std::vector<NetUpdate> &updates() const { return _updates; }
    const std::vector<NetPrint> &prints() const { return _prints; }

    /**
     * The packed state-word layout (rtl::kernelLayout,
     * rtl/kernel_host.h), built once with the netlist so that every
     * Sim, kernel and emitter on it shares one.  compile() extends it
     * by each net it appends (rtl::extendLayout): state words past the
     * built ones and a record, behind its net count.
     */
    std::shared_ptr<const KernelLayout> layout() const { return _layout; }

    /** Follow child-output aliases from a scoped name to a flat one. */
    std::string resolveName(const std::string &scope,
                            const std::string &name) const;

    /**
     * Compile an expression in the given scope and return its node.
     * Post-construction nodes are marked lazy (see class comment) and
     * extend the layout.
     */
    NetId compile(const ExprPtr &e, const std::string &scope);

    /** Debug name of a node: a source's own name, or the name of
     *  the first wire collapsed into it ("" for anonymous nodes). */
    const std::string &nameOf(NetId id) const;

    /**
     * Visit every operand NetId of a node, in evaluation order
     * (a, b, c, then cargs).  The one operand walk shared by
     * levelization, the fan-out CSR, the design hash, and the C++
     * emitter's guard/liveness analyses.
     */
    template <typename F>
    static void forEachOperand(const Net &n, F f)
    {
        if (n.a != kNoNet)
            f(n.a);
        if (n.b != kNoNet)
            f(n.b);
        if (n.c != kNoNet)
            f(n.c);
        for (NetId id : n.cargs)
            f(id);
    }

  private:
    NetId newNet(Net n);
    NetId internSource(NetSignal::Kind kind, const std::string &flat,
                       int width, const BitVec &init);
    void flatten(const Module &m, const std::string &prefix);
    void levelize();
    void finalizeNode(Net &n);

    struct PendingWire
    {
        NetId root;
        ExprPtr expr;
        std::string scope;
    };
    struct PendingUpdate
    {
        std::string reg;      // flat name
        ExprPtr enable, value;
        std::string scope;
    };
    struct PendingPrint
    {
        ExprPtr enable, value;
        std::string text;
        std::string scope;
    };

    std::vector<Net> _nets;
    std::vector<BitVec> _init;
    std::vector<NetId> _order;
    std::vector<int32_t> _level_begin;
    std::vector<int32_t> _fanout_begin;
    std::vector<NetId> _fanout;
    std::vector<NetId> _lazy_roots;
    std::map<std::string, NetSignal> _signals;
    std::map<std::string, std::string> _aliases;
    std::vector<NetId> _wire_nets;
    std::vector<NetId> _regs;
    std::vector<NetUpdate> _updates;
    std::vector<NetPrint> _prints;
    std::vector<std::string> _names;   // per net; "" if anonymous
    std::map<std::pair<const Expr *, std::string>, NetId> _expr_cache;
    std::vector<PendingWire> _pending_wires;
    std::vector<PendingUpdate> _pending_updates;
    std::vector<PendingPrint> _pending_prints;
    std::shared_ptr<KernelLayout> _layout;
    bool _constructed = false;
};

/**
 * Structural fingerprint of a netlist: FNV-1a over every node's kind,
 * operator, width, operands, ROM contents, and the initial values.
 * A compiled kernel records this at emission time and the simulator
 * refuses to attach an object whose hash disagrees (see
 * rtl/kernel_abi.h), so a stale shared object degrades to the
 * interpreter instead of silently simulating the wrong design.
 */
uint64_t designHash(const Netlist &nl);

} // namespace rtl
} // namespace anvil

#endif // ANVIL_RTL_NETLIST_H
