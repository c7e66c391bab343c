/**
 * @file
 * Abstract syntax tree for the Anvil HDL (paper §4 and Fig. 7).
 *
 * The AST covers channels (message contracts with lifetimes and sync
 * modes), processes (endpoints, registers, channel instantiations,
 * spawns, threads), and the full term language (wait/join operators,
 * message send/receive, register reads and assignments, cycle delays,
 * conditionals, and combinational expressions).
 */

#ifndef ANVIL_LANG_AST_H
#define ANVIL_LANG_AST_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/diag.h"

namespace anvil {

// ---------------------------------------------------------------------
// Channel definitions
// ---------------------------------------------------------------------

/** Direction a message travels: toward the left or right endpoint. */
enum class MsgDir { Left, Right };

/**
 * A duration (paper §5.1): a fixed number of cycles (`#N`), a dynamic
 * duration naming a message on the same channel ("until the next time
 * that message is exchanged"), or a message plus a fixed offset
 * (`msg+N`, as in the paper's `[res, res->res+1)` cache contract).
 */
struct Duration
{
    enum class Kind { Cycles, Message };

    Kind kind = Kind::Cycles;
    int cycles = 1;    // Cycles: the duration; Message: extra offset
    std::string msg;   // for Kind::Message

    static Duration fixed(int n);
    static Duration message(const std::string &m, int plus = 0);
    std::string str() const;
};

/**
 * A synchronization mode (paper §4.1): dynamic (valid/ack handshake),
 * static (`@#N`: ready at most N cycles after the previous sync), or
 * dependent (`@#msg+N`: exactly N cycles after message `msg`).
 *
 * A dynamic mode may carry a readiness bound (`@dyn#N`): the
 * handshake hardware is unchanged, but this side promises to complete
 * the sync within N cycles of the peer's offer.  The bound is the
 * compile-time source of the formal subsystem's `ack within N`
 * contracts (src/formal/contracts.h).
 */
struct SyncMode
{
    enum class Kind { Dynamic, Static, Dependent };

    Kind kind = Kind::Dynamic;
    int cycles = 0;       // Static/Dependent: timing; Dynamic: bound
    std::string dep_msg;  // for Kind::Dependent

    std::string str() const;
};

/** One message in a channel definition, with its contract. */
struct MessageDef
{
    std::string name;
    MsgDir dir = MsgDir::Right;
    std::string dtype;     // "logic" or a type alias name
    int width_expr = 1;    // for logic[N]
    Duration lifetime;     // value expires after this duration
    SyncMode left_sync;
    SyncMode right_sync;
    SrcLoc loc;
};

/** A channel type definition (template for channels). */
struct ChannelDef
{
    std::string name;
    std::vector<MessageDef> messages;
    SrcLoc loc;

    const MessageDef *findMessage(const std::string &m) const;
};

// ---------------------------------------------------------------------
// Terms
// ---------------------------------------------------------------------

struct Term;
using TermPtr = std::unique_ptr<Term>;

/** Every term form in the concrete language. */
enum class TermKind
{
    Literal,    // 25, 8'd255
    Ident,      // let-bound name
    RegRead,    // *r
    Let,        // let x = t
    Set,        // set r := t   /  r := t
    Send,       // send ep.m (t)
    Recv,       // recv ep.m
    Ready,      // ready(ep.m)
    Cycle,      // cycle N
    If,         // if c { t } else { t }
    Binop,      // t op t
    Unop,       // ~t, !t
    Wait,       // t >> t
    Join,       // t ; t
    Recurse,    // recurse (inside recursive threads)
    DPrint,     // dprint "..."
    Slice,      // t[hi:lo]
    Call,       // intrinsic call, e.g. sbox(t)
};

/**
 * A term node.  A single struct (rather than a class hierarchy) keeps
 * the elaborator and checker compact; which fields are meaningful
 * depends on `kind`.
 */
struct Term
{
    TermKind kind;
    SrcLoc loc;

    // Literal
    uint64_t value = 0;
    int width = 0;            // 0 = unsized literal

    // Ident / RegRead / Let / Set
    std::string name;

    // Send / Recv / Ready
    std::string endpoint;
    std::string msg;

    // Binop / Unop
    std::string op;

    // Cycle
    int cycles = 0;

    // Slice
    int hi = 0, lo = 0;

    // DPrint
    std::string text;

    // Children: Let/Set/Send(1: rhs), If(3: cond,then,else or 2),
    // Binop(2), Unop(1), Wait(2), Join(2), Slice(1).
    std::vector<TermPtr> kids;
    /** Levels in the tree rooted here, 1 for a leaf; the parser
     *  builds none deeper than kMaxTermDepth. */
    int depth = 1;

    static TermPtr make(TermKind k, SrcLoc loc);
};

// ---------------------------------------------------------------------
// Processes
// ---------------------------------------------------------------------

/** Which endpoint of a channel a parameter or instantiation binds. */
enum class EndpointSide { Left, Right };

/** A process parameter: an endpoint to be supplied at spawn time. */
struct EndpointParam
{
    std::string name;
    EndpointSide side = EndpointSide::Left;
    std::string chan_type;
    SrcLoc loc;
};

/** A register definition inside a process. */
struct RegDef
{
    std::string name;
    std::string dtype;
    int width = 1;
    SrcLoc loc;
};

/** A channel instantiation: `chan l -- r : chan_type;`. */
struct ChanInst
{
    std::string left_ep;
    std::string right_ep;
    std::string chan_type;
    SrcLoc loc;
};

/** A child process instantiation: `spawn p(ep, ...);`. */
struct SpawnStmt
{
    std::string proc_name;
    std::vector<std::string> args;
    SrcLoc loc;
};

/** A thread: `loop { t }` or `recursive { t }`. */
struct ThreadDef
{
    bool recursive = false;
    TermPtr body;
    SrcLoc loc;
};

/** A process definition. */
struct ProcDef
{
    std::string name;
    std::vector<EndpointParam> params;
    std::vector<RegDef> regs;
    std::vector<ChanInst> chans;
    std::vector<SpawnStmt> spawns;
    std::vector<ThreadDef> threads;
    SrcLoc loc;

    const RegDef *findReg(const std::string &r) const;
};

/** A whole compilation unit. */
struct Program
{
    std::map<std::string, ChannelDef> channels;
    std::map<std::string, ProcDef> procs;
    std::map<std::string, int> type_aliases;  // name -> width

    const ChannelDef *findChannel(const std::string &c) const;
    const ProcDef *findProc(const std::string &p) const;

    /** Resolve a data type name to a bit width (logic = 1). */
    int typeWidth(const std::string &dtype, int width_expr) const;
};

} // namespace anvil

#endif // ANVIL_LANG_AST_H
