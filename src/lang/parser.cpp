#include "lang/parser.h"

#include <algorithm>
#include <climits>
#include <stdexcept>

#include "lang/lexer.h"
#include "support/strings.h"

namespace anvil {

namespace {

/** Internal exception used to abort parsing on a syntax error. */
struct ParseError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

} // namespace

Parser::Parser(std::vector<Token> tokens, DiagEngine &diags)
    : _toks(std::move(tokens)), _diags(diags)
{
}

const Token &
Parser::peek(int off) const
{
    size_t p = _pos + off;
    if (p >= _toks.size())
        p = _toks.size() - 1;
    return _toks[p];
}

const Token &
Parser::advance()
{
    const Token &t = _toks[_pos];
    if (_pos + 1 < _toks.size())
        _pos++;
    return t;
}

bool
Parser::check(Tok t) const
{
    return peek().kind == t;
}

bool
Parser::match(Tok t)
{
    if (check(t)) {
        advance();
        return true;
    }
    return false;
}

const Token &
Parser::expect(Tok t, const char *what)
{
    if (!check(t)) {
        fail(strfmt("expected %s (%s), found %s", tokName(t), what,
                    tokName(peek().kind)));
    }
    return advance();
}

/** A Number token's value, reported at the literal unless in [lo, hi]. */
int
Parser::expectNumber(const char *what, int lo, int hi)
{
    const Token &t = expect(Tok::Number, what);
    if (t.value < static_cast<uint64_t>(lo) ||
        t.value > static_cast<uint64_t>(hi)) {
        _diags.error(strfmt("%s %s is out of range [%d, %d]", what,
                            t.text.c_str(), lo, hi), t.loc);
        return lo;
    }
    return static_cast<int>(t.value);
}

void
Parser::fail(const std::string &msg)
{
    fail(msg, peek().loc);
}

void
Parser::fail(const std::string &msg, SrcLoc loc)
{
    _diags.error("syntax error: " + msg, loc);
    throw ParseError(msg);
}

namespace {

std::string
tooDeep()
{
    return strfmt("term nested deeper than %d levels", kMaxTermDepth);
}

} // namespace

/** Attach `kid` as the last child of `parent`; a tree deeper than
 *  kMaxTermDepth fails at the parent's token instead. */
void
Parser::adopt(Term &parent, TermPtr kid)
{
    parent.depth = std::max(parent.depth, kid->depth + 1);
    if (parent.depth > kMaxTermDepth)
        fail(tooDeep(), parent.loc);
    parent.kids.push_back(std::move(kid));
}

Parser::Nest::Nest(Parser &p) : _p(p)
{
    if (_p._nest >= kMaxTermDepth)
        _p.fail(tooDeep());
    _p._nest++;
}

Program
Parser::parseProgram()
{
    Program prog;
    while (!check(Tok::Eof)) {
        try {
            if (check(Tok::KwChan)) {
                parseChannelDef(prog);
            } else if (check(Tok::KwProc)) {
                parseProcDef(prog);
            } else if (check(Tok::KwType)) {
                parseTypeDef(prog);
            } else {
                fail("expected 'chan', 'proc' or 'type' at top level");
            }
        } catch (const ParseError &) {
            // Error recovery: skip to the next top-level keyword.
            while (!check(Tok::Eof) && !check(Tok::KwChan) &&
                   !check(Tok::KwProc) && !check(Tok::KwType)) {
                advance();
            }
        }
    }
    return prog;
}

void
Parser::parseTypeDef(Program &prog)
{
    expect(Tok::KwType, "type definition");
    std::string name = expect(Tok::Ident, "type name").text;
    expect(Tok::Eq, "type definition");
    std::string dtype;
    int width = 1;
    parseDataType(dtype, width);
    match(Tok::Semi);
    prog.type_aliases[name] = prog.typeWidth(dtype, width);
}

void
Parser::parseDataType(std::string &dtype, int &width)
{
    if (match(Tok::KwLogic)) {
        dtype = "logic";
        width = 1;
        if (match(Tok::LBracket)) {
            width = expectNumber("bit width", 1, kMaxBitWidth);
            expect(Tok::RBracket, "bit width");
        }
    } else {
        dtype = expect(Tok::Ident, "data type").text;
        width = 1;
    }
}

Duration
Parser::parseDuration()
{
    if (match(Tok::Hash)) {
        int n = expectNumber("duration", 0, INT_MAX);
        return Duration::fixed(n);
    }
    std::string m = expect(Tok::Ident, "duration message").text;
    int plus = 0;
    if (match(Tok::Plus))
        plus = expectNumber("duration offset", 0, INT_MAX);
    return Duration::message(m, plus);
}

SyncMode
Parser::parseSyncMode()
{
    SyncMode s;
    if (match(Tok::KwDyn)) {
        s.kind = SyncMode::Kind::Dynamic;
        // Bounded-dynamic: `@dyn#N` keeps the valid/ack handshake but
        // additionally promises this side is ready (syncs) within N
        // cycles of the peer's offer.  The bound changes no generated
        // hardware; it is the `@#N`-style annotation the formal
        // subsystem compiles into `ack within N` contracts.
        if (match(Tok::Hash))
            s.cycles = expectNumber("sync readiness bound", 0, INT_MAX);
        return s;
    }
    expect(Tok::Hash, "sync mode");
    if (check(Tok::Number)) {
        s.kind = SyncMode::Kind::Static;
        s.cycles = expectNumber("sync cycles", 0, INT_MAX);
    } else {
        s.kind = SyncMode::Kind::Dependent;
        s.dep_msg = expect(Tok::Ident, "sync dependency").text;
        if (match(Tok::Plus))
            s.cycles = expectNumber("sync offset", 0, INT_MAX);
    }
    return s;
}

MessageDef
Parser::parseMessageDef()
{
    MessageDef m;
    m.loc = peek().loc;
    if (match(Tok::KwLeft))
        m.dir = MsgDir::Left;
    else if (match(Tok::KwRight))
        m.dir = MsgDir::Right;
    else
        fail("expected 'left' or 'right' message direction");
    m.name = expect(Tok::Ident, "message name").text;
    expect(Tok::Colon, "message contract");
    expect(Tok::LParen, "message contract");
    parseDataType(m.dtype, m.width_expr);
    expect(Tok::At, "message lifetime");
    m.lifetime = parseDuration();
    expect(Tok::RParen, "message contract");
    if (match(Tok::At)) {
        m.left_sync = parseSyncMode();
        expect(Tok::Minus, "sync mode pair");
        expect(Tok::At, "sync mode pair");
        m.right_sync = parseSyncMode();
    }
    return m;
}

void
Parser::parseChannelDef(Program &prog)
{
    expect(Tok::KwChan, "channel definition");
    ChannelDef c;
    c.loc = peek().loc;
    c.name = expect(Tok::Ident, "channel name").text;
    expect(Tok::LBrace, "channel body");
    if (!check(Tok::RBrace)) {
        c.messages.push_back(parseMessageDef());
        while (match(Tok::Comma)) {
            if (check(Tok::RBrace))
                break;  // trailing comma
            c.messages.push_back(parseMessageDef());
        }
    }
    expect(Tok::RBrace, "channel body");
    if (prog.channels.count(c.name))
        _diags.error("duplicate channel definition: " + c.name, c.loc);
    prog.channels[c.name] = std::move(c);
}

void
Parser::parseProcDef(Program &prog)
{
    expect(Tok::KwProc, "process definition");
    ProcDef p;
    p.loc = peek().loc;
    p.name = expect(Tok::Ident, "process name").text;
    expect(Tok::LParen, "process parameters");
    if (!check(Tok::RParen)) {
        do {
            EndpointParam ep;
            ep.loc = peek().loc;
            ep.name = expect(Tok::Ident, "endpoint name").text;
            expect(Tok::Colon, "endpoint parameter");
            if (match(Tok::KwLeft))
                ep.side = EndpointSide::Left;
            else if (match(Tok::KwRight))
                ep.side = EndpointSide::Right;
            else
                fail("expected 'left' or 'right' endpoint side");
            ep.chan_type = expect(Tok::Ident, "channel type").text;
            p.params.push_back(std::move(ep));
        } while (match(Tok::Comma));
    }
    expect(Tok::RParen, "process parameters");
    expect(Tok::LBrace, "process body");

    while (!check(Tok::RBrace) && !check(Tok::Eof)) {
        if (match(Tok::KwReg)) {
            RegDef r;
            r.loc = peek().loc;
            r.name = expect(Tok::Ident, "register name").text;
            expect(Tok::Colon, "register type");
            parseDataType(r.dtype, r.width);
            expect(Tok::Semi, "register definition");
            p.regs.push_back(std::move(r));
        } else if (match(Tok::KwChan)) {
            ChanInst ci;
            ci.loc = peek().loc;
            ci.left_ep = expect(Tok::Ident, "left endpoint").text;
            expect(Tok::DashDash, "channel instantiation");
            ci.right_ep = expect(Tok::Ident, "right endpoint").text;
            expect(Tok::Colon, "channel instantiation");
            ci.chan_type = expect(Tok::Ident, "channel type").text;
            expect(Tok::Semi, "channel instantiation");
            p.chans.push_back(std::move(ci));
        } else if (match(Tok::KwSpawn)) {
            SpawnStmt s;
            s.loc = peek().loc;
            s.proc_name = expect(Tok::Ident, "process name").text;
            expect(Tok::LParen, "spawn arguments");
            if (!check(Tok::RParen)) {
                do {
                    s.args.push_back(
                        expect(Tok::Ident, "endpoint argument").text);
                } while (match(Tok::Comma));
            }
            expect(Tok::RParen, "spawn arguments");
            expect(Tok::Semi, "spawn statement");
            p.spawns.push_back(std::move(s));
        } else if (check(Tok::KwLoop) || check(Tok::KwRecursive)) {
            ThreadDef t;
            t.loc = peek().loc;
            t.recursive = check(Tok::KwRecursive);
            advance();
            expect(Tok::LBrace, "thread body");
            t.body = parseTerm();
            expect(Tok::RBrace, "thread body");
            p.threads.push_back(std::move(t));
        } else {
            fail("expected 'reg', 'chan', 'spawn', 'loop' or "
                 "'recursive' in process body");
        }
    }
    expect(Tok::RBrace, "process body");
    if (prog.procs.count(p.name))
        _diags.error("duplicate process definition: " + p.name, p.loc);
    prog.procs[p.name] = std::move(p);
}

// ---------------------------------------------------------------------
// Terms
// ---------------------------------------------------------------------

TermPtr
Parser::parseTerm()
{
    TermPtr lhs = parseJoin();
    while (check(Tok::Arrow)) {
        SrcLoc loc = advance().loc;
        TermPtr rhs = parseJoin();
        auto w = Term::make(TermKind::Wait, loc);
        adopt(*w, std::move(lhs));
        adopt(*w, std::move(rhs));
        lhs = std::move(w);
    }
    return lhs;
}

TermPtr
Parser::parseJoin()
{
    TermPtr lhs = parseStmt();
    while (check(Tok::Semi)) {
        SrcLoc loc = advance().loc;
        // Allow a trailing ';' before a closing brace.
        if (check(Tok::RBrace) || check(Tok::Eof))
            break;
        TermPtr rhs = parseStmt();
        auto j = Term::make(TermKind::Join, loc);
        adopt(*j, std::move(lhs));
        adopt(*j, std::move(rhs));
        lhs = std::move(j);
    }
    return lhs;
}

TermPtr
Parser::parseStmt()
{
    // The grammar recurses only through here and parseUnary, so a
    // level in each bounds the parser's own descent.
    Nest nest(*this);
    SrcLoc loc = peek().loc;
    if (match(Tok::KwLet)) {
        auto t = Term::make(TermKind::Let, loc);
        t->name = expect(Tok::Ident, "binding name").text;
        expect(Tok::Eq, "let binding");
        adopt(*t, parseStmt());
        return t;
    }
    if (match(Tok::KwSet)) {
        auto t = Term::make(TermKind::Set, loc);
        t->name = expect(Tok::Ident, "register name").text;
        expect(Tok::Assign, "register assignment");
        adopt(*t, parseStmt());
        return t;
    }
    if (match(Tok::KwSend)) {
        auto t = Term::make(TermKind::Send, loc);
        t->endpoint = expect(Tok::Ident, "endpoint").text;
        expect(Tok::Dot, "message reference");
        t->msg = expect(Tok::Ident, "message name").text;
        expect(Tok::LParen, "send payload");
        adopt(*t, parseTerm());
        expect(Tok::RParen, "send payload");
        return t;
    }
    if (match(Tok::KwRecurse))
        return Term::make(TermKind::Recurse, loc);
    if (match(Tok::KwDprint)) {
        auto t = Term::make(TermKind::DPrint, loc);
        t->text = expect(Tok::String, "dprint text").text;
        return t;
    }
    // Bare register assignment without the 'set' keyword:  r := expr
    if (check(Tok::Ident) && peek(1).kind == Tok::Assign) {
        auto t = Term::make(TermKind::Set, loc);
        t->name = advance().text;
        advance();  // ':='
        adopt(*t, parseStmt());
        return t;
    }
    return parseExpr();
}

TermPtr
Parser::parseExpr()
{
    return parseCompare();
}

TermPtr
Parser::binop(const std::string &op, SrcLoc loc, TermPtr a, TermPtr b)
{
    auto t = Term::make(TermKind::Binop, loc);
    t->op = op;
    adopt(*t, std::move(a));
    adopt(*t, std::move(b));
    return t;
}

TermPtr
Parser::parseCompare()
{
    TermPtr lhs = parseBitOr();
    while (check(Tok::EqEq) || check(Tok::NotEq) || check(Tok::Lt) ||
           check(Tok::Gt) || check(Tok::Le) || check(Tok::Ge)) {
        Token t = advance();
        lhs = binop(t.text, t.loc, std::move(lhs), parseBitOr());
    }
    return lhs;
}

TermPtr
Parser::parseBitOr()
{
    TermPtr lhs = parseBitXor();
    while (check(Tok::Pipe)) {
        Token t = advance();
        lhs = binop("|", t.loc, std::move(lhs), parseBitXor());
    }
    return lhs;
}

TermPtr
Parser::parseBitXor()
{
    TermPtr lhs = parseBitAnd();
    while (check(Tok::Caret)) {
        Token t = advance();
        lhs = binop("^", t.loc, std::move(lhs), parseBitAnd());
    }
    return lhs;
}

TermPtr
Parser::parseBitAnd()
{
    TermPtr lhs = parseShift();
    while (check(Tok::Amp)) {
        Token t = advance();
        lhs = binop("&", t.loc, std::move(lhs), parseShift());
    }
    return lhs;
}

TermPtr
Parser::parseShift()
{
    TermPtr lhs = parseAddSub();
    while (check(Tok::Shl)) {
        Token t = advance();
        lhs = binop("<<", t.loc, std::move(lhs), parseAddSub());
    }
    return lhs;
}

TermPtr
Parser::parseAddSub()
{
    TermPtr lhs = parseMul();
    while (check(Tok::Plus) || check(Tok::Minus)) {
        Token t = advance();
        lhs = binop(t.text, t.loc, std::move(lhs), parseMul());
    }
    return lhs;
}

TermPtr
Parser::parseMul()
{
    TermPtr lhs = parseUnary();
    while (check(Tok::Star)) {
        Token t = advance();
        lhs = binop("*", t.loc, std::move(lhs), parseUnary());
    }
    return lhs;
}

TermPtr
Parser::parseUnary()
{
    Nest nest(*this);   // see parseStmt
    SrcLoc loc = peek().loc;
    if (match(Tok::Tilde)) {
        auto t = Term::make(TermKind::Unop, loc);
        t->op = "~";
        adopt(*t, parseUnary());
        return t;
    }
    if (match(Tok::Bang)) {
        auto t = Term::make(TermKind::Unop, loc);
        t->op = "!";
        adopt(*t, parseUnary());
        return t;
    }
    if (match(Tok::Star)) {
        auto t = Term::make(TermKind::RegRead, loc);
        t->name = expect(Tok::Ident, "register name").text;
        return parsePostfixOn(std::move(t));
    }
    return parsePostfix();
}

TermPtr
Parser::parsePostfix()
{
    return parsePostfixOn(parsePrimary());
}

/** Apply postfix slices to an already-parsed primary. */
TermPtr
Parser::parsePostfixOn(TermPtr base)
{
    while (check(Tok::LBracket)) {
        SrcLoc loc = advance().loc;
        int hi = expectNumber("slice bound", 0, kMaxBitWidth - 1);
        int lo = hi;
        if (match(Tok::Colon))
            lo = expectNumber("slice bound", 0, kMaxBitWidth - 1);
        expect(Tok::RBracket, "slice");
        auto s = Term::make(TermKind::Slice, loc);
        s->hi = hi;
        s->lo = lo;
        adopt(*s, std::move(base));
        base = std::move(s);
    }
    return base;
}

TermPtr
Parser::parsePrimary()
{
    SrcLoc loc = peek().loc;
    if (check(Tok::Number) || check(Tok::SizedNumber)) {
        Token t = advance();
        auto lit = Term::make(TermKind::Literal, loc);
        lit->value = t.value;
        lit->width = t.width;
        return lit;
    }
    if (match(Tok::KwRecv)) {
        auto t = Term::make(TermKind::Recv, loc);
        t->endpoint = expect(Tok::Ident, "endpoint").text;
        expect(Tok::Dot, "message reference");
        t->msg = expect(Tok::Ident, "message name").text;
        // Tolerate the `recv ep.m()` spelling used in some figures.
        if (match(Tok::LParen))
            expect(Tok::RParen, "recv");
        return t;
    }
    if (match(Tok::KwReady)) {
        auto t = Term::make(TermKind::Ready, loc);
        expect(Tok::LParen, "ready");
        t->endpoint = expect(Tok::Ident, "endpoint").text;
        expect(Tok::Dot, "message reference");
        t->msg = expect(Tok::Ident, "message name").text;
        expect(Tok::RParen, "ready");
        return t;
    }
    if (match(Tok::KwCycle)) {
        auto t = Term::make(TermKind::Cycle, loc);
        t->cycles = expectNumber("cycle count", 0, kMaxCycleCount);
        return t;
    }
    if (match(Tok::KwIf)) {
        auto t = Term::make(TermKind::If, loc);
        adopt(*t, parseExpr());
        expect(Tok::LBrace, "if body");
        adopt(*t, parseTerm());
        expect(Tok::RBrace, "if body");
        if (match(Tok::KwElse)) {
            expect(Tok::LBrace, "else body");
            adopt(*t, parseTerm());
            expect(Tok::RBrace, "else body");
        }
        return t;
    }
    if (match(Tok::LBrace)) {
        TermPtr inner = parseTerm();
        expect(Tok::RBrace, "block");
        return inner;
    }
    if (match(Tok::LParen)) {
        TermPtr inner = parseTerm();
        expect(Tok::RParen, "parenthesized term");
        return inner;
    }
    if (check(Tok::Ident)) {
        // Intrinsic call: ident '(' term (',' term)* ')'.
        if (peek(1).kind == Tok::LParen) {
            auto t = Term::make(TermKind::Call, loc);
            t->name = advance().text;
            advance();  // '('
            adopt(*t, parseTerm());
            while (match(Tok::Comma))
                adopt(*t, parseTerm());
            expect(Tok::RParen, "intrinsic call");
            return t;
        }
        auto t = Term::make(TermKind::Ident, loc);
        t->name = advance().text;
        return t;
    }
    fail(strfmt("expected a term, found %s", tokName(peek().kind)));
}

Program
parseAnvil(const std::string &source, DiagEngine &diags)
{
    diags.setSource(source, "input.anvil");
    Lexer lexer(source, diags);
    Parser parser(lexer.lex(), diags);
    return parser.parseProgram();
}

} // namespace anvil
