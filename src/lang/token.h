/**
 * @file
 * Token definitions for the Anvil lexer.
 */

#ifndef ANVIL_LANG_TOKEN_H
#define ANVIL_LANG_TOKEN_H

#include <cstdint>
#include <string>

#include "support/diag.h"

namespace anvil {

/**
 * Widest bit vector a source may declare: the 2^16 bits the Verilog
 * standard requires every tool to accept.
 */
constexpr int kMaxBitWidth = 1 << 16;

/**
 * Largest `cycle N` count.  Code generation lowers each cycle of a
 * delay to one register stage, so the count bounds that chain; the
 * cap equals the largest slice bound, kMaxBitWidth - 1.
 */
constexpr int kMaxCycleCount = kMaxBitWidth - 1;

/**
 * Deepest term nesting a source may use: the parser builds no term
 * tree deeper than this, and descends no deeper into statements and
 * operands (a bracketed term is one of each).  Every later pass walks
 * terms recursively (destroying one does too), so the cap keeps them
 * all on the stack, sanitizer builds included: under ASan the
 * elaborator's walk overflows an 8 MiB stack near 750 levels.  256 is
 * C++'s recommended minimum for nested parenthesized expressions; the
 * deepest term in the repo's sources is 39 levels.
 */
constexpr int kMaxTermDepth = 256;

/** All token kinds produced by the lexer. */
enum class Tok
{
    // Punctuation and operators.
    LBrace, RBrace, LParen, RParen, LBracket, RBracket,
    Comma, Semi, Colon, Dot, At, Hash,
    Arrow,          // >>
    DashDash,       // --
    Assign,         // :=
    Eq,             // =
    EqEq, NotEq, Lt, Gt, Le, Ge,
    Plus, Minus, Star, Slash, Caret, Amp, Pipe, Tilde, Bang,
    Shl,            // <<
    // Literals and identifiers.
    Ident, Number, SizedNumber, String,
    // Keywords.
    KwChan, KwProc, KwLoop, KwRecursive, KwLet, KwSet, KwSend, KwRecv,
    KwCycle, KwIf, KwElse, KwReg, KwSpawn, KwLeft, KwRight, KwLogic,
    KwDyn, KwReady, KwRecurse, KwDprint, KwType,
    Eof,
};

/** A single lexed token with its source text and location. */
struct Token
{
    Tok kind = Tok::Eof;
    std::string text;
    SrcLoc loc;

    /** For Number / SizedNumber: decoded value and declared width. */
    uint64_t value = 0;
    int width = 0;      // 0 means unsized
};

/** Human-readable token-kind name (for parse error messages). */
const char *tokName(Tok t);

} // namespace anvil

#endif // ANVIL_LANG_TOKEN_H
