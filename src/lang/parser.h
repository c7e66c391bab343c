/**
 * @file
 * Recursive-descent parser for the Anvil HDL.
 */

#ifndef ANVIL_LANG_PARSER_H
#define ANVIL_LANG_PARSER_H

#include <string>
#include <vector>

#include "lang/ast.h"
#include "lang/token.h"
#include "support/diag.h"

namespace anvil {

/**
 * Parses a token stream into a Program.
 *
 * Grammar sketch (see DESIGN.md for the full description):
 *
 *   program   := (chan_def | proc_def | type_def)*
 *   chan_def  := 'chan' ident '{' msg (',' msg)* '}'
 *   msg       := ('left'|'right') ident ':' '(' dtype '@' dur ')'
 *                ('@' sync '-' '@' sync)?
 *   proc_def  := 'proc' ident '(' params ')' '{' item* '}'
 *   item      := reg | chan_inst | spawn | ('loop'|'recursive') block
 *   term      := join ('>>' join)*            -- wait operator
 *   join      := stmt (';' stmt)*             -- parallel composition
 *   stmt      := 'let' x '=' stmt | 'set'? r ':=' expr | 'send' ...
 *              | 'recurse' | 'dprint' str | expr
 */
class Parser
{
  public:
    Parser(std::vector<Token> tokens, DiagEngine &diags);

    /** Parse a whole program; diagnostics report any errors. */
    Program parseProgram();

  private:
    const Token &peek(int off = 0) const;
    const Token &advance();
    bool check(Tok t) const;
    bool match(Tok t);
    const Token &expect(Tok t, const char *what);
    int expectNumber(const char *what, int lo, int hi);
    [[noreturn]] void fail(const std::string &msg);
    [[noreturn]] void fail(const std::string &msg, SrcLoc loc);
    void adopt(Term &parent, TermPtr kid);

    /** One level of the parser's descent into a nested term, for its
     *  scope; past kMaxTermDepth levels the parse fails at the current
     *  token. */
    struct Nest
    {
        explicit Nest(Parser &p);
        ~Nest() { _p._nest--; }
        Nest(const Nest &) = delete;
        Nest &operator=(const Nest &) = delete;
        Parser &_p;
    };

    void parseChannelDef(Program &prog);
    void parseProcDef(Program &prog);
    void parseTypeDef(Program &prog);
    MessageDef parseMessageDef();
    Duration parseDuration();
    SyncMode parseSyncMode();
    void parseDataType(std::string &dtype, int &width);

    TermPtr parseTerm();       // '>>' level
    TermPtr parseJoin();       // ';' level
    TermPtr parseStmt();       // let / set / send / dprint / expr
    TermPtr parseExpr();       // binary expression ladder
    TermPtr parseCompare();
    TermPtr parseBitOr();
    TermPtr parseBitXor();
    TermPtr parseBitAnd();
    TermPtr parseShift();
    TermPtr parseAddSub();
    TermPtr parseMul();
    TermPtr parseUnary();
    TermPtr parsePostfix();
    TermPtr parsePostfixOn(TermPtr base);
    TermPtr parsePrimary();
    TermPtr binop(const std::string &op, SrcLoc loc, TermPtr a, TermPtr b);

    std::vector<Token> _toks;
    DiagEngine &_diags;
    size_t _pos = 0;
    int _nest = 0;   // live Nest levels
};

/** Convenience: lex + parse a source string. */
Program parseAnvil(const std::string &source, DiagEngine &diags);

} // namespace anvil

#endif // ANVIL_LANG_PARSER_H
