/**
 * @file
 * The Anvil lexer: converts source text into a token stream.
 */

#ifndef ANVIL_LANG_LEXER_H
#define ANVIL_LANG_LEXER_H

#include <string>
#include <vector>

#include "lang/token.h"
#include "support/diag.h"

namespace anvil {

/**
 * Lexes a complete Anvil source buffer.
 *
 * Supports line comments (`//`), block comments, SystemVerilog-style
 * sized literals (`8'd255`, `32'h100000`, `1'b1`), and all keywords
 * used in the paper's code listings.  A number whose value needs more
 * than 64 bits, a digit outside its literal's base, or a sized
 * literal's width outside [1, kMaxBitWidth] is a diagnostic at the
 * literal.
 */
class Lexer
{
  public:
    Lexer(const std::string &src, DiagEngine &diags);

    /** Lex the whole buffer; always ends with an Eof token. */
    std::vector<Token> lex();

  private:
    char peek(int off = 0) const;
    char advance();
    bool atEnd() const;
    SrcLoc here() const;

    void lexNumber(std::vector<Token> &out);
    void lexIdent(std::vector<Token> &out);
    void lexString(std::vector<Token> &out);

    const std::string &_src;
    DiagEngine &_diags;
    size_t _pos = 0;
    int _line = 1;
    int _col = 1;
};

} // namespace anvil

#endif // ANVIL_LANG_LEXER_H
