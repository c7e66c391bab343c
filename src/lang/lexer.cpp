#include "lang/lexer.h"

#include <cctype>
#include <charconv>
#include <map>

#include "support/strings.h"

namespace anvil {

const char *
tokName(Tok t)
{
    switch (t) {
      case Tok::LBrace: return "'{'";
      case Tok::RBrace: return "'}'";
      case Tok::LParen: return "'('";
      case Tok::RParen: return "')'";
      case Tok::LBracket: return "'['";
      case Tok::RBracket: return "']'";
      case Tok::Comma: return "','";
      case Tok::Semi: return "';'";
      case Tok::Colon: return "':'";
      case Tok::Dot: return "'.'";
      case Tok::At: return "'@'";
      case Tok::Hash: return "'#'";
      case Tok::Arrow: return "'>>'";
      case Tok::DashDash: return "'--'";
      case Tok::Assign: return "':='";
      case Tok::Eq: return "'='";
      case Tok::EqEq: return "'=='";
      case Tok::NotEq: return "'!='";
      case Tok::Lt: return "'<'";
      case Tok::Gt: return "'>'";
      case Tok::Le: return "'<='";
      case Tok::Ge: return "'>='";
      case Tok::Plus: return "'+'";
      case Tok::Minus: return "'-'";
      case Tok::Star: return "'*'";
      case Tok::Slash: return "'/'";
      case Tok::Caret: return "'^'";
      case Tok::Amp: return "'&'";
      case Tok::Pipe: return "'|'";
      case Tok::Tilde: return "'~'";
      case Tok::Bang: return "'!'";
      case Tok::Shl: return "'<<'";
      case Tok::Ident: return "identifier";
      case Tok::Number: return "number";
      case Tok::SizedNumber: return "sized number";
      case Tok::String: return "string";
      case Tok::KwChan: return "'chan'";
      case Tok::KwProc: return "'proc'";
      case Tok::KwLoop: return "'loop'";
      case Tok::KwRecursive: return "'recursive'";
      case Tok::KwLet: return "'let'";
      case Tok::KwSet: return "'set'";
      case Tok::KwSend: return "'send'";
      case Tok::KwRecv: return "'recv'";
      case Tok::KwCycle: return "'cycle'";
      case Tok::KwIf: return "'if'";
      case Tok::KwElse: return "'else'";
      case Tok::KwReg: return "'reg'";
      case Tok::KwSpawn: return "'spawn'";
      case Tok::KwLeft: return "'left'";
      case Tok::KwRight: return "'right'";
      case Tok::KwLogic: return "'logic'";
      case Tok::KwDyn: return "'dyn'";
      case Tok::KwReady: return "'ready'";
      case Tok::KwRecurse: return "'recurse'";
      case Tok::KwDprint: return "'dprint'";
      case Tok::KwType: return "'type'";
      case Tok::Eof: return "end of input";
    }
    return "?";
}

namespace {

const std::map<std::string, Tok> kKeywords = {
    {"chan", Tok::KwChan}, {"proc", Tok::KwProc}, {"loop", Tok::KwLoop},
    {"recursive", Tok::KwRecursive}, {"let", Tok::KwLet},
    {"set", Tok::KwSet}, {"send", Tok::KwSend}, {"recv", Tok::KwRecv},
    {"cycle", Tok::KwCycle}, {"if", Tok::KwIf}, {"else", Tok::KwElse},
    {"reg", Tok::KwReg}, {"spawn", Tok::KwSpawn}, {"left", Tok::KwLeft},
    {"right", Tok::KwRight}, {"logic", Tok::KwLogic}, {"dyn", Tok::KwDyn},
    {"ready", Tok::KwReady}, {"recurse", Tok::KwRecurse},
    {"dprint", Tok::KwDprint}, {"type", Tok::KwType},
};

} // namespace

Lexer::Lexer(const std::string &src, DiagEngine &diags)
    : _src(src), _diags(diags)
{
}

char
Lexer::peek(int off) const
{
    size_t p = _pos + off;
    return p < _src.size() ? _src[p] : '\0';
}

char
Lexer::advance()
{
    char c = _src[_pos++];
    if (c == '\n') {
        _line++;
        _col = 1;
    } else {
        _col++;
    }
    return c;
}

bool
Lexer::atEnd() const
{
    return _pos >= _src.size();
}

SrcLoc
Lexer::here() const
{
    return SrcLoc{_line, _col};
}

namespace {

/** Why a literal's digits did not decode, or nullptr on success. */
const char *
decodeDigits(const std::string &digits, int radix, uint64_t &value)
{
    const char *end = digits.data() + digits.size();
    auto [ptr, ec] = std::from_chars(digits.data(), end, value, radix);
    if (ec == std::errc::result_out_of_range)
        return "does not fit in 64 bits";
    if (ec != std::errc() || ptr != end)
        return "has a digit outside its base";
    return nullptr;
}

} // namespace

void
Lexer::lexNumber(std::vector<Token> &out)
{
    Token t;
    t.loc = here();
    std::string digits;
    while (isdigit(peek()) || peek() == '_') {
        char c = advance();
        if (c != '_')
            digits += c;
    }
    uint64_t dec = 0;
    const char *dec_err = decodeDigits(digits, 10, dec);
    if (peek() == '\'') {
        // SystemVerilog-style sized literal: <width>'<base><digits>.
        advance();
        char base = advance();
        std::string body;
        while (isalnum(peek()) || peek() == '_') {
            char c = advance();
            if (c != '_')
                body += c;
        }
        t.kind = Tok::SizedNumber;
        t.text = digits + "'" + base + body;
        if (dec_err || dec < 1 || dec > kMaxBitWidth) {
            _diags.error(strfmt("literal width %s is out of range [1, %d]",
                                digits.c_str(), kMaxBitWidth), t.loc);
            dec = 1;
        }
        t.width = static_cast<int>(dec);
        int radix;
        switch (base) {
          case 'b': radix = 2; break;
          case 'd': radix = 10; break;
          case 'h': radix = 16; break;
          case 'o': radix = 8; break;
          default:
            _diags.error(strfmt("unknown literal base '%c'", base), t.loc);
            radix = 10;
        }
        const char *err =
            body.empty() ? nullptr : decodeDigits(body, radix, t.value);
        if (err)
            _diags.error(strfmt("literal %s %s", t.text.c_str(), err),
                         t.loc);
    } else {
        t.kind = Tok::Number;
        t.value = dec;
        t.width = 0;
        t.text = digits;
        if (dec_err)
            _diags.error(strfmt("number %s %s", digits.c_str(), dec_err),
                         t.loc);
    }
    out.push_back(t);
}

void
Lexer::lexIdent(std::vector<Token> &out)
{
    Token t;
    t.loc = here();
    std::string name;
    while (isalnum(peek()) || peek() == '_')
        name += advance();
    t.text = name;
    auto it = kKeywords.find(name);
    t.kind = it != kKeywords.end() ? it->second : Tok::Ident;
    out.push_back(t);
}

void
Lexer::lexString(std::vector<Token> &out)
{
    Token t;
    t.loc = here();
    t.kind = Tok::String;
    advance(); // opening quote
    while (!atEnd() && peek() != '"')
        t.text += advance();
    if (atEnd())
        _diags.error("unterminated string literal", t.loc);
    else
        advance(); // closing quote
    out.push_back(t);
}

std::vector<Token>
Lexer::lex()
{
    std::vector<Token> out;
    while (!atEnd()) {
        char c = peek();
        if (isspace(c)) {
            advance();
            continue;
        }
        if (c == '/' && peek(1) == '/') {
            while (!atEnd() && peek() != '\n')
                advance();
            continue;
        }
        if (c == '/' && peek(1) == '*') {
            SrcLoc start = here();
            advance();
            advance();
            while (!atEnd() && !(peek() == '*' && peek(1) == '/'))
                advance();
            if (atEnd()) {
                _diags.error("unterminated block comment", start);
            } else {
                advance();
                advance();
            }
            continue;
        }
        if (isdigit(c)) {
            lexNumber(out);
            continue;
        }
        if (isalpha(c) || c == '_') {
            lexIdent(out);
            continue;
        }
        if (c == '"') {
            lexString(out);
            continue;
        }

        Token t;
        t.loc = here();
        auto two = [&](Tok kind, const char *text) {
            advance();
            advance();
            t.kind = kind;
            t.text = text;
        };
        auto one = [&](Tok kind) {
            t.kind = kind;
            t.text = std::string(1, advance());
        };
        switch (c) {
          case '{': one(Tok::LBrace); break;
          case '}': one(Tok::RBrace); break;
          case '(': one(Tok::LParen); break;
          case ')': one(Tok::RParen); break;
          case '[': one(Tok::LBracket); break;
          case ']': one(Tok::RBracket); break;
          case ',': one(Tok::Comma); break;
          case ';': one(Tok::Semi); break;
          case '.': one(Tok::Dot); break;
          case '@': one(Tok::At); break;
          case '#': one(Tok::Hash); break;
          case '+': one(Tok::Plus); break;
          case '^': one(Tok::Caret); break;
          case '&': one(Tok::Amp); break;
          case '|': one(Tok::Pipe); break;
          case '~': one(Tok::Tilde); break;
          case '/': one(Tok::Slash); break;
          case '*': one(Tok::Star); break;
          case ':':
            if (peek(1) == '=')
                two(Tok::Assign, ":=");
            else
                one(Tok::Colon);
            break;
          case '=':
            if (peek(1) == '=')
                two(Tok::EqEq, "==");
            else
                one(Tok::Eq);
            break;
          case '!':
            if (peek(1) == '=')
                two(Tok::NotEq, "!=");
            else
                one(Tok::Bang);
            break;
          case '<':
            if (peek(1) == '=')
                two(Tok::Le, "<=");
            else if (peek(1) == '<')
                two(Tok::Shl, "<<");
            else
                one(Tok::Lt);
            break;
          case '>':
            if (peek(1) == '>')
                two(Tok::Arrow, ">>");
            else if (peek(1) == '=')
                two(Tok::Ge, ">=");
            else
                one(Tok::Gt);
            break;
          case '-':
            if (peek(1) == '-')
                two(Tok::DashDash, "--");
            else
                one(Tok::Minus);
            break;
          default:
            _diags.error(strfmt("unexpected character '%c'", c), t.loc);
            advance();
            continue;
        }
        out.push_back(t);
    }
    Token eof;
    eof.kind = Tok::Eof;
    eof.loc = here();
    out.push_back(eof);
    return out;
}

} // namespace anvil
