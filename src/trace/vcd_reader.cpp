#include "trace/vcd_reader.h"

#include <cctype>
#include <charconv>
#include <fstream>
#include <map>
#include <stdexcept>

#include "support/strings.h"

namespace anvil {
namespace trace {

namespace {

/** Whitespace-separated tokens with line tracking for diagnostics. */
class Tokenizer
{
  public:
    explicit Tokenizer(std::istream &is) : _is(is) {}

    bool next(std::string &tok)
    {
        tok.clear();
        int c;
        while ((c = _is.get()) != EOF) {
            if (c == '\n')
                _line++;
            if (!std::isspace(c))
                break;
        }
        if (c == EOF)
            return false;
        do {
            tok += static_cast<char>(c);
            c = _is.get();
        } while (c != EOF && !std::isspace(c));
        if (c == '\n')
            _line++;
        return true;
    }

    int line() const { return _line; }

  private:
    std::istream &_is;
    int _line = 1;
};

[[noreturn]] void
fail(const Tokenizer &tz, const std::string &msg)
{
    throw std::runtime_error(
        strfmt("vcd: line %d: %s", tz.line(), msg.c_str()));
}

/** Skip tokens through the closing $end of the current section. */
void
skipSection(Tokenizer &tz)
{
    std::string tok;
    while (tz.next(tok))
        if (tok == "$end")
            return;
    fail(tz, "unterminated section (missing $end)");
}

/** Collect a section's body tokens, concatenated (e.g. "1 ns"). */
std::string
sectionText(Tokenizer &tz)
{
    std::string tok, text;
    while (tz.next(tok)) {
        if (tok == "$end")
            return text;
        text += tok;
    }
    fail(tz, "unterminated section (missing $end)");
}

/** Two-state read of a VCD value character (x and z read as 0). */
bool
scalarBit(Tokenizer &tz, char c)
{
    switch (c) {
      case '0': case 'x': case 'X': case 'z': case 'Z':
        return false;
      case '1':
        return true;
      default:
        fail(tz, strfmt("bad scalar value '%c'", c));
    }
}

/** Parse a binary vector body into a value of the signal's width. */
BitVec
vectorValue(Tokenizer &tz, const std::string &bits, int width)
{
    if (bits.empty())
        fail(tz, "empty vector value");
    if (static_cast<int>(bits.size()) > width)
        fail(tz, strfmt("vector value wider than its var (%zu > %d)",
                        bits.size(), width));
    BitVec v(width);
    for (size_t i = 0; i < bits.size(); i++) {
        char c = bits[bits.size() - 1 - i];
        v.setBit(static_cast<int>(i), scalarBit(tz, c));
    }
    return v;
}

bool
isTimestamp(const std::string &tok)
{
    if (tok.size() < 2 || tok[0] != '#')
        return false;
    for (size_t i = 1; i < tok.size(); i++)
        if (!std::isdigit(static_cast<unsigned char>(tok[i])))
            return false;
    return true;
}

} // namespace

Trace
VcdReader::read(std::istream &is)
{
    Tokenizer tz(is);
    Trace trace;
    std::vector<std::string> scopes;
    // One id-code may be declared for several vars (aliases).
    std::map<std::string, std::vector<size_t>> by_id;
    std::string tok;

    // --- Header: declarations up to $enddefinitions ----------------------
    bool defs_done = false;
    while (!defs_done) {
        if (!tz.next(tok))
            fail(tz, "missing $enddefinitions");
        if (tok == "$date" || tok == "$version" ||
            tok == "$comment") {
            skipSection(tz);
        } else if (tok == "$timescale") {
            trace.timescale = sectionText(tz);
        } else if (tok == "$scope") {
            std::string kind, name;
            if (!tz.next(kind) || !tz.next(name))
                fail(tz, "truncated $scope");
            scopes.push_back(name);
            if (trace.top.empty())
                trace.top = name;
            skipSection(tz);
        } else if (tok == "$upscope") {
            if (scopes.empty())
                fail(tz, "$upscope without matching $scope");
            scopes.pop_back();
            skipSection(tz);
        } else if (tok == "$var") {
            std::string kind, width_tok, id, name;
            if (!tz.next(kind) || !tz.next(width_tok) ||
                !tz.next(id) || !tz.next(name))
                fail(tz, "truncated $var");
            int width = 0;
            try {
                width = std::stoi(width_tok);
            } catch (const std::exception &) {
                width = 0;
            }
            if (width < 1)
                fail(tz, "bad $var width '" + width_tok + "'");
            skipSection(tz);   // optional [msb:lsb] plus $end

            TraceSignal s;
            // The root scope is the top module; names below it.
            std::string full;
            for (size_t i = 1; i < scopes.size(); i++)
                full += scopes[i] + ".";
            s.name = full + name;
            s.id = id;
            s.width = width;
            s.is_reg = kind == "reg";
            by_id[id].push_back(trace.signals().size());
            trace.signals().push_back(std::move(s));
        } else if (tok == "$enddefinitions") {
            skipSection(tz);
            defs_done = true;
        } else {
            fail(tz, "unexpected token '" + tok + "' in header");
        }
    }

    // --- Dump: timestamps and value changes ------------------------------
    auto record = [&](const std::string &id, auto make_value,
                      uint64_t now) {
        auto it = by_id.find(id);
        if (it == by_id.end())
            fail(tz, "change for undeclared id-code '" + id + "'");
        for (size_t idx : it->second) {
            TraceSignal &s = trace.signals()[idx];
            if (!s.changes.empty() && s.changes.back().first > now)
                fail(tz, "timestamps go backwards");
            s.changes.emplace_back(now, make_value(s.width));
        }
    };

    uint64_t now = 0;
    while (tz.next(tok)) {
        if (isTimestamp(tok)) {
            uint64_t t = 0;
            const char *end = tok.data() + tok.size();
            if (std::from_chars(tok.data() + 1, end, t).ec != std::errc())
                fail(tz, "timestamp '" + tok + "' does not fit in 64 bits");
            if (t < now)
                fail(tz, "timestamps go backwards");
            now = t;
        } else if (tok == "$dumpvars" || tok == "$dumpall" ||
                   tok == "$dumpon" || tok == "$dumpoff" ||
                   tok == "$end") {
            // Block structure carries no extra information here.
        } else if (tok == "$comment") {
            skipSection(tz);
        } else if (tok[0] == 'b' || tok[0] == 'B') {
            std::string bits = tok.substr(1), id;
            if (!tz.next(id))
                fail(tz, "vector change missing id-code");
            record(id,
                   [&](int w) { return vectorValue(tz, bits, w); },
                   now);
        } else if (tok[0] == 'r' || tok[0] == 'R') {
            // Real-valued change: consume the id; two-state traces
            // carry no real vars worth replaying.
            std::string id;
            if (!tz.next(id))
                fail(tz, "real change missing id-code");
        } else if (tok.size() >= 2 &&
                   (tok[0] == '0' || tok[0] == '1' || tok[0] == 'x' ||
                    tok[0] == 'X' || tok[0] == 'z' || tok[0] == 'Z')) {
            bool bit = scalarBit(tz, tok[0]);
            record(tok.substr(1),
                   [&](int w) {
                       BitVec v(w);
                       v.setBit(0, bit);
                       return v;
                   },
                   now);
        } else {
            fail(tz, "unexpected token '" + tok + "' in dump");
        }
    }
    return trace;
}

Trace
VcdReader::readFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot open '" + path + "'");
    return read(is);
}

} // namespace trace
} // namespace anvil
