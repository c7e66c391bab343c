#include "support/diag.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace anvil {

std::string
SrcLoc::str() const
{
    std::ostringstream os;
    os << line << ":" << col;
    return os.str();
}

std::string
Diagnostic::str() const
{
    std::string sev;
    switch (severity) {
      case Severity::Note: sev = "note"; break;
      case Severity::Warning: sev = "warning"; break;
      case Severity::Error: sev = "error"; break;
    }
    std::ostringstream os;
    os << sev << ": " << message;
    if (loc.valid())
        os << " (" << loc.str() << ")";
    return os.str();
}

void
DiagEngine::setSource(const std::string &source, const std::string &name)
{
    _sourceName = name;
    _lines.clear();
    std::string cur;
    for (char c : source) {
        if (c == '\n') {
            _lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    _lines.push_back(cur);
}

void
DiagEngine::error(const std::string &msg, SrcLoc loc)
{
    _diags.push_back({Severity::Error, msg, loc});
}

void
DiagEngine::warning(const std::string &msg, SrcLoc loc)
{
    _diags.push_back({Severity::Warning, msg, loc});
}

void
DiagEngine::note(const std::string &msg, SrcLoc loc)
{
    _diags.push_back({Severity::Note, msg, loc});
}

bool
DiagEngine::hasErrors() const
{
    return errorCount() > 0;
}

int
DiagEngine::errorCount() const
{
    int n = 0;
    for (const auto &d : _diags)
        if (d.severity == Severity::Error)
            n++;
    return n;
}

std::string
DiagEngine::renderOne(const Diagnostic &d) const
{
    std::ostringstream os;
    os << d.message << "\n";
    if (d.loc.valid()) {
        os << _sourceName << ":" << d.loc.line << ":" << d.loc.col << ":\n";
        int idx = d.loc.line - 1;
        if (idx >= 0 && idx < static_cast<int>(_lines.size())) {
            // A line longer than kEchoColumns is echoed as the window
            // of that many columns around the column, "..." marking
            // each cut, and its carets stop at the window's end.
            const std::string &line = _lines[idx];
            size_t col = static_cast<size_t>(std::max(d.loc.col - 1, 0));
            size_t from = 0, to = line.size();
            if (line.size() > kEchoColumns) {
                size_t half = kEchoColumns / 2;
                from = std::min(col > half ? col - half : 0,
                                line.size() - kEchoColumns);
                to = from + kEchoColumns;
            }
            const char *head = from ? "..." : "";
            os << d.loc.line << "| " << head << line.substr(from, to - from)
               << (to < line.size() ? "..." : "") << "\n";
            std::string pad(std::to_string(d.loc.line).size(), ' ');
            os << pad << "| " << std::string(strlen(head) + col - from, ' ')
               << std::string(to > col ? to - col : 1, '^') << "\n";
        }
    }
    return os.str();
}

std::string
DiagEngine::render() const
{
    std::ostringstream os;
    for (const auto &d : _diags)
        os << renderOne(d);
    return os.str();
}

} // namespace anvil
