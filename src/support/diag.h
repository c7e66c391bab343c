/**
 * @file
 * Source locations and the compiler diagnostics engine.
 *
 * The Anvil compiler reports timing-safety violations with messages that
 * match the wording used in the paper (e.g. "Value not live long enough
 * in message send!") together with a caret-annotated source excerpt, as
 * shown in Appendix A.
 */

#ifndef ANVIL_SUPPORT_DIAG_H
#define ANVIL_SUPPORT_DIAG_H

#include <string>
#include <vector>

namespace anvil {

/** A position in an Anvil source buffer (1-based line and column). */
struct SrcLoc
{
    int line = 0;
    int col = 0;

    bool valid() const { return line > 0; }
    std::string str() const;
};

/** Severity of a diagnostic message. */
enum class Severity { Note, Warning, Error };

/** A single diagnostic: severity, message, and source location. */
struct Diagnostic
{
    Severity severity = Severity::Error;
    std::string message;
    SrcLoc loc;

    std::string str() const;
};

/**
 * Collects diagnostics produced across all compilation stages.
 *
 * The engine keeps the original source text so it can render excerpts
 * with caret markers in the style of the paper's Appendix A output.
 */
class DiagEngine
{
  public:
    DiagEngine() = default;

    /** Attach source text for excerpt rendering. */
    void setSource(const std::string &source, const std::string &name);

    void error(const std::string &msg, SrcLoc loc = {});
    void warning(const std::string &msg, SrcLoc loc = {});
    void note(const std::string &msg, SrcLoc loc = {});

    bool hasErrors() const;
    int errorCount() const;

    const std::vector<Diagnostic> &all() const { return _diags; }

    /** Render every diagnostic, with source excerpts when available. */
    std::string render() const;

    /** Columns of a source line a diagnostic's excerpt shows at most:
     *  a longer line is cut to that many around the column. */
    static constexpr size_t kEchoColumns = 160;

    /** Render one diagnostic with its source excerpt. */
    std::string renderOne(const Diagnostic &d) const;

    void clear() { _diags.clear(); }

  private:
    std::vector<Diagnostic> _diags;
    std::vector<std::string> _lines;
    std::string _sourceName = "<input>";
};

} // namespace anvil

#endif // ANVIL_SUPPORT_DIAG_H
