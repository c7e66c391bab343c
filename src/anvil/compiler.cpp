#include "anvil/compiler.h"

#include <functional>
#include <set>

#include "codegen/rtl_gen.h"
#include "codegen/sv_printer.h"
#include "ir/elaborate.h"
#include "lang/parser.h"
#include "support/strings.h"

namespace anvil {

namespace {

/** Topologically order processes so spawned children come first. */
std::vector<const ProcDef *>
spawnOrder(const Program &prog, DiagEngine &diags)
{
    std::vector<const ProcDef *> order;
    std::set<std::string> done;
    std::set<std::string> visiting;

    std::function<void(const ProcDef &)> visit =
        [&](const ProcDef &p) {
            if (done.count(p.name))
                return;
            if (!visiting.insert(p.name).second) {
                diags.error(strfmt("recursive spawn cycle through '%s'",
                                   p.name.c_str()), p.loc);
                return;
            }
            for (const auto &s : p.spawns) {
                const ProcDef *child = prog.findProc(s.proc_name);
                if (child)
                    visit(*child);
                else
                    diags.error(strfmt("spawn of unknown process '%s'",
                                       s.proc_name.c_str()), s.loc);
            }
            visiting.erase(p.name);
            done.insert(p.name);
            order.push_back(&p);
        };

    for (const auto &[name, p] : prog.procs)
        visit(p);
    return order;
}

} // namespace

CompileOutput
compileAnvil(const std::string &source, const CompileOptions &opts)
{
    CompileOutput out;
    out.program = parseAnvil(source, out.diags);
    if (out.diags.hasErrors())
        return out;

    auto order = spawnOrder(out.program, out.diags);
    if (out.diags.hasErrors())
        return out;

    for (const ProcDef *proc : order) {
        // Type check on the two-iteration unrolling.
        ProcIR check_ir = elaborateProc(out.program, *proc, out.diags, 2);
        out.checks[proc->name] = checkProc(check_ir, out.diags);
    }

    if (opts.codegen) {
        // Generate code even for unsafe designs (the hazard benches
        // simulate rejected programs); `codegen = false` is the
        // check-only mode.
        DiagEngine gen_diags;
        for (const ProcDef *proc : order) {
            ProcIR gen_ir = elaborateProc(out.program, *proc, gen_diags,
                                          1);
            if (opts.optimize) {
                OptStats total;
                bool first = true;
                for (auto &t : gen_ir.threads) {
                    OptStats s = optimizeEventGraph(t->graph);
                    if (first) {
                        total = s;
                        first = false;
                    } else {
                        total.before += s.before;
                        total.after += s.after;
                        for (const auto &[k, v] : s.merged_by_pass)
                            total.merged_by_pass[k] += v;
                    }
                }
                out.opt_stats[proc->name] = total;
            }
            out.modules[proc->name] =
                generateRtl(gen_ir, out.modules, gen_diags);
        }
        for (const auto &d : gen_diags.all())
            if (d.severity == Severity::Error)
                out.diags.error(d.message, d.loc);
    }

    std::string top = opts.top;
    if (top.empty() && !order.empty())
        top = order.back()->name;
    else if (!top.empty() && !out.program.findProc(top))
        out.diags.error(strfmt("unknown top process '%s'", top.c_str()));
    out.top = top;
    if (out.modules.count(top))
        out.systemverilog =
            printSystemVerilogHierarchy(*out.modules[top]);

    out.ok = !out.diags.hasErrors();
    return out;
}

} // namespace anvil
