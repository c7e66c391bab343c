#include "obs/hot.h"

#include <algorithm>

#include "obs/metrics.h"
#include "rtl/netlist.h"
#include "support/strings.h"

namespace anvil {
namespace obs {

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

} // namespace

HotReport
buildHotReport(rtl::Sim &sim, size_t top_n)
{
    const rtl::Netlist &nl = sim.netlist();
    const std::vector<uint64_t> &counts = sim.evalCounts();
    auto countOf = [&](rtl::NetId id) -> uint64_t {
        size_t i = static_cast<size_t>(id);
        return i < counts.size() ? counts[i] : 0;
    };

    HotReport rep;
    rep.cycles = sim.cycle();

    // --- Per-level rows ---------------------------------------------
    // A kernel owns the strict sweep, so its per-level counts are the
    // authoritative level attribution there; the interpreter's rows
    // are summed from the per-net counters.
    const auto &order = nl.order();
    const auto &lb = nl.levelBegin();
    size_t levels = lb.empty() ? 0 : lb.size() - 1;
    std::vector<uint64_t> kernel_levels = sim.kernelLevelEvals();
    rep.from_kernel = !kernel_levels.empty();
    for (size_t l = 0; l < levels; l++) {
        HotReport::LevelRow row;
        row.level = static_cast<uint32_t>(l);
        row.nodes = static_cast<uint64_t>(lb[l + 1] - lb[l]);
        if (rep.from_kernel) {
            row.evals = l < kernel_levels.size() ? kernel_levels[l]
                                                 : 0;
        } else {
            for (int32_t i = lb[l]; i < lb[l + 1]; i++)
                row.evals += countOf(order[static_cast<size_t>(i)]);
        }
        rep.total_evals += row.evals;
        rep.levels.push_back(row);
    }

    // --- Ranked nets -------------------------------------------------
    std::vector<HotReport::NetRow> nets;
    for (rtl::NetId id : order) {
        uint64_t c = countOf(id);
        if (!c)
            continue;
        HotReport::NetRow row;
        row.net = id;
        const std::string &nm = nl.nameOf(id);
        row.name = nm.empty()
            ? strfmt("n%d", static_cast<int>(id)) : nm;
        row.width = nl.net(id).width;
        row.evals = c;
        nets.push_back(std::move(row));
    }
    std::sort(nets.begin(), nets.end(),
              [](const HotReport::NetRow &a,
                 const HotReport::NetRow &b) {
                  if (a.evals != b.evals)
                      return a.evals > b.evals;
                  return a.net < b.net;
              });
    if (nets.size() > top_n)
        nets.resize(top_n);
    rep.nets = std::move(nets);

    // --- Ranked register cones --------------------------------------
    // Walk each register's update fan-in (value + enable, transitive,
    // stopping at sources) and charge the cone with its nets' counts.
    // Shared logic is deliberately charged to every cone reading it:
    // the question is "what does keeping this register up to date
    // cost", not a partition of the total.
    if (!counts.empty()) {
        std::vector<std::vector<int32_t>> upd_of_reg(nl.regs().size());
        const auto &updates = nl.updates();
        for (size_t u = 0; u < updates.size(); u++)
            if (updates[u].reg_index >= 0)
                upd_of_reg[static_cast<size_t>(updates[u].reg_index)]
                    .push_back(static_cast<int32_t>(u));

        std::vector<uint8_t> seen(nl.nets().size(), 0);
        std::vector<rtl::NetId> stack, cone;
        std::vector<HotReport::ConeRow> cones;
        for (size_t r = 0; r < nl.regs().size(); r++) {
            if (upd_of_reg[r].empty())
                continue;
            cone.clear();
            auto push = [&](rtl::NetId id) {
                size_t i = static_cast<size_t>(id);
                if (i >= seen.size() || seen[i])
                    return;
                seen[i] = 1;
                cone.push_back(id);
                stack.push_back(id);
            };
            for (int32_t u : upd_of_reg[r]) {
                if (updates[static_cast<size_t>(u)].value !=
                    rtl::kNoNet)
                    push(updates[static_cast<size_t>(u)].value);
                if (updates[static_cast<size_t>(u)].enable !=
                    rtl::kNoNet)
                    push(updates[static_cast<size_t>(u)].enable);
            }
            while (!stack.empty()) {
                rtl::NetId id = stack.back();
                stack.pop_back();
                const rtl::Net &n = nl.net(id);
                if (n.kind == rtl::Net::Kind::Input ||
                    n.kind == rtl::Net::Kind::Reg ||
                    n.kind == rtl::Net::Kind::Const)
                    continue;
                rtl::Netlist::forEachOperand(n, push);
            }
            HotReport::ConeRow row;
            row.reg = nl.nameOf(nl.regs()[r]);
            uint64_t strict_nodes = 0;
            for (rtl::NetId id : cone) {
                seen[static_cast<size_t>(id)] = 0;   // reset for next
                const rtl::Net &n = nl.net(id);
                if (n.kind == rtl::Net::Kind::Input ||
                    n.kind == rtl::Net::Kind::Reg ||
                    n.kind == rtl::Net::Kind::Const)
                    continue;
                strict_nodes++;
                row.evals += countOf(id);
            }
            row.nodes = strict_nodes;
            if (row.evals)
                cones.push_back(std::move(row));
        }
        std::sort(cones.begin(), cones.end(),
                  [](const HotReport::ConeRow &a,
                     const HotReport::ConeRow &b) {
                      if (a.evals != b.evals)
                          return a.evals > b.evals;
                      return a.reg < b.reg;
                  });
        if (cones.size() > top_n)
            cones.resize(top_n);
        rep.cones = std::move(cones);
    }

    return rep;
}

std::string
HotReport::table() const
{
    std::string out = strfmt(
        "hot: %llu eval(s) over %llu cycle(s)%s\n",
        static_cast<unsigned long long>(total_evals),
        static_cast<unsigned long long>(cycles),
        from_kernel ? " [kernel levels]" : "");
    out += "  level      nodes           evals\n";
    for (const LevelRow &l : levels)
        out += strfmt("  %5u %10llu %15llu\n", l.level,
                      static_cast<unsigned long long>(l.nodes),
                      static_cast<unsigned long long>(l.evals));
    if (!nets.empty()) {
        out += "  hot nets:\n";
        for (const NetRow &n : nets)
            out += strfmt("    %-32s w%-5d %15llu\n", n.name.c_str(),
                          n.width,
                          static_cast<unsigned long long>(n.evals));
    }
    if (!cones.empty()) {
        out += "  hot cones (register fan-in):\n";
        for (const ConeRow &c : cones)
            out += strfmt("    %-32s %5llu node(s) %15llu\n",
                          c.reg.c_str(),
                          static_cast<unsigned long long>(c.nodes),
                          static_cast<unsigned long long>(c.evals));
    }
    return out;
}

std::string
HotReport::json() const
{
    std::string out = strfmt(
        "{\"schema\":\"anvil-hot-v1\",\"cycles\":%llu,"
        "\"total_evals\":%llu,\"from_kernel\":%s,\"levels\":[",
        static_cast<unsigned long long>(cycles),
        static_cast<unsigned long long>(total_evals),
        from_kernel ? "true" : "false");
    for (size_t i = 0; i < levels.size(); i++)
        out += strfmt("%s{\"level\":%u,\"nodes\":%llu,"
                      "\"evals\":%llu}",
                      i ? "," : "", levels[i].level,
                      static_cast<unsigned long long>(levels[i].nodes),
                      static_cast<unsigned long long>(
                          levels[i].evals));
    out += "],\"nets\":[";
    for (size_t i = 0; i < nets.size(); i++)
        out += strfmt("%s{\"name\":\"%s\",\"width\":%d,"
                      "\"evals\":%llu}",
                      i ? "," : "",
                      jsonEscape(nets[i].name).c_str(), nets[i].width,
                      static_cast<unsigned long long>(nets[i].evals));
    out += "],\"cones\":[";
    for (size_t i = 0; i < cones.size(); i++)
        out += strfmt("%s{\"reg\":\"%s\",\"nodes\":%llu,"
                      "\"evals\":%llu}",
                      i ? "," : "",
                      jsonEscape(cones[i].reg).c_str(),
                      static_cast<unsigned long long>(cones[i].nodes),
                      static_cast<unsigned long long>(
                          cones[i].evals));
    out += "]}";
    return out;
}

void
HotReport::exportMetrics(MetricsRegistry &reg) const
{
    reg.counter("hot.evals") += total_evals;
    MetricsRegistry::Histogram &h = reg.histogram("hot.level_evals");
    for (const LevelRow &l : levels)
        h.bump(l.level, l.evals);
}

} // namespace obs
} // namespace anvil
