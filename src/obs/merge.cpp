#include "obs/merge.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/stream.h"
#include "support/json.h"
#include "support/strings.h"

namespace anvil {
namespace obs {

namespace {

/** Exact u64 from a number lexeme (doubles lose 53+ bit counts). */
uint64_t
u64Of(const json::Value &v)
{
    if (v.isNumber())
        return strtoull(v.num.c_str(), nullptr, 10);
    if (v.isString())   // hex mask words: "0x..."
        return strtoull(v.str.c_str(), nullptr, 16);
    throw std::runtime_error("expected a number");
}

std::vector<uint64_t>
u64ListOf(const json::Value &v)
{
    if (!v.isArray())
        throw std::runtime_error("expected an array");
    std::vector<uint64_t> out;
    out.reserve(v.arr.size());
    for (const json::Value &e : v.arr)
        out.push_back(u64Of(e));
    return out;
}

const json::Value &
fieldOf(const json::Value &ev, const char *key)
{
    const json::Value *f = ev.find(key);
    if (!f)
        throw std::runtime_error(strfmt("missing field \"%s\"", key));
    return *f;
}

std::string
strOf(const json::Value &ev, const char *key)
{
    const json::Value &f = fieldOf(ev, key);
    if (!f.isString())
        throw std::runtime_error(
            strfmt("field \"%s\" is not a string", key));
    return f.str;
}

/**
 * Counters that are not additive across runs: the activity envelope
 * ("act.": peaks, and hot-net totals from different seeds, which are
 * alternatives rather than parts), the sweep's high-water marks, and
 * its per-design strict-node count.
 */
bool
foldsWithMax(const std::string &k)
{
    return k.rfind("act.", 0) == 0 || k.rfind("sweep.peak_", 0) == 0 ||
           k == "sweep.strict_nodes";
}

} // namespace

/** One parsed event stream, kept in arrival order per slot kind. */
struct Merger::Stream
{
    std::string label;
    StreamInfo info;
    bool saw_begin = false, saw_end = false;

    bool has_cov = false;
    struct Sig
    {
        std::string name;
        int width = 1;
        bool is_reg = false;
        std::vector<uint64_t> rose, fell;
    };
    std::vector<Sig> signals;
    struct Bins
    {
        std::string name;
        int width = 1;
        std::vector<uint64_t> hits;
    };
    std::vector<Bins> bins;
    struct Point
    {
        std::string name;
        uint64_t count = 0;
    };
    std::vector<Point> points;
    struct Cross
    {
        std::string name, a, b;
        uint64_t bins[4] = {0, 0, 0, 0};
    };
    std::vector<Cross> crosses;
    struct Assert
    {
        std::string name;
        uint64_t checked = 0, failures = 0;
        std::vector<uint64_t> fail_cycles;
    };
    std::vector<Assert> asserts;
    uint64_t samples = 0;

    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, std::vector<uint64_t>> hists;
    std::map<std::string, uint64_t> timers;
    std::vector<uint64_t> levels;

    struct Viol
    {
        uint64_t cycle = 0;
        std::string channel, rule;
    };
    std::vector<Viol> viols;

    std::vector<Merger::WindowDump> window_dumps;
};

Merger::Merger() = default;
Merger::~Merger() = default;

void
Merger::addStreamText(const std::string &text,
                      const std::string &label)
{
    auto s = std::make_unique<Stream>();
    s->label = label;

    std::istringstream is(text);
    std::string line;
    size_t lineno = 0;
    while (std::getline(is, line)) {
        lineno++;
        if (line.empty())
            continue;
        json::ParseResult pr = json::parse(line);
        if (!pr.ok())
            throw std::runtime_error(strfmt(
                "%s:%zu: %s", label.c_str(), lineno,
                pr.error.c_str()));
        const json::Value &ev = pr.value;
        try {
            if (!ev.isObject())
                throw std::runtime_error("event is not an object");
            std::string kind = strOf(ev, "e");
            if (!s->saw_begin && kind != "run_begin")
                throw std::runtime_error(
                    "stream does not start with run_begin");

            if (kind == "run_begin") {
                std::string schema = strOf(ev, "schema");
                if (schema != kEventsSchema)
                    throw std::runtime_error(
                        "unknown event schema \"" + schema + "\"");
                s->saw_begin = true;
                s->info.design = strOf(ev, "design");
                s->info.worker = static_cast<int>(
                    u64Of(fieldOf(ev, "worker")));
                s->info.seed = u64Of(fieldOf(ev, "seed"));
                s->info.sweep = strOf(ev, "sweep");
                s->info.threads = static_cast<int>(
                    u64Of(fieldOf(ev, "threads")));
            } else if (kind == "violation") {
                s->viols.push_back({u64Of(fieldOf(ev, "t")),
                                    strOf(ev, "channel"),
                                    strOf(ev, "rule")});
            } else if (kind == "window") {
                // Live envelope samples; the merged report keeps
                // only the exported "act." peaks.
            } else if (kind == "window_dump") {
                s->window_dumps.push_back(
                    {strOf(ev, "trigger"), strOf(ev, "path"),
                     u64Of(fieldOf(ev, "t")),
                     u64Of(fieldOf(ev, "from")),
                     u64Of(fieldOf(ev, "to")), 0, 0});
            } else if (kind == "cov_signal") {
                s->has_cov = true;
                s->signals.push_back(
                    {strOf(ev, "name"),
                     static_cast<int>(u64Of(fieldOf(ev, "width"))),
                     fieldOf(ev, "reg").boolean,
                     u64ListOf(fieldOf(ev, "rose")),
                     u64ListOf(fieldOf(ev, "fell"))});
            } else if (kind == "cov_bins") {
                s->has_cov = true;
                s->bins.push_back(
                    {strOf(ev, "name"),
                     static_cast<int>(u64Of(fieldOf(ev, "width"))),
                     u64ListOf(fieldOf(ev, "hits"))});
            } else if (kind == "cov_point") {
                s->has_cov = true;
                s->points.push_back({strOf(ev, "name"),
                                     u64Of(fieldOf(ev, "count"))});
            } else if (kind == "cov_cross") {
                s->has_cov = true;
                std::vector<uint64_t> b =
                    u64ListOf(fieldOf(ev, "bins"));
                if (b.size() != 4)
                    throw std::runtime_error(
                        "cov_cross wants 4 bins");
                Stream::Cross cx{strOf(ev, "name"), strOf(ev, "a"),
                                 strOf(ev, "b"), {}};
                std::copy(b.begin(), b.end(), cx.bins);
                s->crosses.push_back(std::move(cx));
            } else if (kind == "cov_assert") {
                s->has_cov = true;
                s->asserts.push_back(
                    {strOf(ev, "name"),
                     u64Of(fieldOf(ev, "checked")),
                     u64Of(fieldOf(ev, "failures")),
                     u64ListOf(fieldOf(ev, "fail_cycles"))});
            } else if (kind == "cov_samples") {
                s->has_cov = true;
                s->samples += u64Of(fieldOf(ev, "count"));
            } else if (kind == "counter") {
                s->counters[strOf(ev, "k")] =
                    u64Of(fieldOf(ev, "v"));
            } else if (kind == "gauge") {
                s->gauges[strOf(ev, "k")] =
                    fieldOf(ev, "x").asDouble();
            } else if (kind == "hist") {
                s->hists[strOf(ev, "k")] =
                    u64ListOf(fieldOf(ev, "counts"));
            } else if (kind == "timer") {
                s->timers[strOf(ev, "k")] =
                    u64Of(fieldOf(ev, "ns"));
            } else if (kind == "activity") {
                s->levels = u64ListOf(fieldOf(ev, "levels"));
            } else if (kind == "run_end") {
                s->saw_end = true;
                s->info.cycles = u64Of(fieldOf(ev, "cycles"));
                s->info.toggles = u64Of(fieldOf(ev, "toggles"));
                s->info.failures = u64Of(fieldOf(ev, "failures"));
                s->info.wall_ns = u64Of(fieldOf(ev, "wall_ns"));
                s->info.backend = strOf(ev, "backend");
                s->info.activity_pct =
                    fieldOf(ev, "activity_pct").asDouble();
            } else {
                throw std::runtime_error("unknown event kind \"" +
                                         kind + "\"");
            }
        } catch (const std::runtime_error &e) {
            throw std::runtime_error(strfmt("%s:%zu: %s",
                                            label.c_str(), lineno,
                                            e.what()));
        }
    }

    if (!s->saw_begin)
        throw std::runtime_error(label + ": empty event stream");
    if (!s->saw_end)
        throw std::runtime_error(label +
                                 ": stream has no run_end event");
    for (const auto &other : _streams)
        if (other->info.design != s->info.design)
            throw std::runtime_error(strfmt(
                "%s: design \"%s\" does not match \"%s\" (%s)",
                label.c_str(), s->info.design.c_str(),
                other->info.design.c_str(), other->label.c_str()));

    _streams.push_back(std::move(s));
    _folded = false;
}

void
Merger::addStreamFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream text;
    text << is.rdbuf();
    addStreamText(text.str(), path);
}

/**
 * Fold every queued stream into the merged state.  Streams are
 * sorted by (seed, worker, design, label) first so the result is
 * independent of arrival order — including the float folds, which
 * are not associative.
 */
void
Merger::fold() const
{
    if (_folded)
        return;

    _order.clear();
    for (const auto &s : _streams)
        _order.push_back(s.get());
    std::sort(_order.begin(), _order.end(),
              [](const Stream *a, const Stream *b) {
                  if (a->info.seed != b->info.seed)
                      return a->info.seed < b->info.seed;
                  if (a->info.worker != b->info.worker)
                      return a->info.worker < b->info.worker;
                  if (a->info.design != b->info.design)
                      return a->info.design < b->info.design;
                  return a->label < b->label;
              });

    // --- Coverage: commutative per-slot unions -----------------------
    _cov = std::make_unique<tb::Coverage>();
    _has_cov = false;
    for (const Stream *s : _order) {
        if (!s->has_cov)
            continue;
        _has_cov = true;
        for (const auto &sg : s->signals)
            _cov->mergeSignal(sg.name, sg.width, sg.is_reg, sg.rose,
                              sg.fell);
        for (const auto &rb : s->bins)
            _cov->mergeRegBins(rb.name, rb.width, rb.hits);
        for (const auto &cp : s->points)
            _cov->mergeCover(cp.name, cp.count);
        for (const auto &cx : s->crosses)
            _cov->mergeCross(cx.name, cx.a, cx.b, cx.bins);
        for (const auto &ap : s->asserts)
            _cov->mergeAssert(ap.name, ap.checked, ap.failures,
                              ap.fail_cycles);
        _cov->mergeSamples(s->samples);
    }

    // --- Violations: fleet-wide (channel, rule) dedupe ---------------
    _triage.clear();
    for (const Stream *s : _order)
        for (const auto &v : s->viols) {
            AssertionTriage::Entry *hit = nullptr;
            for (auto &e : _triage)
                if (e.channel == v.channel && e.rule == v.rule) {
                    hit = &e;
                    break;
                }
            if (hit) {
                hit->count++;
                hit->first_cycle =
                    std::min(hit->first_cycle, v.cycle);
            } else {
                _triage.push_back({v.channel, v.rule, v.cycle, 1});
            }
        }

    // --- Metrics -----------------------------------------------------
    _reg = MetricsRegistry();
    bool any_triage_keys = false;
    for (const Stream *s : _order) {
        for (const auto &[k, v] : s->counters) {
            if (k.rfind("triage.", 0) == 0) {
                // Recomputed below from the merged signatures — a
                // plain sum would over-count shared ones.
                any_triage_keys = true;
                continue;
            }
            uint64_t &slot = _reg.counter(k);
            if (foldsWithMax(k))
                slot = std::max(slot, v);
            else
                slot += v;
        }
        for (const auto &[k, h] : s->hists) {
            MetricsRegistry::Histogram &slot = _reg.histogram(k);
            for (size_t i = 0; i < h.size(); i++)
                slot.bump(i, h[i]);
        }
        for (const auto &[k, ns] : s->timers)
            _reg.timerNs(k) += ns;
    }

    // Gauges: verbatim single contributors, cycle-weighted mean
    // otherwise (averaging a rate over more cycles weighs the longer
    // run more).  Cycle-less streams degrade to a plain mean.
    std::map<std::string, std::vector<const Stream *>> gauge_srcs;
    for (const Stream *s : _order)
        for (const auto &[k, x] : s->gauges) {
            (void)x;
            gauge_srcs[k].push_back(s);
        }
    for (const auto &[k, srcs] : gauge_srcs) {
        if (srcs.size() == 1) {
            _reg.gauge(k) = srcs[0]->gauges.at(k);
            continue;
        }
        double sum = 0.0, wsum = 0.0;
        for (const Stream *s : srcs) {
            double w = s->info.cycles
                ? static_cast<double>(s->info.cycles) : 1.0;
            sum += w * s->gauges.at(k);
            wsum += w;
        }
        _reg.gauge(k) = wsum ? sum / wsum : 0.0;
    }

    // Derived slots are recomputed from merged state, not folded.
    if (_has_cov) {
        _reg.gauge("cov.toggle_pct") = _cov->togglePct();
        _reg.gauge("cov.reg_bin_pct") = _cov->regBinPct();
        _reg.counter("cov.samples") = _cov->samples();
    }
    if (any_triage_keys || !_triage.empty()) {
        _reg.counter("triage.signatures") = _triage.size();
        uint64_t total = 0;
        for (const auto &e : _triage) {
            total += e.count;
            _reg.counter("triage.sig." + e.channel + "." + e.rule) =
                e.count;
        }
        _reg.counter("triage.violations") = total;
    }

    _folded = true;
}

std::vector<Merger::StreamInfo>
Merger::streamInfos() const
{
    fold();
    std::vector<StreamInfo> out;
    for (const Stream *s : _order)
        out.push_back(s->info);
    return out;
}

Merger::Totals
Merger::totals() const
{
    fold();
    Totals t;
    t.workers = _order.size();
    for (const Stream *s : _order) {
        t.cycles += s->info.cycles;
        t.toggles += s->info.toggles;
        t.failures += s->info.failures;
        t.wall_ns += s->info.wall_ns;
        if (t.backend.empty())
            t.backend = s->info.backend;
        else if (t.backend != s->info.backend)
            t.backend = "mixed";
    }
    return t;
}

const tb::Coverage &
Merger::coverage() const
{
    fold();
    return *_cov;
}

bool
Merger::hasCoverage() const
{
    fold();
    return _has_cov;
}

std::string
Merger::metricsJson(bool include_timers) const
{
    fold();
    return _reg.json(include_timers);
}

std::vector<AssertionTriage::Entry>
Merger::triage() const
{
    fold();
    std::vector<AssertionTriage::Entry> out = _triage;
    std::sort(out.begin(), out.end(),
              [](const AssertionTriage::Entry &a,
                 const AssertionTriage::Entry &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  if (a.first_cycle != b.first_cycle)
                      return a.first_cycle < b.first_cycle;
                  if (a.channel != b.channel)
                      return a.channel < b.channel;
                  return a.rule < b.rule;
              });
    return out;
}

std::vector<Merger::WindowDump>
Merger::windowDumps() const
{
    fold();
    std::vector<WindowDump> out;
    for (const Stream *s : _order)
        for (WindowDump d : s->window_dumps) {
            d.worker = s->info.worker;
            d.seed = s->info.seed;
            // The same dump file can be referenced by retried or
            // re-merged streams; keep the first occurrence in
            // canonical order.  Pathless references always pass.
            bool dup = false;
            if (!d.path.empty())
                for (const WindowDump &e : out)
                    if (e.path == d.path) {
                        dup = true;
                        break;
                    }
            if (!dup)
                out.push_back(std::move(d));
        }
    return out;
}

uint64_t
Merger::counter(const std::string &name) const
{
    fold();
    auto it = _reg.counters().find(name);
    return it != _reg.counters().end() ? it->second : 0;
}

rtl::SweepStats
Merger::sweepStats() const
{
    fold();
    rtl::SweepStats ss;
    if (!_order.empty() && _order[0]->info.sweep == "full")
        ss.mode = rtl::SweepMode::Full;
    ss.strict_nodes = counter("sweep.strict_nodes");
    ss.cycles = counter("sweep.frames");
    ss.nodes_evaluated = counter("sweep.nodes_evaluated");
    ss.peak_nodes = counter("sweep.peak_nodes");
    ss.nets_changed = counter("sweep.nets_changed");
    ss.peak_changed = counter("sweep.peak_changed");
    ss.kernel_frames = counter("sweep.kernel_frames");
    ss.dense_fallback_switches =
        counter("sweep.dense_fallback_switches");
    ss.kernel_dense_frames = counter("sweep.kernel_dense_frames");
    ss.kernel_fallback_switches =
        counter("sweep.kernel_fallback_switches");
    return ss;
}

std::string
Merger::triageReport() const
{
    return AssertionTriage::format(triage());
}

std::string
Merger::statsJson(uint64_t wall_ns_override) const
{
    fold();
    Totals t = totals();
    uint64_t wall_ns = wall_ns_override ? wall_ns_override
                                        : t.wall_ns;

    // activity_pct: the same cycle-weighted fold as the
    // sweep.activity_pct gauge, inlined over run_end fields so a
    // stream without metrics still contributes.
    double act = 0.0;
    if (_order.size() == 1) {
        act = _order[0]->info.activity_pct;   // verbatim, N=1 identity
    } else {
        double act_sum = 0.0, act_w = 0.0;
        for (const Stream *s : _order) {
            double w = s->info.cycles
                ? static_cast<double>(s->info.cycles) : 1.0;
            act_sum += w * s->info.activity_pct;
            act_w += w;
        }
        act = act_w ? act_sum / act_w : 0.0;
    }
    double cps = wall_ns
        ? static_cast<double>(t.cycles) * 1e9 /
            static_cast<double>(wall_ns)
        : 0.0;

    const Stream *first = _order.empty() ? nullptr : _order[0];
    return strfmt(
        "{\"schema\":\"anvil-stats-v1\",\"design\":\"%s\","
        "\"cycles\":%llu,\"backend\":\"%s\",\"sweep\":\"%s\","
        "\"threads\":%d,\"activity_pct\":%.2f,\"toggles\":%llu,"
        "\"failures\":%zu,\"wall_ns\":%llu,\"cycles_per_sec\":%.0f,"
        "\"coverage\":%s,\"workers\":%zu}",
        first ? first->info.design.c_str() : "",
        (unsigned long long)t.cycles, t.backend.c_str(),
        first ? first->info.sweep.c_str() : "dirty",
        first ? first->info.threads : 0, act,
        (unsigned long long)t.toggles,
        static_cast<size_t>(t.failures),
        (unsigned long long)wall_ns, cps,
        _has_cov ? _cov->summaryJson().c_str() : "null",
        _order.size());
}

} // namespace obs
} // namespace anvil
