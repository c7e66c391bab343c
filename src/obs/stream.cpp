#include "obs/stream.h"

#include "support/strings.h"

namespace anvil {
namespace obs {

namespace {

/** Minimal JSON string escaping (control chars, quotes, backslash). */
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
          case '\r': out += "\\r"; break;
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

std::string
u64List(const std::vector<uint64_t> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); i++)
        out += strfmt("%s%llu", i ? "," : "",
                      static_cast<unsigned long long>(v[i]));
    return out + "]";
}

/** Toggle-mask words as hex strings: exact at any width, and far
 *  denser than decimal for the all-ones masks a long run produces. */
std::string
hexList(const std::vector<uint64_t> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); i++)
        out += strfmt("%s\"0x%llx\"", i ? "," : "",
                      static_cast<unsigned long long>(v[i]));
    return out + "]";
}

} // namespace

void
EventSink::line(const std::string &s)
{
    _os << s << "\n";
    _events++;
}

void
EventSink::runBegin(const std::string &design, int worker,
                    uint64_t seed, uint64_t cycles,
                    rtl::SweepMode sweep, int)
{
    line(strfmt("{\"e\":\"run_begin\",\"schema\":\"%s\","
                "\"design\":\"%s\",\"worker\":%d,\"seed\":%llu,"
                "\"cycles\":%llu,\"sweep\":\"%s\",\"threads\":1}",
                kEventsSchema, jsonEscape(design).c_str(), worker,
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(cycles),
                rtl::sweepModeName(sweep)));
}

void
EventSink::violation(uint64_t cycle, const std::string &channel,
                     const std::string &rule, const std::string &msg)
{
    line(strfmt("{\"e\":\"violation\",\"t\":%llu,\"channel\":\"%s\","
                "\"rule\":\"%s\",\"msg\":\"%s\"}",
                static_cast<unsigned long long>(cycle),
                jsonEscape(channel).c_str(), jsonEscape(rule).c_str(),
                jsonEscape(msg).c_str()));
}

void
EventSink::window(uint64_t cycle, uint64_t changed, double rate)
{
    line(strfmt("{\"e\":\"window\",\"t\":%llu,\"changed\":%llu,"
                "\"rate\":%.4f}",
                static_cast<unsigned long long>(cycle),
                static_cast<unsigned long long>(changed), rate));
}

void
EventSink::windowDump(uint64_t cycle, const std::string &trigger,
                      const std::string &path, uint64_t from,
                      uint64_t to)
{
    line(strfmt("{\"e\":\"window_dump\",\"t\":%llu,"
                "\"trigger\":\"%s\",\"path\":\"%s\","
                "\"from\":%llu,\"to\":%llu}",
                static_cast<unsigned long long>(cycle),
                jsonEscape(trigger).c_str(), jsonEscape(path).c_str(),
                static_cast<unsigned long long>(from),
                static_cast<unsigned long long>(to)));
}

void
EventSink::coverage(const tb::Coverage &cov)
{
    // Signals are streamed in cov.signals() order — the merger keys
    // by name but creates slots in arrival order, so a faithful
    // replay reconstructs a byte-identical report().
    for (const auto &sc : cov.signals())
        line(strfmt(
            "{\"e\":\"cov_signal\",\"name\":\"%s\",\"width\":%d,"
            "\"reg\":%s,\"rose\":%s,\"fell\":%s}",
            jsonEscape(sc.name).c_str(), sc.width,
            sc.is_reg ? "true" : "false", hexList(sc.rose).c_str(),
            hexList(sc.fell).c_str()));
    for (const auto &rb : cov.regBins())
        line(strfmt("{\"e\":\"cov_bins\",\"name\":\"%s\","
                    "\"width\":%d,\"hits\":%s}",
                    jsonEscape(rb.name).c_str(), rb.width,
                    u64List(rb.hits).c_str()));
    for (const auto &cp : cov.covers())
        line(strfmt("{\"e\":\"cov_point\",\"name\":\"%s\","
                    "\"count\":%llu}",
                    jsonEscape(cp.name).c_str(),
                    static_cast<unsigned long long>(cp.hits)));
    for (const auto &cx : cov.crosses()) {
        const auto &covers = cov.covers();
        line(strfmt(
            "{\"e\":\"cov_cross\",\"name\":\"%s\",\"a\":\"%s\","
            "\"b\":\"%s\",\"bins\":[%llu,%llu,%llu,%llu]}",
            jsonEscape(cx.name).c_str(),
            jsonEscape(covers[cx.a].name).c_str(),
            jsonEscape(covers[cx.b].name).c_str(),
            static_cast<unsigned long long>(cx.bins[0]),
            static_cast<unsigned long long>(cx.bins[1]),
            static_cast<unsigned long long>(cx.bins[2]),
            static_cast<unsigned long long>(cx.bins[3])));
    }
    for (const auto &ap : cov.asserts())
        line(strfmt(
            "{\"e\":\"cov_assert\",\"name\":\"%s\",\"checked\":%llu,"
            "\"failures\":%llu,\"fail_cycles\":%s}",
            jsonEscape(ap.name).c_str(),
            static_cast<unsigned long long>(ap.checked),
            static_cast<unsigned long long>(ap.failures),
            u64List(ap.fail_cycles).c_str()));
    line(strfmt("{\"e\":\"cov_samples\",\"count\":%llu}",
                static_cast<unsigned long long>(cov.samples())));
}

void
EventSink::metrics(const MetricsRegistry &reg)
{
    for (const auto &[k, v] : reg.counters())
        line(strfmt("{\"e\":\"counter\",\"k\":\"%s\",\"v\":%llu}",
                    jsonEscape(k).c_str(),
                    static_cast<unsigned long long>(v)));
    for (const auto &[k, x] : reg.gauges())
        // %.17g round-trips doubles exactly, matching
        // MetricsRegistry::json() so merged gauges re-serialize to
        // the same bytes.
        line(strfmt("{\"e\":\"gauge\",\"k\":\"%s\",\"x\":%.17g}",
                    jsonEscape(k).c_str(), x));
    for (const auto &[k, h] : reg.histograms())
        line(strfmt("{\"e\":\"hist\",\"k\":\"%s\",\"counts\":%s}",
                    jsonEscape(k).c_str(), u64List(h.counts).c_str()));
    for (const auto &[k, ns] : reg.timersNs())
        line(strfmt("{\"e\":\"timer\",\"k\":\"%s\",\"ns\":%llu}",
                    jsonEscape(k).c_str(),
                    static_cast<unsigned long long>(ns)));
}

void
EventSink::activity(const std::vector<uint64_t> &levels)
{
    line(strfmt("{\"e\":\"activity\",\"levels\":%s}",
                u64List(levels).c_str()));
}

void
EventSink::runEnd(uint64_t cycles, uint64_t toggles,
                  uint64_t failures, uint64_t wall_ns,
                  bool compiled_backend, double activity_pct)
{
    line(strfmt(
        "{\"e\":\"run_end\",\"cycles\":%llu,\"toggles\":%llu,"
        "\"failures\":%llu,\"wall_ns\":%llu,\"backend\":\"%s\","
        "\"activity_pct\":%.2f}",
        static_cast<unsigned long long>(cycles),
        static_cast<unsigned long long>(toggles),
        static_cast<unsigned long long>(failures),
        static_cast<unsigned long long>(wall_ns),
        compiled_backend ? "compiled" : "interp", activity_pct));
}

} // namespace obs
} // namespace anvil
