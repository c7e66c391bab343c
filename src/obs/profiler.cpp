#include "obs/profiler.h"

#include <algorithm>

#include "support/strings.h"

namespace anvil {
namespace obs {

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
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

TraceProfiler::TraceProfiler(bool record_events) : _record(record_events)
{
    // Fixed tids match rtl::SimPhase values so simPhase() can index
    // directly; observer tracks are appended after these.
    for (int p = 0; p < rtl::kSimPhaseCount; p++)
        track(rtl::simPhaseName(static_cast<rtl::SimPhase>(p)));
}

int
TraceProfiler::track(const std::string &name)
{
    for (size_t i = 0; i < _tracks.size(); i++)
        if (_tracks[i] == name)
            return static_cast<int>(i);
    _tracks.push_back(name);
    _track_ns.push_back(0);
    _track_count.push_back(0);
    _track_untimed.push_back(0);
    return static_cast<int>(_tracks.size() - 1);
}

int32_t
TraceProfiler::nameId(const std::string &name)
{
    for (size_t i = 0; i < _names.size(); i++)
        if (_names[i] == name)
            return static_cast<int32_t>(i);
    _names.push_back(name);
    return static_cast<int32_t>(_names.size() - 1);
}

void
TraceProfiler::event(int tid, const std::string &name, uint64_t begin_ns,
                     uint64_t end_ns, uint64_t cycle)
{
    if (tid < 0 || static_cast<size_t>(tid) >= _tracks.size())
        return;
    size_t t = static_cast<size_t>(tid);
    _track_ns[t] += end_ns - begin_ns;
    _track_count[t]++;
    if (!_record)
        return;
    if (_events.size() >= kMaxEvents) {
        _dropped++;
        return;
    }
    _events.push_back({tid, nameId(name), begin_ns, end_ns, cycle});
}

void
TraceProfiler::simPhase(rtl::SimPhase phase, uint64_t cycle,
                        uint64_t begin_ns, uint64_t end_ns)
{
    int tid = static_cast<int>(phase);
    event(tid, _tracks[static_cast<size_t>(tid)], begin_ns, end_ns,
          cycle);
}

std::vector<TraceProfiler::TrackTotal>
TraceProfiler::totals() const
{
    std::vector<TrackTotal> out;
    for (size_t i = 0; i < _tracks.size(); i++)
        out.push_back({_tracks[i],
                       extrapolateNs(_track_ns[i], _track_count[i],
                                     _track_count[i] +
                                         _track_untimed[i]),
                       _track_count[i]});
    return out;
}

void
TraceProfiler::writeJson(std::ostream &os) const
{
    // Timestamps are rebased to the earliest event so the trace
    // opens at t=0; Chrome expects microseconds (fractions allowed).
    uint64_t t0 = UINT64_MAX;
    for (const Ev &e : _events)
        t0 = std::min(t0, e.begin_ns);
    if (t0 == UINT64_MAX)
        t0 = 0;

    os << "{\"traceEvents\":[";
    bool first = true;
    for (size_t i = 0; i < _tracks.size(); i++) {
        if (!first)
            os << ",";
        first = false;
        os << strfmt("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                     i, jsonEscape(_tracks[i]).c_str());
    }
    for (const Ev &e : _events) {
        os << strfmt(",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"cycle\":%llu}}",
                     jsonEscape(_names[static_cast<size_t>(e.name)])
                         .c_str(),
                     e.tid,
                     static_cast<double>(e.begin_ns - t0) / 1000.0,
                     static_cast<double>(e.end_ns - e.begin_ns) /
                         1000.0,
                     static_cast<unsigned long long>(e.cycle));
    }
    os << "],\"displayTimeUnit\":\"ns\",\"anvil\":{"
          "\"schema\":\"anvil-profile-v1\"";
    os << strfmt(",\"dropped_events\":%llu",
                 static_cast<unsigned long long>(_dropped));
    os << ",\"level_activity\":[";
    for (size_t i = 0; i < _level_activity.size(); i++)
        os << strfmt("%s%llu", i ? "," : "",
                     static_cast<unsigned long long>(
                         _level_activity[i]));
    os << "],\"tracks\":[";
    std::vector<TrackTotal> tot = totals();
    for (size_t i = 0; i < tot.size(); i++)
        os << strfmt("%s{\"name\":\"%s\",\"events\":%llu,"
                     "\"total_ns\":%llu}",
                     i ? "," : "", jsonEscape(tot[i].name).c_str(),
                     static_cast<unsigned long long>(tot[i].count),
                     static_cast<unsigned long long>(tot[i].ns));
    os << "]}}\n";
}

} // namespace obs
} // namespace anvil
