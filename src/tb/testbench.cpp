#include "tb/testbench.h"

#include <algorithm>
#include <stdexcept>

#include "support/strings.h"

namespace anvil {
namespace tb {

namespace {

class SequenceDriver : public Driver
{
  public:
    SequenceDriver(rtl::NetId input, std::vector<BitVec> values,
                   bool hold_last)
        : _input(input), _values(std::move(values)),
          _hold_last(hold_last)
    {
    }

    void drive(rtl::Sim &sim, uint64_t, SplitMix64 &) override
    {
        if (_next < _values.size())
            sim.setInput(_input, _values[_next++]);
        else if (_hold_last && !_values.empty())
            sim.setInput(_input, _values.back());
        else
            sim.setInput(_input, uint64_t{0});
    }

  private:
    rtl::NetId _input;
    std::vector<BitVec> _values;
    bool _hold_last;
    size_t _next = 0;
};

/** Low `n` bits set (n in 1..64). */
uint64_t
lowMask(int n)
{
    return n >= 64 ? ~0ull : (1ull << n) - 1;
}

/**
 * Overwrite bits [lo, lo+n) of a little-endian word array with the
 * low n bits of v (n in 1..64; the range may straddle a word).
 */
void
depositBits(uint64_t *words, int lo, int n, uint64_t v)
{
    uint64_t m = lowMask(n);
    v &= m;
    size_t wi = static_cast<size_t>(lo / 64);
    int off = lo % 64;
    words[wi] = (words[wi] & ~(m << off)) | (v << off);
    if (off + n > 64) {
        int sh = 64 - off;
        words[wi + 1] = (words[wi + 1] & ~(m >> sh)) | (v >> sh);
    }
}

class RandomDriver : public Driver
{
  public:
    RandomDriver(const std::string &name, rtl::NetId input,
                 RandomSpec spec, int width)
        : _input(input), _spec(std::move(spec)), _value(width),
          _words(static_cast<size_t>(std::max(_value.words(), 1)), 0)
    {
        if (_spec.fields.empty()) {
            FieldSpec full;
            full.lo = 0;
            full.width = width;
            _spec.fields.push_back(full);
        }
        for (const auto &f : _spec.fields) {
            if (f.lo < 0 || f.width < 1 || f.lo + f.width > width)
                throw std::invalid_argument(
                    "random field outside input " + name);
            if (f.choices.empty()) {
                // A bound the field can't represent is a spec typo;
                // silently sampling elsewhere would fake coverage.
                if (f.min > lowMask(f.width) || f.min > f.max)
                    throw std::invalid_argument(
                        "unsatisfiable min/max on a field of " +
                        name);
            }
        }
    }

    /**
     * Fields are packed a word at a time, later fields overwriting
     * earlier ones where they overlap; the PRNG is drawn in field
     * order, a field's bits past 64 taking one raw word per 64 bits.
     */
    void drive(rtl::Sim &sim, uint64_t, SplitMix64 &rng) override
    {
        if (!rng.chance(_spec.active_pct)) {
            sim.setInput(_input, _spec.idle_value);
            return;
        }
        std::fill(_words.begin(), _words.end(), 0);
        for (const auto &f : _spec.fields) {
            depositBits(_words.data(), f.lo, std::min(f.width, 64),
                        fieldValue(f, rng));
            for (int b = 64; b < f.width; b += 64)
                depositBits(_words.data(), f.lo + b,
                            std::min(f.width - b, 64), rng.next());
        }
        if (_value.width() <= 64) {
            sim.setInput(_input, _words[0]);
            return;
        }
        _value.setWords(_words.data(), static_cast<int>(_words.size()));
        sim.setInput(_input, _value);
    }

  private:
    static uint64_t fieldValue(const FieldSpec &f, SplitMix64 &rng)
    {
        if (!f.choices.empty())
            return f.choices[rng.below(f.choices.size())];
        uint64_t lo = f.min;   // validated against the mask and max
        uint64_t hi = std::min(f.max, lowMask(f.width));
        uint64_t span = hi - lo;
        if (span == ~0ull)
            return rng.next();
        return lo + rng.below(span + 1);
    }

    rtl::NetId _input;
    RandomSpec _spec;
    BitVec _value;                 // wide inputs: packed value
    std::vector<uint64_t> _words;  // one cycle's packed fields
};

class CallbackDriver : public Driver
{
  public:
    explicit CallbackDriver(
        std::function<void(rtl::Sim &, uint64_t, SplitMix64 &)> fn)
        : _fn(std::move(fn))
    {
    }

    void drive(rtl::Sim &sim, uint64_t cycle,
               SplitMix64 &rng) override
    {
        _fn(sim, cycle, rng);
    }

  private:
    std::function<void(rtl::Sim &, uint64_t, SplitMix64 &)> _fn;
};

} // namespace

void
Monitor::fail(uint64_t cycle, const std::string &message)
{
    _failures.push_back({cycle, _name, message});
}

void
Scoreboard::observed(uint64_t cycle, const BitVec &got)
{
    if (_queue.empty()) {
        fail(cycle, "observed " + got.toHex() +
                        " with nothing outstanding");
        return;
    }
    BitVec want = _queue.front();
    _queue.pop_front();
    // Compare at the wider width: truncating the observation would
    // silently mask high-bit corruption.
    int w = std::max(got.width(), want.width());
    if (got.resize(w) != want.resize(w))
        fail(cycle,
             "expected " + want.toHex() + " got " + got.toHex());
    else
        _matched++;
}

std::string
TbResult::summary() const
{
    if (ok())
        return strfmt("PASS: %llu cycles, 0 failures",
                      static_cast<unsigned long long>(cycles));
    std::string s =
        strfmt("FAIL: %llu cycles, %zu failure(s)",
               static_cast<unsigned long long>(cycles),
               failures.size());
    size_t shown = std::min<size_t>(failures.size(), 5);
    for (size_t i = 0; i < shown; i++)
        s += strfmt("\n  @%llu [%s] %s",
                    static_cast<unsigned long long>(
                        failures[i].cycle),
                    failures[i].check.c_str(),
                    failures[i].message.c_str());
    if (failures.size() > shown)
        s += strfmt("\n  ... %zu more", failures.size() - shown);
    return s;
}

Testbench::Testbench(rtl::ModulePtr top, uint64_t seed)
    : _sim(std::move(top)), _rng(seed)
{
}

Testbench::Testbench(rtl::ModulePtr top,
                     std::shared_ptr<const rtl::Netlist> netlist,
                     uint64_t seed)
    : _sim(std::move(top), std::move(netlist)), _rng(seed)
{
}

void
Testbench::driveSequence(const std::string &input,
                         std::vector<BitVec> values, bool hold_last)
{
    addDriver(std::make_unique<SequenceDriver>(
        _sim.inputId(input), std::move(values), hold_last));
}

void
Testbench::driveRandom(const std::string &input, RandomSpec spec)
{
    rtl::NetId id = _sim.inputId(input);
    addDriver(std::make_unique<RandomDriver>(
        input, id, std::move(spec), _sim.netlist().net(id).width));
}

void
Testbench::driveWith(
    std::function<void(rtl::Sim &, uint64_t, SplitMix64 &)> fn)
{
    addDriver(std::make_unique<CallbackDriver>(std::move(fn)));
}

void
Testbench::addDriver(std::unique_ptr<Driver> d)
{
    _drivers.push_back(std::move(d));
}

Monitor &
Testbench::addMonitor(std::unique_ptr<Monitor> m)
{
    // Change-fed monitors (ContractMonitor) join the shared feed;
    // their observe() then defers to the feed visit.
    if (auto *o = dynamic_cast<obs::Observer *>(m.get()))
        _feed.attach(*o);
    _monitors.push_back(std::move(m));
    return *_monitors.back();
}

Scoreboard &
Testbench::addScoreboard(const std::string &name)
{
    auto sb = std::make_unique<Scoreboard>(name);
    Scoreboard &ref = *sb;
    _monitors.push_back(std::move(sb));
    return ref;
}

void
Testbench::check(const std::string &name,
                 std::function<void(Testbench &)> fn)
{
    _checks.emplace_back(name, std::move(fn));
}

void
Testbench::fail(const std::string &check, const std::string &message)
{
    _hook_failures.push_back({_sim.cycle(), check, message});
}

Coverage &
Testbench::coverage()
{
    _coverage_enabled = true;
    _feed.attach(_coverage);   // idempotent
    return _coverage;
}

void
Testbench::attachVcd(std::ostream &os,
                     std::vector<std::string> signals)
{
    _vcd = std::make_unique<rtl::VcdWriter>(_sim, os,
                                            std::move(signals));
    _feed.attach(*_vcd);
}

obs::Observer &
Testbench::attachObserver(std::unique_ptr<obs::Observer> o)
{
    _feed.attach(*o);
    _observers.push_back(std::move(o));
    return *_observers.back();
}

size_t
Testbench::totalFailures() const
{
    size_t n = _hook_failures.size();
    for (const auto &m : _monitors)
        n += m->failures().size();
    return n;
}

TbResult
Testbench::run(uint64_t cycles)
{
    size_t hook_base = _hook_failures.size();
    std::vector<size_t> mon_base;
    for (const auto &m : _monitors)
        mon_base.push_back(m->failures().size());
    size_t fail_base = totalFailures();

    TbResult result;
    for (uint64_t i = 0; i < cycles; i++) {
        uint64_t cyc = _sim.cycle();
        for (auto &d : _drivers)
            d->drive(_sim, cyc, _rng);
        for (auto &[name, fn] : _checks)
            fn(*this);
        for (auto &m : _monitors)
            m->observe(_sim, cyc);
        if (!_feed.empty())
            _feed.sample();
        _sim.step();
        result.cycles++;
        if (totalFailures() - fail_base >= max_failures)
            break;
    }

    // Merge the failures recorded during this run, in cycle order.
    result.failures.assign(_hook_failures.begin() +
                               static_cast<long>(hook_base),
                           _hook_failures.end());
    for (size_t m = 0; m < _monitors.size(); m++) {
        const auto &f = _monitors[m]->failures();
        result.failures.insert(result.failures.end(),
                               f.begin() +
                                   static_cast<long>(mon_base[m]),
                               f.end());
    }
    std::stable_sort(result.failures.begin(), result.failures.end(),
                     [](const TbFailure &a, const TbFailure &b) {
                         return a.cycle < b.cycle;
                     });
    return result;
}

} // namespace tb
} // namespace anvil
