/**
 * @file
 * Unified observer framework and telemetry tests: change-feed fan-out
 * and per-net subscription dedupe, the rescan fallback on skipped
 * cycles and late pokes, standalone-vs-attached observer compat,
 * metrics JSON determinism at a fixed seed, Chrome-trace profile
 * well-formedness (parsed back with the in-tree JSON reader), and the
 * channel-slicing VCD plugin.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "obs/slice.h"
#include "rtl/vcd.h"
#include "support/json.h"
#include "tb/testbench.h"

using namespace anvil;

namespace {

const char *kPingSource = R"(
chan ping_ch {
    left ping : (logic[8]@pong),
    right pong : (logic[8]@#1)
}

proc ping_server(io : left ping_ch) {
    reg bump : logic[8];
    loop {
        let p = recv io.ping >>
        set bump := p + 1 >>
        send io.pong (*bump) >>
        cycle 1
    }
}
)";

rtl::ModulePtr
pingModule()
{
    std::string errors;
    rtl::ModulePtr m =
        anvil::testing::compileDesign(kPingSource, "ping_server",
                                      &errors);
    EXPECT_TRUE(m) << errors;
    return m;
}

rtl::NetId
netOf(rtl::Sim &sim, const std::string &name)
{
    auto it = sim.netlist().signals().find(name);
    EXPECT_TRUE(it != sim.netlist().signals().end()) << name;
    return it->second.net;
}

/** Counts its visits and the changed nets it is handed. */
class CountingObserver : public obs::Observer
{
  public:
    explicit CountingObserver(std::vector<rtl::NetId> nets)
        : _nets(std::move(nets))
    {
    }

    void onAttach(obs::ChangeFeed &feed) override
    {
        for (rtl::NetId n : _nets)
            subscribed.push_back(feed.subscribe(*this, n));
    }

    void onPrime(rtl::Sim &, uint64_t) override { primes++; }

    void onCycle(rtl::Sim &, uint64_t,
                 const std::vector<rtl::NetId> &changed) override
    {
        cycles++;
        for (size_t i = 0; i < changed.size(); i++) {
            delivered.push_back(changed[i]);
            for (size_t j = 0; j < i; j++)
                if (changed[j] == changed[i])
                    dupes++;
        }
    }

    void onFinish(rtl::Sim &) override { finishes++; }

    const char *observerName() const override { return "count"; }

    std::vector<bool> subscribed;
    std::vector<rtl::NetId> delivered;
    int primes = 0;
    int cycles = 0;
    int finishes = 0;
    int dupes = 0;   // same net twice within one visit

  private:
    std::vector<rtl::NetId> _nets;
};

/** Drive the ping handshake and sample the feed once per cycle. */
void
runFed(rtl::Sim &sim, obs::ChangeFeed &feed, int cycles)
{
    for (int i = 0; i < cycles; i++) {
        sim.setInput("io_ping_valid", 1);
        sim.setInput("io_ping_data", 0x10 + i);
        sim.setInput("io_pong_ack", 1);
        feed.sample();
        sim.step();
    }
}

TEST(ChangeFeed, DuplicateSubscriptionsDedupe)
{
    rtl::Sim sim(pingModule());
    obs::ChangeFeed feed(sim);
    rtl::NetId data = netOf(sim, "io_pong_data");

    // The same observer subscribing one net twice rides a single
    // subscription: one visit never delivers the net twice.
    CountingObserver one({data, data});
    feed.attach(one);
    ASSERT_EQ(one.subscribed.size(), 2u);
    EXPECT_TRUE(one.subscribed[0]);
    EXPECT_TRUE(one.subscribed[1]);

    // A second observer of the same net sees every change too.
    CountingObserver two({data});
    feed.attach(two);

    runFed(sim, feed, 8);

    EXPECT_EQ(one.primes, 1);
    EXPECT_EQ(one.cycles, 7);
    EXPECT_EQ(one.delivered, two.delivered);
    EXPECT_FALSE(one.delivered.empty());
    EXPECT_EQ(one.dupes, 0);
    EXPECT_EQ(two.dupes, 0);

    feed.finish();
    EXPECT_EQ(one.finishes, 1);
    EXPECT_EQ(two.finishes, 1);

    // The hub's accounting saw the same story.
    auto costs = feed.costs();
    ASSERT_EQ(costs.size(), 2u);
    EXPECT_EQ(costs[0].name, "count");
    EXPECT_EQ(costs[0].visits, 8u);
    EXPECT_EQ(costs[0].primes, 1u);
    EXPECT_EQ(costs[0].nets, one.delivered.size());
}

TEST(ChangeFeed, SkippedCycleForcesRescan)
{
    rtl::Sim sim(pingModule());
    obs::ChangeFeed feed(sim);
    CountingObserver co({netOf(sim, "io_pong_valid")});
    feed.attach(co);

    runFed(sim, feed, 3);   // prime + 2 fast-path visits
    EXPECT_EQ(co.primes, 1);
    EXPECT_EQ(co.cycles, 2);

    sim.step();             // a cycle nobody sampled
    feed.sample();          // feed window is broken: full rescan
    EXPECT_EQ(co.primes, 2);
    EXPECT_EQ(co.cycles, 2);

    sim.step();
    feed.sample();          // window restored: fast path again
    EXPECT_EQ(co.primes, 2);
    EXPECT_EQ(co.cycles, 3);
}

TEST(ChangeFeed, LatePokeForcesRescan)
{
    rtl::Sim sim(pingModule());
    obs::ChangeFeed feed(sim);
    CountingObserver co({netOf(sim, "io_pong_valid")});
    feed.attach(co);

    runFed(sim, feed, 2);
    EXPECT_EQ(co.primes, 1);

    // Poke after the sample: the change flushes with the edge and is
    // never re-listed, so the next sample must rescan.
    sim.setInput("io_ping_data", 0x7f);
    sim.step();
    feed.sample();
    EXPECT_EQ(co.primes, 2);
}

TEST(ChangeFeed, DetachAndDestructionAreSafe)
{
    rtl::Sim sim(pingModule());
    obs::ChangeFeed feed(sim);
    CountingObserver keep({netOf(sim, "io_pong_valid")});
    feed.attach(keep);
    {
        CountingObserver dies({netOf(sim, "io_pong_data")});
        feed.attach(dies);
        runFed(sim, feed, 2);
        EXPECT_EQ(dies.primes, 1);
    }   // destructor detaches while subscribed

    runFed(sim, feed, 2);   // must not touch the dead slot
    EXPECT_EQ(keep.primes, 1);
    EXPECT_EQ(keep.cycles, 3);
}

TEST(ChangeFeed, StandaloneSampleConflictsWithAttach)
{
    // VcdWriter::sample() (the pre-feed API) still works standalone…
    rtl::Sim sim(pingModule());
    std::ostringstream os;
    rtl::VcdWriter vcd(sim, os, {"io_pong_valid"});
    vcd.sample();
    sim.step();
    vcd.sample();
    EXPECT_NE(os.str().find("$dumpvars"), std::string::npos);

    // …but mixing it with an external feed is a caller bug.
    rtl::Sim sim2(pingModule());
    std::ostringstream os2;
    rtl::VcdWriter fed(sim2, os2, {"io_pong_valid"});
    obs::ChangeFeed feed(sim2);
    feed.attach(fed);
    EXPECT_THROW(fed.sample(), std::logic_error);
}

// --- Metrics -------------------------------------------------------------

uint64_t
quantize(uint64_t) { return 0; }

/** One seeded run, metrics collected the way anvilc does. */
std::string
metricsJsonOfRun(uint64_t seed, bool include_timers)
{
    tb::Testbench bench(pingModule(), seed);
    bench.driveRandom("io_ping_valid");
    bench.driveRandom("io_ping_data");
    bench.driveRandom("io_pong_ack");
    bench.coverage();
    tb::TbResult result = bench.run(300);

    obs::MetricsRegistry reg;
    const rtl::SweepStats &ss = bench.sim().sweepStats();
    reg.counter("sim.cycles") = result.cycles;
    reg.counter("sim.toggles") = bench.sim().totalToggles();
    reg.counter("sweep.nodes_evaluated") = ss.nodes_evaluated;
    reg.counter("sweep.nets_changed") = ss.nets_changed;
    reg.counter("cov.samples") =
        static_cast<uint64_t>(bench.coverage().samples());
    for (const obs::ObserverCost &c : bench.feed().costs()) {
        reg.counter("obs." + c.name + ".visits") = c.visits;
        reg.counter("obs." + c.name + ".nets") = c.nets;
        // Wall-clock is the one legitimately nondeterministic input;
        // the JSON stays byte-stable because timers live under their
        // own key that json(false) quantizes out.
        reg.timerNs("obs." + c.name) = quantize(c.ns);
    }
    return reg.json(include_timers);
}

TEST(Metrics, JsonByteStableAtFixedSeed)
{
    std::string a = metricsJsonOfRun(42, false);
    std::string b = metricsJsonOfRun(42, false);
    EXPECT_EQ(a, b);

    // And it is real JSON with the advertised schema tag.
    json::ParseResult doc = json::parse(a);
    ASSERT_TRUE(doc.ok()) << doc.error;
    const json::Value *schema = doc.value.find("schema");
    ASSERT_TRUE(schema);
    EXPECT_EQ(schema->str, "anvil-metrics-v1");
    ASSERT_TRUE(doc.value.find("counters"));
    EXPECT_FALSE(doc.value.find("timers_ns"));   // quantized out

    // json(true) carries the timers key for human consumption.
    json::ParseResult timed =
        json::parse(metricsJsonOfRun(42, true));
    ASSERT_TRUE(timed.ok()) << timed.error;
    EXPECT_TRUE(timed.value.find("timers_ns"));
}

TEST(Metrics, HistogramAndGaugeShapes)
{
    obs::MetricsRegistry reg;
    reg.counter("a") = 3;
    reg.gauge("pct") = 12.5;
    reg.histogram("levels").bump(0);
    reg.histogram("levels").bump(2, 4);
    json::ParseResult doc = json::parse(reg.json());
    ASSERT_TRUE(doc.ok()) << doc.error;
    const json::Value *h = doc.value.find("histograms");
    ASSERT_TRUE(h);
    const json::Value *levels = h->find("levels");
    ASSERT_TRUE(levels);
    ASSERT_EQ(levels->find("counts")->arr.size(), 3u);
    EXPECT_EQ(levels->find("counts")->arr[2].num, "4");
    EXPECT_EQ(levels->find("total")->num, "5");
}

// --- Profiler ------------------------------------------------------------

TEST(Profiler, ChromeTraceParsesBackWellFormed)
{
    rtl::ModulePtr m = pingModule();
    tb::Testbench bench(std::move(m), 7);
    bench.driveRandom("io_ping_valid");
    bench.driveRandom("io_ping_data");
    bench.driveRandom("io_pong_ack");
    std::ostringstream vcd_os;
    bench.attachVcd(vcd_os);

    obs::TraceProfiler prof(true);
    bench.sim().setTelemetry(&prof);
    bench.feed().setProfiler(&prof);
    bench.run(50);
    bench.feed().finish();
    bench.sim().setTelemetry(nullptr);
    bench.feed().setProfiler(nullptr);
    prof.setLevelActivity(bench.feed().levelActivity());

    std::ostringstream os;
    prof.writeJson(os);
    json::ParseResult doc = json::parse(os.str());
    ASSERT_TRUE(doc.ok()) << doc.error;

    const json::Value *events = doc.value.find("traceEvents");
    ASSERT_TRUE(events && events->isArray());
    size_t meta = 0, complete = 0;
    bool saw_sweep = false, saw_commit = false, saw_vcd = false;
    for (const json::Value &e : events->arr) {
        ASSERT_TRUE(e.isObject());
        const json::Value *ph = e.find("ph");
        ASSERT_TRUE(ph && ph->isString());
        ASSERT_TRUE(e.find("tid") && e.find("pid") &&
                    e.find("name"));
        if (ph->str == "M") {
            meta++;
            const std::string &track =
                e.find("args")->find("name")->str;
            saw_sweep |= track == "sweep";
            saw_commit |= track == "commit";
            saw_vcd |= track == "obs:vcd";
        } else {
            ASSERT_EQ(ph->str, "X");
            complete++;
            EXPECT_GE(e.find("ts")->asDouble(), 0.0);
            EXPECT_GE(e.find("dur")->asDouble(), 0.0);
            ASSERT_TRUE(e.find("args")->find("cycle"));
        }
    }
    EXPECT_TRUE(saw_sweep);
    EXPECT_TRUE(saw_commit);
    EXPECT_TRUE(saw_vcd);
    EXPECT_GT(complete, 0u);

    // The extension block viewers ignore.
    const json::Value *ext = doc.value.find("anvil");
    ASSERT_TRUE(ext);
    EXPECT_EQ(ext->find("schema")->str, "anvil-profile-v1");
    EXPECT_EQ(ext->find("dropped_events")->num, "0");
    const json::Value *tracks = ext->find("tracks");
    ASSERT_TRUE(tracks && tracks->isArray());
    EXPECT_EQ(tracks->arr.size(), meta);
    uint64_t track_events = 0;
    for (const json::Value &t : tracks->arr)
        track_events += static_cast<uint64_t>(
            t.find("events")->asDouble());
    // Every buffered complete event is accounted to some track.
    EXPECT_EQ(track_events, complete);
}

TEST(Profiler, TimesOneCycleInSixteen)
{
    tb::Testbench bench(pingModule(), 7);
    bench.driveRandom("io_ping_valid");
    bench.driveRandom("io_ping_data");
    bench.driveRandom("io_pong_ack");
    bench.coverage();

    obs::TraceProfiler prof(true);
    bench.sim().setTelemetry(&prof);
    bench.feed().setProfiler(&prof);
    bench.run(50);
    bench.sim().setTelemetry(nullptr);
    bench.feed().setProfiler(nullptr);

    std::ostringstream os;
    prof.writeJson(os);
    json::ParseResult doc = json::parse(os.str());
    ASSERT_TRUE(doc.ok()) << doc.error;
    std::map<std::string, std::string> track_of;   // tid -> name
    std::map<std::string, std::vector<uint64_t>> cycles;   // by track
    for (const json::Value &e : doc.value.find("traceEvents")->arr) {
        std::string tid = e.find("tid")->num;
        if (e.find("ph")->str == "M")
            track_of[tid] = e.find("args")->find("name")->str;
        else
            cycles[tid].push_back(static_cast<uint64_t>(
                e.find("args")->find("cycle")->asDouble()));
    }
    std::map<std::string, std::vector<uint64_t>> by_name;
    for (const auto &[tid, cyc] : cycles)
        by_name[track_of[tid]] = cyc;
    // The simulator times the cycles where cycle % 16 == 0 ...
    EXPECT_EQ(by_name["commit"], (std::vector<uint64_t>{0, 16, 32, 48}));
    // ... and the feed every prime plus a hashed one cycle in 16, so
    // a cost recurring every 16th or 64th cycle is not over-weighted.
    EXPECT_EQ(by_name["obs:coverage"],
              (std::vector<uint64_t>{0, 13, 34, 47}));

    // Totals extrapolate the timed windows; visit counts stay exact.
    for (const auto &t : prof.totals())
        if (t.name == "commit") {
            EXPECT_EQ(t.count, 4u);
            EXPECT_GT(t.ns, 0u);
        }
    for (const obs::ObserverCost &c : bench.feed().costs()) {
        EXPECT_EQ(c.visits, 50u);
        EXPECT_EQ(c.primes, 1u);
        EXPECT_GT(c.ns, 0u);
    }
}

TEST(Profiler, TotalsAccumulateWithoutRecording)
{
    obs::TraceProfiler prof(false);   // totals only, no event buffer
    int tid = prof.track("custom");
    prof.event(tid, "a", 100, 250, 1);
    prof.event(tid, "b", 300, 350, 2);
    auto totals = prof.totals();
    ASSERT_GT(totals.size(), static_cast<size_t>(tid));
    EXPECT_EQ(totals[static_cast<size_t>(tid)].ns, 200u);
    EXPECT_EQ(totals[static_cast<size_t>(tid)].count, 2u);

    std::ostringstream os;
    prof.writeJson(os);
    json::ParseResult doc = json::parse(os.str());
    ASSERT_TRUE(doc.ok()) << doc.error;
    // No X events were buffered, but the track summary is complete.
    for (const json::Value &e :
         doc.value.find("traceEvents")->arr)
        EXPECT_EQ(e.find("ph")->str, "M");
}

// --- Channel slicing -----------------------------------------------------

TEST(Slice, ChannelSignalsSelectsTheChannel)
{
    rtl::Sim sim(pingModule());
    std::vector<std::string> sigs =
        obs::channelSignals(sim.netlist(), "io_pong");
    EXPECT_EQ(sigs, (std::vector<std::string>{
                        "io_pong_ack", "io_pong_data",
                        "io_pong_valid"}));
    EXPECT_THROW(obs::channelSignals(sim.netlist(), "no_such"),
                 std::invalid_argument);
}

TEST(Slice, SlicedVcdContainsOnlyTheChannel)
{
    tb::Testbench bench(pingModule(), 7);
    bench.driveRandom("io_ping_valid");
    bench.driveRandom("io_ping_data");
    bench.driveRandom("io_pong_ack");
    std::ostringstream os;
    bench.attachObserver(std::make_unique<obs::ChannelSlicer>(
        bench.sim(), os, "io_pong"));
    bench.run(40);

    std::string text = os.str();
    std::istringstream is(text);
    std::string line;
    int vars = 0;
    while (std::getline(is, line)) {
        if (line.rfind("$var", 0) != 0)
            continue;
        vars++;
        EXPECT_NE(line.find("io_pong"), std::string::npos) << line;
    }
    EXPECT_EQ(vars, 3);
    EXPECT_NE(text.find("$dumpvars"), std::string::npos);
}

} // namespace
