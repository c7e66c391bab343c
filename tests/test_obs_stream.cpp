/**
 * @file
 * Event-stream and merger tests: the "anvil-events-v2" round trip
 * (a single run serialized and merged back reproduces its coverage,
 * metrics, and summary bytes exactly), merge order independence
 * across shuffled streams, farm-vs-sequential union equivalence,
 * shared-netlist Sim semantics, the Coverage merge operators, the
 * triage dedupe over hand-authored streams, the window_dump
 * references (worker/seed stamping, path dedupe), the merger's
 * rejection of malformed or foreign-schema streams, the max fold of
 * the sweep's peak counters, runFarm's configuration errors and dump
 * names, and the empty change feed of a telemetry-off job.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "anvil/sim_runner.h"
#include "harness.h"
#include "obs/activity.h"
#include "obs/merge.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/stream.h"
#include "obs/triage.h"
#include "rtl/rtl.h"
#include "support/json.h"
#include "tb/coverage.h"
#include "tb/testbench.h"
#include "trace/contracts.h"

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

/** One full single-run spine with every plugin attached, mirroring
 *  what run::runJob (and anvilc --events) wires up. */
struct SpineRun
{
    std::string events;
    std::string cov_report;
    std::string cov_summary;
    std::string metrics;   // json(false): timers quantized out
    uint64_t cycles = 0;
    uint64_t toggles = 0;
};

SpineRun
runSpine(uint64_t seed, int worker, uint64_t cycles)
{
    std::ostringstream es;
    obs::EventSink sink(es);

    auto bench = std::make_unique<tb::Testbench>(pingModule(), seed);
    obs::TraceProfiler profiler(false);
    bench->sim().setTelemetry(&profiler);
    bench->feed().setProfiler(&profiler);

    for (const auto &in : bench->sim().inputNames())
        bench->driveRandom(in);

    std::vector<trace::ContractSpec> specs =
        trace::inferContracts(bench->sim().netlist());
    trace::ContractMonitor *monitor = nullptr;
    if (!specs.empty())
        monitor = static_cast<trace::ContractMonitor *>(
            &bench->addMonitor(
                std::make_unique<trace::ContractMonitor>(
                    specs, bench->sim())));

    tb::Coverage &cov = bench->coverage();

    obs::AssertionTriage *triage = nullptr;
    if (monitor)
        triage = static_cast<obs::AssertionTriage *>(
            &bench->attachObserver(
                std::make_unique<obs::AssertionTriage>(*monitor,
                                                       &sink)));
    auto *activity = static_cast<obs::RollingActivity *>(
        &bench->attachObserver(
            std::make_unique<obs::RollingActivity>(16, &sink)));

    sink.runBegin(bench->sim().topName(), worker, seed, cycles,
                  bench->sim().sweepMode());
    tb::TbResult result = bench->run(cycles);
    bench->feed().finish();

    obs::MetricsRegistry reg;
    run::collectRunMetrics(reg, *bench, result, &cov, &profiler,
                           nullptr, /*wall_ns=*/12345, activity,
                           triage);
    run::emitRunTail(sink, *bench, result, &cov, reg,
                     /*wall_ns=*/12345);

    SpineRun sr;
    sr.events = es.str();
    sr.cov_report = cov.report();
    sr.cov_summary = cov.summaryJson();
    sr.metrics = reg.json(false);
    sr.cycles = result.cycles;
    sr.toggles = bench->sim().totalToggles();
    return sr;
}

// --- The N=1 identity ----------------------------------------------------

TEST(EventStream, RoundTripReproducesSingleRunBytes)
{
    SpineRun sr = runSpine(7, 0, 300);
    ASSERT_FALSE(sr.events.empty());

    obs::Merger merger;
    merger.addStreamText(sr.events, "solo");
    ASSERT_EQ(merger.streams(), 1u);

    // Coverage, summary, and metrics reproduce byte-for-byte.
    ASSERT_TRUE(merger.hasCoverage());
    EXPECT_EQ(merger.coverage().report(), sr.cov_report);
    EXPECT_EQ(merger.coverage().summaryJson(), sr.cov_summary);
    EXPECT_EQ(merger.metricsJson(false), sr.metrics);

    // The stream identity survives the trip.
    std::vector<obs::Merger::StreamInfo> infos =
        merger.streamInfos();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].design, "ping_server");
    EXPECT_EQ(infos[0].seed, 7u);
    EXPECT_EQ(infos[0].worker, 0);
    EXPECT_EQ(infos[0].cycles, sr.cycles);
    EXPECT_EQ(infos[0].toggles, sr.toggles);
    EXPECT_EQ(infos[0].backend, "interp");

    obs::Merger::Totals t = merger.totals();
    EXPECT_EQ(t.workers, 1u);
    EXPECT_EQ(t.cycles, sr.cycles);
    EXPECT_EQ(t.toggles, sr.toggles);

    // The merged stats line is well-formed anvil-stats-v1 + workers.
    json::ParseResult stats = json::parse(merger.statsJson());
    ASSERT_TRUE(stats.ok()) << stats.error;
    EXPECT_EQ(stats.value.find("schema")->str, "anvil-stats-v1");
    EXPECT_EQ(stats.value.find("design")->str, "ping_server");
    EXPECT_EQ(stats.value.find("workers")->num, "1");
    EXPECT_TRUE(stats.value.find("coverage")->isObject());
}

TEST(EventStream, EveryLineParsesAndIsDiscriminated)
{
    SpineRun sr = runSpine(3, 2, 120);
    std::istringstream is(sr.events);
    std::string line;
    size_t events = 0;
    bool saw_begin = false, saw_end = false, saw_window = false;
    while (std::getline(is, line)) {
        ASSERT_FALSE(line.empty());
        json::ParseResult pr = json::parse(line);
        ASSERT_TRUE(pr.ok()) << pr.error << ": " << line;
        const json::Value *e = pr.value.find("e");
        ASSERT_TRUE(e && e->isString()) << line;
        saw_begin |= e->str == "run_begin";
        saw_end |= e->str == "run_end";
        saw_window |= e->str == "window";
        events++;
    }
    EXPECT_TRUE(saw_begin);
    EXPECT_TRUE(saw_end);
    EXPECT_TRUE(saw_window);   // 120 cycles / window 16 closes some
    EXPECT_GT(events, 10u);
}

// --- Order independence and the farm -------------------------------------

run::JobResult
jobAt(uint64_t seed, int worker,
      const std::shared_ptr<const rtl::Netlist> &nl,
      const rtl::ModulePtr &top)
{
    run::JobConfig jc;
    jc.top = top;
    jc.netlist = nl;
    jc.seed = seed;
    jc.worker = worker;
    jc.cycles = 200;
    jc.contracts = trace::inferContracts(*nl);
    jc.coverage = true;
    jc.activity_window = 16;
    return run::runJob(jc);
}

TEST(EventStream, MergeIsOrderIndependent)
{
    rtl::ModulePtr top = pingModule();
    auto nl = std::make_shared<const rtl::Netlist>(*top);
    std::vector<run::JobResult> jobs;
    for (int w = 0; w < 3; w++)
        jobs.push_back(jobAt(10 + static_cast<uint64_t>(w), w, nl,
                             top));

    obs::Merger fwd, rev;
    for (size_t i = 0; i < jobs.size(); i++)
        fwd.addStreamText(jobs[i].events, "s");
    for (size_t i = jobs.size(); i-- > 0;)
        rev.addStreamText(jobs[i].events, "s");

    EXPECT_EQ(fwd.coverage().report(), rev.coverage().report());
    EXPECT_EQ(fwd.coverage().summaryJson(),
              rev.coverage().summaryJson());
    EXPECT_EQ(fwd.metricsJson(), rev.metricsJson());
    EXPECT_EQ(fwd.statsJson(), rev.statsJson());
    EXPECT_EQ(fwd.triageReport(), rev.triageReport());
}

TEST(EventStream, FarmEqualsSequentialUnion)
{
    rtl::ModulePtr top = pingModule();

    run::FarmConfig fc;
    fc.workers = 2;
    fc.job.top = top;
    fc.job.seed = 21;
    fc.job.cycles = 200;
    fc.job.contracts = trace::inferContracts(rtl::Netlist(*top));
    fc.job.coverage = true;
    fc.job.activity_window = 16;
    obs::Merger farm;
    run::FarmResult fr = run::runFarm(fc, farm);
    ASSERT_EQ(fr.jobs.size(), 2u);
    EXPECT_FALSE(fr.anyFailed());
    EXPECT_EQ(fr.jobs[0].seed, 21u);
    EXPECT_EQ(fr.jobs[1].seed, 22u);

    // The same seeds run sequentially merge to identical artifacts
    // (wall-clock timers excluded — they are real time).
    auto nl = std::make_shared<const rtl::Netlist>(*top);
    obs::Merger seq;
    seq.addStreamText(jobAt(21, 0, nl, top).events, "a");
    seq.addStreamText(jobAt(22, 1, nl, top).events, "b");

    EXPECT_EQ(farm.coverage().report(), seq.coverage().report());
    EXPECT_EQ(farm.coverage().summaryJson(),
              seq.coverage().summaryJson());
    EXPECT_EQ(farm.metricsJson(false), seq.metricsJson(false));
    obs::Merger::Totals ft = farm.totals(), st = seq.totals();
    EXPECT_EQ(ft.cycles, st.cycles);
    EXPECT_EQ(ft.toggles, st.toggles);
    EXPECT_EQ(ft.failures, st.failures);
    EXPECT_EQ(ft.backend, "interp");
}

/** One counter of a metrics document (0 when absent). */
uint64_t
counterOf(const std::string &metrics, const std::string &key)
{
    json::ParseResult doc = json::parse(metrics);
    EXPECT_TRUE(doc.ok()) << doc.error;
    const json::Value *counters = doc.value.find("counters");
    const json::Value *v = counters ? counters->find(key) : nullptr;
    return v ? std::stoull(v->num) : 0;
}

TEST(EventStream, MergedSweepPeaksAreHighWaterMarks)
{
    rtl::ModulePtr top = pingModule();
    auto nl = std::make_shared<const rtl::Netlist>(*top);
    run::JobResult a = jobAt(31, 0, nl, top), b = jobAt(32, 1, nl, top);
    obs::Merger ma, mb, both;
    ma.addStreamText(a.events, "a");
    mb.addStreamText(b.events, "b");
    both.addStreamText(a.events, "a");
    both.addStreamText(b.events, "b");

    std::string sa = ma.metricsJson(false), sb = mb.metricsJson(false);
    std::string m = both.metricsJson(false);
    // A per-design constant and two high-water marks: max, not sum.
    EXPECT_EQ(counterOf(m, "sweep.strict_nodes"),
              counterOf(sa, "sweep.strict_nodes"));
    EXPECT_EQ(counterOf(sa, "sweep.strict_nodes"),
              counterOf(sb, "sweep.strict_nodes"));
    for (const char *k : {"sweep.peak_nodes", "sweep.peak_changed"})
        EXPECT_EQ(counterOf(m, k),
                  std::max(counterOf(sa, k), counterOf(sb, k)))
            << k;
    // Totals still sum.
    EXPECT_EQ(counterOf(m, "sweep.nodes_evaluated"),
              counterOf(sa, "sweep.nodes_evaluated") +
                  counterOf(sb, "sweep.nodes_evaluated"));

    rtl::SweepStats ss = both.sweepStats();
    EXPECT_EQ(ss.strict_nodes, counterOf(sa, "sweep.strict_nodes"));
    EXPECT_EQ(ss.cycles, 400u);
    EXPECT_EQ(ss.mode, rtl::SweepMode::Dirty);
}

TEST(EventStream, TelemetryOffJobKeepsAnEmptyFeed)
{
    rtl::ModulePtr top = pingModule();
    run::JobConfig jc;
    jc.top = top;
    jc.seed = 3;
    jc.cycles = 200;
    jc.telemetry = false;
    jc.activity_window = 0;
    run::JobResult jr = run::runJob(jc);
    ASSERT_TRUE(jr.ok) << jr.summary;
    EXPECT_EQ(jr.events.find("\"k\":\"obs."), std::string::npos)
        << jr.events;
    EXPECT_EQ(jr.events.find("\"e\":\"activity\""), std::string::npos);
    EXPECT_EQ(jr.events.find("\"k\":\"phase."), std::string::npos);

    // The same job with the default telemetry prices its phases.
    jc.telemetry = true;
    EXPECT_NE(run::runJob(jc).events.find("\"k\":\"phase."),
              std::string::npos);
}

TEST(Farm, ConfigurationErrorsLeaveRunFarm)
{
    rtl::ModulePtr top = pingModule();
    run::FarmConfig fc;
    fc.workers = 2;
    fc.job.top = top;
    fc.job.cycles = 20;

    run::FarmConfig bad_contract = fc;
    bad_contract.job.contracts = {trace::parseContractSpec("nosuch: stable")};
    run::FarmConfig bad_cover = fc;
    bad_cover.job.coverage = true;
    bad_cover.job.flight_pre = 8;
    bad_cover.job.flight_triggers = {"cover:nosuch"};
    std::ostringstream vcd;
    run::FarmConfig bad_slice = fc;
    bad_slice.workers = 1;
    bad_slice.job.vcd = &vcd;
    bad_slice.job.slice = "nosuch";
    run::FarmConfig shared_vcd = fc;   // two workers, one stream
    shared_vcd.job.vcd = &vcd;

    for (const run::FarmConfig *cfg :
         {&bad_contract, &bad_cover, &bad_slice, &shared_vcd}) {
        obs::Merger m;
        EXPECT_THROW(run::runFarm(*cfg, m), std::invalid_argument);
        EXPECT_EQ(m.streams(), 0u);
    }
}

TEST(Farm, PerWorkerDumpNamesOnlyWithSeveralWorkers)
{
    rtl::ModulePtr top = pingModule();
    std::string prefix = ::testing::TempDir() + "obs_stream_dump";
    run::FarmConfig fc;
    fc.job.top = top;
    fc.job.cycles = 60;
    fc.job.contracts = {
        trace::parseContractSpec("io_pong: ack within 1")};
    fc.job.flight_pre = 4;
    fc.job.flight_out = prefix;

    for (int workers : {1, 2}) {
        fc.workers = workers;
        obs::Merger m;
        run::FarmResult fr = run::runFarm(fc, m);
        ASSERT_TRUE(fr.anyFailed());   // the contract is too tight
        std::vector<obs::Merger::WindowDump> dumps = m.windowDumps();
        ASSERT_FALSE(dumps.empty());
        for (const obs::Merger::WindowDump &d : dumps) {
            std::string want =
                workers == 1
                    ? prefix + "-"
                    : prefix + ".w" + std::to_string(d.worker) + "-";
            EXPECT_EQ(d.path.rfind(want, 0), 0u) << d.path;
            std::remove(d.path.c_str());
        }
    }
}

// --- Shared-netlist Sim --------------------------------------------------

TEST(SharedNetlist, WorkersMatchAnOwnedSim)
{
    rtl::ModulePtr top = pingModule();
    auto nl = std::make_shared<const rtl::Netlist>(*top);

    tb::Testbench owned(top, 5);
    tb::Testbench shared_a(top, nl, 5);
    tb::Testbench shared_b(top, nl, 99);   // different seed, same nets
    for (const auto &in : owned.sim().inputNames()) {
        owned.driveRandom(in);
        shared_a.driveRandom(in);
        shared_b.driveRandom(in);
    }
    owned.run(150);
    shared_a.run(150);
    shared_b.run(150);

    // Same seed on a shared netlist is bit-identical to an owned run.
    EXPECT_EQ(owned.sim().totalToggles(),
              shared_a.sim().totalToggles());
    EXPECT_EQ(owned.sim().peek("io_pong_data").toHex(),
              shared_a.sim().peek("io_pong_data").toHex());
    // Workers do not bleed state into each other.
    EXPECT_EQ(shared_a.sim().sharedNetlist().get(), nl.get());
    EXPECT_EQ(shared_b.sim().sharedNetlist().get(), nl.get());
}

TEST(SharedNetlist, EvalTopRefusesToMutate)
{
    rtl::ModulePtr top = pingModule();
    auto nl = std::make_shared<const rtl::Netlist>(*top);
    rtl::Sim sim(top, nl);
    // Ad-hoc expressions would append nodes to the shared netlist.
    EXPECT_THROW(sim.evalTop(rtl::ref("bump", 8)),
                 std::logic_error);
    // An owned Sim hands out a shareable handle without one existing.
    rtl::Sim owner(top);
    EXPECT_TRUE(owner.sharedNetlist());
}

// --- Coverage merge operators --------------------------------------------

TEST(CoverageMerge, OperatorsAreUnions)
{
    tb::Coverage cov;
    cov.mergeSignal("s", 8, false, {0x0f}, {0x03});
    cov.mergeSignal("s", 8, false, {0xf0}, {0x0c});   // masks OR
    ASSERT_EQ(cov.signals().size(), 1u);
    EXPECT_EQ(cov.signals()[0].rose[0], 0xffull);
    EXPECT_EQ(cov.signals()[0].fell[0], 0x0full);
    EXPECT_EQ(cov.signals()[0].coveredBits(), 4);

    cov.mergeRegBins("r", 4, {1, 0, 2});
    cov.mergeRegBins("r", 4, {0, 5, 1});
    EXPECT_EQ(cov.regBins()[0].hits,
              (std::vector<uint64_t>{1, 5, 3}));

    cov.mergeCover("hit", 3);
    cov.mergeCover("hit", 4);
    EXPECT_EQ(cov.covers()[0].hits, 7u);

    uint64_t b1[4] = {1, 0, 0, 2}, b2[4] = {0, 3, 0, 1};
    cov.mergeCross("x", "hit", "hit", b1);
    cov.mergeCross("x", "hit", "hit", b2);
    EXPECT_EQ(cov.crosses()[0].bins[0], 1u);
    EXPECT_EQ(cov.crosses()[0].bins[1], 3u);
    EXPECT_EQ(cov.crosses()[0].bins[3], 3u);

    cov.mergeSamples(10);
    cov.mergeSamples(5);
    EXPECT_EQ(cov.samples(), 15u);
}

TEST(CoverageMerge, WidthMismatchRejectsForeignDesigns)
{
    tb::Coverage cov;
    cov.mergeSignal("s", 8, false, {0x1}, {0x1});
    EXPECT_THROW(cov.mergeSignal("s", 4, false, {0x1}, {0x1}),
                 std::invalid_argument);
}

TEST(CoverageMerge, AssertFailCyclesKeepEarliestUnderCap)
{
    tb::Coverage cov;
    std::vector<uint64_t> late, early;
    for (uint64_t i = 0; i < 16; i++)
        late.push_back(100 + i);
    for (uint64_t i = 0; i < 16; i++)
        early.push_back(i);
    cov.mergeAssert("a", 50, 16, late);
    cov.mergeAssert("a", 50, 16, early);
    ASSERT_EQ(cov.asserts().size(), 1u);
    EXPECT_EQ(cov.asserts()[0].checked, 100u);
    EXPECT_EQ(cov.asserts()[0].failures, 32u);
    // The merged retention keeps the earliest 16 in sorted order.
    EXPECT_EQ(cov.asserts()[0].fail_cycles, early);
}

// --- Triage over hand-authored streams -----------------------------------

std::string
miniStream(int worker, uint64_t seed,
           const std::vector<std::string> &violations)
{
    std::ostringstream os;
    os << "{\"e\":\"run_begin\",\"schema\":\"" << obs::kEventsSchema
       << "\",\"design\":\"d\",\"worker\":" << worker
       << ",\"seed\":" << seed
       << ",\"cycles\":10,\"sweep\":\"dirty\",\"threads\":1}\n";
    for (const std::string &v : violations)
        os << v << "\n";
    os << "{\"e\":\"run_end\",\"cycles\":10,\"toggles\":4,"
          "\"failures\":" << violations.size()
       << ",\"wall_ns\":100,\"backend\":\"interp\","
          "\"activity_pct\":50.00}\n";
    return os.str();
}

std::string
viol(uint64_t t, const std::string &ch, const std::string &rule)
{
    std::ostringstream os;
    os << "{\"e\":\"violation\",\"t\":" << t << ",\"channel\":\""
       << ch << "\",\"rule\":\"" << rule
       << "\",\"msg\":\"m\"}";
    return os.str();
}

TEST(Triage, FleetDedupeRanksBySignature)
{
    obs::Merger m;
    m.addStreamText(
        miniStream(0, 1,
                   {viol(5, "io_a", "stable"), viol(9, "io_a",
                                                    "stable"),
                    viol(2, "io_b", "hold")}),
        "w0");
    m.addStreamText(
        miniStream(1, 2,
                   {viol(3, "io_a", "stable"), viol(7, "io_b",
                                                    "hold")}),
        "w1");

    std::vector<obs::AssertionTriage::Entry> ranked = m.triage();
    ASSERT_EQ(ranked.size(), 2u);
    // (io_a, stable) fired 3x across the fleet; earliest at cycle 3.
    EXPECT_EQ(ranked[0].channel, "io_a");
    EXPECT_EQ(ranked[0].rule, "stable");
    EXPECT_EQ(ranked[0].count, 3u);
    EXPECT_EQ(ranked[0].first_cycle, 3u);
    EXPECT_EQ(ranked[1].channel, "io_b");
    EXPECT_EQ(ranked[1].count, 2u);
    EXPECT_EQ(ranked[1].first_cycle, 2u);

    std::string report = m.triageReport();
    EXPECT_NE(report.find("2 signature(s)"), std::string::npos);
    EXPECT_NE(report.find("io_a"), std::string::npos);

    // The recomputed triage counters match the dedupe, not the sum
    // of per-stream counters.
    json::ParseResult doc = json::parse(m.metricsJson(false));
    ASSERT_TRUE(doc.ok()) << doc.error;
    const json::Value *counters = doc.value.find("counters");
    ASSERT_TRUE(counters);
    EXPECT_EQ(counters->find("triage.signatures")->num, "2");
    EXPECT_EQ(counters->find("triage.violations")->num, "5");
}

TEST(Triage, EmptyFormatAndEmptyMerge)
{
    EXPECT_EQ(obs::AssertionTriage::format({}),
              "triage: no contract violations\n");
    obs::Merger m;
    m.addStreamText(miniStream(0, 1, {}), "w0");
    EXPECT_EQ(m.triageReport(),
              "triage: no contract violations\n");
}

// --- Flight-recorder window references -----------------------------------

std::string
dumpEv(uint64_t t, const std::string &trigger,
       const std::string &path, uint64_t from, uint64_t to)
{
    std::ostringstream os;
    os << "{\"e\":\"window_dump\",\"t\":" << t << ",\"trigger\":\""
       << trigger << "\",\"path\":\"" << path
       << "\",\"from\":" << from << ",\"to\":" << to << "}";
    return os.str();
}

TEST(WindowDumps, SinkRoundTripStampsWorkerAndSeed)
{
    std::ostringstream es;
    obs::EventSink sink(es);
    sink.runBegin("d", 3, 99, 10, rtl::SweepMode::Dirty);
    sink.windowDump(40, "VIOLATION", "flight.w3-0.vcd", 32, 52);
    sink.runEnd(10, 4, 1, 100, false, 50.0);

    // The sink stamps the schema tag into the header.
    EXPECT_NE(es.str().find(obs::kEventsSchema), std::string::npos);

    obs::Merger m;
    m.addStreamText(es.str(), "w3");
    std::vector<obs::Merger::WindowDump> dumps = m.windowDumps();
    ASSERT_EQ(dumps.size(), 1u);
    EXPECT_EQ(dumps[0].trigger, "VIOLATION");
    EXPECT_EQ(dumps[0].path, "flight.w3-0.vcd");
    EXPECT_EQ(dumps[0].trigger_cycle, 40u);
    EXPECT_EQ(dumps[0].from, 32u);
    EXPECT_EQ(dumps[0].to, 52u);
    // Annotated from the stream's run_begin, not the event itself.
    EXPECT_EQ(dumps[0].worker, 3);
    EXPECT_EQ(dumps[0].seed, 99u);
}

TEST(WindowDumps, DedupesByPathButNeverPathless)
{
    // Worker 1 (seed 2) is added first but worker 0 (seed 1) folds
    // earlier; the shared path keeps its first canonical occurrence
    // and the pathless references survive from both streams.
    obs::Merger m;
    m.addStreamText(
        miniStream(1, 2,
                   {dumpEv(80, "cover:hit", "shared.vcd", 72, 84),
                    dumpEv(90, "VIOLATION", "", 82, 94)}),
        "w1");
    m.addStreamText(
        miniStream(0, 1,
                   {dumpEv(40, "VIOLATION", "shared.vcd", 32, 44),
                    dumpEv(50, "VIOLATION", "", 42, 54)}),
        "w0");
    std::vector<obs::Merger::WindowDump> dumps = m.windowDumps();
    ASSERT_EQ(dumps.size(), 3u);
    EXPECT_EQ(dumps[0].path, "shared.vcd");
    EXPECT_EQ(dumps[0].trigger, "VIOLATION");
    EXPECT_EQ(dumps[0].worker, 0);
    EXPECT_EQ(dumps[0].seed, 1u);
    EXPECT_EQ(dumps[1].path, "");
    EXPECT_EQ(dumps[1].worker, 0);
    EXPECT_EQ(dumps[2].path, "");
    EXPECT_EQ(dumps[2].worker, 1);
    EXPECT_EQ(dumps[2].seed, 2u);
}

// --- Malformed streams ---------------------------------------------------

TEST(MergerErrors, RejectsMalformedStreams)
{
    obs::Merger m;
    // Must start with run_begin.
    EXPECT_THROW(m.addStreamText("{\"e\":\"run_end\"}\n", "x"),
                 std::runtime_error);
    auto header = [](const std::string &schema) {
        return "{\"e\":\"run_begin\",\"schema\":\"" + schema +
               "\",\"design\":\"d\",\"worker\":0,\"seed\":1,"
               "\"cycles\":1,\"sweep\":\"dirty\",\"threads\":1}\n";
    };
    // Unknown schema tags, including the retired v1 tag.
    for (const char *schema : {"anvil-events-v9", "anvil-events-v1"}) {
        EXPECT_THROW(m.addStreamText(header(schema), "x"),
                     std::runtime_error)
            << schema;
    }
    // Truncated stream: no run_end.
    EXPECT_THROW(m.addStreamText(header(obs::kEventsSchema), "x"),
                 std::runtime_error);
    // Streams from different designs do not merge.
    m.addStreamText(miniStream(0, 1, {}), "w0");
    std::string other = miniStream(1, 2, {});
    const std::string tag = "\"design\":\"d\"";
    size_t at = other.find(tag);
    ASSERT_NE(at, std::string::npos);
    other.replace(at, tag.size(), "\"design\":\"e\"");
    EXPECT_THROW(m.addStreamText(other, "w1"), std::runtime_error);
}

} // namespace
