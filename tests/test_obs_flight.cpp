/**
 * @file
 * Flight-recorder ring-buffer edge cases: a trigger before the ring
 * fills clips the window at the first captured cycle, a trigger on
 * the final cycle is flushed by onFinish, distinct triggers produce
 * distinct dumps, wrap-around keeps exactly the configured context,
 * and the reconstructed windows are byte-identical across sweep
 * modes (and the compiled backend) and byte-compatible with a
 * VcdWriter covering the same cycles.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "codegen/jit.h"
#include "harness.h"
#include "obs/flight.h"
#include "obs/observer.h"
#include "rtl/interp.h"
#include "rtl/vcd.h"
#include "trace/vcd_reader.h"

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

/** Deterministic stimulus shared by every run in this file. */
void
drive(rtl::Sim &sim, uint64_t cyc)
{
    sim.setInput("io_ping_data", 10 + cyc * 7);
    sim.setInput("io_ping_valid", cyc % 4 < 2 ? 1 : 0);
    sim.setInput("io_pong_ack", cyc % 3 != 0 ? 1 : 0);
}

/**
 * Bumps a counter on chosen cycles.  Attached before the recorder,
 * so the recorder's same-cycle trigger poll observes the bump —
 * exactly the ordering a ContractMonitor's violation count gets.
 */
class CycleTrigger : public obs::Observer
{
  public:
    explicit CycleTrigger(std::vector<uint64_t> at)
        : _at(std::move(at))
    {
    }

    uint64_t count() const { return _count; }

    void onAttach(obs::ChangeFeed &) override {}
    void onPrime(rtl::Sim &, uint64_t) override {}
    void onCycle(rtl::Sim &, uint64_t cycle,
                 const std::vector<rtl::NetId> &) override
    {
        for (uint64_t c : _at)
            if (c == cycle)
                _count++;
    }
    const char *observerName() const override { return "trig"; }

  private:
    std::vector<uint64_t> _at;
    uint64_t _count = 0;
};

struct FlightRun
{
    std::vector<obs::FlightRecorder::DumpInfo> dumps;
    std::vector<std::string> vcds;   // dump text, flush order
};

FlightRun
runFlight(rtl::SweepMode mode, uint64_t cycles,
          const std::vector<uint64_t> &trigger_cycles,
          obs::FlightRecorder::Options fo, bool compiled = false)
{
    rtl::Sim sim(pingModule());
    sim.setSweepMode(mode);
    if (compiled) {
        codegen::JitOptions jo;
        jo.opt_level = 1;
        codegen::JitResult jr =
            codegen::jitCompileKernel(sim.netlist(), jo);
        EXPECT_NE(jr.kernel, nullptr) << jr.error;
        EXPECT_TRUE(sim.attachKernel(codegen::kernelRef(jr.kernel)));
    }

    obs::ChangeFeed feed(sim);
    CycleTrigger trig(trigger_cycles);
    feed.attach(trig);

    obs::FlightRecorder rec(sim, fo);
    rec.addTrigger("manual", [&trig]() { return trig.count(); });
    FlightRun out;
    rec.setDumpSink(
        [&out](const obs::FlightRecorder::DumpInfo &d,
               const std::string &vcd) {
            out.vcds.push_back(vcd);
            return "dump-" + std::to_string(d.index);
        });
    feed.attach(rec);

    for (uint64_t c = 0; c < cycles; c++) {
        drive(sim, c);
        feed.sample();
        sim.step();
    }
    feed.finish();
    out.dumps = rec.dumps();
    return out;
}

/** Full-run VcdWriter dump under the same stimulus. */
std::string
fullVcd(uint64_t cycles)
{
    rtl::Sim sim(pingModule());
    std::ostringstream os;
    rtl::VcdWriter vcd(sim, os);
    obs::ChangeFeed feed(sim);
    feed.attach(vcd);
    for (uint64_t c = 0; c < cycles; c++) {
        drive(sim, c);
        feed.sample();
        sim.step();
    }
    feed.finish();
    return os.str();
}

obs::FlightRecorder::Options
opts(uint64_t pre, uint64_t post)
{
    obs::FlightRecorder::Options fo;
    fo.pre = pre;
    fo.post = post;
    return fo;
}

TEST(FlightRecorder, TriggerBeforeRingFillsClipsAtCycleZero)
{
    // pre = 50 but the trigger lands at cycle 5: only cycles 0..5
    // exist, so the window starts at 0 — and a window that starts at
    // cycle 0 is byte-identical to a from-reset VcdWriter dump
    // truncated at the window's end.
    FlightRun fr = runFlight(rtl::SweepMode::Dirty, 40, {5},
                             opts(50, 3));
    ASSERT_EQ(fr.dumps.size(), 1u);
    EXPECT_EQ(fr.dumps[0].trigger, "manual");
    EXPECT_EQ(fr.dumps[0].trigger_cycle, 5u);
    EXPECT_EQ(fr.dumps[0].from, 0u);
    EXPECT_EQ(fr.dumps[0].to, 8u);
    EXPECT_EQ(fr.dumps[0].path, "dump-0");

    std::string full = fullVcd(40);
    size_t cut = full.find("\n#9\n");
    ASSERT_NE(cut, std::string::npos);
    EXPECT_EQ(fr.vcds[0], full.substr(0, cut + 1));
}

TEST(FlightRecorder, FinalCycleTriggerFlushesOnFinish)
{
    // The trigger fires on the very last cycle; the post-window never
    // completes, so onFinish must flush what exists.
    FlightRun fr = runFlight(rtl::SweepMode::Dirty, 60, {59},
                             opts(8, 16));
    ASSERT_EQ(fr.dumps.size(), 1u);
    EXPECT_EQ(fr.dumps[0].trigger_cycle, 59u);
    EXPECT_EQ(fr.dumps[0].from, 51u);
    EXPECT_EQ(fr.dumps[0].to, 59u);
    EXPECT_NE(fr.vcds[0].find("$dumpvars"), std::string::npos);
}

TEST(FlightRecorder, DistinctTriggersProduceDistinctDumps)
{
    FlightRun fr = runFlight(rtl::SweepMode::Dirty, 120, {30, 80},
                             opts(8, 4));
    ASSERT_EQ(fr.dumps.size(), 2u);
    EXPECT_EQ(fr.dumps[0].index, 0);
    EXPECT_EQ(fr.dumps[1].index, 1);
    EXPECT_EQ(fr.dumps[0].from, 22u);
    EXPECT_EQ(fr.dumps[0].to, 34u);
    EXPECT_EQ(fr.dumps[1].from, 72u);
    EXPECT_EQ(fr.dumps[1].to, 84u);
    EXPECT_EQ(fr.dumps[0].path, "dump-0");
    EXPECT_EQ(fr.dumps[1].path, "dump-1");
    EXPECT_NE(fr.vcds[0], fr.vcds[1]);
}

TEST(FlightRecorder, CoalescedTriggersExtendOneWindow)
{
    // Two triggers three cycles apart with post = 8: the second lands
    // inside the open window and extends it instead of opening a
    // second dump.
    FlightRun fr = runFlight(rtl::SweepMode::Dirty, 80, {40, 43},
                             opts(8, 8));
    ASSERT_EQ(fr.dumps.size(), 1u);
    EXPECT_EQ(fr.dumps[0].trigger_cycle, 40u);
    EXPECT_EQ(fr.dumps[0].from, 32u);
    EXPECT_EQ(fr.dumps[0].to, 51u);
}

TEST(FlightRecorder, WrapAroundKeepsExactlyTheConfiguredContext)
{
    // A late trigger after hundreds of evictions: the window is
    // exactly [trigger - pre, trigger + post], and its content
    // matches the values a full-run recording holds on those cycles
    // (the base snapshot absorbed every evicted record correctly).
    FlightRun fr = runFlight(rtl::SweepMode::Dirty, 400, {350},
                             opts(8, 4));
    ASSERT_EQ(fr.dumps.size(), 1u);
    EXPECT_EQ(fr.dumps[0].from, 342u);
    EXPECT_EQ(fr.dumps[0].to, 354u);

    std::istringstream window_is(fr.vcds[0]);
    trace::Trace window = trace::VcdReader::read(window_is);
    std::istringstream full_is(fullVcd(400));
    trace::Trace full = trace::VcdReader::read(full_is);
    ASSERT_EQ(window.signals().size(), full.signals().size());
    for (size_t s = 0; s < window.signals().size(); s++) {
        const trace::TraceSignal &ws = window.signals()[s];
        const trace::TraceSignal &fs = full.signals()[s];
        EXPECT_EQ(ws.name, fs.name);
        for (uint64_t t = 342; t <= 354; t++) {
            const BitVec *wv = ws.valueAt(t);
            const BitVec *fv = fs.valueAt(t);
            ASSERT_NE(wv, nullptr) << ws.name << " @" << t;
            ASSERT_NE(fv, nullptr) << fs.name << " @" << t;
            EXPECT_EQ(wv->toHex(), fv->toHex())
                << ws.name << " @" << t;
        }
    }
}

TEST(FlightRecorder, DumpsAreByteStableAcrossSweepModes)
{
    FlightRun dirty = runFlight(rtl::SweepMode::Dirty, 200, {150},
                                opts(16, 4));
    FlightRun full = runFlight(rtl::SweepMode::Full, 200, {150},
                               opts(16, 4));
    ASSERT_EQ(dirty.vcds.size(), 1u);
    ASSERT_EQ(full.vcds.size(), 1u);
    EXPECT_EQ(dirty.vcds[0], full.vcds[0]);

    if (!codegen::jitCompilerPath().empty()) {
        FlightRun jit = runFlight(rtl::SweepMode::Dirty, 200,
                                  {150}, opts(16, 4),
                                  /*compiled=*/true);
        ASSERT_EQ(jit.vcds.size(), 1u);
        EXPECT_EQ(dirty.vcds[0], jit.vcds[0]);
    }
}

} // namespace
