/**
 * @file
 * VCD writer and WaveRecorder tests: a golden-file check of the
 * quickstart design's dump (regenerate with ANVIL_REGEN_GOLDEN=1), a
 * round-trip parse of the emitted header against the interned signal
 * table, a differential check that VCD value changes reconstruct
 * exactly the samples WaveRecorder records, and change-only dumping.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "anvil/compiler.h"
#include "designs/designs.h"
#include "harness.h"
#include "rtl/vcd.h"
#include "rtl/wave.h"

using namespace anvil;
using namespace anvil::rtl;

namespace {

#ifndef ANVIL_TEST_DIR
#define ANVIL_TEST_DIR "tests"
#endif

const char *kQuickstartSource = R"(
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

/** A parsed $var declaration. */
struct VcdVar
{
    std::string full_name;   // dotted path below the root scope
    int width = 1;
    bool is_reg = false;
};

/** One parsed value change. */
struct VcdEvent
{
    uint64_t time = 0;
    std::string id;
    BitVec value{1};
};

/** Minimal reader for the VCD subset the writer emits. */
struct ParsedVcd
{
    std::map<std::string, VcdVar> vars;   // id-code -> var
    std::vector<VcdEvent> events;
    bool ok = false;
};

ParsedVcd
parseVcd(const std::string &text)
{
    ParsedVcd out;
    std::istringstream is(text);
    std::string line;
    std::vector<std::string> scopes;
    uint64_t now = 0;
    bool in_defs = true;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string tok;
        ls >> tok;
        if (in_defs) {
            if (tok == "$scope") {
                std::string kind, name;
                ls >> kind >> name;
                scopes.push_back(name);
            } else if (tok == "$upscope") {
                if (scopes.empty())
                    return out;
                scopes.pop_back();
            } else if (tok == "$var") {
                std::string type, id, name;
                int width;
                ls >> type >> width >> id >> name;
                std::string full;
                // Drop the root scope (the top module's name).
                for (size_t i = 1; i < scopes.size(); i++)
                    full += scopes[i] + ".";
                full += name;
                out.vars[id] = {full, width, type == "reg"};
            } else if (tok == "$enddefinitions") {
                in_defs = false;
            }
            continue;
        }
        if (tok[0] == '#') {
            now = std::stoull(tok.substr(1));
        } else if (tok == "$dumpvars" || tok == "$end") {
            continue;
        } else if (tok[0] == 'b') {
            std::string id;
            ls >> id;
            if (!out.vars.count(id))
                return out;
            std::string bits = tok.substr(1);
            int w = out.vars[id].width;
            // Re-pad the leading zeros the writer trimmed.
            while (static_cast<int>(bits.size()) < w)
                bits.insert(bits.begin(), '0');
            out.events.push_back(
                {now, id, BitVec::fromBinary(bits)});
        } else {
            // Scalar: value char immediately followed by the id.
            std::string id = tok.substr(1);
            if (!out.vars.count(id))
                return out;
            out.events.push_back(
                {now, id, BitVec(1, tok[0] == '1' ? 1 : 0)});
        }
    }
    out.ok = !in_defs && scopes.empty();
    return out;
}

/** Deterministic quickstart stimulus shared by golden and replay. */
std::string
dumpQuickstart()
{
    auto mod = anvil::testing::compileDesign(kQuickstartSource,
                                             "ping_server");
    if (!mod)
        return "";
    Sim sim(mod);
    std::ostringstream os;
    VcdWriter vcd(sim, os);
    for (int i = 0; i < 24; i++) {
        sim.setInput("io_ping_data", 10 + i * 7);
        sim.setInput("io_ping_valid", i % 4 < 2 ? 1 : 0);
        sim.setInput("io_pong_ack", i % 3 != 0 ? 1 : 0);
        vcd.sample();
        sim.step();
    }
    return os.str();
}

TEST(TbVcd, QuickstartDumpMatchesGolden)
{
    std::string got = dumpQuickstart();
    ASSERT_FALSE(got.empty());

    std::string path =
        std::string(ANVIL_TEST_DIR) + "/golden/quickstart.vcd";
    if (std::getenv("ANVIL_REGEN_GOLDEN")) {
        std::ofstream os(path);
        ASSERT_TRUE(os.good()) << path;
        os << got;
        return;
    }
    std::ifstream is(path);
    ASSERT_TRUE(is.good())
        << "missing golden " << path
        << " (run with ANVIL_REGEN_GOLDEN=1 to create)";
    std::ostringstream want;
    want << is.rdbuf();
    EXPECT_EQ(got, want.str());
}

TEST(TbVcd, HeaderRoundTripsTheInternedSignalTable)
{
    auto mod = designs::buildTlbBaseline();
    Sim sim(mod);
    std::ostringstream os;
    VcdWriter vcd(sim, os);
    vcd.sample();

    ParsedVcd parsed = parseVcd(os.str());
    ASSERT_TRUE(parsed.ok);

    const auto &signals = sim.netlist().signals();
    ASSERT_EQ(parsed.vars.size(), signals.size());
    std::map<std::string, const VcdVar *> by_name;
    for (const auto &[id, var] : parsed.vars) {
        EXPECT_TRUE(by_name.emplace(var.full_name, &var).second)
            << "duplicate var " << var.full_name;
    }
    for (const auto &[name, sig] : signals) {
        auto it = by_name.find(name);
        ASSERT_NE(it, by_name.end()) << name;
        EXPECT_EQ(it->second->width, sig.width) << name;
        EXPECT_EQ(it->second->is_reg,
                  sig.kind == NetSignal::Kind::Reg)
            << name;
    }

    // The checkpoint initializes every declared var.
    std::set<std::string> dumped;
    for (const auto &e : parsed.events)
        if (e.time == 0)
            dumped.insert(e.id);
    EXPECT_EQ(dumped.size(), parsed.vars.size());
}

TEST(TbVcd, ChangeOnlyDumping)
{
    // Constant inputs on a purely combinational design: after the
    // initial checkpoint no further lines are emitted at all.
    auto m = std::make_shared<Module>();
    m->name = "comb";
    auto a = m->input("a", 8);
    m->wire("b", a + cst(8, 1));
    Sim sim(m);
    sim.setInput("a", 3);
    std::ostringstream os;
    VcdWriter vcd(sim, os);
    vcd.sample();
    size_t after_first = os.str().size();
    uint64_t changes_first = vcd.changesWritten();
    EXPECT_EQ(changes_first, 2u);   // a and b
    for (int i = 0; i < 5; i++) {
        sim.step();
        vcd.sample();
    }
    EXPECT_EQ(os.str().size(), after_first);
    EXPECT_EQ(vcd.changesWritten(), changes_first);

    // A change dumps exactly the changed nets, under one timestamp.
    sim.setInput("a", 4);
    vcd.sample();
    EXPECT_EQ(vcd.changesWritten(), changes_first + 2);
    std::string tail = os.str().substr(after_first);
    EXPECT_EQ(tail.find('#'), 0u);
}

TEST(TbVcd, ValueChangesMatchWaveRecorderSamples)
{
    auto mod = designs::buildFifoBaseline();
    Sim sim(mod);
    std::vector<std::string> sigs = {"wptr", "rptr",
                                     "outp_deq_valid",
                                     "outp_deq_data"};
    WaveRecorder wave(sim, sigs);
    std::ostringstream os;
    VcdWriter vcd(sim, os, sigs);

    // Each cycle's peek is the truth both observers are held to, so a
    // frame-filter fault the two share cannot cancel out.
    const int cycles = 60;
    std::map<std::string, std::vector<BitVec>> peeked;
    for (int i = 0; i < cycles; i++) {
        sim.setInput("inp_enq_data", i * 2654435761u);
        sim.setInput("inp_enq_valid", i % 3 != 2 ? 1 : 0);
        sim.setInput("outp_deq_ack", i % 5 < 3 ? 1 : 0);
        wave.sample();
        vcd.sample();
        for (const auto &sig : sigs)
            peeked[sig].push_back(sim.peek(sig));
        sim.step();
    }

    ParsedVcd parsed = parseVcd(os.str());
    ASSERT_TRUE(parsed.ok);
    ASSERT_EQ(parsed.vars.size(), sigs.size());

    // Reconstruct each signal's per-cycle value from the dump and
    // compare against the recorder's samples.
    std::map<std::string, std::string> id_of;   // name -> id
    for (const auto &[id, var] : parsed.vars)
        id_of[var.full_name] = id;
    for (const auto &sig : sigs) {
        ASSERT_TRUE(id_of.count(sig)) << sig;
        const std::string &id = id_of[sig];
        const auto &samples = wave.samplesOf(sig);
        ASSERT_EQ(samples.size(), static_cast<size_t>(cycles));

        BitVec cur(parsed.vars[id].width);
        size_t ev = 0;
        for (int c = 0; c < cycles; c++) {
            while (ev < parsed.events.size() &&
                   parsed.events[ev].time <=
                       static_cast<uint64_t>(c)) {
                if (parsed.events[ev].id == id)
                    cur = parsed.events[ev].value;
                ev++;
            }
            EXPECT_EQ(cur.toHex(), samples[c].toHex())
                << sig << " @" << c;
            EXPECT_EQ(samples[c].toHex(), peeked[sig][c].toHex())
                << sig << " @" << c;
        }
    }
}

} // namespace
