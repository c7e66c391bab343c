/**
 * @file
 * Event-graph and ordering-relation tests (Defs. C.9-C.11): gap
 * bounds on hand-built graphs, pattern comparisons, branch contexts,
 * a randomized soundness property — whenever the analysis claims
 * a <=_G b, every sampled timestamp function satisfies
 * tau(a) <= tau(b) — and agreement with the recursive reference
 * implementation (ordering_ref.h) on every design's thread graphs and
 * on seeded random graphs, before and after optimization.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "designs/designs.h"
#include "ir/elaborate.h"
#include "ir/optimize.h"
#include "ir/ordering.h"
#include "lang/parser.h"
#include "ordering_ref.h"
#include "sem/loggen.h"

using namespace anvil;

namespace {

TEST(Ordering, FixedDelaysAreExact)
{
    EventGraph g;
    EventId root = g.addRoot();
    EventId a = g.addDelay(root, 2);
    EventId b = g.addDelay(a, 3);
    Ordering ord(g);
    EXPECT_EQ(ord.gapLb(b, root), 5);
    EXPECT_EQ(ord.gapUb(b, root), 5);
    EXPECT_EQ(ord.gapLb(root, b), -5);
    EXPECT_TRUE(ord.le(root, b));
    EXPECT_TRUE(ord.lt(root, b));
    EXPECT_FALSE(ord.le(b, root));
}

TEST(Ordering, DynamicSyncIsUnbounded)
{
    EventGraph g;
    EventId root = g.addRoot();
    EventId s = g.addSend(root, "ep", "m");
    Ordering ord(g);
    EXPECT_EQ(ord.gapLb(s, root), 0);
    EXPECT_GE(ord.gapUb(s, root), kGapInf);
    EXPECT_TRUE(ord.le(root, s));
    EXPECT_FALSE(ord.lt(root, s));
}

TEST(Ordering, BoundedSyncUsesMaxSync)
{
    EventGraph g;
    EventId root = g.addRoot();
    EventId s = g.addSend(root, "ep", "m");
    g.node(s).max_sync = 0;
    Ordering ord(g);
    EXPECT_EQ(ord.gapUb(s, root), 0);
}

TEST(Ordering, JoinTakesTheMax)
{
    EventGraph g;
    EventId root = g.addRoot();
    EventId a = g.addDelay(root, 1);
    EventId b = g.addDelay(root, 4);
    EventId j = g.addJoin({a, b});
    Ordering ord(g);
    EXPECT_EQ(ord.gapLb(j, root), 4);
    EXPECT_EQ(ord.gapUb(j, root), 4);
    // The join is no earlier than either input.
    EXPECT_TRUE(ord.le(a, j));
    EXPECT_TRUE(ord.le(b, j));
}

TEST(Ordering, JoinWithUnboundedInput)
{
    EventGraph g;
    EventId root = g.addRoot();
    EventId a = g.addDelay(root, 1);
    EventId s = g.addRecv(root, "ep", "m");
    EventId j = g.addJoin({a, s});
    Ordering ord(g);
    EXPECT_EQ(ord.gapLb(j, root), 1);
    EXPECT_GE(ord.gapUb(j, root), kGapInf);
    // Worst-case reasoning (paper §5.4): even if the sync takes zero
    // cycles, the join still happens at least one cycle after root.
    EXPECT_TRUE(ord.lt(root, j));
}

TEST(Ordering, MergeTakesWhicheverArmRan)
{
    EventGraph g;
    EventId root = g.addRoot();
    int c = g.freshCond();
    EventId bt = g.addBranch(root, c, true);
    EventId bf = g.addBranch(root, c, false);
    EventId slow = g.addDelay(bt, 5);
    EventId fast = g.addDelay(bf, 1);
    EventId m = g.addMerge(slow, fast, root);
    Ordering ord(g);
    EXPECT_EQ(ord.gapLb(m, root), 1);
    EXPECT_EQ(ord.gapUb(m, root), 5);
    // From inside the slow arm, the merge is exactly its end.
    EXPECT_EQ(ord.gapLb(m, slow), 0);
    EXPECT_EQ(ord.gapUb(m, slow), 0);
}

TEST(Ordering, BranchContextsDetectExclusivity)
{
    EventGraph g;
    EventId root = g.addRoot();
    int c = g.freshCond();
    EventId bt = g.addBranch(root, c, true);
    EventId bf = g.addBranch(root, c, false);
    EventId in_t = g.addDelay(bt, 1);
    EventId in_f = g.addDelay(bf, 1);
    Ordering ord(g);
    EXPECT_FALSE(ord.compatible(in_t, in_f));
    EXPECT_TRUE(ord.compatible(in_t, root));
    EXPECT_TRUE(ord.compatible(in_t, bt));
}

TEST(Ordering, JoinUnionsBranchContexts)
{
    EventGraph g;
    EventId root = g.addRoot();
    int c = g.freshCond();
    EventId bt = g.addBranch(root, c, true);
    EventId bf = g.addBranch(root, c, false);
    EventId other = g.addDelay(root, 1);
    EventId j = g.addJoin({bt, other});
    Ordering ord(g);
    // The join inherits the branch fact: incompatible with the other
    // arm.
    EXPECT_FALSE(ord.compatible(j, bf));
}

TEST(Ordering, SameMessageSyncsAreSeparated)
{
    EventGraph g;
    EventId root = g.addRoot();
    EventId s1 = g.addRecv(root, "ep", "m");
    EventId s2 = g.addRecv(s1, "ep", "m");
    Ordering ord(g);
    // Two handshakes of the same message cannot complete in the same
    // cycle.
    EXPECT_GE(ord.gapLb(s2, s1), 1);
    EXPECT_TRUE(ord.lt(s1, s2));
}

TEST(Ordering, PatternFixedComparisons)
{
    EventGraph g;
    EventId root = g.addRoot();
    EventId a = g.addDelay(root, 2);
    Ordering ord(g);
    EXPECT_TRUE(ord.patLe(EventPattern::fixed(root, 1),
                          EventPattern::fixed(a, 0)));
    EXPECT_TRUE(ord.patLe(EventPattern::fixed(a, 0),
                          EventPattern::fixed(root, 2)));
    EXPECT_FALSE(ord.patLe(EventPattern::fixed(a, 1),
                           EventPattern::fixed(root, 2)));
}

TEST(Ordering, MessagePatternMonotone)
{
    EventGraph g;
    EventId root = g.addRoot();
    EventId a = g.addDelay(root, 1);
    g.addRecv(a, "ep", "m");
    Ordering ord(g);
    // first m after root <= first m after a (monotone in the base).
    EXPECT_TRUE(ord.patLe(EventPattern::message(root, "ep", "m"),
                          EventPattern::message(a, "ep", "m")));
}

TEST(Ordering, MessagePatternBoundedByOccurrence)
{
    EventGraph g;
    EventId root = g.addRoot();
    EventId use = g.addDelay(root, 1);
    EventId s = g.addRecv(use, "ep", "m");
    EventId later = g.addDelay(s, 2);
    Ordering ord(g);
    // The first m after root is at most the concrete occurrence s,
    // which is at most `later` - 2.
    EXPECT_TRUE(ord.patLe(EventPattern::message(root, "ep", "m"),
                          EventPattern::fixed(later, 0)));
}

// ---------------------------------------------------------------------
// Soundness property: claimed orderings hold on sampled timestamp
// functions (using the thread graphs of real designs).
// ---------------------------------------------------------------------

class OrderingSoundness : public ::testing::TestWithParam<const char *>
{
};

TEST_P(OrderingSoundness, GapBoundsHoldOnSampledSchedules)
{
    DiagEngine d;
    Program prog = parseAnvil(GetParam(), d);
    ASSERT_FALSE(d.hasErrors()) << d.render();
    for (const auto &[name, proc] : prog.procs) {
        ProcIR pir = elaborateProc(prog, proc, d, 2);
        for (const auto &tir : pir.threads) {
            Ordering ord(tir->graph);
            auto events = tir->graph.liveEvents();
            // Subsample event pairs for speed.
            for (int s = 0; s < 20; s++) {
                sem::ScheduleSample sched =
                    sem::sampleSchedule(*tir, 1000 + s, 5);
                for (size_t i = 0; i < events.size(); i += 3) {
                    for (size_t j = 0; j < events.size(); j += 3) {
                        EventId a = events[i], b = events[j];
                        sem::Time ta = sched.at(a);
                        sem::Time tb = sched.at(b);
                        if (ta < 0 || tb < 0)
                            continue;  // unreached in this run
                        Gap lb = ord.gapLb(b, a);
                        Gap ub = ord.gapUb(b, a);
                        EXPECT_LE(lb, tb - ta)
                            << "e" << a << " -> e" << b << " seed "
                            << s;
                        EXPECT_GE(ub, tb - ta)
                            << "e" << a << " -> e" << b << " seed "
                            << s;
                    }
                }
            }
        }
    }
}

const char *kSimpleLoop = R"(
proc p() { reg r : logic[8];
    loop { set r := *r + 1 >> cycle 2 }
}
)";

const char *kBranchy = R"(
chan c { left a : (logic[8]@#1), right b : (logic[8]@#2) }
proc p(ep : left c) {
    reg r : logic[8];
    loop {
        let v = recv ep.a >>
        if v == 0 { set r := v >> cycle 3 } else { cycle 1 } >>
        send ep.b (*r) >>
        cycle 1
    }
}
)";

const char *kParallel = R"(
chan c { left a : (logic[8]@#1), left b : (logic[8]@#1) }
proc p(ep : left c) {
    reg r : logic[8];
    loop {
        { let x = recv ep.a >> set r := x };
        { let y = recv ep.b >> cycle 2 };
        cycle 1
    }
}
)";

INSTANTIATE_TEST_SUITE_P(Programs, OrderingSoundness,
                         ::testing::Values(kSimpleLoop, kBranchy,
                                           kParallel));

// ---------------------------------------------------------------------
// Agreement with the recursive reference: every query Ordering answers
// must equal RefOrdering's.
// ---------------------------------------------------------------------

/** Counts disagreements, reporting the first few of them. */
struct Disagreements
{
    std::string where;
    size_t count = 0;

    /** @p query names the query; it is only called on a mismatch. */
    template <typename T, typename Name>
    void check(const T &got, const T &want, Name query)
    {
        if (got != want && count++ < 5)
            ADD_FAILURE() << where << ": " << query() << " = " << got
                          << ", reference " << want;
    }
};

/**
 * Compares gapLb, gapUb, compatible and reaches on every @p stride-th
 * pair of live events in row-major order (stride 1: every pair).
 */
void
expectPairsAgree(const EventGraph &g, size_t stride,
                 const std::string &where)
{
    Ordering ord(g);
    RefOrdering ref(g);
    Disagreements bad{where};
    auto events = g.liveEvents();
    size_t n = events.size();
    for (size_t k = 0; k < n * n; k += stride) {
        EventId a = events[k / n], b = events[k % n];
        auto named = [&](const char *query) {
            return [=] {
                return std::string(query) + "(e" + std::to_string(b) +
                       ", e" + std::to_string(a) + ")";
            };
        };
        bad.check(ord.gapLb(b, a), ref.gapLb(b, a), named("gapLb"));
        bad.check(ord.gapUb(b, a), ref.gapUb(b, a), named("gapUb"));
        bad.check(ord.compatible(a, b), ref.compatible(a, b),
                  named("compatible"));
        bad.check(ord.reaches(b, a), ref.reaches(b, a), named("reaches"));
    }
    EXPECT_EQ(bad.count, 0u) << where;
}

/**
 * Compares patGapLb between fixed and message patterns based at every
 * pair of live events, for each message the graph synchronizes on.
 */
void
expectPatternsAgree(const EventGraph &g,
                    const std::vector<std::string> &msgs,
                    const std::string &where)
{
    Ordering ord(g);
    RefOrdering ref(g);
    Disagreements bad{where};
    auto events = g.liveEvents();
    for (EventId a : events) {
        std::vector<EventPattern> pas = {EventPattern::fixed(a, 1)};
        for (const auto &m : msgs)
            pas.push_back(EventPattern::message(a, "ep", m, 1));
        for (EventId b : events) {
            std::vector<EventPattern> pbs = {EventPattern::fixed(b, 0)};
            for (const auto &m : msgs)
                pbs.push_back(EventPattern::message(b, "ep", m));
            for (const auto &pa : pas)
                for (const auto &pb : pbs)
                    bad.check(ord.patGapLb(pb, pa), ref.patGapLb(pb, pa),
                              [&] {
                                  return "patGapLb(" + pb.str() + ", " +
                                         pa.str() + ")";
                              });
        }
    }
    EXPECT_EQ(bad.count, 0u) << where;
}

struct DesignSource
{
    const char *name;
    std::string (*text)();
    size_t stride;  ///< pair stride (1: every pair)
};

void
PrintTo(const DesignSource &d, std::ostream *os)
{
    *os << d.name;
}

class OrderingMatchesReference
    : public ::testing::TestWithParam<DesignSource>
{
};

TEST_P(OrderingMatchesReference, OnEveryThreadGraph)
{
    const DesignSource &design = GetParam();
    DiagEngine d;
    Program prog = parseAnvil(design.text(), d);
    ASSERT_FALSE(d.hasErrors()) << d.render();
    for (const auto &[name, proc] : prog.procs) {
        for (int iterations : {1, 2}) {
            ProcIR pir = elaborateProc(prog, proc, d, iterations);
            for (size_t t = 0; t < pir.threads.size(); t++) {
                EventGraph &g = pir.threads[t]->graph;
                std::string where = name + " thread " +
                                    std::to_string(t) + " x" +
                                    std::to_string(iterations);
                expectPairsAgree(g, design.stride, where);
                optimizeEventGraph(g);
                expectPairsAgree(g, design.stride, where + " optimized");
            }
        }
    }
}

// On aes and axi_mux (741 and 1,542 events per iteration) a handful of
// queries already makes the reference memoize nearly every (event,
// anchor) pair, so they sample a fixed prime stride of pairs.
INSTANTIATE_TEST_SUITE_P(
    Designs, OrderingMatchesReference,
    ::testing::Values(
        DesignSource{"fifo", designs::anvilFifoSource, 1},
        DesignSource{"spill_reg", designs::anvilSpillRegSource, 1},
        DesignSource{"stream_fifo", designs::anvilStreamFifoSource, 1},
        DesignSource{"tlb", designs::anvilTlbSource, 1},
        DesignSource{"ptw", designs::anvilPtwSource, 1},
        DesignSource{"aes", designs::anvilAesSource, 4999},
        DesignSource{"axi_demux", designs::anvilAxiDemuxSource, 1},
        DesignSource{"axi_mux", designs::anvilAxiMuxSource, 4999},
        DesignSource{"alu", designs::anvilPipelinedAluSource, 1},
        DesignSource{"systolic", designs::anvilSystolicSource, 1},
        DesignSource{"top_unsafe", designs::anvilTopUnsafeSource, 1},
        DesignSource{"top_safe", designs::anvilTopSafeSource, 1},
        DesignSource{"encrypt", designs::anvilEncryptSource, 1},
        DesignSource{"listing1", designs::anvilListing1Source, 1},
        DesignSource{"listing2", designs::anvilListing2Source, 1}),
    [](const auto &info) { return std::string(info.param.name); });

/**
 * Seeded random event graphs in the shape elaboration produces:
 * sequences of delays and bounded or unbounded syncs, parallel
 * compositions joined at the end (sometimes with a predecessor that
 * precedes the other), and nested branch/merge pairs whose arms may
 * be empty.
 */
class RandomGraph
{
  public:
    static constexpr const char *kMsgs[] = {"m", "n"};

    RandomGraph(unsigned seed, int max_nodes)
        : _rng(seed), _max_nodes(max_nodes)
    {
        seq(_g.addRoot(), 3);
    }

    EventGraph &graph() { return _g; }

  private:
    int pick(int n)
    {
        return std::uniform_int_distribution<int>(0, n - 1)(_rng);
    }

    EventId seq(EventId at, int depth)
    {
        for (int steps = 1 + pick(3); steps > 0; steps--)
            if (_g.size() < _max_nodes)
                at = step(at, depth);
        return at;
    }

    EventId step(EventId at, int depth)
    {
        switch (pick(depth > 0 ? 6 : 2)) {
          case 0:
            return _g.addDelay(at, pick(3));
          case 1: {
            const char *m = kMsgs[pick(2)];
            EventId s = pick(2) ? _g.addSend(at, "ep", m)
                                : _g.addRecv(at, "ep", m);
            _g.node(s).max_sync = pick(3) - 1;  // -1: unbounded
            return s;
          }
          case 2:
          case 3:
            return _g.addJoin({seq(at, depth - 1), seq(at, depth - 1)});
          case 4:
            // `at` precedes the other predecessor.
            return _g.addJoin({at, seq(at, depth - 1)});
          default: {
            int c = _g.freshCond();
            EventId t = _g.addBranch(at, c, true);
            EventId f = _g.addBranch(at, c, false);
            if (pick(3))
                t = seq(t, depth - 1);
            if (pick(3))
                f = seq(f, depth - 1);
            return _g.addMerge(t, f, at);
          }
        }
    }

    std::mt19937 _rng;
    int _max_nodes;
    EventGraph _g;
};

TEST(OrderingMatchesReference, OnRandomGraphs)
{
    const std::vector<std::string> msgs(std::begin(RandomGraph::kMsgs),
                                        std::end(RandomGraph::kMsgs));
    for (unsigned seed = 1; seed <= 100; seed++) {
        RandomGraph gen(seed, 12 + seed % 36);
        EventGraph &g = gen.graph();
        std::string where = "seed " + std::to_string(seed);
        expectPairsAgree(g, 1, where);
        expectPatternsAgree(g, msgs, where);
        optimizeEventGraph(g);
        expectPairsAgree(g, 1, where + " optimized");
        expectPatternsAgree(g, msgs, where + " optimized");
    }
}

} // namespace
