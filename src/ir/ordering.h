/**
 * @file
 * The <=_G and <_G ordering relations over events and event patterns
 * (paper §5.4 and Defs. C.9-C.11), implemented as a sound worst-case
 * gap analysis over the event graph.
 *
 * For events a, b the analysis computes
 *
 *   gapLb(b, a)  =  a lower bound on tau(b) - tau(a), valid for every
 *                   timestamp function tau of the graph, and
 *   gapUb(b, a)  =  an upper bound on the same quantity.
 *
 * Both start from the rows of anchor a: one lower and one upper bound
 * per event b, filled in a single pass over the graph's topological
 * order by the structural rules of timestamp functions.  Delays add
 * exactly N, dynamic message syncs add at least 0 (and at most
 * infinity, or max_sync when both sides are static), joins take the
 * max of their predecessors and merges the min.  The root, at
 * tau = 0, reads the anchor's bounds from the root's own row, negated.
 * gapLb/gapUb then also bound b from a's side (a's entry in b's row)
 * and, when neither bounds the pair, compose through the common
 * ancestors of a and b.  Then
 *
 *   a <=_G b  iff  gapLb(b, a) >= 0      and
 *   a <_G  b  iff  gapLb(b, a) >= 1.
 *
 * Event patterns `e |> p` (the first time duration p is satisfied
 * after e) are compared through the same bounds, using monotonicity of
 * "first occurrence after" for message durations and, when needed, the
 * guaranteed future occurrences of a message present in the graph.
 */

#ifndef ANVIL_IR_ORDERING_H
#define ANVIL_IR_ORDERING_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ir/event_graph.h"

namespace anvil {

/** Saturating "cycles" arithmetic with +/- infinity. */
using Gap = int64_t;
constexpr Gap kGapInf = INT64_MAX / 4;
constexpr Gap kGapNegInf = -kGapInf;

/**
 * An event pattern `e |> p`: the first time, strictly counted from
 * event e, that the duration p is satisfied (Def. C.10).  Fixed
 * durations give tau(e) + k; message durations give the first exchange
 * of the message after tau(e) (or infinity if there is none).
 */
struct EventPattern
{
    enum class Kind { FixedAfter, MessageAfter };

    Kind kind = Kind::FixedAfter;
    EventId base = kNoEvent;
    int cycles = 0;          // FixedAfter: delay; MessageAfter: +N
    std::string endpoint;    // MessageAfter
    std::string msg;         // MessageAfter

    static EventPattern fixed(EventId e, int k);
    static EventPattern message(EventId e, const std::string &ep,
                                const std::string &m, int plus = 0);
    static EventPattern atEvent(EventId e) { return fixed(e, 0); }

    std::string str() const;
};

/**
 * A set of event patterns; its time is the earliest match of any
 * member (paper §5.1).  An empty set denotes the eternal lifetime.
 */
struct PatternSet
{
    std::vector<EventPattern> pats;

    bool eternal() const { return pats.empty(); }
    static PatternSet forever() { return {}; }
    static PatternSet one(EventPattern p) { return {{p}}; }
    void add(const EventPattern &p) { pats.push_back(p); }
    void merge(const PatternSet &o);

    std::string str() const;
};

/**
 * Decision procedure for <=_G / <_G over one event graph.
 *
 * The constructor orders every node of the graph (dead ones too, so
 * any id the graph has handed out can be queried) and derives each
 * node's ancestor set, branch facts and undominated join
 * predecessors; an anchor's rows are filled on its first query.  The
 * graph must not change while an Ordering object is alive.
 */
class Ordering
{
  public:
    explicit Ordering(const EventGraph &graph);

    /** Lower bound on tau(b) - tau(a). */
    Gap gapLb(EventId b, EventId a);

    /** Upper bound on tau(b) - tau(a). */
    Gap gapUb(EventId b, EventId a);

    /** a <=_G b. */
    bool le(EventId a, EventId b) { return gapLb(b, a) >= 0; }

    /** a <_G b. */
    bool lt(EventId a, EventId b) { return gapLb(b, a) >= 1; }

    /** Lower bound of tau(pb) - tau(pa) over patterns. */
    Gap patGapLb(const EventPattern &pb, const EventPattern &pa);

    /** pa <=_G pb (pattern form). */
    bool patLe(const EventPattern &pa, const EventPattern &pb);

    /** Pattern vs. event: p <=_G e. */
    bool patLeEvent(const EventPattern &p, EventId e);

    /**
     * True when @p anc causally precedes (or is) @p node: a path of
     * graph edges leads from anc to node.  A sync that causally
     * precedes a pattern's base event can never be the "first
     * occurrence after" that base, even if it lands on the same cycle.
     */
    bool reaches(EventId anc, EventId node) const;

    /** True when the two events can occur in the same run. */
    bool compatible(EventId a, EventId b) const;

  private:
    /** Branch facts ((cond, arm) pairs), sorted by condition. */
    using Context = std::vector<std::pair<int, bool>>;

    /** One anchor's bounds on tau(b) - tau(anchor), by position of b. */
    struct Row
    {
        std::vector<Gap> lb, ub;
    };

    /** The row of the anchor at position @p a, filled on first use. */
    const Row &row(int a);

    /**
     * True when event @p n occurs in every run in which both @p a and
     * @p b occur (n's branch facts are implied by theirs).
     */
    bool guaranteedGiven(EventId n, EventId a, EventId b) const;

    /**
     * Occurrences of a message op in the graph; when
     * @p only_unconditional is set, only those on every control path.
     */
    std::vector<EventId> messageEvents(const std::string &ep,
                                       const std::string &msg,
                                       bool only_unconditional) const;

    const uint64_t *ancestors(int pos) const
    {
        return _anc.data() + pos * _words;
    }

    const EventGraph &_g;
    std::vector<EventId> _order;  ///< topological: preds, branch point first
    std::vector<int> _pos;        ///< EventId -> index into _order
    size_t _words = 0;            ///< 64-bit words per ancestor set
    std::vector<uint64_t> _anc;   ///< ancestor bitsets (self included)
    std::vector<Context> _ctx;    ///< by position
    std::vector<std::vector<int>> _join_preds;  ///< undominated, by position
    std::vector<Row> _rows;       ///< by anchor position; empty until used
};

/** Saturating addition on Gap values. */
Gap gapAdd(Gap a, Gap b);

} // namespace anvil

#endif // ANVIL_IR_ORDERING_H
