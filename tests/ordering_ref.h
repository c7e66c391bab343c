/**
 * @file
 * RefOrdering: the recursive, pair-memoizing implementation of the
 * <=_G / <_G gap analysis that Ordering (src/ir/ordering.h) replaced,
 * kept unchanged as a test oracle, minus the eight set, pattern-bound
 * and root-distance helpers that nothing queries.  gapLbRec/gapUbRec
 * unwind one event of a pair through its predecessors and memoize
 * every (event, anchor) result in std::maps; gapLb/gapUb combine the
 * direct, swapped and common-ancestor bounds.  test_ordering requires
 * Ordering to agree with it on every query it makes.
 */

#ifndef ANVIL_TESTS_ORDERING_REF_H
#define ANVIL_TESTS_ORDERING_REF_H

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ir/ordering.h"

namespace anvil {

/** All results are memoized; the graph must not change meanwhile. */
class RefOrdering
{
  public:
    explicit RefOrdering(const EventGraph &graph);

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
    bool reaches(EventId anc, EventId node);

    /** Branch facts ((cond, arm) pairs) required to reach an event. */
    const std::map<int, bool> &contextOf(EventId e);

    /** True when the two events can occur in the same run. */
    bool compatible(EventId a, EventId b);

    /**
     * True when event @p n occurs in every run in which both @p a and
     * @p b occur (n's branch facts are implied by theirs).
     */
    bool guaranteedGiven(EventId n, EventId a, EventId b);

  private:
    /** True when a join predecessor causally precedes another. */
    bool dominatedPred(const EventNode &join, EventId p);

    Gap gapLbRec(EventId b, EventId a,
                 std::map<std::pair<EventId, EventId>, Gap> &memo);
    Gap gapUbRec(EventId b, EventId a,
                 std::map<std::pair<EventId, EventId>, Gap> &memo);

    /** Ancestors shared by two events (for gap composition). */
    std::vector<EventId> commonAncestors(EventId a, EventId b);

    /** All ancestors of an event, including itself (memoized). */
    const std::vector<EventId> &ancestorsOf(EventId node);

    /**
     * Occurrences of a message op in the graph; when
     * @p only_unconditional is set, only those on every control path.
     */
    std::vector<EventId> messageEvents(const std::string &ep,
                                       const std::string &msg,
                                       bool only_unconditional) const;

    const EventGraph &_g;
    std::map<std::pair<EventId, EventId>, Gap> _lb_memo;
    std::map<std::pair<EventId, EventId>, Gap> _ub_memo;
    std::map<EventId, std::vector<EventId>> _anc_memo;
    std::map<EventId, std::map<int, bool>> _ctx_memo;
    std::map<std::pair<EventId, EventId>, Gap> _final_lb;
    std::map<std::pair<EventId, EventId>, Gap> _final_ub;
};

inline RefOrdering::RefOrdering(const EventGraph &graph)
    : _g(graph)
{
}

// ---------------------------------------------------------------------
// Core gap analysis
// ---------------------------------------------------------------------

inline bool
RefOrdering::dominatedPred(const EventNode &join, EventId p)
{
    for (EventId q : join.preds) {
        if (q != p && reaches(p, q))
            return true;
    }
    return false;
}

inline Gap
RefOrdering::gapLbRec(EventId b, EventId a,
                      std::map<std::pair<EventId, EventId>, Gap> &memo)
{
    // Lower bound of tau(b) - tau(a), unwinding only b.
    if (b == a)
        return 0;
    auto key = std::make_pair(b, a);
    auto it = memo.find(key);
    if (it != memo.end())
        return it->second;
    // Seed with -inf to break cycles defensively (graph is a DAG, but
    // merged nodes could alias).
    memo[key] = kGapNegInf;

    const EventNode &n = _g.node(b);
    Gap r = kGapNegInf;
    switch (n.kind) {
      case EventKind::Root: {
        // tau(root) = 0, so tau(root) - tau(a) >= -UB(tau(a)).
        Gap ub_a = gapUbRec(a, b, _ub_memo);
        r = ub_a >= kGapInf ? kGapNegInf : -ub_a;
        break;
      }
      case EventKind::Delay:
        r = gapAdd(gapLbRec(n.preds[0], a, memo), n.delay);
        break;
      case EventKind::Send:
      case EventKind::Recv:
        // Dynamic synchronization takes at least zero extra cycles.
        r = gapLbRec(n.preds[0], a, memo);
        break;
      case EventKind::Branch:
        r = gapLbRec(n.preds[0], a, memo);
        break;
      case EventKind::Join: {
        // tau = max over preds: the bound is the best over preds.
        // A pred that causally precedes another pred never determines
        // the max and is skipped (it only weakens upper bounds).
        r = kGapNegInf;
        bool all_dominated = true;
        for (EventId p : n.preds) {
            if (dominatedPred(n, p))
                continue;
            all_dominated = false;
            r = std::max(r, gapLbRec(p, a, memo));
        }
        if (all_dominated)
            for (EventId p : n.preds)
                r = std::max(r, gapLbRec(p, a, memo));
        break;
      }
      case EventKind::Merge: {
        // The merge fires with whichever arm ran.  In any run where
        // `a` occurs, arms incompatible with `a` never fire (their
        // events are at infinity), so they impose no bound.
        r = kGapInf;
        bool any = false;
        for (EventId p : n.preds) {
            if (!compatible(p, a))
                continue;
            any = true;
            r = std::min(r, gapLbRec(p, a, memo));
        }
        if (!any)
            r = kGapNegInf;
        // The merge also never fires before its branch point.
        if (n.branch_pred != kNoEvent)
            r = std::max(r, gapLbRec(n.branch_pred, a, memo));
        break;
      }
    }
    memo[key] = r;
    return r;
}

inline Gap
RefOrdering::gapUbRec(EventId b, EventId a,
                      std::map<std::pair<EventId, EventId>, Gap> &memo)
{
    // Upper bound of tau(b) - tau(a), unwinding only b.
    if (b == a)
        return 0;
    auto key = std::make_pair(b, a);
    auto it = memo.find(key);
    if (it != memo.end())
        return it->second;
    memo[key] = kGapInf;

    const EventNode &n = _g.node(b);
    Gap r = kGapInf;
    switch (n.kind) {
      case EventKind::Root: {
        // tau(root) = 0, so tau(root) - tau(a) <= -LB(tau(a)).
        Gap lb_a = gapLbRec(a, b, _lb_memo);
        r = lb_a <= kGapNegInf ? kGapInf : -lb_a;
        break;
      }
      case EventKind::Delay:
        r = gapAdd(gapUbRec(n.preds[0], a, memo), n.delay);
        break;
      case EventKind::Send:
      case EventKind::Recv:
        // A dynamic sync may take arbitrarily long; a sync that is
        // static on both endpoints is bounded.
        if (n.max_sync >= 0)
            r = gapAdd(gapUbRec(n.preds[0], a, memo), n.max_sync);
        else
            r = kGapInf;
        break;
      case EventKind::Branch:
        r = gapUbRec(n.preds[0], a, memo);
        break;
      case EventKind::Join: {
        r = kGapNegInf;
        bool any = false;
        for (EventId p : n.preds) {
            if (dominatedPred(n, p))
                continue;
            any = true;
            r = std::max(r, gapUbRec(p, a, memo));
        }
        if (!any)
            r = kGapInf;
        break;
      }
      case EventKind::Merge: {
        // Whichever arm ran determines the merge time; the bound must
        // hold for every arm that can co-occur with `a`.
        r = kGapNegInf;
        bool any = false;
        for (EventId p : n.preds) {
            if (!compatible(p, a))
                continue;
            any = true;
            r = std::max(r, gapUbRec(p, a, memo));
        }
        if (!any)
            r = kGapInf;
        break;
      }
    }
    memo[key] = r;
    return r;
}

inline Gap
RefOrdering::gapLb(EventId b, EventId a)
{
    if (a == kNoEvent || b == kNoEvent)
        return kGapNegInf;
    auto memo = _final_lb.find({b, a});
    if (memo != _final_lb.end())
        return memo->second;
    // Combine: unwind b downward, or bound a from the other side.
    Gap direct = gapLbRec(b, a, _lb_memo);
    Gap via_swap = gapUbRec(a, b, _ub_memo);
    Gap swapped = via_swap >= kGapInf ? kGapNegInf : -via_swap;
    Gap r = std::max(direct, swapped);
    // Relate incomparable events through their common ancestors:
    // tau(b) - tau(a) >= LB(b - x) - UB(a - x).
    if (r <= kGapNegInf) {
        for (EventId x : commonAncestors(a, b)) {
            Gap ub_a = gapUbRec(a, x, _ub_memo);
            if (ub_a >= kGapInf)
                continue;
            Gap lb_b = gapLbRec(b, x, _lb_memo);
            r = std::max(r, gapAdd(lb_b, -ub_a));
        }
    }
    // Two distinct synchronizations of the same message are at least
    // one cycle apart: a valid/ack handshake completes one exchange
    // per cycle.
    if (r == 0 && a != b) {
        const EventNode &na = _g.node(a);
        const EventNode &nb = _g.node(b);
        bool a_sync = na.kind == EventKind::Send ||
            na.kind == EventKind::Recv;
        bool b_sync = nb.kind == EventKind::Send ||
            nb.kind == EventKind::Recv;
        if (a_sync && b_sync && na.endpoint == nb.endpoint &&
            na.msg == nb.msg && reaches(a, b)) {
            r = 1;
        }
    }
    _final_lb[{b, a}] = r;
    return r;
}

inline std::vector<EventId>
RefOrdering::commonAncestors(EventId a, EventId b)
{
    const auto &anc_a = ancestorsOf(a);
    const auto &anc_b = ancestorsOf(b);
    std::set<EventId> in_b(anc_b.begin(), anc_b.end());
    std::vector<EventId> out;
    for (EventId x : anc_a)
        if (in_b.count(x))
            out.push_back(x);
    return out;
}

inline Gap
RefOrdering::gapUb(EventId b, EventId a)
{
    if (a == kNoEvent || b == kNoEvent)
        return kGapInf;
    auto memo = _final_ub.find({b, a});
    if (memo != _final_ub.end())
        return memo->second;
    Gap direct = gapUbRec(b, a, _ub_memo);
    Gap via_swap = gapLbRec(a, b, _lb_memo);
    Gap swapped = via_swap <= kGapNegInf ? kGapInf : -via_swap;
    Gap r = std::min(direct, swapped);
    // Common-ancestor composition:
    // tau(b) - tau(a) <= UB(b - x) - LB(a - x).
    if (r >= kGapInf) {
        for (EventId x : commonAncestors(a, b)) {
            Gap ub_b = gapUbRec(b, x, _ub_memo);
            if (ub_b >= kGapInf)
                continue;
            Gap lb_a = gapLbRec(a, x, _lb_memo);
            if (lb_a <= kGapNegInf)
                continue;
            r = std::min(r, gapAdd(ub_b, -lb_a));
        }
    }
    _final_ub[{b, a}] = r;
    return r;
}

// ---------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------

inline const std::map<int, bool> &
RefOrdering::contextOf(EventId e)
{
    auto it = _ctx_memo.find(e);
    if (it != _ctx_memo.end())
        return it->second;
    _ctx_memo[e];  // placeholder to terminate defensive cycles
    const EventNode &n = _g.node(e);
    std::map<int, bool> ctx;
    if (n.kind == EventKind::Merge && n.branch_pred != kNoEvent) {
        // Either arm may have run: only the branch point's facts hold.
        ctx = contextOf(n.branch_pred);
    } else if (!n.preds.empty()) {
        // A join fires only once every predecessor has fired, so the
        // union of their branch facts holds.
        ctx = contextOf(n.preds[0]);
        for (size_t i = 1; i < n.preds.size(); i++) {
            for (const auto &[cond, taken] : contextOf(n.preds[i]))
                ctx.emplace(cond, taken);
        }
    }
    if (n.kind == EventKind::Branch)
        ctx[n.cond_id] = n.cond_taken;
    _ctx_memo[e] = std::move(ctx);
    return _ctx_memo[e];
}

inline bool
RefOrdering::compatible(EventId a, EventId b)
{
    const auto &ca = contextOf(a);
    const auto &cb = contextOf(b);
    for (const auto &[cond, taken] : ca) {
        auto it = cb.find(cond);
        if (it != cb.end() && it->second != taken)
            return false;
    }
    return true;
}

inline bool
RefOrdering::guaranteedGiven(EventId n, EventId a, EventId b)
{
    const auto &cn = contextOf(n);
    const auto &ca = contextOf(a);
    const auto &cb = contextOf(b);
    for (const auto &[cond, taken] : cn) {
        auto ia = ca.find(cond);
        if (ia != ca.end() && ia->second == taken)
            continue;
        auto ib = cb.find(cond);
        if (ib != cb.end() && ib->second == taken)
            continue;
        return false;
    }
    return true;
}

inline const std::vector<EventId> &
RefOrdering::ancestorsOf(EventId node)
{
    auto it = _anc_memo.find(node);
    if (it == _anc_memo.end()) {
        // Collect all ancestors of `node` once (including itself).
        std::vector<EventId> all;
        std::vector<EventId> stack{node};
        std::map<EventId, bool> seen;
        while (!stack.empty()) {
            EventId e = stack.back();
            stack.pop_back();
            if (seen[e])
                continue;
            seen[e] = true;
            all.push_back(e);
            for (EventId p : _g.node(e).preds)
                stack.push_back(p);
        }
        it = _anc_memo.emplace(node, std::move(all)).first;
    }
    return it->second;
}

inline bool
RefOrdering::reaches(EventId anc, EventId node)
{
    if (anc == node)
        return true;
    const auto &all = ancestorsOf(node);
    return std::find(all.begin(), all.end(), anc) != all.end();
}

inline std::vector<EventId>
RefOrdering::messageEvents(const std::string &ep,
                           const std::string &msg,
                           bool only_unconditional) const
{
    std::vector<EventId> out;
    for (EventId id : _g.liveEvents()) {
        const EventNode &n = _g.node(id);
        if ((n.kind == EventKind::Send || n.kind == EventKind::Recv) &&
            n.endpoint == ep && n.msg == msg &&
            (n.unconditional || !only_unconditional)) {
            out.push_back(id);
        }
    }
    return out;
}

inline Gap
RefOrdering::patGapLb(const EventPattern &pb, const EventPattern &pa)
{
    // Lower bound of tau(pb) relative to a concrete event x.
    // Candidates incompatible with x cannot be the match in any run
    // in which x occurs.
    auto lb_from = [&](const EventPattern &p, EventId x) -> Gap {
        if (p.kind == EventPattern::Kind::FixedAfter)
            return gapAdd(gapLb(p.base, x), p.cycles);
        // Message duration: the match is one of the occurrences that
        // can lie at or after the base, so the minimum over that set
        // is a sound lower bound.  Conditional occurrences count: any
        // of them could be the match in some run.
        Gap m = kGapInf;   // no occurrence at all: never matches
        for (EventId n : messageEvents(p.endpoint, p.msg, false)) {
            if (gapUb(n, p.base) >= 0 && !reaches(n, p.base) &&
                compatible(n, x) && compatible(n, p.base)) {
                m = std::min(m, gapAdd(gapLb(n, x), p.cycles));
            }
        }
        return m;
    };

    if (pa.kind == EventPattern::Kind::FixedAfter)
        return gapAdd(lb_from(pb, pa.base), -pa.cycles);

    Gap best = kGapNegInf;

    // pa is a message pattern.  Monotonicity: the first occurrence
    // after an earlier base is never later.
    if (pb.kind == EventPattern::Kind::MessageAfter &&
        pa.endpoint == pb.endpoint && pa.msg == pb.msg &&
        gapLb(pb.base, pa.base) >= 0) {
        best = std::max(best, static_cast<Gap>(pb.cycles - pa.cycles));
    }

    // Bound tau(pa) from above by any occurrence of the message at or
    // after pa's base that is guaranteed to occur whenever pa's base
    // and pb's base do:  tau(pa) <= tau(n) + pa.cycles.
    for (EventId n : messageEvents(pa.endpoint, pa.msg, false)) {
        if (gapLb(n, pa.base) >= 0 && !reaches(n, pa.base) &&
            guaranteedGiven(n, pa.base, pb.base)) {
            best = std::max(best,
                            gapAdd(lb_from(pb, n), -pa.cycles));
        }
    }
    return best;
}

inline bool
RefOrdering::patLe(const EventPattern &pa, const EventPattern &pb)
{
    return patGapLb(pb, pa) >= 0;
}

inline bool
RefOrdering::patLeEvent(const EventPattern &p, EventId e)
{
    return patLe(p, EventPattern::atEvent(e));
}

} // namespace anvil

#endif // ANVIL_TESTS_ORDERING_REF_H
