#include "ir/ordering.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <sstream>

#include "support/strings.h"

namespace anvil {

Gap
gapAdd(Gap a, Gap b)
{
    if (a >= kGapInf || b >= kGapInf)
        return kGapInf;
    if (a <= kGapNegInf || b <= kGapNegInf)
        return kGapNegInf;
    return a + b;
}

EventPattern
EventPattern::fixed(EventId e, int k)
{
    EventPattern p;
    p.kind = Kind::FixedAfter;
    p.base = e;
    p.cycles = k;
    return p;
}

EventPattern
EventPattern::message(EventId e, const std::string &ep,
                      const std::string &m, int plus)
{
    EventPattern p;
    p.kind = Kind::MessageAfter;
    p.base = e;
    p.endpoint = ep;
    p.msg = m;
    p.cycles = plus;
    return p;
}

std::string
EventPattern::str() const
{
    if (kind == Kind::FixedAfter) {
        if (cycles == 0)
            return strfmt("e%d", base);
        return strfmt("e%d |> #%d", base, cycles);
    }
    if (cycles != 0)
        return strfmt("e%d |> %s.%s+%d", base, endpoint.c_str(),
                      msg.c_str(), cycles);
    return strfmt("e%d |> %s.%s", base, endpoint.c_str(), msg.c_str());
}

void
PatternSet::merge(const PatternSet &o)
{
    for (const auto &p : o.pats)
        pats.push_back(p);
}

std::string
PatternSet::str() const
{
    if (eternal())
        return "inf";
    std::ostringstream os;
    if (pats.size() > 1)
        os << "{";
    for (size_t i = 0; i < pats.size(); i++) {
        if (i)
            os << ", ";
        os << pats[i].str();
    }
    if (pats.size() > 1)
        os << "}";
    return os.str();
}

namespace {

/** Calls @p f with the index of every bit set in both x and y. */
template <typename F>
void
forEachCommonBit(const uint64_t *x, const uint64_t *y, size_t words, F f)
{
    for (size_t w = 0; w < words; w++)
        for (uint64_t m = x[w] & y[w]; m; m &= m - 1)
            f(static_cast<int>(w * 64 + std::countr_zero(m)));
}

bool
isSync(const EventNode &n)
{
    return n.kind == EventKind::Send || n.kind == EventKind::Recv;
}

} // namespace

Ordering::Ordering(const EventGraph &graph)
    : _g(graph), _pos(graph.size(), -1)
{
    // Topological order by iterative depth-first post-order: every
    // predecessor, and a merge's branch point, comes first.
    constexpr int kOpen = -2;
    std::vector<std::pair<EventId, size_t>> stack;
    for (EventId start = 0; start < _g.size(); start++) {
        if (_pos[start] != -1)
            continue;
        _pos[start] = kOpen;
        stack.emplace_back(start, 0);
        while (!stack.empty()) {
            auto [id, next] = stack.back();
            const EventNode &n = _g.node(id);
            size_t deps = n.preds.size() + (n.branch_pred != kNoEvent);
            if (next == deps) {
                _pos[id] = static_cast<int>(_order.size());
                _order.push_back(id);
                stack.pop_back();
                continue;
            }
            stack.back().second++;
            EventId d = next < n.preds.size() ? n.preds[next]
                                              : n.branch_pred;
            if (_pos[d] == -1) {
                _pos[d] = kOpen;
                stack.emplace_back(d, 0);
            }
        }
    }

    size_t count = _order.size();
    _words = (count + 63) / 64;
    _anc.assign(count * _words, 0);
    _ctx.resize(count);
    _join_preds.resize(count);
    _rows.resize(count);
    for (size_t i = 0; i < count; i++) {
        const EventNode &n = _g.node(_order[i]);
        uint64_t *anc = _anc.data() + i * _words;
        anc[i / 64] |= uint64_t(1) << (i % 64);
        for (EventId p : n.preds) {
            const uint64_t *pa = ancestors(_pos[p]);
            for (size_t w = 0; w < _words; w++)
                anc[w] |= pa[w];
        }

        Context &ctx = _ctx[i];
        if (n.kind == EventKind::Merge && n.branch_pred != kNoEvent) {
            // Either arm may have run: only the branch point's facts
            // hold.
            ctx = _ctx[_pos[n.branch_pred]];
        } else {
            // A join fires only once every predecessor has fired, so
            // the union of their branch facts holds (the first
            // predecessor's arm wins a conflict).
            for (EventId p : n.preds) {
                const Context &pc = _ctx[_pos[p]];
                Context both;
                std::set_union(ctx.begin(), ctx.end(), pc.begin(),
                               pc.end(), std::back_inserter(both),
                               [](const auto &x, const auto &y) {
                                   return x.first < y.first;
                               });
                ctx = std::move(both);
            }
        }
        if (n.kind == EventKind::Branch) {
            auto it = std::lower_bound(
                ctx.begin(), ctx.end(), std::make_pair(n.cond_id, false));
            if (it != ctx.end() && it->first == n.cond_id)
                it->second = n.cond_taken;
            else
                ctx.insert(it, {n.cond_id, n.cond_taken});
        }

        // A join predecessor that causally precedes another never
        // determines the max, so the join rules skip it.  In a DAG
        // some predecessor always survives.
        if (n.kind == EventKind::Join) {
            for (EventId p : n.preds) {
                bool dominated = false;
                for (EventId q : n.preds)
                    dominated = dominated || (q != p && reaches(p, q));
                if (!dominated)
                    _join_preds[i].push_back(_pos[p]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Core gap analysis
// ---------------------------------------------------------------------

const Ordering::Row &
Ordering::row(int a)
{
    Row &r = _rows[a];
    if (!r.lb.empty())
        return r;
    EventId anchor = _order[a];
    size_t count = _order.size();
    r.lb.assign(count, 0);
    r.ub.assign(count, 0);
    for (size_t i = 0; i < count; i++) {
        if (static_cast<int>(i) == a)
            continue;  // zero cycles from the anchor to itself
        const EventNode &n = _g.node(_order[i]);
        int p = n.preds.empty() ? -1 : _pos[n.preds[0]];
        Gap lb = 0, ub = 0;
        switch (n.kind) {
          case EventKind::Root: {
            // tau(root) = 0, so tau(root) - tau(a) is bounded by the
            // negated bounds on tau(a) - tau(root): the anchor's entry
            // in the root's own row.
            const Row &root = row(static_cast<int>(i));
            lb = root.ub[a] >= kGapInf ? kGapNegInf : -root.ub[a];
            ub = root.lb[a] <= kGapNegInf ? kGapInf : -root.lb[a];
            break;
          }
          case EventKind::Delay:
            lb = gapAdd(r.lb[p], n.delay);
            ub = gapAdd(r.ub[p], n.delay);
            break;
          case EventKind::Send:
          case EventKind::Recv:
            // Dynamic synchronization takes at least zero extra
            // cycles and may take arbitrarily long; a sync that is
            // static on both endpoints is bounded.
            lb = r.lb[p];
            ub = n.max_sync >= 0 ? gapAdd(r.ub[p], n.max_sync) : kGapInf;
            break;
          case EventKind::Branch:
            lb = r.lb[p];
            ub = r.ub[p];
            break;
          case EventKind::Join:
            // tau = max over preds: both bounds are the max over the
            // preds that can determine it.
            lb = ub = kGapNegInf;
            for (int q : _join_preds[i]) {
                lb = std::max(lb, r.lb[q]);
                ub = std::max(ub, r.ub[q]);
            }
            if (_join_preds[i].empty())
                ub = kGapInf;
            break;
          case EventKind::Merge: {
            // The merge fires with whichever arm ran.  In any run
            // where the anchor occurs, arms incompatible with it never
            // fire (their events are at infinity), so they impose no
            // bound; the bound must hold for every other arm.
            lb = kGapInf;
            ub = kGapNegInf;
            bool any = false;
            for (EventId q : n.preds) {
                if (!compatible(q, anchor))
                    continue;
                any = true;
                lb = std::min(lb, r.lb[_pos[q]]);
                ub = std::max(ub, r.ub[_pos[q]]);
            }
            if (!any) {
                lb = kGapNegInf;
                ub = kGapInf;
            }
            // The merge also never fires before its branch point.
            if (n.branch_pred != kNoEvent)
                lb = std::max(lb, r.lb[_pos[n.branch_pred]]);
            break;
          }
        }
        r.lb[i] = lb;
        r.ub[i] = ub;
    }
    return r;
}

Gap
Ordering::gapLb(EventId b, EventId a)
{
    if (a == kNoEvent || b == kNoEvent)
        return kGapNegInf;
    int pa = _pos[a], pb = _pos[b];
    // Combine: unwind b in a's row, or bound a in b's row.
    Gap direct = row(pa).lb[pb];
    Gap via_swap = row(pb).ub[pa];
    Gap swapped = via_swap >= kGapInf ? kGapNegInf : -via_swap;
    Gap r = std::max(direct, swapped);
    // Relate incomparable events through their common ancestors:
    // tau(b) - tau(a) >= LB(b - x) - UB(a - x).
    if (r <= kGapNegInf) {
        forEachCommonBit(ancestors(pa), ancestors(pb), _words, [&](int x) {
            const Row &rx = row(x);
            if (rx.ub[pa] < kGapInf)
                r = std::max(r, gapAdd(rx.lb[pb], -rx.ub[pa]));
        });
    }
    // Two distinct synchronizations of the same message are at least
    // one cycle apart: a valid/ack handshake completes one exchange
    // per cycle.
    if (r == 0 && a != b) {
        const EventNode &na = _g.node(a);
        const EventNode &nb = _g.node(b);
        if (isSync(na) && isSync(nb) && na.endpoint == nb.endpoint &&
            na.msg == nb.msg && reaches(a, b)) {
            r = 1;
        }
    }
    return r;
}

Gap
Ordering::gapUb(EventId b, EventId a)
{
    if (a == kNoEvent || b == kNoEvent)
        return kGapInf;
    int pa = _pos[a], pb = _pos[b];
    Gap direct = row(pa).ub[pb];
    Gap via_swap = row(pb).lb[pa];
    Gap swapped = via_swap <= kGapNegInf ? kGapInf : -via_swap;
    Gap r = std::min(direct, swapped);
    // Common-ancestor composition:
    // tau(b) - tau(a) <= UB(b - x) - LB(a - x).
    if (r >= kGapInf) {
        forEachCommonBit(ancestors(pa), ancestors(pb), _words, [&](int x) {
            const Row &rx = row(x);
            if (rx.ub[pb] < kGapInf && rx.lb[pa] > kGapNegInf)
                r = std::min(r, gapAdd(rx.ub[pb], -rx.lb[pa]));
        });
    }
    return r;
}

// ---------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------

bool
Ordering::compatible(EventId a, EventId b) const
{
    const Context &ca = _ctx[_pos[a]];
    const Context &cb = _ctx[_pos[b]];
    auto ia = ca.begin(), ib = cb.begin();
    while (ia != ca.end() && ib != cb.end()) {
        if (ia->first < ib->first) {
            ++ia;
        } else if (ib->first < ia->first) {
            ++ib;
        } else {
            if (ia->second != ib->second)
                return false;
            ++ia;
            ++ib;
        }
    }
    return true;
}

bool
Ordering::guaranteedGiven(EventId n, EventId a, EventId b) const
{
    const Context &ca = _ctx[_pos[a]];
    const Context &cb = _ctx[_pos[b]];
    for (const auto &fact : _ctx[_pos[n]]) {
        if (!std::binary_search(ca.begin(), ca.end(), fact) &&
            !std::binary_search(cb.begin(), cb.end(), fact))
            return false;
    }
    return true;
}

bool
Ordering::reaches(EventId anc, EventId node) const
{
    int i = _pos[anc];
    return (ancestors(_pos[node])[i / 64] >> (i % 64)) & 1;
}

std::vector<EventId>
Ordering::messageEvents(const std::string &ep, const std::string &msg,
                        bool only_unconditional) const
{
    std::vector<EventId> out;
    for (EventId id : _g.liveEvents()) {
        const EventNode &n = _g.node(id);
        if (isSync(n) && n.endpoint == ep && n.msg == msg &&
            (n.unconditional || !only_unconditional)) {
            out.push_back(id);
        }
    }
    return out;
}

Gap
Ordering::patGapLb(const EventPattern &pb, const EventPattern &pa)
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

bool
Ordering::patLe(const EventPattern &pa, const EventPattern &pb)
{
    return patGapLb(pb, pa) >= 0;
}

bool
Ordering::patLeEvent(const EventPattern &p, EventId e)
{
    return patLe(p, EventPattern::atEvent(e));
}

} // namespace anvil
