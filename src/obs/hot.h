/**
 * @file
 * Hot-cone attribution: where did the sweep's work actually go?
 *
 * The sweep statistics (rtl::SweepStats) say how much was evaluated;
 * this report says *what*.  With rtl::Sim::setEvalCounting enabled,
 * every interpreter node evaluation is charged to its net, and
 * buildHotReport aggregates the counters three ways:
 *
 *  - per logic level (the levelized schedule's natural buckets);
 *  - per net, ranked — the individually hottest strict nodes;
 *  - per register cone, ranked: each register's update fan-in closure
 *    (value + enable operands, transitively, stopping at sources),
 *    attributing shared combinational logic to every cone that reads
 *    it.  This is the actionable view: "which architectural state
 *    element's logic burns the cycles".
 *
 * With a compiled kernel attached the per-net counters stay at the
 * interpreter's (the kernel runs strict nets itself); the per-level
 * rows then come from the kernel's own level_stats() export,
 * so level attribution covers both backends.
 *
 * Surfaced as `anvilc --profile-hot` (human table + "anvil-hot-v1"
 * JSON, docs/schemas/hot.schema.json) and as hot.* metrics.
 */

#ifndef ANVIL_OBS_HOT_H
#define ANVIL_OBS_HOT_H

#include <cstdint>
#include <string>
#include <vector>

#include "rtl/interp.h"

namespace anvil {
namespace obs {

class MetricsRegistry;

struct HotReport
{
    struct LevelRow
    {
        uint32_t level = 0;
        uint64_t nodes = 0;     // strict nodes on the level
        uint64_t evals = 0;     // evaluations charged to the level
    };

    struct NetRow
    {
        rtl::NetId net = rtl::kNoNet;
        std::string name;       // flat name, "n<id>" when unnamed
        int width = 1;
        uint64_t evals = 0;
    };

    struct ConeRow
    {
        std::string reg;        // flat register name
        uint64_t nodes = 0;     // strict nets in the fan-in closure
        uint64_t evals = 0;     // evaluations charged to the cone
    };

    uint64_t cycles = 0;
    uint64_t total_evals = 0;
    /** Level rows came from an attached kernel's level_stats(). */
    bool from_kernel = false;

    std::vector<LevelRow> levels;
    std::vector<NetRow> nets;    // ranked, top-N
    std::vector<ConeRow> cones;  // ranked, top-N

    /** Human-readable ranked report. */
    std::string table() const;

    /** One "anvil-hot-v1" JSON document. */
    std::string json() const;

    /** hot.evals counter + hot.level_evals histogram. */
    void exportMetrics(MetricsRegistry &reg) const;
};

/**
 * Aggregate the simulator's evaluation counters (per-net when
 * counting was enabled, kernel per-level export otherwise) into a
 * ranked report.  `top_n` bounds the net and cone tables.
 */
HotReport buildHotReport(rtl::Sim &sim, size_t top_n = 10);

} // namespace obs
} // namespace anvil

#endif // ANVIL_OBS_HOT_H
