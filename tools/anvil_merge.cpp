/**
 * @file
 * anvil_merge — merge on-disk "anvil-events-v2" telemetry event
 * streams into one unified closure report.
 *
 * The multi-machine half of the farm story: `anvilc --farm N`
 * merges its workers in-process, while regression shards running
 * anywhere can each write a stream (`anvilc --sim ... --events f`)
 * and ship the files here.  The merged artifacts are byte-compatible
 * with single-run output (see obs::Merger).
 *
 * Usage:
 *   anvil_merge [options] <stream.jsonl>...
 *     --cov           print the merged coverage report
 *     --metrics <f>   write merged metrics JSON ("anvil-metrics-v1")
 *     --stats-json    print the merged "anvil-stats-v1" line
 *     --triage        print the fleet-ranked violation triage table
 *     (default with no options: per-stream summary + sim-summary)
 *
 * Exit codes: 0 ok, 1 any merged stream recorded failures, 2 usage,
 * 3 I/O or malformed stream.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/merge.h"

using namespace anvil;

int
main(int argc, char **argv)
{
    bool cov = false, stats_json = false, triage = false;
    std::string metrics_path;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--cov") {
            cov = true;
        } else if (arg == "--metrics" && i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (arg == "--stats-json") {
            stats_json = true;
        } else if (arg == "--triage") {
            triage = true;
        } else if (arg == "-h" || arg == "--help" ||
                   (!arg.empty() && arg[0] == '-')) {
            fprintf(stderr,
                    "usage: anvil_merge [--cov] [--metrics <f>] "
                    "[--stats-json] [--triage] <stream.jsonl>...\n");
            return arg == "-h" || arg == "--help" ? 0 : 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        fprintf(stderr, "anvil_merge: no event streams given\n");
        return 2;
    }

    obs::Merger merger;
    try {
        for (const std::string &p : paths)
            merger.addStreamFile(p);
    } catch (const std::exception &e) {
        fprintf(stderr, "anvil_merge: %s\n", e.what());
        return 3;
    }

    printf("merge: %zu stream(s)\n", merger.streams());
    for (const obs::Merger::StreamInfo &si : merger.streamInfos())
        printf("  worker %d: seed %llu, %llu cycle(s), "
               "%llu failure(s), backend %s\n",
               si.worker, (unsigned long long)si.seed,
               (unsigned long long)si.cycles,
               (unsigned long long)si.failures, si.backend.c_str());

    // Flight-recorder window references pass through deduped — the
    // merged report points straight at every worker's trigger VCD.
    for (const obs::Merger::WindowDump &wd : merger.windowDumps())
        printf("  window-dump worker %d: %s @%llu [%llu..%llu] %s\n",
               wd.worker, wd.trigger.c_str(),
               (unsigned long long)wd.trigger_cycle,
               (unsigned long long)wd.from,
               (unsigned long long)wd.to,
               wd.path.empty() ? "(unsaved)" : wd.path.c_str());

    obs::Merger::Totals t = merger.totals();
    printf("sim: %llu cycles, %llu toggles across %zu worker(s)\n",
           (unsigned long long)t.cycles,
           (unsigned long long)t.toggles, t.workers);
    if (merger.hasCoverage())
        printf("sim-summary %s\n",
               merger.coverage().summaryJson().c_str());
    if (cov && merger.hasCoverage())
        fputs(merger.coverage().report().c_str(), stdout);
    if (triage)
        fputs(merger.triageReport().c_str(), stdout);

    if (!metrics_path.empty()) {
        std::ofstream os(metrics_path);
        if (os)
            os << merger.metricsJson() << "\n";
        os.flush();
        if (!os.good()) {
            fprintf(stderr, "anvil_merge: cannot write '%s'\n",
                    metrics_path.c_str());
            return 3;
        }
        fprintf(stderr, "anvil_merge: wrote %s\n",
                metrics_path.c_str());
    }
    if (stats_json)
        printf("stats-json %s\n", merger.statsJson().c_str());

    return t.failures ? 1 : 0;
}
