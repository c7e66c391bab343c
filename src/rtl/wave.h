/**
 * @file
 * ASCII waveform recorder, used to reproduce the waveform figures of
 * the paper (Fig. 1 and Fig. 4).
 *
 * Like the other per-cycle observers (VcdWriter, Coverage,
 * ContractMonitor), sampling rides the unified obs::ChangeFeed:
 * recorded signals resolve to interned NetIds at construction, and
 * after the priming visit only signals on the fed frame are re-read
 * — the rest repeat their cached value.  Visits that skip cycles or
 * follow late pokes fall back to the feed's rescan, and lazy /
 * unresolved names are read directly every visit, preserving peek()'s
 * fault semantics exactly.  An obs::NetIndex picks the signals out
 * of the frame, duplicate traces of one net included.
 */

#ifndef ANVIL_RTL_WAVE_H
#define ANVIL_RTL_WAVE_H

#include <memory>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "rtl/interp.h"

namespace anvil {
namespace rtl {

/**
 * Records a set of signals every cycle and renders them as rows of
 * per-cycle values, in the style of the paper's waveforms.
 */
class WaveRecorder : public obs::Observer
{
  public:
    WaveRecorder(Sim &sim, std::vector<std::string> signals);
    ~WaveRecorder() override;

    /**
     * Standalone sampling through a private single-observer feed.
     * Not available once attached to an external ChangeFeed — drive
     * that feed instead.
     */
    void sample();

    /** Render the waveform table. */
    std::string render() const;

    /** All sampled values for one signal. */
    const std::vector<BitVec> &samplesOf(const std::string &sig) const;

    // obs::Observer
    void onPrime(Sim &sim, uint64_t cycle) override;
    void onCycle(Sim &sim, uint64_t cycle,
                 const std::vector<NetId> &changed) override;
    const char *observerName() const override { return "wave"; }

  private:
    struct Rec
    {
        std::string name;
        NetId net = kNoNet;   // kNoNet: unresolved, peek every visit
        BitVec last{1};
    };

    void directRead(Rec &r);
    void commitRow();

    Sim &_sim;
    std::vector<Rec> _recs;
    obs::NetIndex _index;   // slot: a _recs index
    std::vector<std::vector<BitVec>> _samples;
    std::unique_ptr<obs::ChangeFeed> _own_feed;   // standalone mode
};

} // namespace rtl
} // namespace anvil

#endif // ANVIL_RTL_WAVE_H
