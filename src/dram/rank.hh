/**
 * @file
 * Per-rank inter-bank activation constraints: tRRD and the tFAW
 * four-activate window.
 */

#ifndef MITHRIL_DRAM_RANK_HH
#define MITHRIL_DRAM_RANK_HH

#include <algorithm>
#include <array>

#include "common/types.hh"
#include "dram/timing.hh"

namespace mithril::dram
{

/** Tracks rank-level ACT pacing (tRRD, tFAW). */
class RankTiming
{
  public:
    explicit RankTiming(const Timing &timing);

    /** Earliest tick a new ACT may issue anywhere in this rank. */
    Tick earliestAct(Tick now) const
    {
        Tick t = now;
        if (lastAct_ >= 0)
            t = std::max(t, lastAct_ + timing_.tRRD);
        // The oldest of the last four ACTs gates the next one by tFAW.
        const Tick oldest = recentActs_[head_];
        if (oldest >= 0)
            t = std::max(t, oldest + timing_.tFAW);
        return t;
    }

    /** Record an ACT committed at tick t. */
    void recordAct(Tick t);

  private:
    const Timing &timing_;
    Tick lastAct_ = -1;
    /** Circular buffer of the last four ACT times (for tFAW). */
    std::array<Tick, 4> recentActs_;
    unsigned head_ = 0;
};

} // namespace mithril::dram

#endif // MITHRIL_DRAM_RANK_HH
