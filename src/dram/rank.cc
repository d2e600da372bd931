#include "rank.hh"

namespace mithril::dram
{

RankTiming::RankTiming(const Timing &timing)
    : timing_(timing)
{
    recentActs_.fill(-1);
}

void
RankTiming::recordAct(Tick t)
{
    lastAct_ = t;
    recentActs_[head_] = t;
    head_ = (head_ + 1) % recentActs_.size();
}

} // namespace mithril::dram
