#include "bank.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mithril::dram
{

Bank::Bank(const Timing &timing)
    : timing_(timing)
{
}

void
Bank::doActivate(Tick t, RowId row)
{
    MITHRIL_ASSERT(!isOpen());
    MITHRIL_ASSERT(t >= nextAct_);
    openRow_ = row;
    ++actCount_;
    nextCol_ = t + timing_.tRCD;
    nextPre_ = t + timing_.tRAS;
    nextAct_ = t + timing_.tRC;
}

void
Bank::doPrecharge(Tick t)
{
    MITHRIL_ASSERT(isOpen());
    MITHRIL_ASSERT(t >= nextPre_);
    openRow_ = kInvalidRow;
    nextAct_ = std::max(nextAct_, t + timing_.tRP);
}

Tick
Bank::doRead(Tick t)
{
    MITHRIL_ASSERT(isOpen());
    MITHRIL_ASSERT(t >= nextCol_);
    nextCol_ = t + timing_.tCCD;
    nextPre_ = std::max(nextPre_, t + timing_.tRTP);
    return t + timing_.tCL + timing_.tBL;
}

Tick
Bank::doWrite(Tick t)
{
    MITHRIL_ASSERT(isOpen());
    MITHRIL_ASSERT(t >= nextCol_);
    nextCol_ = t + timing_.tCCD;
    // Write recovery: data burst lands tCWL+tBL after issue, then tWR
    // must elapse before a precharge.
    nextPre_ = std::max(nextPre_,
                        t + timing_.tCWL + timing_.tBL + timing_.tWR);
    return t + timing_.tCWL + timing_.tBL;
}

void
Bank::doRefresh(Tick t, Tick duration)
{
    MITHRIL_ASSERT(!isOpen());
    MITHRIL_ASSERT(t >= nextAct_);
    nextAct_ = t + duration;
    nextPre_ = t + duration;
    nextCol_ = t + duration;
}

} // namespace mithril::dram
