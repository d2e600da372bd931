#include "protection.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace mithril::dram
{

Protection::Protection(const Geometry &geometry, const Timing &timing,
                       std::uint32_t flip_th, std::uint32_t blast_radius,
                       bool oracle)
    : oracle_(geometry.totalBanks(), geometry.rowsPerBank, flip_th,
              blast_radius),
      oracleOn_(oracle), refreshGroups_(refreshGroups(timing)),
      banks_(geometry.totalBanks())
{
}

void
Protection::setTracker(trackers::RhProtection *tracker)
{
    tracker_ = tracker;
    usesRfm_ = tracker_ && tracker_->usesRfm();
    rfmTh_ = usesRfm_ ? tracker_->rfmTh() : 0;
    throttles_ = tracker_ && tracker_->throttles();
}

void
Protection::attach(telemetry::EngineTelemetry &telemetry)
{
    events_ = telemetry.events();
    heatmap_ = telemetry.heatmap();
    if (events_) {
        oracle_.setEventRecorder(events_);
        if (tracker_)
            tracker_->setEventRecorder(events_);
    }
}

void
Protection::owe(BankState &s, std::size_t acts)
{
    if (!scratch_.empty())
        s.arr.insert(s.arr.end(), scratch_.begin(), scratch_.end());
    if (usesRfm_ && (s.raa += static_cast<std::uint32_t>(acts)) >= rfmTh_)
        s.rfmOwed = true;
}

void
Protection::activate(BankId bank, RowId row, Tick t)
{
    if (heatmap_)
        heatmap_->touch(bank, row);
    if (oracleOn_) {
        // The oracle's event clock (a dead store unless tracing).
        oracle_.setNow(t);
        oracle_.onActivate(bank, row);
    }
    BankState &s = banks_[bank];
    ++s.counts.acts;
    if (!tracker_)
        return;
    scratch_.clear();
    tracker_->onActivate(bank, row, t, scratch_);
    owe(s, 1);
}

std::size_t
Protection::activateRun(const trackers::ActSpan &span)
{
    std::size_t n = span.size;
    if (tracker_) {
        scratch_.clear();
        n = tracker_->onActivateBatch(span, scratch_);
        MITHRIL_ASSERT(n >= 1 && n <= span.size);
    }
    const BankId bank = span.bank;
    if (heatmap_) {
        for (std::size_t i = 0; i < n; ++i)
            heatmap_->touch(bank, span.rows[i]);
    }
    if (oracleOn_) {
        if (events_) {
            // Stamp each flip/near-miss with its ACT's exact tick.
            for (std::size_t i = 0; i < n; ++i) {
                oracle_.setNow(span.tickAt(i));
                oracle_.onActivate(bank, span.rows[i]);
            }
        } else {
            for (std::size_t i = 0; i < n; ++i)
                oracle_.onActivate(bank, span.rows[i]);
        }
    }
    BankState &s = banks_[bank];
    s.counts.acts += n;
    if (tracker_)
        owe(s, n);
    return n;
}

void
Protection::refresh(BankId bank, Tick t)
{
    if (oracleOn_)
        oracle_.onAutoRefresh(bank, refreshGroups_);
    if (tracker_)
        tracker_->onRefresh(bank, t);
    BankState &s = banks_[bank];
    ++s.counts.refs;
    // An owed RFM is not cancelled by a REF.
    if (raaRefDecrement_ != 0 && !s.rfmOwed)
        s.raa = s.raa > raaRefDecrement_ ? s.raa - raaRefDecrement_ : 0;
}

std::size_t
Protection::rfm(BankId bank, Tick t)
{
    BankState &s = banks_[bank];
    clearRfm(s);
    scratch_.clear();
    if (tracker_)
        tracker_->onRfm(bank, t, scratch_);
    const auto treated = static_cast<std::uint32_t>(scratch_.size());
    if (events_) {
        events_->record(telemetry::EventKind::RfmIssued, t, bank,
                        treated ? scratch_.front() : kInvalidRow,
                        treated);
    }
    if (oracleOn_) {
        for (RowId aggressor : scratch_)
            oracle_.onNeighborRefresh(bank, aggressor);
    }
    ++s.counts.rfms;
    if (treated == 0)
        ++s.counts.idleRfms;
    s.counts.preventive += treated;
    return treated;
}

void
Protection::skipRfm(BankId bank, Tick t)
{
    BankState &s = banks_[bank];
    clearRfm(s);
    ++s.counts.mrrSkips;
    if (events_) {
        events_->record(telemetry::EventKind::RfmSkipped, t, bank,
                        kInvalidRow);
    }
}

void
Protection::arr(BankId bank, Tick t)
{
    BankState &s = banks_[bank];
    MITHRIL_ASSERT(s.arrHead < s.arr.size());
    const RowId aggressor = s.arr[s.arrHead++];
    if (s.arrHead == s.arr.size()) {
        s.arr.clear();
        s.arrHead = 0;
    }
    if (events_) {
        events_->record(telemetry::EventKind::ArrFired, t, bank,
                        aggressor, 1);
    }
    if (oracleOn_)
        oracle_.onNeighborRefresh(bank, aggressor);
    ++s.counts.arrs;
    ++s.counts.preventive;
}

Protection::Counts
Protection::total(BankId lo, BankId hi) const
{
    Counts sum;
    hi = std::min<BankId>(hi, static_cast<BankId>(banks_.size()));
    for (BankId b = lo; b < hi; ++b)
        sum += banks_[b].counts;
    return sum;
}

} // namespace mithril::dram
