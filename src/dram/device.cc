#include "device.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/metric_sheet.hh"

namespace mithril::dram
{

Device::Device(const Timing &timing, const Geometry &geometry,
               std::uint32_t flip_th, std::uint32_t blast_radius)
    : timing_(timing), geometry_(geometry),
      oracle_(geometry.totalBanks(), geometry.rowsPerBank, flip_th,
              blast_radius),
      blastRadius_(blast_radius)
{
    const std::uint32_t total_banks = geometry_.totalBanks();
    banks_.reserve(total_banks);
    for (std::uint32_t b = 0; b < total_banks; ++b)
        banks_.emplace_back(timing_);

    const std::uint32_t total_ranks =
        geometry_.channels * geometry_.ranksPerChannel;
    ranks_.reserve(total_ranks);
    for (std::uint32_t r = 0; r < total_ranks; ++r)
        ranks_.emplace_back(timing_);
}

void
Device::activate(BankId b, RowId row, Tick t, std::vector<RowId> &arr_out)
{
    banks_.at(b).doActivate(t, row);
    ranks_.at(rankOf(b)).recordAct(t);
    energy_.addAct();
    // Event-timestamp cursor for oracle flip/near-miss tracing (one
    // dead store when no recorder is attached).
    oracle_.setNow(t);
    oracle_.onActivate(b, row);
    if (actObserver_)
        actObserver_(b, row, t);
    if (tracker_)
        tracker_->onActivate(b, row, t, arr_out);
}

void
Device::precharge(BankId b, Tick t)
{
    banks_.at(b).doPrecharge(t);
    energy_.addPre();
}

Tick
Device::read(BankId b, Tick t)
{
    energy_.addRead();
    return banks_.at(b).doRead(t);
}

Tick
Device::write(BankId b, Tick t)
{
    energy_.addWrite();
    return banks_.at(b).doWrite(t);
}

void
Device::autoRefreshRank(std::uint32_t flat_rank, Tick t)
{
    const std::uint32_t groups = refreshGroups(timing_);
    const std::uint32_t rows_per_group =
        (geometry_.rowsPerBank + groups - 1) / groups;
    const BankId first = flat_rank * geometry_.banksPerRank;
    for (std::uint32_t i = 0; i < geometry_.banksPerRank; ++i) {
        const BankId b = first + i;
        Bank &bank = banks_.at(b);
        // The controller must have closed the bank already.
        MITHRIL_ASSERT(!bank.isOpen());
        bank.doRefresh(std::max(t, bank.earliestRefresh(t)), timing_.tRFC);
        oracle_.onAutoRefresh(b, groups);
        energy_.addRefreshRows(rows_per_group);
        if (tracker_)
            tracker_->onRefresh(b, t);
    }
}

void
Device::autoRefreshBank(BankId b, Tick t)
{
    const std::uint32_t groups = refreshGroups(timing_);
    const std::uint32_t rows_per_group =
        (geometry_.rowsPerBank + groups - 1) / groups;
    Bank &bank = banks_.at(b);
    MITHRIL_ASSERT(!bank.isOpen());
    bank.doRefresh(std::max(t, bank.earliestRefresh(t)),
                   timing_.tRFCsb);
    oracle_.onAutoRefresh(b, groups);
    energy_.addRefreshRows(rows_per_group);
    if (tracker_)
        tracker_->onRefresh(b, t);
}

std::size_t
Device::rfm(BankId b, Tick t)
{
    Bank &bank = banks_.at(b);
    MITHRIL_ASSERT(!bank.isOpen());
    bank.doRefresh(t, timing_.tRFM);
    ++rfmCount_;

    scratch_.reset();
    if (tracker_)
        tracker_->onRfm(b, t, scratch_.arr);

    if (scratch_.arr.empty()) {
        ++rfmSkipped_;
        return 0;
    }
    for (RowId aggressor : scratch_.arr) {
        oracle_.onNeighborRefresh(b, aggressor);
        energy_.addPreventiveRows(2ull * blastRadius_);
        ++preventiveCount_;
    }
    return scratch_.arr.size();
}

void
Device::preventiveRefresh(BankId b, RowId aggressor, Tick t)
{
    Bank &bank = banks_.at(b);
    MITHRIL_ASSERT(!bank.isOpen());
    // Refreshing the 2*radius victims costs about one row cycle each.
    const Tick duration =
        static_cast<Tick>(2 * blastRadius_) * timing_.tRC;
    bank.doRefresh(std::max(t, bank.earliestRefresh(t)), duration);
    oracle_.onNeighborRefresh(b, aggressor);
    energy_.addPreventiveRows(2ull * blastRadius_);
    ++preventiveCount_;
}

void
Device::exportMetrics(telemetry::MetricSheet &sheet) const
{
    sheet.setCounter("dram.acts", energy_.acts());
    sheet.setCounter("dram.pres", energy_.pres());
    sheet.setCounter("dram.refresh_rows", energy_.refreshRows());
    sheet.setCounter("dram.preventive_rows", energy_.preventiveRows());
    sheet.setCounter("dram.rfm_count", rfmCount_);
    sheet.setCounter("dram.rfm_skipped", rfmSkipped_);
    oracle_.exportMetrics(sheet);
}

} // namespace mithril::dram
