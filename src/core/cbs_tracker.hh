/**
 * @file
 * The one observation path of the Counter-based Summary trackers:
 * Mithril/Mithril+ (Section IV), Graphene, and the RFM-Graphene
 * strawman (Section III-A). All three touch a per-bank CbS table on
 * every ACT and differ only in what a touch or an RFM triggers.
 *
 * A scheme built with a threshold T hears of every touch whose new
 * estimate is a multiple of T through onCrossing(): Graphene requests
 * an ARR there, RFM-Graphene queues the row for its next RFM. Mithril
 * passes no threshold and acts only on RFM.
 */

#ifndef MITHRIL_CORE_CBS_TRACKER_HH
#define MITHRIL_CORE_CBS_TRACKER_HH

#include <cstdint>
#include <vector>

#include "core/cbs_table.hh"
#include "trackers/rh_protection.hh"

namespace mithril::core
{

/** One CbS table per bank behind the RhProtection ACT hooks. */
class CbsTracker : public trackers::RhProtection
{
  public:
    bool throttles() const override { return false; }

    /** Reset the bank's table if its interval has passed, touch the
     *  row, and report a threshold crossing. One logic op. */
    void onActivate(BankId bank, RowId row, Tick now,
                    std::vector<RowId> &arr_aggressors) final;

    /** Batched hot path: one CbsTable::touchRun per threshold
     *  crossing, ending the span at the first crossing that requests
     *  ARR per the batch contract. */
    std::size_t onActivateBatch(const trackers::ActSpan &span,
                                std::vector<RowId> &arr_aggressors)
        final;

    /** nEntry * (rowBits + counterBits) / 8. */
    double tableBytesPerBank() const override;

    /** The logic-op counter plus `tracker.cbs.touches`, `.inserts`
     *  and `.evictions`, summed over banks. */
    void exportMetrics(telemetry::MetricSheet &sheet) const override;

    /** Direct table access for tests and analysis. */
    const CbsTable &table(BankId bank) const { return tables_.at(bank); }

    BankId numBanks() const { return static_cast<BankId>(tables_.size()); }

    /** Threshold crossings reported so far. */
    std::uint64_t crossings() const { return crossings_; }

    /** Folds the crossing count (and the base's logic ops). */
    void mergeStatsFrom(const trackers::RhProtection &other) override;

  protected:
    /**
     * `threshold` 0 reports no crossings; `reset_interval` 0 never
     * clears a table. Otherwise a bank's table is cleared at the
     * first ACT a full interval after its last reset.
     */
    CbsTracker(std::uint32_t num_banks, std::uint32_t n_entry,
               std::uint32_t row_bits, std::uint32_t counter_bits,
               std::uint32_t threshold = 0, Tick reset_interval = 0);

    /**
     * A touch of `row` on `bank` just raised its estimate to a
     * multiple of the threshold. Appending to the aggressor list
     * requests an immediate ARR, which also ends a batched span.
     */
    virtual void onCrossing(BankId, RowId, std::vector<RowId> &) {}

    /** The bank's table was just cleared at its reset interval. */
    virtual void onTableReset(BankId) {}

    CbsTable &mutableTable(BankId bank) { return tables_.at(bank); }

  private:
    /** True once `now` is a full reset interval past the bank's last
     *  reset. */
    bool resetDue(BankId bank, Tick now) const
    {
        return resetInterval_ > 0 &&
               now - lastReset_.at(bank) >= resetInterval_;
    }

    /** Touch the row, recording the insert or eviction it caused
     *  while tracing. Returns the row's new estimate. */
    std::uint64_t touch(CbsTable &table, BankId bank, RowId row,
                        Tick now);

    std::vector<CbsTable> tables_;
    std::vector<Tick> lastReset_;
    std::uint32_t rowBits_;
    std::uint32_t threshold_;
    Tick resetInterval_;
    std::uint64_t crossings_ = 0;
};

} // namespace mithril::core

#endif // MITHRIL_CORE_CBS_TRACKER_HH
