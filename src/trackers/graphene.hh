/**
 * @file
 * Graphene (Park et al., MICRO 2020): deterministic MC-side tracker
 * built on the same Counter-based Summary algorithm as Mithril, but
 * with the classic reactive ARR remedy: the moment a row's estimated
 * count crosses a multiple of the predefined threshold, its victims are
 * refreshed immediately.
 *
 * Graphene resets its tables every reset interval (tREFW by default),
 * which is why its safe threshold is FlipTH/4 instead of FlipTH/2 —
 * an aggressor can straddle the reset point with T-1 ACTs on each side.
 */

#ifndef MITHRIL_TRACKERS_GRAPHENE_HH
#define MITHRIL_TRACKERS_GRAPHENE_HH

#include <vector>

#include "core/cbs_table.hh"
#include "trackers/rh_protection.hh"

namespace mithril::trackers
{

/** Construction parameters for Graphene. */
struct GrapheneParams
{
    std::uint32_t nEntry;        //!< CbS entries per bank.
    std::uint32_t threshold;     //!< Predefined ARR trigger (FlipTH/4).
    Tick resetInterval;          //!< Table reset period (tREFW).
    std::uint32_t rowBits = 16;
    std::uint32_t counterBits = 20;
};

/** Graphene deterministic ARR-based tracker. */
class Graphene : public RhProtection
{
  public:
    Graphene(std::uint32_t num_banks, const GrapheneParams &params);

    std::string name() const override { return "Graphene"; }
    Location location() const override { return Location::Mc; }
    bool throttles() const override { return false; }

    void onActivate(BankId bank, RowId row, Tick now,
                    std::vector<RowId> &arr_aggressors) override;

    /** Batched hot path: cached-touch loop with the table lookup and
     *  reset bookkeeping hoisted; stops at the first ARR trigger per
     *  the batch contract. */
    std::size_t onActivateBatch(const ActSpan &span,
                                std::vector<RowId> &arr_aggressors)
        override;

    double tableBytesPerBank() const override;

    void mergeStatsFrom(const RhProtection &other) override;

    void exportMetrics(telemetry::MetricSheet &sheet) const override;

    const GrapheneParams &params() const { return params_; }
    const core::CbsTable &table(BankId bank) const
    {
        return tables_.at(bank);
    }

    /** ARR preventive refreshes triggered so far. */
    std::uint64_t arrCount() const { return arrCount_; }

    /**
     * Entry count needed so that every row reaching the threshold is
     * guaranteed on-table: ceil(max ACTs per reset window / threshold).
     */
    static std::uint32_t requiredEntries(std::uint64_t max_acts,
                                         std::uint32_t threshold);

  private:
    GrapheneParams params_;
    std::vector<core::CbsTable> tables_;
    std::vector<Tick> lastReset_;
    std::uint64_t arrCount_ = 0;
};

} // namespace mithril::trackers

#endif // MITHRIL_TRACKERS_GRAPHENE_HH
