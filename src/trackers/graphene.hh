/**
 * @file
 * Graphene (Park et al., MICRO 2020) and the RFM-Graphene strawman of
 * Section III-A / Figure 2, both CbS trackers on Mithril's summary.
 *
 * Graphene is the deterministic MC-side tracker with the classic
 * reactive ARR remedy: the moment a row's estimated count crosses a
 * multiple of the predefined threshold, its victims are refreshed
 * immediately. It resets its tables every reset interval (tREFW by
 * default), which is why its safe threshold is FlipTH/4 instead of
 * FlipTH/2 — an aggressor can straddle the reset point with T-1 ACTs
 * on each side.
 *
 * RFM-Graphene ports that policy onto the RFM interface naively: a row
 * that crosses the threshold is merely *buffered*, and each subsequent
 * RFM command treats one buffered row. Because RFM commands are
 * periodic (one per RFM_TH ACTs) rather than on-demand, an attacker can
 * drive many rows across the threshold in quick succession; the last
 * buffered row then waits through queue_depth * RFM_TH further ACTs, so
 * the safe FlipTH saturates no matter how low the threshold is set.
 * The class exists to reproduce exactly that pathology.
 */

#ifndef MITHRIL_TRACKERS_GRAPHENE_HH
#define MITHRIL_TRACKERS_GRAPHENE_HH

#include <deque>
#include <vector>

#include "core/cbs_tracker.hh"

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
class Graphene : public core::CbsTracker
{
  public:
    Graphene(std::uint32_t num_banks, const GrapheneParams &params);

    std::string name() const override { return "Graphene"; }
    Location location() const override { return Location::Mc; }

    void exportMetrics(telemetry::MetricSheet &sheet) const override;

    const GrapheneParams &params() const { return params_; }

    /** ARR preventive refreshes triggered so far: one per crossing. */
    std::uint64_t arrCount() const { return crossings(); }

    /**
     * Entry count needed so that every row reaching the threshold is
     * guaranteed on-table: ceil(max ACTs per reset window / threshold).
     */
    static std::uint32_t requiredEntries(std::uint64_t max_acts,
                                         std::uint32_t threshold);

  private:
    /** Refresh the crossing row's victims now. */
    void onCrossing(BankId, RowId row,
                    std::vector<RowId> &arr_aggressors) override
    {
        arr_aggressors.push_back(row);
    }

    GrapheneParams params_;
};

/** Construction parameters for the RFM-Graphene strawman: Graphene's,
 *  with the threshold as the buffering trigger. */
struct RfmGrapheneParams : GrapheneParams
{
    std::uint32_t rfmTh;  //!< RFM threshold.
};

/** Naive threshold-buffered RFM scheme (intentionally flawed). */
class RfmGraphene : public core::CbsTracker
{
  public:
    RfmGraphene(std::uint32_t num_banks,
                const RfmGrapheneParams &params);

    std::string name() const override { return "RFM-Graphene"; }
    Location location() const override { return Location::Dram; }

    bool usesRfm() const override { return true; }
    std::uint32_t rfmTh() const override { return rfmTh_; }

    /** Treat the oldest buffered row of the bank, if any. */
    void onRfm(BankId bank, Tick now,
               std::vector<RowId> &aggressors) override;

    void mergeStatsFrom(const RhProtection &other) override;

    /** Deepest pending-queue backlog observed (the failure signature). */
    std::size_t maxQueueDepth() const { return maxQueueDepth_; }

  private:
    /** Buffer the crossing row for a later RFM instead of acting now —
     *  precisely what makes the scheme unsafe. */
    void onCrossing(BankId bank, RowId row,
                    std::vector<RowId> &arr_aggressors) override;

    /** A table reset forgets the buffered rows with the counts. */
    void onTableReset(BankId bank) override { pending_.at(bank).clear(); }

    std::uint32_t rfmTh_;
    std::vector<std::deque<RowId>> pending_;
    std::size_t maxQueueDepth_ = 0;
};

} // namespace mithril::trackers

#endif // MITHRIL_TRACKERS_GRAPHENE_HH
