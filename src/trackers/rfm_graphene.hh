/**
 * @file
 * RFM-Graphene: the strawman of Section III-A / Figure 2.
 *
 * It ports Graphene's reactive policy onto the RFM interface naively:
 * when a row's estimated count crosses the predefined threshold the row
 * is merely *buffered*, and each subsequent RFM command treats one
 * buffered row. Because RFM commands are periodic (one per RFM_TH ACTs)
 * rather than on-demand, an attacker can drive many rows across the
 * threshold in quick succession; the last buffered row then waits
 * through queue_depth * RFM_TH further ACTs, so the safe FlipTH
 * saturates no matter how low the threshold is set. This class exists
 * to reproduce exactly that pathology.
 */

#ifndef MITHRIL_TRACKERS_RFM_GRAPHENE_HH
#define MITHRIL_TRACKERS_RFM_GRAPHENE_HH

#include <deque>
#include <vector>

#include "core/cbs_table.hh"
#include "trackers/rh_protection.hh"

namespace mithril::trackers
{

/** Construction parameters for the RFM-Graphene strawman. */
struct RfmGrapheneParams
{
    std::uint32_t nEntry;     //!< CbS entries per bank.
    std::uint32_t threshold;  //!< Buffering trigger.
    std::uint32_t rfmTh;      //!< RFM threshold.
    Tick resetInterval;       //!< Table reset period (tREFW).
    std::uint32_t rowBits = 16;
    std::uint32_t counterBits = 20;
};

/** Naive threshold-buffered RFM scheme (intentionally flawed). */
class RfmGraphene : public RhProtection
{
  public:
    RfmGraphene(std::uint32_t num_banks,
                const RfmGrapheneParams &params);

    std::string name() const override { return "RFM-Graphene"; }
    Location location() const override { return Location::Dram; }

    bool usesRfm() const override { return true; }
    std::uint32_t rfmTh() const override { return params_.rfmTh; }
    bool throttles() const override { return false; }

    void onActivate(BankId bank, RowId row, Tick now,
                    std::vector<RowId> &arr_aggressors) override;

    /** Batched hot path: buffering never requests ARR, so the whole
     *  span is consumed in one cached-touch loop. */
    std::size_t onActivateBatch(const ActSpan &span,
                                std::vector<RowId> &arr_aggressors)
        override;

    void onRfm(BankId bank, Tick now,
               std::vector<RowId> &aggressors) override;

    double tableBytesPerBank() const override;

    void mergeStatsFrom(const RhProtection &other) override;

    /** Deepest pending-queue backlog observed (the failure signature). */
    std::size_t maxQueueDepth() const { return maxQueueDepth_; }

  private:
    RfmGrapheneParams params_;
    std::vector<core::CbsTable> tables_;
    std::vector<Tick> lastReset_;
    std::vector<std::deque<RowId>> pending_;
    std::size_t maxQueueDepth_ = 0;
};

} // namespace mithril::trackers

#endif // MITHRIL_TRACKERS_RFM_GRAPHENE_HH
