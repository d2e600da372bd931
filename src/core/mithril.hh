/**
 * @file
 * The Mithril RH-protection scheme (Section IV) and its Mithril+
 * extension (Section V-B).
 *
 * Per bank, Mithril keeps a CbS table (address CAM + count CAM with
 * MaxPtr/MinPtr). Every ACT updates the table; every RFM command
 * greedily selects the MaxPtr row, preventively refreshes its victims,
 * and lowers its counter to the table minimum. With
 * M(Nentry, RFM_TH) < FlipTH/2 (Theorem 1) the scheme is
 * deterministically safe.
 *
 * Adaptive refresh (AdTH > 0): the preventive refresh is skipped when
 * the MaxPtr-MinPtr spread is at most AdTH, which filters the benign
 * large-object-sweep patterns of ordinary workloads (Figure 8) and
 * nearly eliminates the scheme's energy overhead (Figure 7). Safety
 * then follows from the Theorem 2 bound M'.
 *
 * Mithril+ (plusMode): the spread>AdTH flag is exposed through a mode
 * register; the MC polls it with a standard MRR read at every RAA epoch
 * and skips issuing the RFM command entirely when clear, removing the
 * performance overhead as well.
 */

#ifndef MITHRIL_CORE_MITHRIL_HH
#define MITHRIL_CORE_MITHRIL_HH

#include <cstdint>
#include <vector>

#include "core/cbs_tracker.hh"

namespace mithril::core
{

/** Construction parameters for the Mithril logic. */
struct MithrilParams
{
    std::uint32_t nEntry = 512;      //!< CbS entries per bank.
    std::uint32_t rfmTh = 64;        //!< RFM threshold for the MC.
    std::uint32_t adTh = 0;          //!< Adaptive threshold (0 = always
                                     //!< refresh on RFM).
    std::uint32_t rowBits = 16;      //!< Address CAM width.
    std::uint32_t counterBits = 32;  //!< Wrapping counter width.
    bool plusMode = false;           //!< Mithril+ MRR-skip extension.
};

/** Mithril / Mithril+ tracker: a CbS tracker that acts on RFM. */
class Mithril : public CbsTracker
{
  public:
    Mithril(std::uint32_t num_banks, const MithrilParams &params);

    std::string name() const override;
    trackers::Location location() const override
    {
        return trackers::Location::Dram;
    }

    bool usesRfm() const override { return true; }
    std::uint32_t rfmTh() const override { return params_.rfmTh; }

    void onRfm(BankId bank, Tick now,
               std::vector<RowId> &aggressors) override;

    bool rfmPending(BankId bank) const override;

    void mergeStatsFrom(const trackers::RhProtection &other) override;

    void exportMetrics(telemetry::MetricSheet &sheet) const override;

    const MithrilParams &params() const { return params_; }

    /** RFM commands whose preventive refresh was skipped (adaptive). */
    std::uint64_t adaptiveSkips() const { return adaptiveSkips_; }

  private:
    MithrilParams params_;
    std::uint64_t adaptiveSkips_ = 0;
};

/** The paper's default RFM_TH for Mithril at a given FlipTH
 *  (Section VI-A: 256 at >=12.5K, down to 32 at 1.5K). */
std::uint32_t defaultMithrilRfmTh(std::uint32_t flip_th);

} // namespace mithril::core

#endif // MITHRIL_CORE_MITHRIL_HH
