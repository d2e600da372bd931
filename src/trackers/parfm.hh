/**
 * @file
 * PARFM (Section III-E): the PARA-inspired probabilistic RFM scheme.
 *
 * On every RFM command the DRAM refreshes the victims of one row
 * sampled uniformly from the ACTs of the elapsed RFM interval
 * (single-register reservoir sampling, exactly implementable in
 * hardware). Protection is probabilistic; RFM_TH must be set low enough
 * for the target failure probability (Appendix C), which is what makes
 * PARFM energy-hungry at low FlipTH.
 */

#ifndef MITHRIL_TRACKERS_PARFM_HH
#define MITHRIL_TRACKERS_PARFM_HH

#include <vector>

#include "common/random.hh"
#include "trackers/rh_protection.hh"

namespace mithril::trackers
{

/** PARFM probabilistic RFM-based scheme. */
class Parfm : public RhProtection
{
  public:
    /**
     * @param num_banks Number of banks tracked.
     * @param rfm_th    RFM threshold (sampling period).
     * @param seed      Base RNG seed; bank b samples from its own
     *                  stream seeded with bankSeed(seed, b), so the
     *                  reservoir picks of a bank are independent of
     *                  bank interleaving and engine sharding.
     */
    Parfm(std::uint32_t num_banks, std::uint32_t rfm_th,
          std::uint64_t seed = 2);

    std::string name() const override { return "PARFM"; }
    Location location() const override { return Location::Dram; }

    bool usesRfm() const override { return true; }
    std::uint32_t rfmTh() const override { return rfmTh_; }
    bool throttles() const override { return false; }

    void onActivate(BankId bank, RowId row, Tick now,
                    std::vector<RowId> &arr_aggressors) override;

    void onRfm(BankId bank, Tick now,
               std::vector<RowId> &aggressors) override;

    /** One sampled-address register + one interval counter per bank. */
    double tableBytesPerBank() const override { return 8.0; }

  private:
    std::uint32_t rfmTh_;
    std::vector<Rng> rngs_;  //!< One independent stream per bank.

    struct Reservoir
    {
        RowId sampled = kInvalidRow;
        std::uint32_t seen = 0;
    };

    std::vector<Reservoir> reservoirs_;
};

} // namespace mithril::trackers

#endif // MITHRIL_TRACKERS_PARFM_HH
