/**
 * @file
 * PARA (Kim et al., ISCA 2014): probabilistic adjacent row activation.
 *
 * On every ACT the MC flips a biased coin; with probability p it issues
 * an ARR that refreshes the activated row's neighbours. No counters at
 * all, so the area cost is zero, but protection is only probabilistic:
 * p must rise as FlipTH falls, increasing overhead.
 */

#ifndef MITHRIL_TRACKERS_PARA_HH
#define MITHRIL_TRACKERS_PARA_HH

#include "common/random.hh"
#include "trackers/rh_protection.hh"

namespace mithril::trackers
{

/** PARA probabilistic ARR scheme. */
class Para : public RhProtection
{
  public:
    /**
     * @param probability Per-ACT ARR probability.
     * @param seed        Base RNG seed (deterministic runs). Bank b
     *                    draws from its own stream seeded with
     *                    bankSeed(seed, b), so the draw sequence of a
     *                    bank is independent of how banks interleave
     *                    or shard.
     * @param num_banks   Number of banks observed.
     */
    explicit Para(double probability, std::uint64_t seed = 1,
                  std::uint32_t num_banks = 1);

    std::string name() const override { return "PARA"; }
    Location location() const override { return Location::Mc; }
    bool throttles() const override { return false; }

    void onActivate(BankId bank, RowId row, Tick now,
                    std::vector<RowId> &arr_aggressors) override;

    /** Batched hot path: one RNG draw per record, no virtual hops;
     *  stops at the first triggered ARR per the batch contract. */
    std::size_t onActivateBatch(const ActSpan &span,
                                std::vector<RowId> &arr_aggressors)
        override;

    double tableBytesPerBank() const override { return 0.0; }

    double probability() const { return probability_; }

    /**
     * Probability needed so that the chance any single aggressor
     * reaches flip_th/2 unrefreshed ACTs stays below fail_target:
     * solve (1-p)^(flip_th/2) <= fail_target.
     */
    static double requiredProbability(std::uint32_t flip_th,
                                      double fail_target);

  private:
    double probability_;
    std::vector<Rng> rngs_;  //!< One independent stream per bank.
};

} // namespace mithril::trackers

#endif // MITHRIL_TRACKERS_PARA_HH
