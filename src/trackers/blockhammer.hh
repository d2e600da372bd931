/**
 * @file
 * BlockHammer (Yaglikci et al., HPCA 2021): MC-side throttling scheme
 * built on a pair of interleaved counting Bloom filters (CBFs).
 *
 * Every ACT inserts the row into both CBFs; the filters' lifetimes are
 * offset by half an epoch and each resets at the end of its own
 * lifetime, so at least one filter always carries at least half a
 * window of history. A row whose minimum CBF count reaches the
 * blacklist threshold NBL gets throttled: its ACTs are spaced at least
 * tDelay = (tCBF - NBL*tRC) / (FlipTH - NBL) apart, capping its ACT
 * rate below the hammering rate.
 *
 * The CBF is a lossy hash: benign rows that alias with an aggressor
 * (or with each other, in memory-intensive mixes) get blacklisted and
 * throttled too — the performance pathology Figures 10(a)/(c)
 * demonstrate.
 */

#ifndef MITHRIL_TRACKERS_BLOCKHAMMER_HH
#define MITHRIL_TRACKERS_BLOCKHAMMER_HH

#include <unordered_map>
#include <vector>

#include "common/simd.hh"
#include "trackers/rh_protection.hh"

namespace mithril::trackers
{

/** Construction parameters for BlockHammer. */
struct BlockHammerParams
{
    std::uint32_t cbfSize;       //!< Counters per CBF.
    std::uint32_t hashes = 4;    //!< Hash functions per CBF.
    std::uint32_t nbl;           //!< Blacklist threshold.
    std::uint32_t flipTh;        //!< Target FlipTH (sets tDelay).
    Tick tCbf;                   //!< CBF lifetime (typically tREFW).
    Tick tRc;                    //!< Row cycle time.
    std::uint32_t counterBits = 15;
    std::uint64_t seed = 0xb10cull;
};

/** BlockHammer throttling tracker. */
class BlockHammer : public RhProtection
{
  public:
    BlockHammer(std::uint32_t num_banks,
                const BlockHammerParams &params);

    std::string name() const override { return "BlockHammer"; }
    Location location() const override { return Location::Mc; }

    void onActivate(BankId bank, RowId row, Tick now,
                    std::vector<RowId> &arr_aggressors) override;

    /** Batched hot path: the span's rows are hashed block-at-a-time
     *  through simd::bloomHashRows (mix64 + exact
     *  Barrett modulo — no hardware divide), and each row's slots are
     *  reused for both filters' inserts *and* the blacklist estimate
     *  (the scalar path hashes 4x per ACT: two filter inserts plus
     *  estimate()), with the epoch-rotation check hoisted to the span
     *  boundary. Falls back to the scalar loop for the rare span that
     *  crosses a CBF lifetime boundary. Byte-identical to scalar. */
    std::size_t onActivateBatch(const ActSpan &span,
                                std::vector<RowId> &arr_aggressors)
        override;

    Tick throttleAct(BankId bank, RowId row, Tick now) override;

    double tableBytesPerBank() const override;

    /** Minimum count of the row across hashes, max over both CBFs. */
    std::uint32_t estimate(BankId bank, RowId row, Tick now) const;

    /** True when the row is currently blacklisted. */
    bool isBlacklisted(BankId bank, RowId row, Tick now) const;

    /** Enforced ACT spacing for blacklisted rows. */
    Tick delayQuantum() const { return tDelay_; }

  private:
    struct Cbf
    {
        std::vector<std::uint32_t> counts;
        Tick epochStart = 0;
    };

    struct BankState
    {
        Cbf filters[2];
        /** Last ACT time of rows observed while blacklisted. */
        std::unordered_map<RowId, Tick> lastBlacklistedAct;
    };

    std::size_t hashSlot(RowId row, std::uint32_t i) const;
    void rotateEpochs(BankState &state, Tick now) const;
    std::uint32_t minCount(const Cbf &filter, RowId row) const;

    BlockHammerParams params_;
    Tick tDelay_;
    /** Prepared exact divisor for `% cbfSize` (Barrett reduction). */
    simd::U64Divisor cbfMod_;
    std::vector<BankState> banks_;
    /** Reusable slot-index block for the batched path (one hash
     *  evaluation per row instead of four, a block of rows at a
     *  time). */
    std::vector<std::uint32_t> slotScratch_;
};

} // namespace mithril::trackers

#endif // MITHRIL_TRACKERS_BLOCKHAMMER_HH
