/**
 * @file
 * TWiCe (Lee et al., ISCA 2019): deterministic buffer-chip tracker
 * based on the Lossy Counting streaming algorithm.
 *
 * Each tracked row holds an activation count and a lifetime (in refresh
 * intervals). At every tREFI checkpoint the lifetime of every valid
 * entry increments and entries whose count lags the pruning rate
 * (count < life * th_PI) are dropped — a row that cannot reach the RH
 * threshold inside the window no longer needs tracking. When a row's
 * count reaches the RH threshold its victims are refreshed via a
 * feedback-augmented ARR and the entry resets.
 */

#ifndef MITHRIL_TRACKERS_TWICE_HH
#define MITHRIL_TRACKERS_TWICE_HH

#include <unordered_map>
#include <vector>

#include "trackers/rh_protection.hh"

namespace mithril::trackers
{

/** Construction parameters for TWiCe. */
struct TwiceParams
{
    std::uint32_t capacity;     //!< Max tracked rows per bank.
    std::uint32_t rhThreshold;  //!< ARR trigger (FlipTH/4).
    /** Pruning rate as a rational th_RO / windowIntervals: an entry
     *  is dropped at a checkpoint when
     *  count * pruneRateDen < pruneRateNum * life, i.e. its average
     *  rate cannot reach th_RO within one tREFW. */
    std::uint32_t pruneRateNum;
    std::uint32_t pruneRateDen = 1;
    std::uint32_t rowBits = 16;
    std::uint32_t entryBits = 40;  //!< addr + count + life + valid.
};

/** TWiCe lossy-counting tracker. */
class Twice : public RhProtection
{
  public:
    Twice(std::uint32_t num_banks, const TwiceParams &params);

    std::string name() const override { return "TWiCe"; }
    Location location() const override { return Location::BufferChip; }
    bool throttles() const override { return false; }

    void onActivate(BankId bank, RowId row, Tick now,
                    std::vector<RowId> &arr_aggressors) override;

    /** Batched hot path: onActivate()'s per-ACT step with the bank
     *  lookup hoisted and a 2-way (row -> entry) iterator cache, so
     *  the hot hammer pair skips the hash probe; stops at the first
     *  ARR per the batch contract. Byte-identical to the scalar loop. */
    std::size_t onActivateBatch(const ActSpan &span,
                                std::vector<RowId> &arr_aggressors)
        override;

    /** tREFI checkpoint: age and prune. */
    void onRefresh(BankId bank, Tick now) override;

    double tableBytesPerBank() const override;

    void mergeStatsFrom(const RhProtection &other) override;

    const TwiceParams &params() const { return params_; }

    /** Live entries in a bank's table. */
    std::size_t liveEntries(BankId bank) const
    {
        return tables_.at(bank).size();
    }

    /** Peak occupancy across all banks (validates the sizing claim). */
    std::size_t peakOccupancy() const { return peakOccupancy_; }

    /** ARR preventive refreshes triggered so far. */
    std::uint64_t arrCount() const { return arrCount_; }

    /** Times an insert found the table full (sizing violation). */
    std::uint64_t overflows() const { return overflows_; }

  private:
    struct EntryState
    {
        std::uint32_t count = 0;
        std::uint32_t life = 0;
    };

    using Table = std::unordered_map<RowId, EntryState>;

    /** The row's entry, inserted (`inserted` says so) when missing,
     *  after evicting the lowest count from a full table. */
    Table::iterator entryOf(Table &table, RowId row, bool &inserted);

    /** Count one ACT on the row's entry; at the threshold book its ARR
     *  and erase the entry, and return true. */
    bool countAct(Table &table, Table::iterator it, RowId row,
                  std::vector<RowId> &arr_aggressors);

    TwiceParams params_;
    std::vector<Table> tables_;
    std::size_t peakOccupancy_ = 0;
    std::uint64_t arrCount_ = 0;
    std::uint64_t overflows_ = 0;
};

} // namespace mithril::trackers

#endif // MITHRIL_TRACKERS_TWICE_HH
