/**
 * @file
 * Ground-truth Row Hammer oracle.
 *
 * Independent of any protection scheme, the oracle maintains for every
 * row the number of disturbances (aggressor activations weighted by
 * distance) it has absorbed since it was last refreshed by any means
 * (auto-refresh, ARR, or an RFM preventive refresh). A row whose
 * disturbance count reaches FlipTH has, by definition, flipped bits.
 *
 * The oracle is the arbiter of every safety claim in this repository:
 * a scheme is deterministically safe iff no workload can drive the
 * oracle's high-water mark to FlipTH.
 */

#ifndef MITHRIL_DRAM_RH_ORACLE_HH
#define MITHRIL_DRAM_RH_ORACLE_HH

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "common/types.hh"

namespace mithril::telemetry
{
class EventRecorder;
class MetricSheet;
}

namespace mithril::dram
{

/** Disturbance bookkeeping for one or more banks. */
class RhOracle
{
  public:
    /**
     * @param banks        Number of banks tracked.
     * @param rows_per_bank Rows per bank.
     * @param flip_th      Disturbance count at which a bit flip occurs.
     * @param blast_radius How far (in rows) an aggressor disturbs its
     *                     neighbours. 1 models the classic double-sided
     *                     setting; 2 adds half-double style coupling
     *                     with quarter weight.
     */
    RhOracle(std::uint32_t banks, std::uint32_t rows_per_bank,
             std::uint32_t flip_th, std::uint32_t blast_radius = 1);

    /** Record one activation of the given row. */
    void onActivate(BankId bank, RowId row);

    /** Record a refresh of exactly this row (resets its disturbance). */
    void onRowRefresh(BankId bank, RowId row);

    /**
     * Record a preventive refresh around an aggressor: refreshes the
     * 2*radius neighbouring victim rows (not the aggressor itself).
     */
    void onNeighborRefresh(BankId bank, RowId aggressor);

    /**
     * Record an auto-refresh REF command: the next rows-per-group rows
     * (per the rotating refresh pointer) of every bank covered by the
     * REF are refreshed.
     * @param bank   Bank the REF applies to.
     * @param groups Number of refresh groups per tREFW (typically 8192).
     */
    void onAutoRefresh(BankId bank, std::uint32_t groups);

    /** Current disturbance count of a row (scaled by 4 internally to
     *  express quarter weights; this returns the full-ACT equivalent). */
    double disturbance(BankId bank, RowId row) const;

    /** Highest disturbance any row has ever reached before a refresh. */
    double maxDisturbanceEver() const
    {
        return static_cast<double>(maxDisturbanceQ_) / 4.0;
    }

    /** Number of (row, episode) bit-flip events: a row crossing FlipTH. */
    std::uint64_t bitFlips() const { return bitFlips_; }

    /** Number of distinct rows that have ever flipped. */
    std::uint64_t flippedRows() const { return flippedRows_.size(); }

    /** Set the `oracle.bit_flips` and `oracle.flipped_rows` counters
     *  and the `oracle.max_disturbance` gauge. */
    void exportMetrics(telemetry::MetricSheet &sheet) const;

    /** Configured FlipTH. */
    std::uint32_t flipTh() const { return flipTh_; }

    /** Reset all disturbance state (not the high-water mark). */
    void resetCounts();

    /**
     * Attach a mitigation-event recorder: flip and near-miss
     * crossings emit OracleFlip / NearMiss events stamped with the
     * tick last given to setNow(). Observation only — attaching a
     * recorder never changes oracle state. Null detaches.
     */
    void setEventRecorder(telemetry::EventRecorder *recorder)
    {
        recorder_ = recorder;
    }

    /** Event timestamp cursor: the oracle has no clock of its own,
     *  so the frontend stamps each activation's tick before the
     *  onActivate() call (only needed while tracing). */
    void setNow(Tick now) { now_ = now; }

    /** Blocks currently held (each covers 8 rows with a nonzero
     *  count); memory is proportional to this, not to the geometry. */
    std::size_t liveBlocks() const { return live_; }

    /** Slots in the block table (a power of two, at least twice
     *  liveBlocks()). */
    std::size_t blockSlots() const { return keys_.size(); }

  private:
    static constexpr std::uint32_t kRowsPerBlock = 8;

    /** Quarter-ACT counts of 8 consecutive rows of one bank: one
     *  cache line, so an ACT's distance-1 victims usually share it. */
    struct alignas(64) Block
    {
        std::uint64_t q[kRowsPerBlock];
    };

    static std::uint64_t blockKey(BankId bank, RowId row)
    {
        return (static_cast<std::uint64_t>(bank) << 32) |
               (row / kRowsPerBlock);
    }

    /** Fibonacci hash of a block key onto the table. */
    std::size_t homeSlot(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> hashShift_);
    }

    /** Slot holding `key`, or keys_.size() when absent. */
    std::size_t findSlot(std::uint64_t key) const;
    /** The block for `key`, inserted zeroed when absent. */
    Block &blockFor(std::uint64_t key);
    /** Allocate `slots` empty slots and re-insert every live block. */
    void rehash(std::size_t slots);
    /** Zero rows [lo, hi) of one bank; hi <= rowsPerBank. */
    void clearRows(BankId bank, RowId lo, RowId hi);
    /** Remove slot i (backward-shift deletion, no tombstones). */
    void eraseSlot(std::size_t i);

    void disturb(BankId bank, RowId row, std::uint32_t weight_q);

    std::uint32_t banks_;
    std::uint32_t rowsPerBank_;
    std::uint32_t flipTh_;
    std::uint32_t blastRadius_;

    /**
     * Disturbance counts in quarter-ACT units, sparse: an
     * open-addressing table (linear probing, power-of-two size, load
     * at most 1/2) of 8-row blocks keyed by blockKey(), keys and
     * blocks in parallel arrays. A block exists only while one of its
     * rows has a nonzero count, so memory follows the disturbed rows.
     * Not dense per bank: every engine shard owns a full-geometry
     * oracle, and 64 banks x 65,536 rows of counts is 32 MB a shard
     * (or a System), most of it for rows a run never disturbs.
     */
    std::vector<std::uint64_t> keys_;
    std::vector<Block> blocks_;
    std::size_t live_ = 0;
    unsigned hashShift_ = 0;  //!< 64 - log2(blockSlots()).
    /** Per-bank auto-refresh rotation pointer (next row to refresh). */
    std::vector<RowId> refreshPtr_;

    std::uint64_t maxDisturbanceQ_ = 0;
    std::uint64_t bitFlips_ = 0;
    /** (bank << 32 | row) of every row that has ever flipped. */
    std::set<std::uint64_t> flippedRows_;

    telemetry::EventRecorder *recorder_ = nullptr;
    Tick now_ = 0;
};

} // namespace mithril::dram

#endif // MITHRIL_DRAM_RH_ORACLE_HH
