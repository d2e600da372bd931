/**
 * @file
 * Bounded-memory ACT heatmap: per-bank row-region activation
 * histograms with power-of-two region coarsening.
 *
 * Each bank aggregates activations into regions of 2^g consecutive
 * rows, starting at single-row granularity (g = 0). Whenever a bank's
 * distinct-region count exceeds its budget, the granularity doubles
 * and adjacent regions fold together — the DAMON split/merge idea in
 * miniature: memory stays bounded by the budget while hot rows keep
 * the finest resolution the traffic allows. Coarsening depends only
 * on the bank's own ACT sequence, so snapshots are invariant under
 * the engine's shard partition.
 */

#ifndef MITHRIL_TELEMETRY_HEATMAP_HH
#define MITHRIL_TELEMETRY_HEATMAP_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mithril::telemetry
{

class MetricSheet;

/** One bank's snapshot: regions of 2^granularityLog2 rows. */
struct HeatmapBankSnapshot
{
    BankId bank = 0;
    std::uint32_t granularityLog2 = 0;
    std::uint64_t folds = 0; //!< Times the bank's regions coarsened.
    /** region index (row >> granularityLog2) -> ACT count. */
    std::map<RowId, std::uint64_t> regions;
};

/** Bounded-memory per-bank activation histogram. */
class ActHeatmap
{
  public:
    /**
     * @param num_banks      Global bank count.
     * @param region_budget  Max distinct regions per bank (>= 1).
     */
    ActHeatmap(std::uint32_t num_banks, std::uint32_t region_budget);

    /** Count one activation (hot path only when enabled). */
    void touch(BankId bank, RowId row, std::uint64_t weight = 1);

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    std::uint32_t granularityLog2(BankId bank) const
    {
        return banks_.at(bank).granularityLog2;
    }
    std::uint64_t folds(BankId bank) const
    {
        return banks_.at(bank).folds;
    }

    /** Total ACTs recorded across all banks. */
    std::uint64_t totalActs() const;

    /** Snapshot of one bank. */
    HeatmapBankSnapshot bankSnapshot(BankId bank) const;

    /** Snapshots of every non-empty bank, ascending bank order. */
    std::vector<HeatmapBankSnapshot> snapshot() const;

    /**
     * Fold another heatmap (same bank count and budget) into this
     * one. Banks align to the coarser granularity of the two sides
     * and re-coarsen if the union exceeds the budget; for the sharded
     * engine's disjoint bank sets this is a plain copy per bank.
     */
    void mergeFrom(const ActHeatmap &other);

    /** Render per-bank region tables (telemetry_cli output). */
    std::string dump() const;

    /** Set the `heatmap.acts`, `.folds` and `.regions` counters and
     *  the `heatmap.max_granularity_log2` gauge. */
    void exportMetrics(MetricSheet &sheet) const;

  private:
    struct BankMap
    {
        std::uint32_t granularityLog2 = 0;
        std::uint64_t folds = 0;
        std::map<RowId, std::uint64_t> regions;
    };

    /** Double the bank's granularity, folding adjacent regions. */
    static void coarsen(BankMap &bm);

    /** Coarsen until the bank fits its budget. */
    void fit(BankMap &bm);

    std::uint32_t budget_;
    std::vector<BankMap> banks_;
};

} // namespace mithril::telemetry

#endif // MITHRIL_TELEMETRY_HEATMAP_HH
