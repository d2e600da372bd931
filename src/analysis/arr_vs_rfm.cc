#include "arr_vs_rfm.hh"

#include "common/logging.hh"

namespace mithril::analysis
{

std::uint64_t
arrGrapheneSafeFlipTh(std::uint32_t threshold)
{
    MITHRIL_ASSERT(threshold > 0);
    // Reset doubling (x2), double-sided attack (x2), plus the ACT that
    // lands while the ARR is in flight.
    return 4ull * threshold + 1;
}

std::uint64_t
concurrentThresholdRows(const dram::Timing &timing,
                        std::uint32_t threshold)
{
    MITHRIL_ASSERT(threshold > 0);
    return dram::maxActsPerWindow(timing) / threshold;
}

RowId
concentrationRow(std::uint64_t i, std::uint64_t rows,
                 std::uint32_t threshold)
{
    MITHRIL_ASSERT(rows >= 2);
    if (i < rows * threshold)
        return static_cast<RowId>(2000 + 2 * (i % rows));
    const auto last = static_cast<RowId>(2000 + 2 * (rows - 1));
    return (i % 2) ? last : last - 2;
}

std::uint64_t
rfmGrapheneSafeFlipTh(const dram::Timing &timing,
                      std::uint32_t threshold, std::uint32_t rfm_th)
{
    const std::uint64_t queue = concurrentThresholdRows(timing, threshold);
    // While the last buffered row drains, its aggressors absorb another
    // queue * RFM_TH activations on top of the ARR-era bound.
    return arrGrapheneSafeFlipTh(threshold) +
           queue * static_cast<std::uint64_t>(rfm_th);
}

} // namespace mithril::analysis
