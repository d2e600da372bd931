#include "telemetry/heatmap.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "telemetry/metric_sheet.hh"

namespace mithril::telemetry
{

ActHeatmap::ActHeatmap(std::uint32_t num_banks,
                       std::uint32_t region_budget)
    : budget_(region_budget), banks_(num_banks)
{
    MITHRIL_ASSERT(budget_ >= 1);
}

void
ActHeatmap::touch(BankId bank, RowId row, std::uint64_t weight)
{
    BankMap &bm = banks_.at(bank);
    bm.regions[row >> bm.granularityLog2] += weight;
    if (bm.regions.size() > budget_)
        fit(bm);
}

void
ActHeatmap::coarsen(BankMap &bm)
{
    std::map<RowId, std::uint64_t> folded;
    for (const auto &[region, count] : bm.regions)
        folded[region >> 1] += count;
    bm.regions = std::move(folded);
    ++bm.granularityLog2;
    ++bm.folds;
}

void
ActHeatmap::fit(BankMap &bm)
{
    while (bm.regions.size() > budget_)
        coarsen(bm);
}

std::uint64_t
ActHeatmap::totalActs() const
{
    std::uint64_t total = 0;
    for (const BankMap &bm : banks_) {
        for (const auto &[region, count] : bm.regions)
            total += count;
    }
    return total;
}

HeatmapBankSnapshot
ActHeatmap::bankSnapshot(BankId bank) const
{
    const BankMap &bm = banks_.at(bank);
    HeatmapBankSnapshot snap;
    snap.bank = bank;
    snap.granularityLog2 = bm.granularityLog2;
    snap.folds = bm.folds;
    snap.regions = bm.regions;
    return snap;
}

std::vector<HeatmapBankSnapshot>
ActHeatmap::snapshot() const
{
    std::vector<HeatmapBankSnapshot> out;
    for (BankId b = 0; b < banks_.size(); ++b) {
        if (!banks_[b].regions.empty())
            out.push_back(bankSnapshot(b));
    }
    return out;
}

void
ActHeatmap::mergeFrom(const ActHeatmap &other)
{
    MITHRIL_ASSERT(banks_.size() == other.banks_.size());
    MITHRIL_ASSERT(budget_ == other.budget_);
    for (BankId b = 0; b < banks_.size(); ++b) {
        const BankMap &src = other.banks_[b];
        if (src.regions.empty())
            continue;
        BankMap &dst = banks_[b];
        if (dst.regions.empty()) {
            dst = src;
            continue;
        }
        // Align both sides to the coarser granularity, then fold the
        // finer side's regions in.
        BankMap tmp = src;
        while (dst.granularityLog2 < tmp.granularityLog2)
            coarsen(dst);
        while (tmp.granularityLog2 < dst.granularityLog2)
            coarsen(tmp);
        for (const auto &[region, count] : tmp.regions)
            dst.regions[region] += count;
        dst.folds += src.folds;
        fit(dst);
    }
}

std::string
ActHeatmap::dump() const
{
    std::ostringstream os;
    for (const HeatmapBankSnapshot &snap : snapshot()) {
        const auto width = std::uint64_t{1} << snap.granularityLog2;
        os << "bank " << snap.bank << " rows/region " << width
           << " folds " << snap.folds << "\n";
        for (const auto &[region, count] : snap.regions) {
            const std::uint64_t lo = region * width;
            os << "  [" << lo << ", " << lo + width << ") " << count
               << "\n";
        }
    }
    return os.str();
}

void
ActHeatmap::exportMetrics(MetricSheet &sheet) const
{
    std::uint64_t folds = 0, regions = 0;
    std::uint32_t max_gran = 0;
    for (const BankMap &bm : banks_) {
        folds += bm.folds;
        regions += bm.regions.size();
        max_gran = std::max(max_gran, bm.granularityLog2);
    }
    sheet.setCounter("heatmap.acts", totalActs());
    sheet.setCounter("heatmap.folds", folds);
    sheet.setCounter("heatmap.regions", regions);
    sheet.setGauge("heatmap.max_granularity_log2",
                   static_cast<double>(max_gran));
}

} // namespace mithril::telemetry
