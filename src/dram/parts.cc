#include "parts.hh"

#include <algorithm>

#include "common/logging.hh"
#include "engine/act_source.hh"

namespace mithril::dram
{

Parts::Parts(const Geometry &geometry, std::uint32_t count,
             const TrackerFactory &make_tracker,
             const telemetry::TelemetryConfig &tel)
    : numBanks_(geometry.totalBanks()), telemetryConfig_(tel)
{
    MITHRIL_ASSERT(numBanks_ > 0);
    count = std::max(1u, std::min(count, numBanks_));
    parts_.resize(count);
    for (std::uint32_t p = 0; p < count; ++p) {
        Part &part = parts_[p];
        part.lo = static_cast<BankId>(
            (static_cast<std::uint64_t>(numBanks_) * p) / count);
        part.hi = static_cast<BankId>(
            (static_cast<std::uint64_t>(numBanks_) * (p + 1)) / count);
        MITHRIL_ASSERT(part.hi > part.lo);
        if (make_tracker)
            part.tracker = make_tracker();
        if (tel.any()) {
            part.telemetry =
                std::make_unique<telemetry::EngineTelemetry>(tel,
                                                             numBanks_);
        }
    }
}

std::uint32_t
Parts::partOf(BankId bank) const
{
    MITHRIL_ASSERT(bank < numBanks_);
    // The exact inverse of the balanced partition: bank b lies in
    // [p*B/P, (p+1)*B/P) for p = ceil((b+1)*P/B) - 1.
    const auto p = static_cast<std::uint32_t>(
        ((static_cast<std::uint64_t>(bank) + 1) * parts_.size() - 1) /
        numBanks_);
    MITHRIL_ASSERT(bank >= parts_[p].lo && bank < parts_[p].hi);
    return p;
}

void
Parts::warm(engine::ActSource &source, std::uint64_t acts)
{
    if (!parts_.front().tracker)
        return;
    std::vector<RowId> discard;
    engine::forEachRecord(source, acts, [&](const engine::ActRecord &rec) {
        discard.clear();
        parts_[partOf(rec.bank)].tracker->onActivate(rec.bank, rec.row, 0,
                                                      discard);
    });
}

double
Parts::maxDisturbanceEver() const
{
    double max = 0.0;
    for (const Part &p : parts_)
        max = std::max(max, p.protection->oracle().maxDisturbanceEver());
    return max;
}

void
Parts::mergeTrackerStatsInto(trackers::RhProtection &target) const
{
    for (const Part &p : parts_) {
        MITHRIL_ASSERT(p.tracker.get() != &target);
        if (p.tracker)
            target.mergeStatsFrom(*p.tracker);
    }
}

std::vector<telemetry::TraceEvent>
Parts::events() const
{
    std::vector<const telemetry::EventRecorder *> recorders;
    for (const Part &p : parts_) {
        if (p.telemetry && p.telemetry->events())
            recorders.push_back(p.telemetry->events());
    }
    return telemetry::mergeEvents(recorders);
}

telemetry::ActHeatmap
Parts::heatmap() const
{
    MITHRIL_ASSERT(telemetryConfig_.heatmap);
    telemetry::ActHeatmap merged(numBanks_,
                                 telemetryConfig_.heatmapRegionBudget);
    for (const Part &p : parts_)
        merged.mergeFrom(*p.telemetry->heatmap());
    return merged;
}

telemetry::MetricSheet
Parts::sheet(const FrontendExport &frontend) const
{
    telemetry::MetricSheet merged;
    for (std::uint32_t i = 0; i < size(); ++i) {
        telemetry::MetricSheet sheet;
        frontend(i, sheet);
        if (parts_[i].tracker)
            parts_[i].tracker->exportMetrics(sheet);
        if (parts_[i].telemetry)
            parts_[i].telemetry->exportMetrics(sheet);
        merged.mergeFrom(sheet);
    }
    return merged;
}

} // namespace mithril::dram
