/**
 * @file
 * Telemetry configuration and the per-part bundle every partition of
 * a run carries: one per engine shard, one per System, each owned by
 * the run's dram::Parts.
 *
 * Everything here is off by default, and the hot-path contract is
 * strict: with telemetry disabled the engine pays one pointer check
 * per batch, and with it enabled the simulated outcome (RunOutcome,
 * tracker stats, oracle state) must stay byte-identical — telemetry
 * observes the simulation, it never participates in it.
 *
 * Metric sheets are not collected here: each component that owns
 * counters exports them with `exportMetrics(MetricSheet &)`, and
 * dram::Parts::sheet() exports every component of a part into one
 * fresh sheet (the frontend's own, then the part's tracker and
 * collectors) and merges the part sheets in part order. The same part
 * set merges the bundles' events and heatmaps.
 */

#ifndef MITHRIL_TELEMETRY_TELEMETRY_HH
#define MITHRIL_TELEMETRY_TELEMETRY_HH

#include <cstdint>
#include <memory>

#include "telemetry/event_trace.hh"
#include "telemetry/heatmap.hh"
#include "telemetry/metric_sheet.hh"
#include "telemetry/phase_profiler.hh"

namespace mithril::telemetry
{

/** What to collect; shared by every part of a run. */
struct TelemetryConfig
{
    bool events = false;  //!< Mitigation-event ring tracing.
    std::uint32_t eventCapacityPerBank = 4096;
    bool heatmap = false; //!< Per-bank ACT region histograms.
    std::uint32_t heatmapRegionBudget = 64;
    bool phases = false;  //!< Wall-time phase profiling (bench only).

    bool any() const { return events || heatmap || phases; }
};

/** One part's collectors (an engine shard or a System). */
class EngineTelemetry
{
  public:
    EngineTelemetry(const TelemetryConfig &config,
                    std::uint32_t num_banks)
        : config_(config)
    {
        if (config_.events) {
            events_ = std::make_unique<EventRecorder>(
                num_banks, config_.eventCapacityPerBank);
        }
        if (config_.heatmap) {
            heatmap_ = std::make_unique<ActHeatmap>(
                num_banks, config_.heatmapRegionBudget);
        }
    }

    const TelemetryConfig &config() const { return config_; }

    /** Null when event tracing is off — the hot-path check. */
    EventRecorder *events() { return events_.get(); }
    const EventRecorder *events() const { return events_.get(); }

    /** Null when the heatmap is off. */
    ActHeatmap *heatmap() { return heatmap_.get(); }
    const ActHeatmap *heatmap() const { return heatmap_.get(); }

    PhaseProfile &phases() { return phases_; }
    const PhaseProfile &phases() const { return phases_; }

    /** Export the enabled collectors' `trace.*` and `heatmap.*`. */
    void exportMetrics(MetricSheet &sheet) const
    {
        if (events_)
            events_->exportMetrics(sheet);
        if (heatmap_)
            heatmap_->exportMetrics(sheet);
    }

  private:
    TelemetryConfig config_;
    std::unique_ptr<EventRecorder> events_;
    std::unique_ptr<ActHeatmap> heatmap_;
    PhaseProfile phases_;
};

} // namespace mithril::telemetry

#endif // MITHRIL_TELEMETRY_TELEMETRY_HH
