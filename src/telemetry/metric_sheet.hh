/**
 * @file
 * Metric sheet: counters, gauges, averages, and histograms under
 * dotted names, with a deterministic merge.
 *
 * A MetricSheet is the telemetry analogue of a tracker's statistics.
 * Components keep their own native counters and export them after a
 * run with `exportMetrics(MetricSheet &)`, which sets values; a part
 * owner (an engine shard, or a System's one part) exports its
 * components into one fresh sheet per part, and the part sheets fold
 * in part order with the same discipline as
 * RhProtection::mergeStatsFrom: counters add, gauges take the max,
 * averages and histograms merge exactly. A System folds in one fresh
 * sheet per channel controller the same way. The result is
 * byte-identical at any shard/pool count.
 */

#ifndef MITHRIL_TELEMETRY_METRIC_SHEET_HH
#define MITHRIL_TELEMETRY_METRIC_SHEET_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/stats.hh"

namespace mithril::telemetry
{

/**
 * Named stat container for one part of a run (or the merged run).
 *
 * Four stat families, all addressed by dotted name:
 *  - counter: u64, merge = sum (event counts);
 *  - gauge:   double, merge = max (high-water marks, table sizes);
 *  - average: Average, merge = Average::mergeFrom (exact);
 *  - histogram: Histogram, merge = bucket-wise sum (same shape).
 */
class MetricSheet
{
  public:
    /** Get or create an average. */
    Average &average(const std::string &name)
    {
        return averages_[name];
    }

    /** Get or create a histogram with the given shape; the shape is
     *  fixed on first call (later calls return the existing one). */
    Histogram &histogram(const std::string &name, double lo, double hi,
                         std::size_t buckets);

    /** Overwrite a counter (idempotent export from components that
     *  keep their own native counters). */
    void setCounter(const std::string &name, std::uint64_t v)
    {
        counters_[name].set(v);
    }

    /** Overwrite a gauge, merged by max across parts. */
    void setGauge(const std::string &name, double v)
    {
        gauges_[name] = v;
    }

    std::uint64_t counterValue(const std::string &name) const;
    double gaugeValue(const std::string &name) const;

    /**
     * Fold another sheet into this one by name union. Deterministic
     * and associative; part owners call this in part order.
     */
    void mergeFrom(const MetricSheet &other);

    /**
     * Flatten every stat into name -> double, the shape the sweep
     * sinks serialize. Counters and gauges export under their own
     * name; an average exports `name` (mean) plus `name.count`;
     * a histogram exports `name.count`, `name.mean`, `name.p50`,
     * and `name.p99`.
     */
    std::map<std::string, double> exportFlat() const;

    /** Render as "name value" lines (telemetry_cli / debugging). */
    std::string dump() const;

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, Average> averages_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace mithril::telemetry

#endif // MITHRIL_TELEMETRY_METRIC_SHEET_HH
