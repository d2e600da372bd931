/**
 * @file
 * The part set of a run: its banks split into contiguous ranges, each
 * part with its own tracker instance and collector bundle. The
 * sharded engine has one part per bank shard; a System has one part
 * at any channel count, bound to its one dram::Device.
 *
 * Mithril keeps its protection state per bank (each bank's CbS table
 * and RAA count), and so does every other scheme here (PARA and PARFM
 * draw from per-bank streams, RhProtection::bankSeed()). A part that
 * sees only its own banks' per-bank subsequences of a run ends in the
 * state one instance over every bank would, so the parts merge
 * exactly. This type does each cross-part job once, for both
 * frontends: it builds every part's tracker and collectors, routes
 * warm-up records by bank, and folds the parts in part order through
 * the dram::Protection core each part's frontend (an
 * engine::ActStreamEngine or a dram::Device) built and bound here.
 */

#ifndef MITHRIL_DRAM_PARTS_HH
#define MITHRIL_DRAM_PARTS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "dram/protection.hh"
#include "telemetry/telemetry.hh"
#include "trackers/rh_protection.hh"

namespace mithril::engine
{
class ActSource;
}

namespace mithril::dram
{

/** The parts of one run, and every merge across them. */
class Parts
{
  public:
    /** Builds one part's tracker (nullptr = unprotected). */
    using TrackerFactory =
        std::function<std::unique_ptr<trackers::RhProtection>()>;

    /** Exports what part `part`'s frontend owns into its sheet. */
    using FrontendExport =
        std::function<void(std::uint32_t part, telemetry::MetricSheet &)>;

    /** `count` parts, clamped to [1, banks]: part p owns banks
     *  [p*B/P, (p+1)*B/P). A null factory leaves them unprotected. */
    Parts(const Geometry &geometry, std::uint32_t count,
          const TrackerFactory &make_tracker,
          const telemetry::TelemetryConfig &telemetry);

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(parts_.size());
    }
    std::uint32_t numBanks() const { return numBanks_; }

    /** Bank range [lo, hi) of a part. */
    std::pair<BankId, BankId> range(std::uint32_t part) const
    {
        return {parts_.at(part).lo, parts_.at(part).hi};
    }

    /** The part owning a bank. */
    std::uint32_t partOf(BankId bank) const;

    /** A part's tracker (null when unprotected). */
    trackers::RhProtection *tracker(std::uint32_t part) const
    {
        return parts_.at(part).tracker.get();
    }

    /** A part's collectors (null when telemetry is off). */
    telemetry::EngineTelemetry *telemetry(std::uint32_t part) const
    {
        return parts_.at(part).telemetry.get();
    }

    /** Record the protection core a part's frontend built over
     *  tracker(part); the reductions read it. */
    void bind(std::uint32_t part, const Protection &protection)
    {
        parts_.at(part).protection = &protection;
    }

    /**
     * Tracker warm-up: each of the first `acts` records of `source`
     * goes, at tick 0, to the tracker of the part owning its bank.
     * Collectors attach only when a run starts, so none of it is
     * observed. A no-op when unprotected.
     */
    void warm(engine::ActSource &source, std::uint64_t acts);

    // ------------------------------------------ part-order reductions

    Protection::Counts counts() const
    {
        return sum<Protection::Counts>([](const Part &p) {
            return p.protection->total(p.lo, p.hi);
        });
    }
    std::uint64_t bitFlips() const
    {
        return sum<std::uint64_t>([](const Part &p) {
            return p.protection->oracle().bitFlips();
        });
    }
    /** Distinct flipped rows; the parts' banks are disjoint. */
    std::uint64_t flippedRows() const
    {
        return sum<std::uint64_t>([](const Part &p) {
            return p.protection->oracle().flippedRows();
        });
    }
    std::uint64_t logicOps() const
    {
        return sum<std::uint64_t>([](const Part &p) {
            return p.tracker ? p.tracker->logicOps() : 0;
        });
    }
    double maxDisturbanceEver() const;

    /** The tracker's table bytes per bank (0 when unprotected). */
    double tableBytesPerBank() const
    {
        const auto &t = parts_.front().tracker;
        return t ? t->tableBytesPerBank() : 0.0;
    }

    /** Fold every part tracker's statistics into `target`, a fresh
     *  tracker of the same configuration, through
     *  RhProtection::mergeStatsFrom(). */
    void mergeTrackerStatsInto(trackers::RhProtection &target) const;

    /** Tick-ordered merge of every part's retained trace events
     *  (empty when event tracing is off). */
    std::vector<telemetry::TraceEvent> events() const;

    /** Union of the part heatmaps (needs the heatmap enabled). */
    telemetry::ActHeatmap heatmap() const;

    /** One fresh sheet per part — what `frontend` exports for it,
     *  then its tracker (`tracker.*`) and collectors (`trace.*`,
     *  `heatmap.*`) — folded in part order. */
    telemetry::MetricSheet sheet(const FrontendExport &frontend) const;

  private:
    struct Part
    {
        BankId lo = 0;
        BankId hi = 0;
        std::unique_ptr<trackers::RhProtection> tracker;
        std::unique_ptr<telemetry::EngineTelemetry> telemetry;
        const Protection *protection = nullptr;
    };

    /** `value(part)` summed over the parts. */
    template <typename T, typename Value>
    T
    sum(Value value) const
    {
        T total{};
        for (const Part &p : parts_)
            total += value(p);
        return total;
    }

    std::uint32_t numBanks_;
    telemetry::TelemetryConfig telemetryConfig_;
    std::vector<Part> parts_;
};

} // namespace mithril::dram

#endif // MITHRIL_DRAM_PARTS_HH
