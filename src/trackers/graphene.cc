#include "graphene.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/config_solver.hh"
#include "registry/scheme_registry.hh"
#include "telemetry/metric_sheet.hh"

namespace mithril::trackers
{

Graphene::Graphene(std::uint32_t num_banks, const GrapheneParams &params)
    : CbsTracker(num_banks, params.nEntry, params.rowBits,
                 params.counterBits, params.threshold,
                 params.resetInterval),
      params_(params)
{
    MITHRIL_ASSERT(params_.threshold > 0);
    MITHRIL_ASSERT(params_.resetInterval > 0);
}

void
Graphene::exportMetrics(telemetry::MetricSheet &sheet) const
{
    CbsTracker::exportMetrics(sheet);
    sheet.setCounter("tracker.arr_count", arrCount());
}

std::uint32_t
Graphene::requiredEntries(std::uint64_t max_acts, std::uint32_t threshold)
{
    MITHRIL_ASSERT(threshold > 0);
    return static_cast<std::uint32_t>(
        (max_acts + threshold - 1) / threshold);
}

RfmGraphene::RfmGraphene(std::uint32_t num_banks,
                         const RfmGrapheneParams &params)
    : CbsTracker(num_banks, params.nEntry, params.rowBits,
                 params.counterBits, params.threshold,
                 params.resetInterval),
      rfmTh_(params.rfmTh), pending_(num_banks)
{
    MITHRIL_ASSERT(params.threshold > 0);
    MITHRIL_ASSERT(rfmTh_ > 0);
}

void
RfmGraphene::onCrossing(BankId bank, RowId row,
                        std::vector<RowId> &arr_aggressors)
{
    (void)arr_aggressors;  // Never requests an immediate ARR.
    auto &queue = pending_.at(bank);
    queue.push_back(row);
    maxQueueDepth_ = std::max(maxQueueDepth_, queue.size());
}

void
RfmGraphene::onRfm(BankId bank, Tick now, std::vector<RowId> &aggressors)
{
    (void)now;
    countOp();
    auto &queue = pending_.at(bank);
    if (queue.empty())
        return;
    aggressors.push_back(queue.front());
    queue.pop_front();
}

void
RfmGraphene::mergeStatsFrom(const RhProtection &other)
{
    CbsTracker::mergeStatsFrom(other);
    maxQueueDepth_ =
        std::max(maxQueueDepth_,
                 dynamic_cast<const RfmGraphene &>(other).maxQueueDepth_);
}

namespace
{

/** Graphene's configuration at a FlipTH: threshold FlipTH/4, enough
 *  entries that every row reaching it within a tREFW is on-table, and
 *  a table reset every tREFW. */
GrapheneParams
grapheneParams(const ParamSet &params, const registry::SchemeContext &ctx)
{
    const auto knobs = registry::SchemeKnobs::fromParams(params);
    GrapheneParams gparams;
    gparams.threshold = std::max(1u, knobs.flipTh / 4);
    gparams.nEntry = Graphene::requiredEntries(
        dram::maxActsPerWindow(ctx.timing), gparams.threshold);
    gparams.resetInterval = ctx.timing.tREFW;
    gparams.rowBits = core::ceilLog2(ctx.geometry.rowsPerBank);
    gparams.counterBits = core::ceilLog2(gparams.threshold) + 2;
    return gparams;
}

const registry::Registrar<registry::SchemeTraits> kRegisterGraphene{{
    /*name=*/"graphene",
    /*display=*/"Graphene",
    /*description=*/
    "Misra-Gries counter summary with immediate ARR refreshes",
    /*aliases=*/{},
    /*uses=*/"flip",
    /*params=*/{},
    /*make=*/
    [](const ParamSet &params, const registry::SchemeContext &ctx)
        -> std::unique_ptr<RhProtection> {
        return std::make_unique<Graphene>(ctx.geometry.totalBanks(),
                                          grapheneParams(params, ctx));
    },
}};

const registry::Registrar<registry::SchemeTraits> kRegisterRfmGraphene{{
    /*name=*/"rfm-graphene",
    /*display=*/"RFM-Graphene",
    /*description=*/
    "Graphene's summary driven through buffered RFM refreshes",
    /*aliases=*/{"rfm_graphene"},
    /*uses=*/"flip, rfm (0 = 64)",
    /*params=*/{},
    /*make=*/
    [](const ParamSet &params, const registry::SchemeContext &ctx)
        -> std::unique_ptr<RhProtection> {
        const std::uint32_t rfm_th =
            registry::SchemeKnobs::fromParams(params).rfmTh;
        const RfmGrapheneParams rparams{grapheneParams(params, ctx),
                                        rfm_th ? rfm_th : 64};
        return std::make_unique<RfmGraphene>(ctx.geometry.totalBanks(),
                                             rparams);
    },
}};

} // namespace

} // namespace mithril::trackers
