#include "rfm_graphene.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/config_solver.hh"
#include "registry/scheme_registry.hh"
#include "trackers/graphene.hh"

namespace mithril::trackers
{

RfmGraphene::RfmGraphene(std::uint32_t num_banks,
                         const RfmGrapheneParams &params)
    : params_(params), lastReset_(num_banks, 0), pending_(num_banks)
{
    MITHRIL_ASSERT(num_banks > 0);
    MITHRIL_ASSERT(params_.nEntry > 0);
    MITHRIL_ASSERT(params_.threshold > 0);
    MITHRIL_ASSERT(params_.rfmTh > 0);
    tables_.reserve(num_banks);
    for (std::uint32_t b = 0; b < num_banks; ++b)
        tables_.emplace_back(params_.nEntry, params_.counterBits);
}

void
RfmGraphene::onActivate(BankId bank, RowId row, Tick now,
                        std::vector<RowId> &arr_aggressors)
{
    (void)arr_aggressors;  // Never requests an immediate ARR.
    core::CbsTable &table = tables_.at(bank);
    if (now - lastReset_.at(bank) >= params_.resetInterval) {
        table.clear();
        pending_.at(bank).clear();
        lastReset_.at(bank) = now;
    }

    const std::uint64_t est = table.touch(row);
    countOp();
    if (est % params_.threshold == 0) {
        // Buffer for the next RFM opportunity instead of acting now —
        // this is precisely what makes the scheme unsafe.
        pending_.at(bank).push_back(row);
        maxQueueDepth_ =
            std::max(maxQueueDepth_, pending_.at(bank).size());
    }
}

std::size_t
RfmGraphene::onActivateBatch(const ActSpan &span,
                             std::vector<RowId> &arr_aggressors)
{
    if (span.size == 0)
        return 0;

    // Rare reset-crossing span: scalar loop (see Graphene). It never
    // stops early, as onActivate() requests no immediate ARR.
    if (span.tickAt(span.size - 1) - lastReset_.at(span.bank) >=
        params_.resetInterval)
        return RhProtection::onActivateBatch(span, arr_aggressors);

    // Buffered, never immediate: resume the run after each threshold
    // crossing.
    core::CbsTable &table = tables_.at(span.bank);
    auto &queue = pending_.at(span.bank);
    std::size_t done = 0;
    while (done < span.size) {
        bool hit = false;
        done += table.touchRun(span.rows + done, span.size - done,
                               params_.threshold, &hit);
        if (hit) {
            queue.push_back(span.rows[done - 1]);
            maxQueueDepth_ = std::max(maxQueueDepth_, queue.size());
        }
    }
    countOp(span.size);
    return span.size;
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
    RhProtection::mergeStatsFrom(other);
    maxQueueDepth_ =
        std::max(maxQueueDepth_,
                 dynamic_cast<const RfmGraphene &>(other).maxQueueDepth_);
}

double
RfmGraphene::tableBytesPerBank() const
{
    return static_cast<double>(params_.nEntry) *
           (params_.rowBits + params_.counterBits) / 8.0;
}

namespace
{

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
        const auto knobs = registry::SchemeKnobs::fromParams(params);
        RfmGrapheneParams gparams;
        gparams.threshold = std::max(1u, knobs.flipTh / 4);
        gparams.rfmTh = knobs.rfmTh ? knobs.rfmTh : 64;
        gparams.nEntry = Graphene::requiredEntries(
            dram::maxActsPerWindow(ctx.timing), gparams.threshold);
        gparams.resetInterval = ctx.timing.tREFW;
        gparams.rowBits = core::ceilLog2(ctx.geometry.rowsPerBank);
        gparams.counterBits =
            core::ceilLog2(gparams.threshold) + 2;
        return std::make_unique<RfmGraphene>(
            ctx.geometry.totalBanks(), gparams);
    },
}};

} // namespace

} // namespace mithril::trackers
