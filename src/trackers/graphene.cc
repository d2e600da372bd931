#include "graphene.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/config_solver.hh"
#include "registry/scheme_registry.hh"
#include "telemetry/event_trace.hh"
#include "telemetry/metric_sheet.hh"

namespace mithril::trackers
{

Graphene::Graphene(std::uint32_t num_banks, const GrapheneParams &params)
    : params_(params), lastReset_(num_banks, 0)
{
    MITHRIL_ASSERT(num_banks > 0);
    MITHRIL_ASSERT(params_.nEntry > 0);
    MITHRIL_ASSERT(params_.threshold > 0);
    MITHRIL_ASSERT(params_.resetInterval > 0);
    tables_.reserve(num_banks);
    for (std::uint32_t b = 0; b < num_banks; ++b)
        tables_.emplace_back(params_.nEntry, params_.counterBits);
}

void
Graphene::onActivate(BankId bank, RowId row, Tick now,
                     std::vector<RowId> &arr_aggressors)
{
    core::CbsTable &table = tables_.at(bank);
    if (now - lastReset_.at(bank) >= params_.resetInterval) {
        table.clear();
        lastReset_.at(bank) = now;
    }

    std::uint64_t est;
    if (eventRecorder_) {
        const std::uint64_t inserts = table.inserts();
        const std::uint64_t evictions = table.evictions();
        est = table.touch(row);
        if (table.evictions() != evictions) {
            eventRecorder_->record(telemetry::EventKind::CbsEvict,
                                   now, bank, row);
        } else if (table.inserts() != inserts) {
            eventRecorder_->record(telemetry::EventKind::CbsInsert,
                                   now, bank, row);
        }
    } else {
        est = table.touch(row);
    }
    countOp();
    // Reactive trigger: every time the estimated count crosses a
    // multiple of the predefined threshold, refresh the victims (the
    // spillover-counter behaviour of the original design).
    if (est % params_.threshold == 0) {
        arr_aggressors.push_back(row);
        ++arrCount_;
    }
}

std::size_t
Graphene::onActivateBatch(const ActSpan &span,
                          std::vector<RowId> &arr_aggressors)
{
    if (span.size == 0)
        return 0;
    // The base scalar loop takes two kinds of span, byte-identical in
    // effect by the onActivateBatch() contract (pinned by the
    // equivalence tests): every span while tracing, so per-record
    // table events carry exact ticks, and the rare span whose last
    // tick crosses the reset interval (once per tREFW), inside which
    // the table resets. The tight run takes the rest.
    if (eventRecorder_ ||
        span.tickAt(span.size - 1) - lastReset_.at(span.bank) >=
            params_.resetInterval)
        return RhProtection::onActivateBatch(span, arr_aggressors);

    bool hit = false;
    const std::size_t consumed = tables_.at(span.bank).touchRun(
        span.rows, span.size, params_.threshold, &hit);
    if (hit) {
        arr_aggressors.push_back(span.rows[consumed - 1]);
        ++arrCount_;
    }
    countOp(consumed);
    return consumed;
}

void
Graphene::mergeStatsFrom(const RhProtection &other)
{
    RhProtection::mergeStatsFrom(other);
    arrCount_ += dynamic_cast<const Graphene &>(other).arrCount_;
}

void
Graphene::exportMetrics(telemetry::MetricSheet &sheet) const
{
    RhProtection::exportMetrics(sheet);
    std::uint64_t touches = 0, inserts = 0, evictions = 0;
    for (const core::CbsTable &table : tables_) {
        touches += table.touches();
        inserts += table.inserts();
        evictions += table.evictions();
    }
    sheet.setCounter("tracker.cbs.touches", touches);
    sheet.setCounter("tracker.cbs.inserts", inserts);
    sheet.setCounter("tracker.cbs.evictions", evictions);
    sheet.setCounter("tracker.arr_count", arrCount_);
}

double
Graphene::tableBytesPerBank() const
{
    return static_cast<double>(params_.nEntry) *
           (params_.rowBits + params_.counterBits) / 8.0;
}

std::uint32_t
Graphene::requiredEntries(std::uint64_t max_acts, std::uint32_t threshold)
{
    MITHRIL_ASSERT(threshold > 0);
    return static_cast<std::uint32_t>(
        (max_acts + threshold - 1) / threshold);
}

namespace
{

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
        const auto knobs = registry::SchemeKnobs::fromParams(params);
        GrapheneParams gparams;
        gparams.threshold = std::max(1u, knobs.flipTh / 4);
        gparams.nEntry = Graphene::requiredEntries(
            dram::maxActsPerWindow(ctx.timing), gparams.threshold);
        gparams.resetInterval = ctx.timing.tREFW;
        gparams.rowBits = core::ceilLog2(ctx.geometry.rowsPerBank);
        gparams.counterBits =
            core::ceilLog2(gparams.threshold) + 2;
        return std::make_unique<Graphene>(ctx.geometry.totalBanks(),
                                          gparams);
    },
}};

} // namespace

} // namespace mithril::trackers
