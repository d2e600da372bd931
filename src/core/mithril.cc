#include "mithril.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/bounds.hh"
#include "core/config_solver.hh"
#include "registry/scheme_registry.hh"
#include "telemetry/metric_sheet.hh"

namespace mithril::core
{

Mithril::Mithril(std::uint32_t num_banks, const MithrilParams &params)
    : CbsTracker(num_banks, params.nEntry, params.rowBits,
                 params.counterBits),
      params_(params)
{
    MITHRIL_ASSERT(params_.rfmTh > 0);
}

std::string
Mithril::name() const
{
    return params_.plusMode ? "Mithril+" : "Mithril";
}

void
Mithril::onRfm(BankId bank, Tick now, std::vector<RowId> &aggressors)
{
    (void)now;
    CbsTable &table = mutableTable(bank);
    countOp();  // MaxPtr lookup / spread comparison.

    if (params_.adTh > 0 && table.spread() <= params_.adTh) {
        ++adaptiveSkips_;
        return;
    }
    const RowId target = table.resetMaxToMin();
    if (target == kInvalidRow)
        return;  // Empty table: nothing has ever been activated.
    aggressors.push_back(target);
}

bool
Mithril::rfmPending(BankId bank) const
{
    if (!params_.plusMode)
        return true;
    // The mode-register flag: set when a preventive refresh would
    // actually happen on the next RFM.
    return params_.adTh == 0 || table(bank).spread() > params_.adTh;
}

void
Mithril::mergeStatsFrom(const trackers::RhProtection &other)
{
    CbsTracker::mergeStatsFrom(other);
    adaptiveSkips_ += dynamic_cast<const Mithril &>(other).adaptiveSkips_;
}

void
Mithril::exportMetrics(telemetry::MetricSheet &sheet) const
{
    CbsTracker::exportMetrics(sheet);
    std::uint64_t spread = 0;
    for (BankId b = 0; b < numBanks(); ++b)
        spread = std::max(spread, table(b).spread());
    sheet.setCounter("tracker.adaptive_skips", adaptiveSkips_);
    sheet.setGauge("tracker.cbs.max_spread",
                   static_cast<double>(spread));
}

std::uint32_t
defaultMithrilRfmTh(std::uint32_t flip_th)
{
    if (flip_th >= 12500)
        return 256;
    if (flip_th >= 6250)
        return 128;
    if (flip_th >= 3125)
        return 64;
    return 32;
}

// ------------------------------------------------------ registration
//
// "none" and the two Mithril variants register here; every other
// scheme registers in its own translation unit.

namespace
{

std::unique_ptr<trackers::RhProtection>
makeMithrilEntry(const ParamSet &params,
                 const registry::SchemeContext &ctx, bool plus_mode)
{
    const auto knobs = registry::SchemeKnobs::fromParams(params);
    const std::uint32_t rfm_th =
        knobs.rfmTh ? knobs.rfmTh : defaultMithrilRfmTh(knobs.flipTh);
    ConfigSolver solver(ctx.timing, ctx.geometry);
    const double effect = aggregatedEffect(knobs.blastRadius);
    auto cfg = solver.solve(knobs.flipTh, rfm_th, knobs.adTh, effect);
    if (!cfg) {
        throw registry::SpecError(
            "Mithril infeasible at flip=" +
            std::to_string(knobs.flipTh) + " rfm=" +
            std::to_string(rfm_th) + " ad=" +
            std::to_string(knobs.adTh) + " blast-radius=" +
            std::to_string(knobs.blastRadius));
    }
    MithrilParams mparams;
    mparams.nEntry = cfg->nEntry;
    mparams.rfmTh = rfm_th;
    mparams.adTh = knobs.adTh;
    mparams.rowBits = ceilLog2(ctx.geometry.rowsPerBank);
    mparams.counterBits = cfg->counterBits;
    mparams.plusMode = plus_mode;
    return std::make_unique<Mithril>(ctx.geometry.totalBanks(),
                                     mparams);
}

const registry::Registrar<registry::SchemeTraits> kRegisterNone{{
    /*name=*/"none",
    /*display=*/"None",
    /*description=*/"unprotected baseline (no tracker)",
    /*aliases=*/{},
    /*uses=*/"",
    /*params=*/{},
    /*make=*/
    [](const ParamSet &, const registry::SchemeContext &)
        -> std::unique_ptr<trackers::RhProtection> { return nullptr; },
}};

const registry::Registrar<registry::SchemeTraits> kRegisterMithril{{
    /*name=*/"mithril",
    /*display=*/"Mithril",
    /*description=*/
    "CbS-tracked RFM scheme sized by the Theorem 1/2 solver",
    /*aliases=*/{},
    /*uses=*/"flip, rfm (0 = paper default), ad, blast-radius",
    /*params=*/{},
    /*make=*/
    [](const ParamSet &params, const registry::SchemeContext &ctx) {
        return makeMithrilEntry(params, ctx, false);
    },
}};

const registry::Registrar<registry::SchemeTraits> kRegisterMithrilPlus{{
    /*name=*/"mithril+",
    /*display=*/"Mithril+",
    /*description=*/
    "Mithril with the MRR poll that skips needless RFM commands",
    /*aliases=*/{"mithril_plus"},
    /*uses=*/"flip, rfm (0 = paper default), ad, blast-radius",
    /*params=*/{},
    /*make=*/
    [](const ParamSet &params, const registry::SchemeContext &ctx) {
        return makeMithrilEntry(params, ctx, true);
    },
}};

} // namespace

} // namespace mithril::core
