#include "twice.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "core/config_solver.hh"
#include "registry/scheme_registry.hh"
#include "trackers/graphene.hh"

namespace mithril::trackers
{

Twice::Twice(std::uint32_t num_banks, const TwiceParams &params)
    : params_(params), tables_(num_banks)
{
    MITHRIL_ASSERT(num_banks > 0);
    MITHRIL_ASSERT(params_.capacity > 0);
    MITHRIL_ASSERT(params_.rhThreshold > 0);
    MITHRIL_ASSERT(params_.pruneRateNum > 0);
    MITHRIL_ASSERT(params_.pruneRateDen > 0);
}

Twice::Table::iterator
Twice::entryOf(Table &table, RowId row, bool &inserted)
{
    auto it = table.find(row);
    inserted = it == table.end();
    if (!inserted)
        return it;
    if (table.size() >= params_.capacity) {
        // Correctly sized TWiCe never overflows; count it so the
        // sizing tests can assert the invariant, and drop the entry
        // with the lowest count to keep going.
        ++overflows_;
        auto victim = table.begin();
        for (auto cur = table.begin(); cur != table.end(); ++cur) {
            if (cur->second.count < victim->second.count)
                victim = cur;
        }
        table.erase(victim);
    }
    it = table.emplace(row, EntryState{}).first;
    peakOccupancy_ = std::max(peakOccupancy_, table.size());
    return it;
}

bool
Twice::countAct(Table &table, Table::iterator it, RowId row,
                std::vector<RowId> &arr_aggressors)
{
    countOp();
    if (++it->second.count < params_.rhThreshold)
        return false;
    arr_aggressors.push_back(row);
    ++arrCount_;
    table.erase(it);  // Victims refreshed; restart tracking.
    return true;
}

void
Twice::onActivate(BankId bank, RowId row, Tick now,
                  std::vector<RowId> &arr_aggressors)
{
    (void)now;
    Table &table = tables_.at(bank);
    bool inserted;
    countAct(table, entryOf(table, row, inserted), row, arr_aggressors);
}

std::size_t
Twice::onActivateBatch(const ActSpan &span,
                       std::vector<RowId> &arr_aggressors)
{
    // onActivate() never reads the tick, so the whole span runs in
    // one tight loop (REF-boundary pruning happens in onRefresh(),
    // which the engine interleaves between spans). The 2-way cache
    // keeps the entries of the last two distinct rows — the hammer
    // pair in the patterns that matter — and is invalidated on every
    // insert (possible rehash) and erase.
    Table &table = tables_.at(span.bank);
    RowId cached_row[2] = {kInvalidRow, kInvalidRow};
    Table::iterator cached_it[2] = {table.end(), table.end()};

    std::size_t consumed = 0;
    while (consumed < span.size) {
        const RowId row = span.rows[consumed];
        ++consumed;

        Table::iterator it;
        if (row == cached_row[0]) {
            it = cached_it[0];
        } else if (row == cached_row[1]) {
            it = cached_it[1];
            std::swap(cached_row[0], cached_row[1]);
            std::swap(cached_it[0], cached_it[1]);
        } else {
            bool inserted;
            it = entryOf(table, row, inserted);
            if (inserted) {
                cached_row[1] = kInvalidRow;
            } else {
                cached_row[1] = cached_row[0];
                cached_it[1] = cached_it[0];
            }
            cached_row[0] = row;
            cached_it[0] = it;
        }
        if (countAct(table, it, row, arr_aggressors))
            break;
    }
    return consumed;
}

void
Twice::onRefresh(BankId bank, Tick now)
{
    (void)now;
    auto &table = tables_.at(bank);
    countOp(table.size());
    for (auto it = table.begin(); it != table.end();) {
        EntryState &entry = it->second;
        ++entry.life;
        if (static_cast<std::uint64_t>(entry.count) *
                params_.pruneRateDen <
            static_cast<std::uint64_t>(entry.life) *
                params_.pruneRateNum) {
            it = table.erase(it);
        } else {
            ++it;
        }
    }
}

double
Twice::tableBytesPerBank() const
{
    return static_cast<double>(params_.capacity) * params_.entryBits /
           8.0;
}

void
Twice::mergeStatsFrom(const RhProtection &other)
{
    RhProtection::mergeStatsFrom(other);
    const auto &o = dynamic_cast<const Twice &>(other);
    peakOccupancy_ = std::max(peakOccupancy_, o.peakOccupancy_);
    arrCount_ += o.arrCount_;
    overflows_ += o.overflows_;
}

namespace
{

const registry::Registrar<registry::SchemeTraits> kRegisterTwice{{
    /*name=*/"twice",
    /*display=*/"TWiCe",
    /*description=*/
    "Lossy-Counting table in the DIMM buffer chip with rate pruning",
    /*aliases=*/{},
    /*uses=*/"flip",
    /*params=*/{},
    /*make=*/
    [](const ParamSet &params, const registry::SchemeContext &ctx)
        -> std::unique_ptr<RhProtection> {
        const auto knobs = registry::SchemeKnobs::fromParams(params);
        TwiceParams tparams;
        tparams.rhThreshold = std::max(1u, knobs.flipTh / 4);
        // Rate-exact pruning: an entry survives only while its ACT
        // rate could still reach th_RO within one tREFW.
        tparams.pruneRateNum = tparams.rhThreshold;
        tparams.pruneRateDen = static_cast<std::uint32_t>(
            ctx.timing.tREFW / ctx.timing.tREFI);
        const std::uint64_t max_acts =
            dram::maxActsPerWindow(ctx.timing);
        const std::uint64_t base = Graphene::requiredEntries(
            max_acts, tparams.rhThreshold);
        const double factor = std::max(
            1.0, std::log(static_cast<double>(max_acts) /
                          static_cast<double>(base)));
        tparams.capacity = static_cast<std::uint32_t>(
            std::ceil(static_cast<double>(base) * factor));
        tparams.rowBits = core::ceilLog2(ctx.geometry.rowsPerBank);
        return std::make_unique<Twice>(ctx.geometry.totalBanks(),
                                       tparams);
    },
}};

} // namespace

} // namespace mithril::trackers
