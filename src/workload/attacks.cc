#include "attacks.hh"

#include <algorithm>
#include <map>

#include "analysis/area_model.hh"
#include "common/logging.hh"
#include "registry/attack_registry.hh"

namespace mithril::workload
{

namespace
{

TraceRecord
hammerRecord(const AttackTarget &t, RowId row)
{
    MITHRIL_ASSERT(t.map != nullptr);
    TraceRecord rec;
    rec.gap = 1;
    rec.uncached = true;
    rec.write = false;
    rec.addr = t.map->compose(t.channel, t.rank, t.bank, row, 0);
    return rec;
}

} // namespace

DoubleSidedAttack::DoubleSidedAttack(const AttackTarget &target)
    : target_(target)
{
}

std::optional<TraceRecord>
DoubleSidedAttack::next()
{
    if (produced_ >= target_.limit)
        return std::nullopt;
    const RowId row =
        (produced_ % 2 == 0) ? target_.baseRow : target_.baseRow + 2;
    ++produced_;
    return hammerRecord(target_, row);
}

MultiSidedAttack::MultiSidedAttack(const AttackTarget &target,
                                   std::uint32_t victims)
    : target_(target), aggressors_(victims + 1)
{
    MITHRIL_ASSERT(victims >= 1);
}

std::optional<TraceRecord>
MultiSidedAttack::next()
{
    if (produced_ >= target_.limit)
        return std::nullopt;
    // Aggressors at baseRow, baseRow+2, ... — every odd row between
    // two aggressors is a victim hammered from both sides.
    const std::uint32_t idx =
        static_cast<std::uint32_t>(produced_ % aggressors_);
    ++produced_;
    return hammerRecord(target_, target_.baseRow + 2 * idx);
}

RfmOptimalAttack::RfmOptimalAttack(const AttackTarget &target,
                                   std::uint32_t distinct_rows)
    : target_(target), distinctRows_(distinct_rows)
{
    MITHRIL_ASSERT(distinct_rows >= 1);
}

std::optional<TraceRecord>
RfmOptimalAttack::next()
{
    if (produced_ >= target_.limit)
        return std::nullopt;
    const std::uint32_t idx =
        static_cast<std::uint32_t>(produced_ % distinctRows_);
    ++produced_;
    return hammerRecord(target_, target_.baseRow + 2 * idx);
}

ProfiledAliasAttack::ProfiledAliasAttack(std::vector<Addr> targets,
                                         std::uint64_t limit)
    : targets_(std::move(targets)), limit_(limit)
{
    MITHRIL_ASSERT(targets_.size() >= 2);
}

std::optional<TraceRecord>
ProfiledAliasAttack::next()
{
    if (produced_ >= limit_)
        return std::nullopt;
    TraceRecord rec;
    rec.gap = 1;
    rec.uncached = true;
    rec.write = false;
    rec.addr = targets_[produced_ % targets_.size()];
    ++produced_;
    return rec;
}

CbfPollutionAttack::CbfPollutionAttack(const AttackTarget &target,
                                       std::uint32_t rows,
                                       std::uint32_t bursts)
    : target_(target), rows_(rows), bursts_(bursts)
{
    MITHRIL_ASSERT(rows >= 2);
    MITHRIL_ASSERT(bursts >= 1);
}

std::optional<TraceRecord>
CbfPollutionAttack::next()
{
    if (produced_ >= target_.limit)
        return std::nullopt;
    // Interleave two rows inside each burst so every request forces a
    // fresh activation, sweeping the whole pollution set repeatedly.
    const std::uint64_t pair_step = produced_ / (2 * bursts_);
    const std::uint32_t pair =
        static_cast<std::uint32_t>(pair_step % (rows_ / 2));
    const RowId row =
        target_.baseRow + 2 * (2 * pair + (produced_ % 2));
    ++produced_;
    return hammerRecord(target_, row);
}

// ------------------------------------------------------ registration
//
// The attacker-thread variants of the evaluation register here. A new
// attack is one generator class plus one Registrar block in its own
// translation unit — nothing in sim/, trackers/, or runner/ changes.

namespace
{

using registry::AttackContext;

/** Aim point decoded from the shared attack knobs. */
AttackTarget
targetFromParams(const ParamSet &params, const AttackContext &ctx)
{
    AttackTarget target;
    target.map = &ctx.map;
    target.channel = 0;
    target.rank = 0;
    target.bank = params.getUint32("attack-bank", 5);
    target.baseRow = params.getUint("attack-row", 0x3000);
    return target;
}

const std::vector<registry::ParamDesc> kTargetParams = {
    {"attack-bank", registry::ParamDesc::Type::Uint, "5", 0, 65535,
     "bank (within the rank) the attack hammers"},
    {"attack-row", registry::ParamDesc::Type::Uint, "12288", 0,
     1048576, "base row of the aggressor block"},
};

std::vector<registry::ParamDesc>
targetParamsPlus(std::initializer_list<registry::ParamDesc> extra)
{
    std::vector<registry::ParamDesc> out = kTargetParams;
    out.insert(out.end(), extra.begin(), extra.end());
    return out;
}

/**
 * Sample the benign threads' address streams and return row-granular
 * representative addresses of their hottest (bank, row) pairs — the
 * "profiled rows sharing CBF entries with the benign threads" that the
 * BlockHammer performance adversary activates.
 */
std::vector<Addr>
profileBenignHotRows(const AttackContext &ctx)
{
    const auto [cbf_size, nbl] =
        analysis::AreaModel::blockHammerConfig(ctx.flipTh);
    (void)cbf_size;
    // One tREFW of attack budget pushes ~600K/NBL rows to the
    // blacklist threshold.
    const std::size_t wanted = std::max<std::size_t>(
        16, static_cast<std::size_t>(600000 / nbl));

    struct Key
    {
        BankId bank;
        RowId row;
        bool operator<(const Key &o) const
        {
            return bank != o.bank ? bank < o.bank : row < o.row;
        }
    };
    std::map<Key, std::pair<std::uint64_t, Addr>> freq;
    for (std::uint32_t i = 0; i < ctx.benignCores; ++i) {
        auto gen = ctx.benignThread(i);
        for (int k = 0; k < 30000; ++k) {
            auto rec = gen->next();
            if (!rec)
                break;
            mc::Request req;
            req.addr = rec->addr;
            ctx.map.decode(req);
            auto &entry = freq[Key{req.bank, req.row}];
            if (entry.first++ == 0)
                entry.second = rec->addr;
        }
    }

    std::vector<std::pair<std::uint64_t, Addr>> ranked;
    ranked.reserve(freq.size());
    for (const auto &[key, value] : freq)
        ranked.emplace_back(value.first, value.second);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  return a.first > b.first;
              });
    std::vector<Addr> targets;
    for (std::size_t i = 0; i < ranked.size() && i < wanted; ++i)
        targets.push_back(ranked[i].second);
    return targets;
}

const registry::Registrar<registry::AttackTraits> kRegisterNone{{
    /*name=*/"none",
    /*display=*/"none",
    /*description=*/"no attacker thread",
    /*aliases=*/{},
    /*uses=*/"",
    /*params=*/{},
    /*make=*/
    [](const ParamSet &, const AttackContext &)
        -> std::unique_ptr<TraceGenerator> { return nullptr; },
}};

const registry::Registrar<registry::AttackTraits> kRegisterDoubleSided{{
    /*name=*/"double-sided",
    /*display=*/"double-sided",
    /*description=*/
    "classic two-aggressor hammer around one victim row",
    /*aliases=*/{"double_sided"},
    /*uses=*/"",
    /*params=*/kTargetParams,
    /*make=*/
    [](const ParamSet &params, const AttackContext &ctx)
        -> std::unique_ptr<TraceGenerator> {
        return std::make_unique<DoubleSidedAttack>(
            targetFromParams(params, ctx));
    },
}};

const registry::Registrar<registry::AttackTraits> kRegisterMultiSided{{
    /*name=*/"multi-sided",
    /*display=*/"multi-sided",
    /*description=*/
    "TRRespass-style interleaved many-sided hammer",
    /*aliases=*/{"multi_sided"},
    /*uses=*/"",
    /*params=*/
    targetParamsPlus({{"victims", registry::ParamDesc::Type::Uint,
                       "32", 1, 1024,
                       "victim rows between the aggressors"}}),
    /*make=*/
    [](const ParamSet &params, const AttackContext &ctx)
        -> std::unique_ptr<TraceGenerator> {
        return std::make_unique<MultiSidedAttack>(
            targetFromParams(params, ctx),
            params.getUint32("victims", 32));
    },
}};

const registry::Registrar<registry::AttackTraits> kRegisterRfmOptimal{{
    /*name=*/"rfm-optimal",
    /*display=*/"rfm-optimal",
    /*description=*/
    "one ACT per row over a rotating distinct-row set "
    "(cost-optimal against sampling)",
    /*aliases=*/{"rfm_optimal"},
    /*uses=*/"",
    /*params=*/
    targetParamsPlus({{"attack-rows", registry::ParamDesc::Type::Uint,
                       "64", 1, 1048576,
                       "distinct rows in the rotation"}}),
    /*make=*/
    [](const ParamSet &params, const AttackContext &ctx)
        -> std::unique_ptr<TraceGenerator> {
        return std::make_unique<RfmOptimalAttack>(
            targetFromParams(params, ctx),
            params.getUint32("attack-rows", 64));
    },
}};

const registry::Registrar<registry::AttackTraits>
    kRegisterCbfPollution{{
        /*name=*/"cbf-pollution",
        /*display=*/"cbf-pollution",
        /*description=*/
        "BlockHammer performance adversary: inflate the CBF slots "
        "the benign hot rows alias with",
        /*aliases=*/{"cbf_pollution"},
        /*uses=*/"flip (CBF sizing)",
        /*params=*/kTargetParams,
        /*make=*/
        [](const ParamSet &params, const AttackContext &ctx)
            -> std::unique_ptr<TraceGenerator> {
            if (ctx.benignThread && ctx.benignCores > 0) {
                auto targets = profileBenignHotRows(ctx);
                if (targets.size() >= 2) {
                    return std::make_unique<ProfiledAliasAttack>(
                        std::move(targets));
                }
            }
            // Degenerate profile (or no workload context): fall back
            // to blind pollution.
            const auto [cbf_size, nbl] =
                analysis::AreaModel::blockHammerConfig(ctx.flipTh);
            (void)nbl;
            const std::uint32_t rows =
                std::max<std::uint32_t>(64, cbf_size / 8);
            return std::make_unique<CbfPollutionAttack>(
                targetFromParams(params, ctx), rows);
        },
    }};

} // namespace

} // namespace mithril::workload
