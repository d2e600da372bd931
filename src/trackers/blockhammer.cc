#include "blockhammer.hh"

#include <algorithm>

#include "analysis/area_model.hh"
#include "common/logging.hh"
#include "core/config_solver.hh"
#include "registry/scheme_registry.hh"

namespace mithril::trackers
{

namespace
{

/** Rows hashed per simd::bloomHashRows call in the batched path. */
constexpr std::size_t kHashBlock = 256;

} // namespace

BlockHammer::BlockHammer(std::uint32_t num_banks,
                         const BlockHammerParams &params)
    : params_(params), banks_(num_banks)
{
    MITHRIL_ASSERT(num_banks > 0);
    MITHRIL_ASSERT(params_.cbfSize > 0);
    MITHRIL_ASSERT(params_.hashes >= 1);
    MITHRIL_ASSERT(params_.flipTh > params_.nbl);
    MITHRIL_ASSERT(params_.tCbf > 0);

    tDelay_ = (params_.tCbf -
               static_cast<Tick>(params_.nbl) * params_.tRc) /
              static_cast<Tick>(params_.flipTh - params_.nbl);
    MITHRIL_ASSERT(tDelay_ > 0);
    cbfMod_ = simd::U64Divisor(params_.cbfSize);
    slotScratch_.resize(kHashBlock * params_.hashes);

    for (auto &bank : banks_) {
        bank.filters[0].counts.assign(params_.cbfSize, 0);
        bank.filters[0].epochStart = 0;
        bank.filters[1].counts.assign(params_.cbfSize, 0);
        // Offset by half a lifetime so one filter always carries at
        // least tCbf/2 of history.
        bank.filters[1].epochStart = -(params_.tCbf / 2);
    }
}

std::size_t
BlockHammer::hashSlot(RowId row, std::uint32_t i) const
{
    const std::uint64_t h =
        simd::mix64(static_cast<std::uint64_t>(row) + params_.seed +
                    0x9e3779b97f4a7c15ull * (i + 1));
    return static_cast<std::size_t>(cbfMod_.mod(h));
}

void
BlockHammer::rotateEpochs(BankState &state, Tick now) const
{
    for (auto &filter : state.filters) {
        bool rotated = false;
        while (now >= filter.epochStart + params_.tCbf) {
            std::fill(filter.counts.begin(), filter.counts.end(), 0);
            filter.epochStart += params_.tCbf;
            rotated = true;
        }
        if (rotated)
            state.lastBlacklistedAct.clear();
    }
}

std::uint32_t
BlockHammer::minCount(const Cbf &filter, RowId row) const
{
    std::uint32_t lo = ~0u;
    for (std::uint32_t i = 0; i < params_.hashes; ++i)
        lo = std::min(lo, filter.counts[hashSlot(row, i)]);
    return lo;
}

void
BlockHammer::onActivate(BankId bank, RowId row, Tick now,
                        std::vector<RowId> &arr_aggressors)
{
    (void)arr_aggressors;  // Throttling scheme: no preventive refresh.
    BankState &state = banks_.at(bank);
    rotateEpochs(state, now);
    countOp(2 * params_.hashes);

    const std::uint32_t cap = (1u << params_.counterBits) - 1;
    for (auto &filter : state.filters) {
        for (std::uint32_t i = 0; i < params_.hashes; ++i) {
            auto &slot = filter.counts[hashSlot(row, i)];
            if (slot < cap)
                ++slot;
        }
    }
    if (isBlacklisted(bank, row, now))
        state.lastBlacklistedAct[row] = now;
}

std::size_t
BlockHammer::onActivateBatch(const ActSpan &span,
                             std::vector<RowId> &arr_aggressors)
{
    if (span.size == 0)
        return 0;
    BankState &state = banks_.at(span.bank);

    // Catch the filters up to the span start (what the first scalar
    // onActivate would do), then check whether a CBF lifetime ends
    // inside the span — twice per tCbf ~ tREFW, so rare — and take
    // the faithful scalar loop there.
    rotateEpochs(state, span.tick0);
    const Tick last = span.tickAt(span.size - 1);
    if (last >= state.filters[0].epochStart + params_.tCbf ||
        last >= state.filters[1].epochStart + params_.tCbf)
        return RhProtection::onActivateBatch(span, arr_aggressors);

    const std::uint32_t cap = (1u << params_.counterBits) - 1;
    const std::uint32_t hashes = params_.hashes;
    Cbf &f0 = state.filters[0];
    Cbf &f1 = state.filters[1];
    for (std::size_t block = 0; block < span.size; block += kHashBlock) {
        const std::size_t m = std::min(kHashBlock, span.size - block);
        // All hash work for the block in one lane-parallel sweep; the
        // insert/estimate walk below only chases the slot indices.
        simd::bloomHashRows(span.rows + block, m, params_.seed, hashes,
                            cbfMod_, slotScratch_.data());
        countOp(2ull * hashes * m);
        const std::uint32_t *slots = slotScratch_.data();
        for (std::size_t i = 0; i < m; ++i, slots += hashes) {
            for (std::uint32_t h = 0; h < hashes; ++h) {
                auto &slot = f0.counts[slots[h]];
                if (slot < cap)
                    ++slot;
            }
            for (std::uint32_t h = 0; h < hashes; ++h) {
                auto &slot = f1.counts[slots[h]];
                if (slot < cap)
                    ++slot;
            }
            // estimate() over the post-insert counts, reusing the
            // slots.
            std::uint32_t min0 = ~0u;
            std::uint32_t min1 = ~0u;
            for (std::uint32_t h = 0; h < hashes; ++h) {
                min0 = std::min(min0, f0.counts[slots[h]]);
                min1 = std::min(min1, f1.counts[slots[h]]);
            }
            if (std::max(min0, min1) >= params_.nbl)
                state.lastBlacklistedAct[span.rows[block + i]] =
                    span.tickAt(block + i);
        }
    }
    return span.size;
}

std::uint32_t
BlockHammer::estimate(BankId bank, RowId row, Tick now) const
{
    (void)now;
    const BankState &state = banks_.at(bank);
    return std::max(minCount(state.filters[0], row),
                    minCount(state.filters[1], row));
}

bool
BlockHammer::isBlacklisted(BankId bank, RowId row, Tick now) const
{
    return estimate(bank, row, now) >= params_.nbl;
}

Tick
BlockHammer::throttleAct(BankId bank, RowId row, Tick now)
{
    BankState &state = banks_.at(bank);
    rotateEpochs(state, now);
    if (!isBlacklisted(bank, row, now))
        return now;
    auto it = state.lastBlacklistedAct.find(row);
    if (it == state.lastBlacklistedAct.end())
        return now;
    return std::max(now, it->second + tDelay_);
}

double
BlockHammer::tableBytesPerBank() const
{
    // Two CBFs plus the row-activation history buffer (~128 entries of
    // row address + timestamp).
    const double cbf_bits = 2.0 * params_.cbfSize * params_.counterBits;
    const double history_bits = 128.0 * 48.0;
    return (cbf_bits + history_bits) / 8.0;
}

namespace
{

const registry::Registrar<registry::SchemeTraits> kRegisterBlockHammer{{
    /*name=*/"blockhammer",
    /*display=*/"BlockHammer",
    /*description=*/
    "dual counting-Bloom-filter ACT throttling at the MC",
    /*aliases=*/{},
    /*uses=*/"flip, scheme-seed",
    /*params=*/{},
    /*make=*/
    [](const ParamSet &params, const registry::SchemeContext &ctx)
        -> std::unique_ptr<RhProtection> {
        const auto knobs = registry::SchemeKnobs::fromParams(params);
        const auto [cbf_size, nbl] =
            analysis::AreaModel::blockHammerConfig(knobs.flipTh);
        BlockHammerParams bparams;
        bparams.cbfSize = cbf_size;
        bparams.nbl = nbl;
        bparams.flipTh = knobs.flipTh;
        bparams.tCbf = ctx.timing.tREFW;
        bparams.tRc = ctx.timing.tRC;
        bparams.counterBits = core::ceilLog2(nbl) + 1;
        bparams.seed = knobs.seed;
        return std::make_unique<BlockHammer>(
            ctx.geometry.totalBanks(), bparams);
    },
}};

} // namespace

} // namespace mithril::trackers
