/**
 * @file
 * Multi-channel System frontend tests: the cross-channel writeback
 * conservation law (the silent-drop regression), full-channel
 * coverage and ACT conservation of the capture tap, and one tracker
 * and one part at any channel count.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/mithril.hh"
#include "mc/address_map.hh"
#include "registry/workload_registry.hh"
#include "sim/system.hh"
#include "workload/trace.hh"

namespace mithril::sim
{
namespace
{

/** Replays a fixed list of records, then ends. */
class ScriptGen : public workload::TraceGenerator
{
  public:
    explicit ScriptGen(std::vector<workload::TraceRecord> records)
        : records_(std::move(records))
    {
    }

    std::optional<workload::TraceRecord>
    next() override
    {
        if (pos_ >= records_.size())
            return std::nullopt;
        return records_[pos_++];
    }

    std::string name() const override { return "script"; }

  private:
    std::vector<workload::TraceRecord> records_;
    std::size_t pos_ = 0;
};

/**
 * Endless uncached reads pinned to one bank of channel 0, alternating
 * rows so every request pays a full row cycle: the slowest-draining
 * stream a single bank can serve, which keeps the channel-0 queue at
 * capacity for the whole run.
 */
class ChannelFloodGen : public workload::TraceGenerator
{
  public:
    explicit ChannelFloodGen(const mc::AddressMap &map) : map_(map) {}

    std::optional<workload::TraceRecord>
    next() override
    {
        workload::TraceRecord rec;
        rec.gap = 1;
        rec.uncached = true;
        rec.write = false;
        rec.addr = map_.compose(0, 0, 3, 100 + 50 * (count_++ % 2), 0);
        return rec;
    }

    std::string name() const override { return "channel-flood"; }

  private:
    const mc::AddressMap &map_;
    std::uint64_t count_ = 0;
};

// ------------------------------------ cross-channel writeback drop

TEST(MultiChannel, WritebackConservationUnderVictimChannelPressure)
{
    // The regression this pins: a read miss whose fill decodes to
    // channel 1 but whose dirty victim's writeback decodes to channel 0
    // used to probe only the fill channel for queue space. With channel
    // 0 full, the fill was accepted and the writeback silently dropped
    // — dirty data vanished. The fix reserves a slot in the writeback's
    // own channel before the cache commits the eviction, so the law
    //   cache writebacks == memory-controller writes
    // holds exactly (every write the MC sees here *is* a writeback:
    // all demand traffic below is reads).
    SystemConfig cfg;
    ASSERT_EQ(cfg.geometry.channels, 2u);
    // Cache lines (128B) wider than the 64B channel interleave: a
    // line's fill address (offset +64 -> channel 1) and its victim's
    // writeback address (line-aligned -> channel 0) decode to
    // *different* channels.
    cfg.cacheParams.sizeBytes = 16ull << 10;
    cfg.cacheParams.ways = 2;
    cfg.cacheParams.lineBytes = 128;
    cfg.mcParams.queueCapacity = 4;
    mc::AddressMap map(cfg.geometry);

    System system(cfg, nullptr);

    // Benign core: read-miss then write-hit per line. The read fills
    // (channel 1), the write dirties in place; once the cache is full
    // every further read miss evicts a dirty line whose writeback
    // targets flooded channel 0.
    std::vector<workload::TraceRecord> script;
    for (std::uint64_t i = 0; i < 1024; ++i) {
        const Addr addr = 128 * i + 64;
        script.push_back({1, addr, false, false});
        script.push_back({1, addr, true, false});
    }
    cpu::CoreParams benign;
    system.addCore(benign, std::make_unique<ScriptGen>(script));

    // Attacker core: keeps the victim channel's queue at capacity with
    // a tight retry loop (window drains one slot per ~tRC; the 7ns
    // retry refills it almost immediately).
    cpu::CoreParams flood;
    flood.excluded = true;
    flood.retryInterval = nsToTick(7.0);
    system.addCore(flood, std::make_unique<ChannelFloodGen>(map));

    system.run();

    // Drain what is still queued (untracked writebacks do not gate
    // benignDone) so the controller write counters are final.
    for (std::uint32_t ch = 0; ch < system.channels(); ++ch) {
        mc::Controller &ctrl = system.controller(ch);
        Tick now = system.now();
        while (!ctrl.idle())
            now = ctrl.service(now);
    }

    // The run must actually have exercised the contended path.
    EXPECT_GT(system.cache().writebacks(), 500u);
    EXPECT_GT(system.controller(0).stats().reads, 100u);

    // Conservation: every dirty eviction the cache performed reached a
    // memory controller. A silent cross-channel drop breaks this.
    EXPECT_EQ(system.stats().writes, system.cache().writebacks());
}

// ------------------------------------------- capture tap coverage

TEST(MultiChannel, CapturedActsCoverEveryChannel)
{
    // record= capture taps the Device: the stream must carry ACTs
    // from every channel's banks, with per-bank ticks monotone (the
    // act-trace format's ordering requirement), and every ACT a
    // channel's controller issues must reach the device and the tap
    // exactly once.
    for (std::uint32_t channels : {2u, 4u}) {
        SCOPED_TRACE(channels);
        SystemConfig cfg;
        cfg.geometry.channels = channels;
        core::MithrilParams mp;
        mp.nEntry = 64;
        System system(cfg, [&] {
            return std::make_unique<core::Mithril>(
                cfg.geometry.totalBanks(), mp);
        });
        std::vector<std::tuple<BankId, RowId, Tick>> acts;
        system.setActObserver([&](BankId b, RowId r, Tick t) {
            acts.emplace_back(b, r, t);
        });
        for (std::uint32_t i = 0; i < 4; ++i) {
            cpu::CoreParams params;
            params.instrBudget = 20000;
            system.addCore(params, registry::makeWorkload(
                                       "mix-high", {}, {i, 4, 1}));
        }
        system.run();

        EXPECT_GT(acts.size(), 100u);
        EXPECT_EQ(system.stats().activates, acts.size());
        EXPECT_EQ(system.energy().acts(), acts.size());

        const dram::Geometry geom = cfg.geometry;
        const std::uint32_t banks_per_channel =
            geom.ranksPerChannel * geom.banksPerRank;

        std::vector<std::uint64_t> per_channel(channels, 0);
        std::map<BankId, Tick> last_tick;
        for (const auto &[bank, row, tick] : acts) {
            ASSERT_LT(bank, geom.totalBanks());
            ++per_channel[bank / banks_per_channel];
            auto [it, fresh] = last_tick.try_emplace(bank, tick);
            if (!fresh) {
                EXPECT_GE(tick, it->second);
                it->second = tick;
            }
        }
        for (std::uint32_t ch = 0; ch < channels; ++ch)
            EXPECT_GT(per_channel[ch], 0u) << "channel " << ch;
    }
}

// ------------------------------------------------ one part per System

TEST(MultiChannel, OneTrackerAndOnePartAtAnyChannelCount)
{
    // Protection state is per bank, so every channel's controller
    // drives one Device over one tracker: the factory runs once.
    for (std::uint32_t channels : {1u, 2u, 4u}) {
        SystemConfig cfg;
        cfg.geometry.channels = channels;
        std::uint32_t built = 0;
        System system(cfg, [&] {
            ++built;
            return std::make_unique<core::Mithril>(
                cfg.geometry.totalBanks(), core::MithrilParams{});
        });
        EXPECT_EQ(system.channels(), channels);
        EXPECT_EQ(built, 1u) << channels << " channels";
        ASSERT_EQ(system.parts().size(), 1u) << channels << " channels";
        EXPECT_EQ(system.parts().range(0),
                  std::make_pair(BankId{0}, cfg.geometry.totalBanks()));
    }
}

} // namespace
} // namespace mithril::sim
