/**
 * @file
 * Tests for the memory controller: address mapping, request flow,
 * scheduling policies, auto-refresh cadence, RAA/RFM issue logic,
 * Mithril+ MRR skipping, ARR execution, and BlockHammer throttling
 * integration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/mithril.hh"
#include "dram/device.hh"
#include "mc/address_map.hh"
#include "mc/controller.hh"
#include "trackers/blockhammer.hh"

namespace mithril::mc
{
namespace
{

// --------------------------------------------------------- AddressMap

class AddressMapTest : public ::testing::Test
{
  protected:
    dram::Geometry geom_ = dram::paperGeometry();
    AddressMap map_{geom_};
};

TEST_F(AddressMapTest, ComposeDecodeRoundTrip)
{
    for (std::uint32_t ch = 0; ch < geom_.channels; ++ch) {
        for (std::uint32_t b : {0u, 7u, 31u}) {
            for (RowId row : {0u, 1234u, 65535u}) {
                for (std::uint32_t col : {0u, 63u, 127u}) {
                    Request req;
                    req.addr = map_.compose(ch, 0, b, row, col);
                    map_.decode(req);
                    EXPECT_EQ(req.channel, ch);
                    EXPECT_EQ(req.rank, 0u);
                    EXPECT_EQ(req.row, row);
                    EXPECT_EQ(req.column, col);
                    EXPECT_EQ(req.bank, map_.flatBank(ch, 0, b));
                }
            }
        }
    }
}

TEST_F(AddressMapTest, ConsecutiveLinesInterleaveChannelsThenBanks)
{
    Request a, b, c;
    a.addr = 0;
    b.addr = 64;
    c.addr = 64ull * 2 * 4;  // Past one channel's 4-line chunk.
    map_.decode(a);
    map_.decode(b);
    map_.decode(c);
    EXPECT_NE(a.channel, b.channel);
    EXPECT_EQ(a.channel, c.channel);
    EXPECT_NE(a.bank, c.bank);  // Bank hop after 4 lines.
    EXPECT_EQ(a.row, c.row);
}

TEST_F(AddressMapTest, SequentialStreamTouchesFourLinesPerBankVisit)
{
    // The minimalist-open contract: within one row visit, exactly 4
    // consecutive lines of a channel land in the same (bank, row).
    Request first;
    first.addr = 0;
    map_.decode(first);
    int same = 0;
    for (int i = 1; i < 4; ++i) {
        Request r;
        r.addr = static_cast<Addr>(i) * 64 * geom_.channels;
        map_.decode(r);
        same += (r.bank == first.bank && r.row == first.row);
    }
    EXPECT_EQ(same, 3);
}

TEST_F(AddressMapTest, FlatBankCoversAllBanks)
{
    std::vector<bool> seen(geom_.totalBanks(), false);
    for (std::uint32_t ch = 0; ch < geom_.channels; ++ch)
        for (std::uint32_t r = 0; r < geom_.ranksPerChannel; ++r)
            for (std::uint32_t b = 0; b < geom_.banksPerRank; ++b)
                seen[map_.flatBank(ch, r, b)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

// ------------------------------------- AddressMap, other geometries

/** The multi-channel/multi-rank geometry grid the frontend split must
 *  decode correctly: channels in {1,2,4} x ranks in {1,2}. */
std::vector<dram::Geometry>
geometryGrid()
{
    std::vector<dram::Geometry> grid;
    for (std::uint32_t channels : {1u, 2u, 4u}) {
        for (std::uint32_t ranks : {1u, 2u}) {
            dram::Geometry g = dram::paperGeometry();
            g.channels = channels;
            g.ranksPerChannel = ranks;
            grid.push_back(g);
        }
    }
    return grid;
}

TEST(AddressMapGeometries, ComposeDecodeRoundTripsEveryGeometry)
{
    for (const dram::Geometry &geom : geometryGrid()) {
        AddressMap map(geom);
        for (std::uint32_t ch = 0; ch < geom.channels; ++ch) {
            for (std::uint32_t r = 0; r < geom.ranksPerChannel; ++r) {
                for (std::uint32_t b :
                     {0u, 5u, geom.banksPerRank - 1}) {
                    for (RowId row :
                         {0u, 77u, geom.rowsPerBank - 1}) {
                        for (std::uint32_t col :
                             {0u, geom.columnsPerRow() - 1}) {
                            Request req;
                            req.addr =
                                map.compose(ch, r, b, row, col);
                            map.decode(req);
                            EXPECT_EQ(req.channel, ch);
                            EXPECT_EQ(req.rank, r);
                            EXPECT_EQ(req.row, row);
                            EXPECT_EQ(req.column, col);
                            EXPECT_EQ(req.bank,
                                      map.flatBank(ch, r, b));
                        }
                    }
                }
            }
        }
    }
}

TEST(AddressMapGeometries, DecodeComposeRoundTripsAddresses)
{
    // The inverse direction: decode an address, re-compose the decoded
    // fields, and land on the same address — over a stride that walks
    // channel, bank, rank, and row bits in every geometry.
    for (const dram::Geometry &geom : geometryGrid()) {
        AddressMap map(geom);
        for (std::uint64_t i = 0; i < 4096; ++i) {
            const Addr addr = i * 64 * 1031;  // Coprime stride.
            if (addr >= geom.capacityBytes())
                break;
            Request req;
            req.addr = addr;
            map.decode(req);
            const std::uint32_t bank_in_rank =
                req.bank % geom.banksPerRank;
            EXPECT_EQ(map.compose(req.channel, req.rank, bank_in_rank,
                                  req.row, req.column),
                      addr);
        }
    }
}

TEST(AddressMapGeometries, RowXorBankPermutationIsItsOwnInverse)
{
    // For a fixed row, the row-XOR spreads bank_in_rank through a
    // permutation; composing with the decoded bank must return the
    // original address (the XOR applied twice cancels), and distinct
    // banks must stay distinct.
    for (const dram::Geometry &geom : geometryGrid()) {
        AddressMap map(geom);
        for (RowId row : {1u, 31u, 4097u}) {
            std::vector<bool> seen(geom.banksPerRank, false);
            for (std::uint32_t b = 0; b < geom.banksPerRank; ++b) {
                Request req;
                req.addr = map.compose(0, 0, b, row, 0);
                map.decode(req);
                const std::uint32_t decoded =
                    req.bank % geom.banksPerRank;
                EXPECT_EQ(decoded, b);
                EXPECT_FALSE(seen[decoded]);
                seen[decoded] = true;
            }
        }
    }
}

TEST(AddressMapGeometries, FlatBankIsBijectiveOverFullBankSpace)
{
    for (const dram::Geometry &geom : geometryGrid()) {
        AddressMap map(geom);
        std::vector<std::uint32_t> hits(geom.totalBanks(), 0);
        for (std::uint32_t ch = 0; ch < geom.channels; ++ch)
            for (std::uint32_t r = 0; r < geom.ranksPerChannel; ++r)
                for (std::uint32_t b = 0; b < geom.banksPerRank; ++b)
                    ++hits[map.flatBank(ch, r, b)];
        for (std::uint32_t count : hits)
            EXPECT_EQ(count, 1u);  // Onto and one-to-one.
    }
}

// --------------------------------------------------------- Controller

class ControllerTest : public ::testing::Test
{
  protected:
    void
    build(std::unique_ptr<trackers::RhProtection> tracker = nullptr,
          ControllerParams params = ControllerParams{})
    {
        tracker_ = std::move(tracker);
        device_ = std::make_unique<dram::Device>(timing_, geom_,
                                                 100000);
        device_->setTracker(tracker_.get());
        map_ = std::make_unique<AddressMap>(geom_);
        ctrl_ = std::make_unique<Controller>(*device_, *map_, params);
        ctrl_->setCompletionCallback(
            [this](const Request &req, Tick t) {
                completions_.emplace_back(req, t);
            });
    }

    /** Drive the controller until idle or `until`. */
    void
    drain(Tick until = msToTick(1.0))
    {
        Tick now = 0;
        while (now < until) {
            const Tick next = ctrl_->service(now);
            if (ctrl_->idle() && completionsStable())
                break;
            now = next;
        }
    }

    bool completionsStable() const { return true; }

    Request
    makeReq(std::uint32_t bank_in_rank, RowId row, std::uint32_t col,
            bool write = false, std::uint32_t core = 0)
    {
        Request req;
        req.addr = map_->compose(0, 0, bank_in_rank, row, col);
        req.isWrite = write;
        req.coreId = core;
        map_->decode(req);
        return req;
    }

    dram::Timing timing_ = dram::ddr5_4800();
    dram::Geometry geom_ = dram::paperGeometry();
    std::unique_ptr<trackers::RhProtection> tracker_;
    std::unique_ptr<dram::Device> device_;
    std::unique_ptr<AddressMap> map_;
    std::unique_ptr<Controller> ctrl_;
    std::vector<std::pair<Request, Tick>> completions_;
    std::vector<std::size_t> positions_;
};

TEST_F(ControllerTest, SingleReadCompletesWithExpectedLatency)
{
    build();
    ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, 5), 0));
    drain();
    ASSERT_EQ(completions_.size(), 1u);
    // ACT + tRCD + tCL + tBL, plus command-slot slack.
    const Tick expect =
        timing_.tRCD + timing_.tCL + timing_.tBL;
    EXPECT_NEAR(static_cast<double>(completions_[0].second),
                static_cast<double>(expect), 3000.0);
    EXPECT_EQ(ctrl_->stats().reads, 1u);
    EXPECT_EQ(ctrl_->stats().activates, 1u);
}

TEST_F(ControllerTest, RowHitAvoidsSecondActivate)
{
    build();
    ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, 5), 0));
    ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, 6), 0));
    drain();
    EXPECT_EQ(completions_.size(), 2u);
    EXPECT_EQ(ctrl_->stats().activates, 1u);
    EXPECT_EQ(ctrl_->stats().rowHits, 2u);
}

TEST_F(ControllerTest, RowConflictPrechargesAndReactivates)
{
    build();
    ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, 5), 0));
    ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 200, 5), 0));
    drain();
    EXPECT_EQ(completions_.size(), 2u);
    EXPECT_EQ(ctrl_->stats().activates, 2u);
    EXPECT_GE(ctrl_->stats().precharges, 1u);
}

TEST_F(ControllerTest, MinimalistOpenCapsRowHitStreak)
{
    build();
    for (std::uint32_t c = 0; c < 8; ++c)
        ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, c), 0));
    drain();
    EXPECT_EQ(completions_.size(), 8u);
    // 8 same-row requests with a 4-hit cap: at least 2 activates.
    EXPECT_GE(ctrl_->stats().activates, 2u);
}

TEST_F(ControllerTest, WritesComplete)
{
    build();
    ASSERT_TRUE(ctrl_->enqueue(makeReq(1, 50, 0, true), 0));
    drain();
    ASSERT_EQ(completions_.size(), 1u);
    EXPECT_EQ(ctrl_->stats().writes, 1u);
}

TEST_F(ControllerTest, QueueCapacityEnforced)
{
    ControllerParams params;
    params.queueCapacity = 2;
    build(nullptr, params);
    EXPECT_TRUE(ctrl_->enqueue(makeReq(0, 1, 0), 0));
    EXPECT_TRUE(ctrl_->enqueue(makeReq(1, 1, 0), 0));
    EXPECT_FALSE(ctrl_->enqueue(makeReq(2, 1, 0), 0));
}

TEST_F(ControllerTest, AutoRefreshCadence)
{
    build();
    // Run for ~10 tREFI with no traffic: one REF per rank per tREFI.
    Tick now = 0;
    const Tick end = 10 * timing_.tREFI + timing_.tREFI / 2;
    while (now < end)
        now = ctrl_->service(now);
    // The channel-0 controller owns 1 of the 2 ranks, refreshed ~10
    // times (the other rank belongs to channel 1's controller).
    EXPECT_NEAR(static_cast<double>(ctrl_->stats().refreshes), 10.0,
                2.0);
}

TEST_F(ControllerTest, RfmIssuedEveryRfmThActs)
{
    core::MithrilParams mp;
    mp.nEntry = 64;
    mp.rfmTh = 16;
    build(std::make_unique<core::Mithril>(geom_.totalBanks(), mp));

    // 64 ACT-causing requests to one bank, serialized so each request
    // is a fresh activation (FR-FCFS would otherwise coalesce hits).
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(
            ctrl_->enqueue(makeReq(3, 100 + (i % 2) * 50, 0), 0));
        drain();
    }
    EXPECT_EQ(completions_.size(), 64u);
    // 64 demand ACTs, plus up to one reactivation per RFM (the bank
    // closes for the RFM before the pending hit drains).
    EXPECT_GE(ctrl_->stats().activates, 64u);
    EXPECT_LE(ctrl_->stats().activates, 68u);
    EXPECT_EQ(ctrl_->stats().rfmIssued, 4u);  // 64 / 16.
    EXPECT_EQ(device_->protection().total().rfms, 4u);
}

TEST_F(ControllerTest, MithrilPlusSkipsNeedlessRfm)
{
    core::MithrilParams mp;
    mp.nEntry = 64;
    mp.rfmTh = 16;
    mp.adTh = 100;
    mp.plusMode = true;
    build(std::make_unique<core::Mithril>(geom_.totalBanks(), mp));

    // Uniform benign pattern: spread stays below AdTH, so the MRR poll
    // cancels every RFM.
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(
            ctrl_->enqueue(makeReq(3, 100 + (i % 8) * 10, 0), 0));
        drain();
    }
    EXPECT_EQ(ctrl_->stats().rfmIssued, 0u);
    EXPECT_EQ(ctrl_->stats().rfmSkippedByMrr, 4u);
}

TEST_F(ControllerTest, ArrExecutedForReactiveTracker)
{
    // A tracker that requests an ARR on every 8th ACT.
    class EveryNthArr : public trackers::RhProtection
    {
      public:
        std::string name() const override { return "test"; }
        trackers::Location location() const override
        {
            return trackers::Location::Mc;
        }
        void
        onActivate(BankId, RowId row, Tick,
                   std::vector<RowId> &arr) override
        {
            if (++count_ % 8 == 0)
                arr.push_back(row);
        }
        double tableBytesPerBank() const override { return 0.0; }

      private:
        std::uint64_t count_ = 0;
    };

    build(std::make_unique<EveryNthArr>());
    for (int i = 0; i < 32; ++i) {
        ASSERT_TRUE(
            ctrl_->enqueue(makeReq(3, 100 + (i % 2) * 50, 0), 0));
        drain();
    }
    EXPECT_EQ(ctrl_->stats().arrExecuted, 4u);
    EXPECT_EQ(device_->protection().total().preventive, 4u);
}

TEST_F(ControllerTest, ThrottleProbesOnlyTrackersThatThrottle)
{
    // Counts throttleAct() probes and holds row 100's ACTs to 1 us.
    class CountingThrottle : public trackers::RhProtection
    {
      public:
        std::string name() const override { return "test"; }
        trackers::Location location() const override
        {
            return trackers::Location::Mc;
        }
        void
        onActivate(BankId, RowId, Tick, std::vector<RowId> &) override
        {
        }
        Tick
        throttleAct(BankId, RowId row, Tick now) override
        {
            ++probes;
            return row == 100 ? std::max(now, usToTick(1.0)) : now;
        }
        double tableBytesPerBank() const override { return 0.0; }

        std::uint64_t probes = 0;
    };
    class NeverThrottles : public CountingThrottle
    {
      public:
        bool throttles() const override { return false; }
    };

    // Requests wait on closed banks 3 and 5 until their ACTs issue;
    // only (bank 3, row 100) can be held.
    auto serve = [&] {
        ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, 0), 0));
        ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 200, 0), 0));
        ASSERT_TRUE(ctrl_->enqueue(makeReq(5, 300, 0), 0));
        ASSERT_TRUE(ctrl_->enqueue(makeReq(5, 400, 0), 0));
        drain();
        ASSERT_EQ(completions_.size(), 4u);
        completions_.clear();
    };

    auto quiet = std::make_unique<NeverThrottles>();
    const CountingThrottle &quiet_probes = *quiet;
    build(std::move(quiet));
    serve();
    EXPECT_EQ(quiet_probes.probes, 0u);
    EXPECT_EQ(ctrl_->stats().throttleStalls, 0u);

    // The default throttles() keeps the probes, and the held ACT
    // counts once however many passes re-probe it.
    auto counting = std::make_unique<CountingThrottle>();
    const CountingThrottle &probes = *counting;
    build(std::move(counting));
    serve();
    EXPECT_GT(probes.probes, 1u);
    EXPECT_EQ(ctrl_->stats().throttleStalls, 1u);
}

TEST_F(ControllerTest, ThrottledActIsDelayed)
{
    trackers::BlockHammerParams bp;
    bp.cbfSize = 256;
    bp.nbl = 8;
    bp.flipTh = 100;
    bp.tCbf = timing_.tREFW;
    bp.tRc = timing_.tRC;
    build(std::make_unique<trackers::BlockHammer>(geom_.totalBanks(),
                                                  bp));

    // Hammer one pair of rows well past NBL, serialized so every
    // request is a fresh ACT that the CBFs observe.
    for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(
            ctrl_->enqueue(makeReq(3, 100 + (i % 2) * 50, 0), 0));
        drain(msToTick(40.0));
    }
    EXPECT_EQ(completions_.size(), 40u);
    EXPECT_GT(ctrl_->stats().throttleStalls, 0u);
    // Counted once per delayed ACT, not once per scheduling pass.
    EXPECT_LE(ctrl_->stats().throttleStalls, 40u);
    // Throttling stretched the run: the last completion lands far
    // beyond the unthrottled time (tDelay is hundreds of us here).
    EXPECT_GT(completions_.back().second, usToTick(10.0));
}

TEST_F(ControllerTest, BlissBlacklistsStreakyCore)
{
    // Position of core 1's lone conflict request among 12 streak-y
    // core-0 requests, with and without BLISS.
    auto core1_position = [&](bool use_bliss) {
        ControllerParams params;
        params.useBliss = use_bliss;
        params.blissStreak = 2;
        build(nullptr, params);
        for (std::uint32_t c = 0; c < 12; ++c)
            ASSERT_TRUE(ctrl_->enqueue(
                makeReq(3, 100 + (c / 4) * 30, c % 4, false, 0), 0));
        ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 900, 0, false, 1), 0));
        drain();
        ASSERT_EQ(completions_.size(), 13u);
        std::size_t pos = 99;
        for (std::size_t i = 0; i < completions_.size(); ++i)
            if (completions_[i].first.coreId == 1)
                pos = i;
        completions_.clear();
        positions_.push_back(pos);
    };
    core1_position(false);
    core1_position(true);
    // BLISS moves the victim core's request forward.
    EXPECT_LT(positions_[1], positions_[0]);
}

TEST_F(ControllerTest, BlissClassIsPerCoreBeyondSixtyFourCores)
{
    // Cores 0 and 64 share no BLISS state: core 0's blacklisting must
    // not demote core 64, whose later ready row hit therefore wins.
    ControllerParams params;
    params.blissStreak = 2;
    params.maxRowHits = 16;
    build(nullptr, params);
    for (std::uint32_t c = 0; c < 3; ++c)
        ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, c, false, 0), 0));
    drain();
    ASSERT_EQ(completions_.size(), 3u);  // Core 0 is now blacklisted.

    ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, 3, false, 0), 0));
    ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, 4, false, 64), 0));
    drain();
    ASSERT_EQ(completions_.size(), 5u);
    EXPECT_EQ(completions_[3].first.coreId, 64u);
    EXPECT_EQ(completions_[4].first.coreId, 0u);
}

TEST_F(ControllerTest, PerBankRefreshRotatesBanks)
{
    ControllerParams params;
    params.perBankRefresh = true;
    build(nullptr, params);
    // Run idle for ~2 tREFI: each tREFI must produce banksPerRank
    // REFsb commands for the one rank this channel's controller owns.
    Tick now = 0;
    const Tick end = 2 * timing_.tREFI;
    while (now < end)
        now = ctrl_->service(now);
    const double expect = 2.0 * 1.0 * geom_.banksPerRank;
    EXPECT_NEAR(static_cast<double>(ctrl_->stats().refreshes), expect,
                8.0);
    // Only one bank is ever fenced at a time: demand traffic to other
    // banks proceeds (smoke-checked by serving a request promptly).
    ASSERT_TRUE(ctrl_->enqueue(makeReq(7, 11, 0), now));
    drain(now + usToTick(2.0));
    EXPECT_EQ(completions_.size(), 1u);
}

TEST_F(ControllerTest, RefsbCadenceSpansExactlyTrefi)
{
    // N REFsb commands must span *exactly* tREFI: the integer division
    // tREFI / banksPerRank leaves a remainder that, if ignored, lets
    // the rotation drift early by (tREFI % banksPerRank) ticks per
    // lap. Use a timing where the remainder is maximal (31 of 32) and
    // run 400 laps so the drift — 12,400 ticks — exceeds two full
    // steps and shifts the command count.
    constexpr Tick kStep = 5000;
    timing_.tREFI = 32 * kStep + 31;
    timing_.tREFW = timing_.tREFI * 8192;
    ControllerParams params;
    params.perBankRefresh = true;
    build(nullptr, params);

    const auto bpr = static_cast<Tick>(geom_.banksPerRank);
    const Tick rem = timing_.tREFI % bpr;
    ASSERT_EQ(timing_.tREFI / bpr, kStep);
    // Same-bank busy (tRFCsb) must clear before the rotation returns
    // to a bank, or service order would perturb the cadence.
    ASSERT_GT(bpr * kStep, device_->timing().tRFCsb);

    Tick now = 0;
    const Tick end = kStep + 400 * timing_.tREFI + kStep / 2;
    while (now < end)
        now = ctrl_->service(now);

    // Exact Bresenham schedule: REFsb #k is due at
    //   step*(k+1) + floor(k*rem/bpr)
    // (global rank 0 has zero stagger). Count how many land before
    // `end`; the drifting pre-fix schedule step*(k+1) counts 2 more.
    std::uint64_t expect = 0;
    for (std::uint64_t k = 0;; ++k) {
        const Tick due = kStep * static_cast<Tick>(k + 1) +
                         static_cast<Tick>(k) * rem / bpr;
        if (due >= end)
            break;
        ++expect;
    }
    EXPECT_EQ(ctrl_->stats().refreshes, expect);
}

TEST_F(ControllerTest, PerBankRefreshKeepsOracleCovered)
{
    ControllerParams params;
    params.perBankRefresh = true;
    build(nullptr, params);
    device_->activate(3, 100, 0);
    device_->precharge(3, device_->bank(3).earliestPre(0));
    // A full tREFW of REFsb rotation refreshes every row of the bank.
    Tick now = timing_.tRP + timing_.tRAS;
    const Tick end = now + timing_.tREFW + timing_.tREFI;
    while (now < end)
        now = ctrl_->service(now);
    EXPECT_DOUBLE_EQ(device_->oracle().disturbance(3, 101), 0.0);
}

TEST_F(ControllerTest, RaaRefDecrementDelaysRfm)
{
    core::MithrilParams mp;
    mp.nEntry = 64;
    mp.rfmTh = 16;
    ControllerParams params;
    params.raaRefDecrement = 8;
    build(std::make_unique<core::Mithril>(geom_.totalBanks(), mp),
          params);

    // 12 serialized ACTs (below RFM_TH), then idle across one tREFI so
    // a REF lands and decrements RAA by 8: 4 more ACTs must NOT yet
    // trigger an RFM (4 + 4 < 16), 12 more must.
    for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(
            ctrl_->enqueue(makeReq(3, 100 + (i % 2) * 50, 0), 0));
        drain();
    }
    Tick now = 0;
    while (now < timing_.tREFI + timing_.tRFC)
        now = ctrl_->service(now);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ctrl_->enqueue(
            makeReq(3, 100 + (i % 2) * 50, 0), now));
        drain(now + msToTick(1.0));
    }
    EXPECT_EQ(ctrl_->stats().rfmIssued, 0u);
    for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(ctrl_->enqueue(
            makeReq(3, 100 + (i % 2) * 50, 0), now));
        drain(now + msToTick(2.0));
    }
    EXPECT_EQ(ctrl_->stats().rfmIssued, 1u);
}

TEST_F(ControllerTest, ReadLatencyHistogramPopulated)
{
    build();
    for (std::uint32_t c = 0; c < 8; ++c)
        ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, c), 0));
    drain();
    const auto &hist = ctrl_->stats().readLatencyNs;
    EXPECT_EQ(hist.totalSamples(), 8u);
    EXPECT_NEAR(hist.mean(), ctrl_->stats().avgReadLatencyNs(), 25.0);
    EXPECT_GT(hist.percentile(0.95), 0.0);
}

TEST_F(ControllerTest, IdleReflectsPendingWork)
{
    build();
    EXPECT_TRUE(ctrl_->idle());
    ctrl_->enqueue(makeReq(0, 1, 0), 0);
    EXPECT_FALSE(ctrl_->idle());
    drain();
    EXPECT_TRUE(ctrl_->idle());
}

} // namespace
} // namespace mithril::mc
