/**
 * @file
 * Tests for every baseline protection scheme: PARA, PARFM, Graphene,
 * RFM-Graphene (incl. its intended pathology), TWiCe, CBT, and
 * BlockHammer, plus the configuration factory.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/mithril.hh"
#include "dram/timing.hh"
#include "registry/scheme_registry.hh"
#include "trackers/blockhammer.hh"
#include "trackers/cbt.hh"
#include "trackers/graphene.hh"
#include "trackers/para.hh"
#include "trackers/parfm.hh"
#include "trackers/twice.hh"

namespace mithril::trackers
{
namespace
{

// ---------------------------------------------------------------- PARA

TEST(Para, RequiredProbabilityInverts)
{
    // (1-p)^(F/2) == target.
    const double p = Para::requiredProbability(10000, 1e-15);
    EXPECT_NEAR(std::pow(1.0 - p, 5000.0), 1e-15, 1e-17);
    // Lower FlipTH demands higher p.
    EXPECT_GT(Para::requiredProbability(1500, 1e-15),
              Para::requiredProbability(50000, 1e-15));
}

TEST(Para, ArrRateMatchesProbability)
{
    Para para(0.01, 1);
    std::vector<RowId> arr;
    const int kActs = 200000;
    for (int i = 0; i < kActs; ++i)
        para.onActivate(0, static_cast<RowId>(i % 100), 0, arr);
    EXPECT_NEAR(static_cast<double>(arr.size()) / kActs, 0.01, 0.002);
}

TEST(Para, ZeroAreaCost)
{
    Para para(0.01);
    EXPECT_DOUBLE_EQ(para.tableBytesPerBank(), 0.0);
    EXPECT_EQ(para.location(), Location::Mc);
    EXPECT_FALSE(para.usesRfm());
}

// --------------------------------------------------------------- PARFM

TEST(Parfm, SamplesUniformlyOverInterval)
{
    Parfm parfm(1, 64, 7);
    std::vector<RowId> arr;
    std::map<RowId, int> picks;
    for (int round = 0; round < 6400; ++round) {
        for (RowId r = 0; r < 64; ++r)
            parfm.onActivate(0, r, 0, arr);
        std::vector<RowId> sel;
        parfm.onRfm(0, 0, sel);
        ASSERT_EQ(sel.size(), 1u);
        ++picks[sel[0]];
    }
    // Each of the 64 rows expected ~100 picks.
    for (const auto &[row, count] : picks)
        EXPECT_NEAR(count, 100, 45) << "row " << row;
    EXPECT_EQ(picks.size(), 64u);
}

TEST(Parfm, AlwaysRefreshesWhenNonEmpty)
{
    Parfm parfm(1, 16);
    std::vector<RowId> arr, sel;
    parfm.onActivate(0, 9, 0, arr);
    parfm.onRfm(0, 0, sel);
    ASSERT_EQ(sel.size(), 1u);
    EXPECT_EQ(sel[0], 9u);
    // Empty interval: nothing sampled.
    sel.clear();
    parfm.onRfm(0, 0, sel);
    EXPECT_TRUE(sel.empty());
}

TEST(Parfm, UsesRfmInterface)
{
    Parfm parfm(2, 48);
    EXPECT_TRUE(parfm.usesRfm());
    EXPECT_EQ(parfm.rfmTh(), 48u);
    EXPECT_EQ(parfm.location(), Location::Dram);
    EXPECT_LT(parfm.tableBytesPerBank(), 64.0);
}

// ------------------------------------------------------------ Graphene

GrapheneParams
grapheneParams()
{
    GrapheneParams p;
    p.nEntry = 32;
    p.threshold = 100;
    p.resetInterval = msToTick(32.0);
    return p;
}

TEST(Graphene, TriggersArrAtThresholdMultiples)
{
    Graphene g(1, grapheneParams());
    std::vector<RowId> arr;
    for (int i = 0; i < 99; ++i)
        g.onActivate(0, 7, 0, arr);
    EXPECT_TRUE(arr.empty());
    g.onActivate(0, 7, 0, arr);
    ASSERT_EQ(arr.size(), 1u);
    EXPECT_EQ(arr[0], 7u);
    // Next multiple fires again (spillover behaviour).
    for (int i = 0; i < 100; ++i)
        g.onActivate(0, 7, 0, arr);
    EXPECT_EQ(arr.size(), 2u);
    EXPECT_EQ(g.arrCount(), 2u);
}

TEST(Graphene, TableResetsAfterInterval)
{
    Graphene g(1, grapheneParams());
    std::vector<RowId> arr;
    for (int i = 0; i < 60; ++i)
        g.onActivate(0, 7, 0, arr);
    // Past the reset interval the count restarts: 60 + 60 without a
    // reset would cross 100, but the reset clears the first 60.
    for (int i = 0; i < 60; ++i)
        g.onActivate(0, 7, msToTick(33.0), arr);
    EXPECT_TRUE(arr.empty());
}

TEST(Graphene, RequiredEntriesFormula)
{
    EXPECT_EQ(Graphene::requiredEntries(1000, 100), 10u);
    EXPECT_EQ(Graphene::requiredEntries(1001, 100), 11u);
}

// -------------------------------------------------------- RFM-Graphene

TEST(RfmGraphene, BuffersAndDrainsOnePerRfm)
{
    RfmGrapheneParams p;
    p.nEntry = 32;
    p.threshold = 10;
    p.rfmTh = 64;
    p.resetInterval = msToTick(32.0);
    RfmGraphene g(1, p);

    std::vector<RowId> arr;
    // Drive three rows across the threshold.
    for (RowId r = 0; r < 3; ++r)
        for (int i = 0; i < 10; ++i)
            g.onActivate(0, 100 + r, 0, arr);
    EXPECT_TRUE(arr.empty());  // Nothing immediate: buffered.
    EXPECT_EQ(g.maxQueueDepth(), 3u);

    std::vector<RowId> sel;
    g.onRfm(0, 0, sel);
    ASSERT_EQ(sel.size(), 1u);
    EXPECT_EQ(sel[0], 100u);  // FIFO drain.
    sel.clear();
    g.onRfm(0, 0, sel);
    ASSERT_EQ(sel.size(), 1u);
    EXPECT_EQ(sel[0], 101u);
}

TEST(RfmGraphene, EmptyQueueRfmDoesNothing)
{
    RfmGrapheneParams p;
    p.nEntry = 8;
    p.threshold = 5;
    p.rfmTh = 32;
    p.resetInterval = msToTick(32.0);
    RfmGraphene g(1, p);
    std::vector<RowId> sel;
    g.onRfm(0, 0, sel);
    EXPECT_TRUE(sel.empty());
}

// --------------------------------------------------------------- TWiCe

TwiceParams
twiceParams()
{
    TwiceParams p;
    p.capacity = 64;
    p.rhThreshold = 50;
    p.pruneRateNum = 1;
    p.pruneRateDen = 1;
    return p;
}

TEST(Twice, ArrAtRhThreshold)
{
    Twice t(1, twiceParams());
    std::vector<RowId> arr;
    for (int i = 0; i < 49; ++i)
        t.onActivate(0, 5, 0, arr);
    EXPECT_TRUE(arr.empty());
    t.onActivate(0, 5, 0, arr);
    ASSERT_EQ(arr.size(), 1u);
    EXPECT_EQ(arr[0], 5u);
    // Entry was reset after the ARR.
    EXPECT_EQ(t.liveEntries(0), 0u);
}

TEST(Twice, PruningDropsColdRows)
{
    Twice t(1, twiceParams());
    std::vector<RowId> arr;
    t.onActivate(0, 1, 0, arr);   // count 1
    for (int i = 0; i < 10; ++i)
        t.onActivate(0, 2, 0, arr);  // count 10
    EXPECT_EQ(t.liveEntries(0), 2u);
    // After 1 checkpoint: life=1, row 1 (count 1 >= 1) survives;
    // after 2: row 1 (count 1 < 2) is pruned, row 2 survives.
    t.onRefresh(0, 0);
    EXPECT_EQ(t.liveEntries(0), 2u);
    t.onRefresh(0, 0);
    EXPECT_EQ(t.liveEntries(0), 1u);
}

TEST(Twice, OverflowEvictsColdest)
{
    TwiceParams p = twiceParams();
    p.capacity = 2;
    Twice t(1, p);
    std::vector<RowId> arr;
    for (int i = 0; i < 5; ++i)
        t.onActivate(0, 1, 0, arr);
    t.onActivate(0, 2, 0, arr);
    t.onActivate(0, 3, 0, arr);  // Overflow: row 2 (count 1) evicted.
    EXPECT_EQ(t.overflows(), 1u);
    EXPECT_EQ(t.liveEntries(0), 2u);
    EXPECT_EQ(t.peakOccupancy(), 2u);
}

TEST(Twice, BoundedOccupancyUnderUniformStream)
{
    // With pruning, a uniform stream cannot blow up the table.
    TwiceParams p;
    p.capacity = 4096;
    p.rhThreshold = 1000;
    p.pruneRateNum = 1;
    p.pruneRateDen = 1;
    Twice t(1, p);
    std::vector<RowId> arr;
    // ~80 ACTs per tREFI at max rate; simulate 100 intervals.
    for (int interval = 0; interval < 100; ++interval) {
        for (int i = 0; i < 80; ++i) {
            t.onActivate(
                0, static_cast<RowId>((interval * 80 + i) % 7919), 0,
                arr);
        }
        t.onRefresh(0, 0);
    }
    EXPECT_EQ(t.overflows(), 0u);
    EXPECT_LT(t.peakOccupancy(), 200u);
}

// ----------------------------------------------------------------- CBT

CbtParams
cbtParams()
{
    CbtParams p;
    p.nCounters = 64;
    p.splitThreshold = 10;
    p.refreshThreshold = 20;
    p.rowsPerBank = 1024;
    p.resetInterval = msToTick(32.0);
    return p;
}

TEST(Cbt, StartsWithSingleRootLeaf)
{
    Cbt cbt(1, cbtParams());
    EXPECT_EQ(cbt.leafCount(0), 1u);
}

TEST(Cbt, SplitsHotRegions)
{
    Cbt cbt(1, cbtParams());
    std::vector<RowId> arr;
    for (int i = 0; i < 12; ++i)
        cbt.onActivate(0, 100, 0, arr);
    EXPECT_GT(cbt.leafCount(0), 1u);
}

TEST(Cbt, RefreshesWholeGroupAtThreshold)
{
    CbtParams p = cbtParams();
    p.nCounters = 1;  // No splitting possible: root covers all rows.
    Cbt cbt(1, p);
    std::vector<RowId> arr;
    for (int i = 0; i < 19; ++i)
        cbt.onActivate(0, 100, 0, arr);
    EXPECT_TRUE(arr.empty());
    cbt.onActivate(0, 100, 0, arr);
    // The entire 1024-row group is refreshed — the RFM-misfit the
    // paper calls out in Section III-D.
    EXPECT_EQ(arr.size(), 1024u);
    EXPECT_EQ(cbt.maxGroupRefreshed(), 1024u);
}

TEST(Cbt, SplitLeavesCoverDisjointRanges)
{
    Cbt cbt(1, cbtParams());
    std::vector<RowId> arr;
    for (int i = 0; i < 200; ++i)
        cbt.onActivate(0, static_cast<RowId>(i % 1024), 0, arr);
    // Leaves partition the space: count via a fresh activation of each
    // row landing in exactly one leaf (no crash, no overlap signal).
    EXPECT_GE(cbt.leafCount(0), 1u);
}

// --------------------------------------------------------- BlockHammer

BlockHammerParams
bhParams()
{
    BlockHammerParams p;
    p.cbfSize = 1024;
    p.hashes = 4;
    p.nbl = 100;
    p.flipTh = 1000;
    p.tCbf = msToTick(32.0);
    p.tRc = nsToTick(48.64);
    return p;
}

TEST(BlockHammer, BlacklistsHotRow)
{
    BlockHammer bh(1, bhParams());
    std::vector<RowId> arr;
    for (int i = 0; i < 99; ++i)
        bh.onActivate(0, 7, 0, arr);
    EXPECT_FALSE(bh.isBlacklisted(0, 7, 0));
    bh.onActivate(0, 7, 0, arr);
    EXPECT_TRUE(bh.isBlacklisted(0, 7, 0));
    EXPECT_GE(bh.estimate(0, 7, 0), 100u);
}

TEST(BlockHammer, ThrottleDelaysBlacklistedRow)
{
    BlockHammer bh(1, bhParams());
    std::vector<RowId> arr;
    for (int i = 0; i < 120; ++i)
        bh.onActivate(0, 7, static_cast<Tick>(i), arr);
    const Tick now = 200;
    const Tick allowed = bh.throttleAct(0, 7, now);
    EXPECT_GT(allowed, now);
    EXPECT_GE(allowed, 119 + bh.delayQuantum());
}

TEST(BlockHammer, CleanRowNotThrottled)
{
    BlockHammer bh(1, bhParams());
    EXPECT_EQ(bh.throttleAct(0, 99, 1000), 1000);
}

TEST(BlockHammer, DelayQuantumFormula)
{
    const BlockHammerParams p = bhParams();
    BlockHammer bh(1, p);
    const Tick expect =
        (p.tCbf - static_cast<Tick>(p.nbl) * p.tRc) /
        static_cast<Tick>(p.flipTh - p.nbl);
    EXPECT_EQ(bh.delayQuantum(), expect);
}

TEST(BlockHammer, ThrottledRateCapsBelowFlipTh)
{
    // A row throttled at tDelay spacing cannot exceed ~FlipTH ACTs in
    // one CBF lifetime — the scheme's safety argument.
    const BlockHammerParams p = bhParams();
    const double max_acts =
        static_cast<double>(p.nbl) +
        static_cast<double>(p.tCbf) /
            static_cast<double>(BlockHammer(1, p).delayQuantum());
    EXPECT_LE(max_acts, 1.05 * p.flipTh);
}

TEST(BlockHammer, EpochResetClearsCounts)
{
    BlockHammer bh(1, bhParams());
    std::vector<RowId> arr;
    for (int i = 0; i < 120; ++i)
        bh.onActivate(0, 7, 0, arr);
    EXPECT_TRUE(bh.isBlacklisted(0, 7, 0));
    // After both filters' lifetimes pass, the row is clean again.
    const Tick later = msToTick(70.0);
    bh.onActivate(0, 7, later, arr);
    EXPECT_FALSE(bh.isBlacklisted(0, 7, later));
}

TEST(BlockHammer, AliasingPollutionRaisesFloors)
{
    // Spraying many distinct rows raises CBF counts for *unseen* rows
    // (the performance-attack mechanism of Figure 10(c)).
    BlockHammerParams p = bhParams();
    p.cbfSize = 128;  // Small filter: heavy aliasing.
    BlockHammer bh(1, p);
    std::vector<RowId> arr;
    for (int i = 0; i < 60000; ++i)
        bh.onActivate(0, static_cast<RowId>(i % 500), 0, arr);
    EXPECT_GT(bh.estimate(0, 400000, 0), 0u);
}

// ------------------------------------------------------------- Factory

class FactoryTest : public ::testing::Test
{
  protected:
    dram::Timing timing_ = dram::ddr5_4800();
    dram::Geometry geom_ = dram::paperGeometry();
};

TEST_F(FactoryTest, EveryRegisteredSchemeBuilds)
{
    registry::SchemeKnobs knobs;
    knobs.flipTh = 6250;
    for (const std::string &name :
         registry::schemeRegistry().names()) {
        auto tracker = registry::makeScheme(name, knobs.toParams(),
                                            {timing_, geom_});
        if (name == "none") {
            EXPECT_EQ(tracker, nullptr);
            continue;
        }
        ASSERT_NE(tracker, nullptr) << name;
        EXPECT_FALSE(tracker->name().empty());
        EXPECT_GE(tracker->tableBytesPerBank(), 0.0);
    }
}

TEST_F(FactoryTest, AliasesResolveToCanonicalEntries)
{
    const auto *plus = registry::schemeRegistry().find("mithril_plus");
    ASSERT_NE(plus, nullptr);
    EXPECT_EQ(plus->name, "mithril+");
    const auto *rfmg =
        registry::schemeRegistry().find("rfm_graphene");
    ASSERT_NE(rfmg, nullptr);
    EXPECT_EQ(rfmg->name, "rfm-graphene");
}

TEST_F(FactoryTest, DefaultRfmThSchedule)
{
    EXPECT_EQ(core::defaultMithrilRfmTh(50000), 256u);
    EXPECT_EQ(core::defaultMithrilRfmTh(12500), 256u);
    EXPECT_EQ(core::defaultMithrilRfmTh(6250), 128u);
    EXPECT_EQ(core::defaultMithrilRfmTh(3125), 64u);
    EXPECT_EQ(core::defaultMithrilRfmTh(1500), 32u);
}

TEST_F(FactoryTest, ParfmAutoRfmThMeetsTarget)
{
    registry::SchemeKnobs knobs;
    knobs.flipTh = 6250;
    auto tracker = registry::makeScheme("parfm", knobs.toParams(),
                                        {timing_, geom_});
    ASSERT_NE(tracker, nullptr);
    EXPECT_TRUE(tracker->usesRfm());
    EXPECT_GT(tracker->rfmTh(), 0u);
    // PARFM must sample far more often than Mithril's RFM_TH=128.
    EXPECT_LT(tracker->rfmTh(), 128u);
}

TEST_F(FactoryTest, MithrilRespectsExplicitKnobs)
{
    registry::SchemeKnobs knobs;
    knobs.flipTh = 6250;
    knobs.rfmTh = 64;
    knobs.adTh = 0;
    auto tracker = registry::makeScheme("mithril", knobs.toParams(),
                                        {timing_, geom_});
    EXPECT_EQ(tracker->rfmTh(), 64u);
}

} // namespace
} // namespace mithril::trackers
