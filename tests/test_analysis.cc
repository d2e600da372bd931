/**
 * @file
 * Tests for the analytic models: PARFM failure probability
 * (Appendix C), the Table IV area model, and the Figure 2
 * ARR-vs-RFM safe-FlipTH model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "analysis/area_model.hh"
#include "analysis/arr_vs_rfm.hh"
#include "analysis/parfm_failure.hh"
#include "dram/timing.hh"

namespace mithril::analysis
{
namespace
{

class AnalysisTest : public ::testing::Test
{
  protected:
    dram::Timing timing_ = dram::ddr5_4800();
    dram::Geometry geom_ = dram::paperGeometry();
};

// ------------------------------------------------------ PARFM failure

TEST_F(AnalysisTest, CostEffectivenessMonotonicallyDecreases)
{
    // Equation 5: the optimal attack puts one ACT per row.
    double last = 1.0;
    for (std::uint32_t j = 1; j <= 64; ++j) {
        const double ce = parfmCostEffectiveness(64, j);
        EXPECT_LE(ce, last) << "j=" << j;
        last = ce;
    }
}

TEST_F(AnalysisTest, RowFailMatchesClosedFormInUnderflowRegion)
{
    // For tiny q the recurrence collapses to (W - F/2) * q / R.
    const std::uint32_t flip = 50000, th = 16;
    const double log_fail = parfmRowFailLog10(timing_, flip, th);
    const double ln_q = (flip / 2.0) * std::log1p(-1.0 / th);
    const std::uint64_t w = dram::rfmIntervalsPerWindow(timing_, th);
    const double expect =
        (std::log(static_cast<double>(w - flip / 2)) - std::log(16.0) +
         ln_q) /
        std::log(10.0);
    EXPECT_NEAR(log_fail, expect, 0.5);
}

TEST_F(AnalysisTest, FailureGrowsWithRfmTh)
{
    double last = -1e9;
    for (std::uint32_t th : {8u, 16u, 32u, 64u, 128u}) {
        const double f = parfmSystemFailLog10(timing_, 6250, th, 22);
        EXPECT_GE(f, last) << "RFM_TH=" << th;
        last = f;
    }
}

TEST_F(AnalysisTest, FailureDropsWithFlipTh)
{
    double last = 1.0;
    for (std::uint32_t flip : {1500u, 3125u, 6250u, 12500u}) {
        const double f = parfmSystemFailLog10(timing_, flip, 32, 22);
        EXPECT_LE(f, last) << "FlipTH=" << flip;
        last = f;
    }
}

TEST_F(AnalysisTest, MaxRfmThMeetsTargetAndIsMaximal)
{
    for (std::uint32_t flip : {3125u, 6250u, 25000u}) {
        const std::uint32_t th = parfmMaxRfmTh(timing_, flip);
        ASSERT_GT(th, 0u) << "FlipTH=" << flip;
        EXPECT_LE(parfmSystemFailLog10(timing_, flip, th, 22), -15.0);
        EXPECT_GT(parfmSystemFailLog10(timing_, flip, 2 * th, 22),
                  -15.0)
            << "FlipTH=" << flip << " th=" << th;
    }
}

TEST_F(AnalysisTest, ParfmNeedsLowerRfmThAtLowFlipTh)
{
    // Section III-E: as FlipTH decreases PARFM must sample more often
    // — this is exactly what makes it expensive.
    const std::uint32_t th_high = parfmMaxRfmTh(timing_, 50000);
    const std::uint32_t th_low = parfmMaxRfmTh(timing_, 1500);
    EXPECT_GT(th_high, th_low);
    EXPECT_LE(th_low, 16u);
}

TEST_F(AnalysisTest, MoreBanksWeakenTheGuarantee)
{
    const double f22 = parfmSystemFailLog10(timing_, 6250, 32, 22);
    const double f1024 = parfmSystemFailLog10(timing_, 6250, 32, 1024);
    EXPECT_GT(f1024, f22);
}

// --------------------------------------------------------- Area model

TEST_F(AnalysisTest, TableIvFlipThsDescending)
{
    const auto &flips = tableIvFlipThs();
    ASSERT_EQ(flips.size(), 6u);
    for (std::size_t i = 1; i < flips.size(); ++i)
        EXPECT_LT(flips[i], flips[i - 1]);
}

TEST_F(AnalysisTest, GrapheneSizesNearTableIv)
{
    AreaModel model(timing_, geom_);
    // Table IV Graphene row (KB): 0.14 0.21 0.51 0.99 1.92 3.7 —
    // our sizing must land within 2x of each.
    const double paper[] = {0.14, 0.21, 0.51, 0.99, 1.92, 3.7};
    const auto &flips = tableIvFlipThs();
    for (std::size_t i = 0; i < flips.size(); ++i) {
        const double kb = model.grapheneBytes(flips[i]) / 1024.0;
        EXPECT_GT(kb, paper[i] / 2.0) << flips[i];
        EXPECT_LT(kb, paper[i] * 2.0) << flips[i];
    }
}

TEST_F(AnalysisTest, BlockHammerSizesMatchTableIv)
{
    AreaModel model(timing_, geom_);
    const double paper[] = {3.75, 3.5, 3.25, 6.0, 11.0, 20.0};
    const auto &flips = tableIvFlipThs();
    for (std::size_t i = 0; i < flips.size(); ++i) {
        const double kb = model.blockHammerBytes(flips[i]) / 1024.0;
        EXPECT_NEAR(kb, paper[i], paper[i] * 0.15) << flips[i];
    }
}

TEST_F(AnalysisTest, TwiceIsOrderOfMagnitudeLargerThanGraphene)
{
    AreaModel model(timing_, geom_);
    for (std::uint32_t flip : tableIvFlipThs()) {
        EXPECT_GT(model.twiceBytes(flip),
                  5.0 * model.grapheneBytes(flip))
            << flip;
    }
}

TEST_F(AnalysisTest, CbtSizesNearTableIv)
{
    AreaModel model(timing_, geom_);
    const double paper[] = {0.47, 0.97, 2.0, 4.12, 8.5, 17.5};
    const auto &flips = tableIvFlipThs();
    for (std::size_t i = 0; i < flips.size(); ++i) {
        const double kb = model.cbtBytes(flips[i]) / 1024.0;
        EXPECT_NEAR(kb, paper[i], paper[i] * 0.35) << flips[i];
    }
}

TEST_F(AnalysisTest, MithrilSmallerThanBlockHammerEverywhere)
{
    // Figure 10(e): 4x-60x smaller at every FlipTH.
    AreaModel model(timing_, geom_);
    const std::uint32_t rfm_ths[] = {256, 256, 256, 128, 64, 32};
    const auto &flips = tableIvFlipThs();
    for (std::size_t i = 0; i < flips.size(); ++i) {
        const auto mithril = model.mithrilBytes(flips[i], rfm_ths[i]);
        ASSERT_TRUE(mithril.has_value()) << flips[i];
        const double bh = model.blockHammerBytes(flips[i]);
        EXPECT_LT(*mithril * 3.0, bh) << flips[i];
    }
}

TEST_F(AnalysisTest, MithrilInfeasibleCellsMatchTableIv)
{
    // Table IV's '-' cells: RFM_TH 256 is mathematically infeasible
    // at 3.125K/1.5K, as is 128 at 1.5K; 64 at 1.5K is feasible but
    // with an "overly high Nentry" (Section VI-A), which is why the
    // paper pins RFM_TH to 32 there.
    AreaModel model(timing_, geom_);
    EXPECT_FALSE(model.mithrilBytes(3125, 256).has_value());
    EXPECT_FALSE(model.mithrilBytes(1500, 256).has_value());
    EXPECT_FALSE(model.mithrilBytes(1500, 128).has_value());
    const auto huge = model.mithrilBytes(1500, 64);
    ASSERT_TRUE(huge.has_value());
    const auto chosen = model.mithrilBytes(1500, 32);
    ASSERT_TRUE(chosen.has_value());
    EXPECT_GT(*huge, 2.0 * *chosen);
}

TEST_F(AnalysisTest, MithrilTableIvBallpark)
{
    // Table IV Mithril-128 row (KB): 0.07 0.15 0.34 0.84 3.76.
    AreaModel model(timing_, geom_);
    const double paper[] = {0.07, 0.15, 0.34, 0.84, 3.76};
    const std::uint32_t flips[] = {50000, 25000, 12500, 6250, 3125};
    for (std::size_t i = 0; i < 5; ++i) {
        const auto kb = model.mithrilBytes(flips[i], 128);
        ASSERT_TRUE(kb.has_value());
        EXPECT_GT(*kb / 1024.0, paper[i] * 0.5) << flips[i];
        EXPECT_LT(*kb / 1024.0, paper[i] * 2.2) << flips[i];
    }
}

// --------------------------------------------------------- ARR vs RFM

TEST_F(AnalysisTest, ArrGrapheneIsLinearInThreshold)
{
    const auto s1 = arrGrapheneSafeFlipTh(1000);
    const auto s2 = arrGrapheneSafeFlipTh(2000);
    const auto s4 = arrGrapheneSafeFlipTh(4000);
    EXPECT_NEAR(static_cast<double>(s2) / s1, 2.0, 0.01);
    EXPECT_NEAR(static_cast<double>(s4) / s2, 2.0, 0.01);
}

TEST_F(AnalysisTest, PaperWorkedExample)
{
    // Section III-A: threshold 2K, RFM_TH 64 -> ~310 rows can reach
    // the threshold; the safe FlipTH lands near 20K (order ~2x), far
    // above the ARR-era value.
    const std::uint64_t rows = concurrentThresholdRows(timing_, 2000);
    EXPECT_NEAR(static_cast<double>(rows), 304.0, 10.0);
    const std::uint64_t safe =
        rfmGrapheneSafeFlipTh(timing_, 2000, 64);
    EXPECT_GT(safe, 20000u);
    EXPECT_LT(safe, 35000u);
    EXPECT_GT(safe, arrGrapheneSafeFlipTh(2000) * 2);
}

TEST_F(AnalysisTest, ConcentrationDrivesAllRowsThenFocusesPair)
{
    const std::uint32_t threshold = 10, rows = 5;
    const std::uint64_t phase1_acts = threshold * rows;
    std::map<RowId, std::uint32_t> phase1;
    for (std::uint64_t i = 0; i < phase1_acts; ++i)
        ++phase1[concentrationRow(i, rows, threshold)];
    ASSERT_EQ(phase1.size(), rows);
    EXPECT_EQ(phase1.begin()->first, 2000u);
    for (const auto &[row, count] : phase1)
        EXPECT_EQ(count, threshold) << row;

    // Phase 2: only the last pair, alternating.
    const RowId last = 2000 + 2 * (rows - 1);
    for (std::uint64_t i = phase1_acts; i < phase1_acts + 20; ++i)
        EXPECT_EQ(concentrationRow(i, rows, threshold),
                  i % 2 ? last : last - 2)
            << i;
}

TEST_F(AnalysisTest, RfmGrapheneHasAFloorRegardlessOfThreshold)
{
    // Figure 2's core message: shrinking the threshold cannot push the
    // RFM-Graphene safe FlipTH below a floor set by the queue drain.
    std::uint64_t best = ~0ull;
    for (std::uint32_t t = 128; t <= 8192; t *= 2)
        best = std::min(best,
                        rfmGrapheneSafeFlipTh(timing_, t, 64));
    EXPECT_GT(best, 10000u);  // ARR-Graphene reaches ~512 at t=128.
    EXPECT_LT(arrGrapheneSafeFlipTh(128), 1000u);
}

TEST_F(AnalysisTest, LargerRfmThWorsensTheFloor)
{
    for (std::uint32_t t : {512u, 2048u}) {
        EXPECT_GT(rfmGrapheneSafeFlipTh(timing_, t, 256),
                  rfmGrapheneSafeFlipTh(timing_, t, 64))
            << t;
    }
}

} // namespace
} // namespace mithril::analysis
