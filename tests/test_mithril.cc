/**
 * @file
 * Tests for the Mithril tracker itself: greedy RFM selection, adaptive
 * refresh, Mithril+ mode-register behaviour, and — the centrepiece —
 * empirical validation of the Theorem 1/2 deterministic-safety claim
 * against adversarial maximum-rate activation streams on a one-bank
 * ActStream engine.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/bounds.hh"
#include "core/config_solver.hh"
#include "core/mithril.hh"
#include "engine/act_stream_engine.hh"

namespace mithril::core
{
namespace
{

MithrilParams
smallParams()
{
    MithrilParams p;
    p.nEntry = 8;
    p.rfmTh = 16;
    p.adTh = 0;
    return p;
}

TEST(Mithril, BasicIdentity)
{
    Mithril m(4, smallParams());
    EXPECT_EQ(m.name(), "Mithril");
    EXPECT_EQ(m.location(), trackers::Location::Dram);
    EXPECT_TRUE(m.usesRfm());
    EXPECT_EQ(m.rfmTh(), 16u);
    EXPECT_GT(m.tableBytesPerBank(), 0.0);
}

TEST(Mithril, PlusModeIdentity)
{
    MithrilParams p = smallParams();
    p.plusMode = true;
    Mithril m(4, p);
    EXPECT_EQ(m.name(), "Mithril+");
}

TEST(Mithril, ActivateNeverRequestsArr)
{
    Mithril m(2, smallParams());
    std::vector<RowId> arr;
    for (int i = 0; i < 100; ++i)
        m.onActivate(0, static_cast<RowId>(i % 5), 0, arr);
    EXPECT_TRUE(arr.empty());
}

TEST(Mithril, RfmSelectsHottestRow)
{
    Mithril m(1, smallParams());
    std::vector<RowId> arr;
    for (int i = 0; i < 10; ++i)
        m.onActivate(0, 42, 0, arr);
    m.onActivate(0, 7, 0, arr);

    std::vector<RowId> selected;
    m.onRfm(0, 0, selected);
    ASSERT_EQ(selected.size(), 1u);
    EXPECT_EQ(selected[0], 42u);
    // The counter was lowered to the minimum: next RFM picks another.
    selected.clear();
    m.onRfm(0, 0, selected);
    ASSERT_EQ(selected.size(), 1u);
    EXPECT_NE(selected[0], 42u);
}

TEST(Mithril, RfmOnUntouchedBankSelectsNothing)
{
    Mithril m(2, smallParams());
    std::vector<RowId> selected;
    m.onRfm(1, 0, selected);
    EXPECT_TRUE(selected.empty());
}

TEST(Mithril, BanksAreIndependent)
{
    Mithril m(2, smallParams());
    std::vector<RowId> arr;
    for (int i = 0; i < 5; ++i)
        m.onActivate(0, 100, 0, arr);
    for (int i = 0; i < 9; ++i)
        m.onActivate(1, 200, 0, arr);

    std::vector<RowId> sel0, sel1;
    m.onRfm(0, 0, sel0);
    m.onRfm(1, 0, sel1);
    ASSERT_EQ(sel0.size(), 1u);
    ASSERT_EQ(sel1.size(), 1u);
    EXPECT_EQ(sel0[0], 100u);
    EXPECT_EQ(sel1[0], 200u);
}

TEST(Mithril, AdaptiveSkipsUniformPattern)
{
    MithrilParams p = smallParams();
    p.adTh = 50;
    Mithril m(1, p);
    std::vector<RowId> arr;
    // Perfectly uniform: spread stays ~1, well below AdTH.
    for (int i = 0; i < 400; ++i)
        m.onActivate(0, static_cast<RowId>(i % 8), 0, arr);

    std::vector<RowId> selected;
    m.onRfm(0, 0, selected);
    EXPECT_TRUE(selected.empty());
    EXPECT_EQ(m.adaptiveSkips(), 1u);
}

TEST(Mithril, AdaptiveFiresOnConcentratedPattern)
{
    MithrilParams p = smallParams();
    p.adTh = 50;
    Mithril m(1, p);
    std::vector<RowId> arr;
    for (int i = 0; i < 200; ++i)
        m.onActivate(0, 9, 0, arr);  // One row: spread 200 > 50.

    std::vector<RowId> selected;
    m.onRfm(0, 0, selected);
    ASSERT_EQ(selected.size(), 1u);
    EXPECT_EQ(selected[0], 9u);
    EXPECT_EQ(m.adaptiveSkips(), 0u);
}

TEST(Mithril, PlusModeFlagTracksSpread)
{
    MithrilParams p = smallParams();
    p.adTh = 50;
    p.plusMode = true;
    Mithril m(1, p);
    std::vector<RowId> arr;

    for (int i = 0; i < 40; ++i)
        m.onActivate(0, static_cast<RowId>(i % 8), 0, arr);
    EXPECT_FALSE(m.rfmPending(0));  // Uniform: skip the RFM entirely.

    for (int i = 0; i < 200; ++i)
        m.onActivate(0, 3, 0, arr);
    EXPECT_TRUE(m.rfmPending(0));   // Hot row: RFM needed.
}

TEST(Mithril, NonPlusAlwaysReportsPending)
{
    MithrilParams p = smallParams();
    p.adTh = 50;
    p.plusMode = false;
    Mithril m(1, p);
    EXPECT_TRUE(m.rfmPending(0));
}

TEST(Mithril, LogicOpsAccumulate)
{
    Mithril m(1, smallParams());
    std::vector<RowId> arr;
    for (int i = 0; i < 10; ++i)
        m.onActivate(0, 1, 0, arr);
    std::vector<RowId> sel;
    m.onRfm(0, 0, sel);
    EXPECT_EQ(m.logicOps(), 11u);
}

/**
 * Empirical Theorem 1 check: for a solver-produced configuration, the
 * growth of any row's estimated count within one tREFW never exceeds
 * M — equivalently, with M < FlipTH/2, the ground-truth oracle sees no
 * victim reach FlipTH under any of a battery of attack streams.
 */
class MithrilSafety
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, int>>
{
  protected:
    static constexpr int kAttackPatterns = 4;

    static RowId
    attackRow(int pattern, std::uint64_t i, Rng &rng,
              std::uint32_t rfm_th)
    {
        switch (pattern) {
          case 0:  // Double-sided pair.
            return 1000 + 2 * static_cast<RowId>(i % 2);
          case 1:  // Multi-sided block (32 victims).
            return 1000 + 2 * static_cast<RowId>(i % 33);
          case 2:  // Rotating distinct rows, one ACT each (the PARFM /
                   // concentration worst case).
            return 1000 +
                   2 * static_cast<RowId>(i % (4ull * rfm_th));
          default: // Random spray over a hot region.
            return 1000 + static_cast<RowId>(rng.nextBounded(512));
        }
    }
};

TEST_P(MithrilSafety, NoBitFlipsAtSolverConfig)
{
    const auto [flip_th, rfm_th, pattern] = GetParam();
    dram::Timing timing = dram::ddr5_4800();
    ConfigSolver solver(timing, dram::paperGeometry());
    const auto cfg = solver.solve(flip_th, rfm_th);
    ASSERT_TRUE(cfg.has_value());

    MithrilParams params;
    params.nEntry = cfg->nEntry;
    params.rfmTh = rfm_th;
    params.adTh = 0;
    Mithril tracker(1, params);

    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, flip_th), &tracker);

    // Run for ~1.5 refresh windows at the maximum ACT rate.
    const std::uint64_t acts =
        dram::maxActsPerWindow(timing) * 3 / 2;
    Rng rng(flip_th + rfm_th + static_cast<unsigned>(pattern));
    engine::CallbackSource source(acts, [&](std::uint64_t i) {
        return attackRow(pattern, i, rng, rfm_th);
    });
    eng.run(source);

    EXPECT_EQ(eng.oracle().bitFlips(), 0u)
        << "FlipTH=" << flip_th << " RFM_TH=" << rfm_th
        << " pattern=" << pattern << " maxDist="
        << eng.oracle().maxDisturbanceEver();
    EXPECT_LT(eng.oracle().maxDisturbanceEver(), flip_th);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MithrilSafety,
    ::testing::Combine(::testing::Values(3125u, 6250u, 12500u),
                       ::testing::Values(32u, 64u, 128u),
                       ::testing::Values(0, 1, 2, 3)));

TEST(MithrilSafetyAdaptive, AdaptiveConfigStillSafe)
{
    // Theorem 2: the adaptive-refresh configuration (sized with AdTH)
    // is still deterministically safe under a hot double-sided attack.
    dram::Timing timing = dram::ddr5_4800();
    ConfigSolver solver(timing, dram::paperGeometry());
    const std::uint32_t flip_th = 6250, rfm_th = 64, ad_th = 200;
    const auto cfg = solver.solve(flip_th, rfm_th, ad_th);
    ASSERT_TRUE(cfg.has_value());

    MithrilParams params;
    params.nEntry = cfg->nEntry;
    params.rfmTh = rfm_th;
    params.adTh = ad_th;
    Mithril tracker(1, params);

    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, flip_th), &tracker);
    engine::CallbackSource source(
        dram::maxActsPerWindow(timing) * 3 / 2, [](std::uint64_t i) {
            return 1000 + 2 * static_cast<RowId>(i % 2);
        });
    eng.run(source);
    EXPECT_EQ(eng.oracle().bitFlips(), 0u);
}

TEST(MithrilSafetyAdaptive, AdaptiveSkipsOnBenignStream)
{
    // A benign uniform sweep (the Figure 8 pattern at row granularity)
    // must be filtered almost entirely by AdTH=200.
    dram::Timing timing = dram::ddr5_4800();
    MithrilParams params;
    params.nEntry = 512;
    params.rfmTh = 64;
    params.adTh = 200;
    Mithril tracker(1, params);

    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, 6250), &tracker);
    // Sweep rows with ~128 ACT reuse spread widely (benign).
    engine::CallbackSource source(500000, [](std::uint64_t i) {
        return static_cast<RowId>((i / 2) % 40000);
    });
    eng.run(source);
    EXPECT_GT(eng.rfms(), 0u);
    // Nearly every RFM skipped the preventive refresh.
    EXPECT_LT(eng.preventiveRefreshes(), eng.rfms() / 20);
    EXPECT_EQ(eng.oracle().bitFlips(), 0u);
}

TEST(MithrilEstimatedGrowth, BoundedByTheorem1M)
{
    // Directly check the quantity Theorem 1 bounds: the growth of the
    // estimated count of any single row across one tREFW window.
    dram::Timing timing = dram::ddr5_4800();
    const std::uint32_t n_entry = 64, rfm_th = 32;
    const double m = theorem1Bound(timing, n_entry, rfm_th);

    MithrilParams params;
    params.nEntry = n_entry;
    params.rfmTh = rfm_th;
    Mithril tracker(1, params);

    // FlipTH 2^30: the oracle never flips; we check counters.
    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, 1u << 30), &tracker);

    // Adversarial: hammer one row plus rotating chaff.
    const RowId target = 5000;
    std::uint64_t window_acts = dram::maxActsPerWindow(timing);
    const std::uint64_t start_est = tracker.table(0).estimate(target);
    engine::CallbackSource source(window_acts, [&](std::uint64_t i) {
        if (i % 3 == 0)
            return target;
        return static_cast<RowId>(6000 + 2 * (i % 100));
    });
    eng.run(source);
    const std::uint64_t end_est = tracker.table(0).estimate(target);
    EXPECT_LE(static_cast<double>(end_est - start_est), m)
        << "estimated growth exceeded Theorem 1 bound M=" << m;
}

} // namespace
} // namespace mithril::core
