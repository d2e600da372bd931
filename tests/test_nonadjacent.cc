/**
 * @file
 * Non-adjacent Row Hammer (Section V-C): with a disturbance radius of
 * 2-3, distance-2+ aggressors contribute fractional disturbance, the
 * aggregated effect rises to 2.5/3.5, the safety condition tightens to
 * M < FlipTH/effect, and preventive refreshes must cover 2*radius
 * victims. These tests validate the whole chain: bound math, solver
 * sizing, factory plumbing, oracle accounting, and end-to-end safety
 * under half-double style attacks.
 */

#include <gtest/gtest.h>

#include "core/bounds.hh"
#include "core/config_solver.hh"
#include "engine/act_stream_engine.hh"
#include "registry/scheme_registry.hh"

namespace mithril
{
namespace
{

TEST(NonAdjacent, AggregatedEffectValues)
{
    EXPECT_DOUBLE_EQ(core::aggregatedEffect(1), 2.0);
    EXPECT_DOUBLE_EQ(core::aggregatedEffect(2), 2.5);
    EXPECT_DOUBLE_EQ(core::aggregatedEffect(3), 3.5);
}

TEST(NonAdjacent, TighterEffectNeedsMoreEntries)
{
    const dram::Timing timing = dram::ddr5_4800();
    core::ConfigSolver solver(timing, dram::paperGeometry());
    const std::uint64_t n1 = solver.minEntries(6250, 64, 0, 2.0);
    const std::uint64_t n3 = solver.minEntries(6250, 64, 0, 3.5);
    ASSERT_GT(n1, 0u);
    ASSERT_GT(n3, 0u);
    EXPECT_GT(n3, n1);
}

TEST(NonAdjacent, FactorySizesForRadius)
{
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();

    registry::SchemeKnobs near;
    near.flipTh = 6250;
    near.adTh = 0;
    near.blastRadius = 1;
    auto t1 = registry::makeScheme("mithril", near.toParams(),
                                   {timing, geom});

    registry::SchemeKnobs far = near;
    far.blastRadius = 3;
    auto t3 = registry::makeScheme("mithril", far.toParams(),
                                   {timing, geom});

    EXPECT_GT(t3->tableBytesPerBank(), t1->tableBytesPerBank());
}

TEST(NonAdjacent, OracleWeightsByDistance)
{
    dram::RhOracle oracle(1, 4096, 1000, 3);
    oracle.onActivate(0, 100);
    EXPECT_DOUBLE_EQ(oracle.disturbance(0, 99), 1.0);
    EXPECT_DOUBLE_EQ(oracle.disturbance(0, 98), 0.25);
    EXPECT_DOUBLE_EQ(oracle.disturbance(0, 97), 0.25);
    EXPECT_DOUBLE_EQ(oracle.disturbance(0, 96), 0.0);
}

TEST(NonAdjacent, SandwichedVictimAccumulatesFromAllSides)
{
    // Aggressors at distance 1 and 2 on both sides of row 100.
    dram::RhOracle oracle(1, 4096, 1000, 2);
    oracle.onActivate(0, 99);
    oracle.onActivate(0, 101);
    oracle.onActivate(0, 98);
    oracle.onActivate(0, 102);
    // 2 * 1.0 + 2 * 0.25 per round.
    EXPECT_DOUBLE_EQ(oracle.disturbance(0, 100), 2.5);
}

TEST(NonAdjacent, PreventiveRefreshCoversWiderVictims)
{
    dram::RhOracle oracle(1, 4096, 1000, 3);
    for (int i = 0; i < 10; ++i)
        oracle.onActivate(0, 100);
    oracle.onNeighborRefresh(0, 100);
    for (RowId r = 97; r <= 103; ++r)
        EXPECT_DOUBLE_EQ(oracle.disturbance(0, r), 0.0) << r;
}

/** Half-double style attack: hammer a sandwich of rows around the
 *  victim so distance-2 coupling matters. */
RowId
halfDoubleRow(std::uint64_t i)
{
    // Aggressors at 1000, 1001, 1003, 1004 — victim 1002 takes two
    // distance-1 and two distance-2 hits per round.
    static const RowId rows[] = {1000, 1001, 1003, 1004};
    return rows[i % 4];
}

TEST(NonAdjacent, UnprotectedHalfDoubleFlips)
{
    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(dram::ddr5_4800(), 5000, 65536,
                                         2),
        nullptr);
    engine::CallbackSource source(30000, halfDoubleRow);
    eng.run(source);
    EXPECT_GT(eng.oracle().bitFlips(), 0u);
}

class NonAdjacentSafety
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(NonAdjacentSafety, MithrilConfiguredForRadiusSurvives)
{
    const std::uint32_t radius = GetParam();
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();

    registry::SchemeKnobs knobs;
    knobs.flipTh = 6250;
    knobs.adTh = 0;
    knobs.blastRadius = radius;
    auto tracker = registry::makeScheme("mithril", knobs.toParams(),
                                        {timing, geom});

    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, 6250, 65536, radius),
        tracker.get());
    engine::CallbackSource source(dram::maxActsPerWindow(timing) * 3 / 2,
                                  halfDoubleRow);
    eng.run(source);
    EXPECT_EQ(eng.oracle().bitFlips(), 0u)
        << "radius " << radius << " max disturbance "
        << eng.oracle().maxDisturbanceEver();
}

INSTANTIATE_TEST_SUITE_P(Radii, NonAdjacentSafety,
                         ::testing::Values(1u, 2u, 3u));

TEST(NonAdjacent, SafetyMarginShrinksWithoutRadiusAwareness)
{
    // A radius-1 configuration measured against a radius-3 oracle has
    // strictly less margin than the radius-3 configuration — the
    // quantitative reason Section V-C exists.
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();

    auto run_with = [&](std::uint32_t config_radius) {
        registry::SchemeKnobs knobs;
        knobs.flipTh = 6250;
        knobs.adTh = 0;
        knobs.blastRadius = config_radius;
        auto tracker = registry::makeScheme(
            "mithril", knobs.toParams(), {timing, geom});

        // Ground truth: radius-3 coupling.
        engine::ActStreamEngine eng(
            engine::EngineConfig::singleBank(timing, 6250, 65536, 3),
            tracker.get());
        engine::CallbackSource source(dram::maxActsPerWindow(timing),
                                      halfDoubleRow);
        eng.run(source);
        return eng.oracle().maxDisturbanceEver();
    };

    const double with_awareness = run_with(3);
    const double without = run_with(1);
    EXPECT_LT(with_awareness, 6250.0);
    EXPECT_GE(without, with_awareness);
}

} // namespace
} // namespace mithril
