/**
 * @file
 * Negative-path and edge-case tests: invariant violations must panic
 * (never corrupt state silently), configuration errors must be fatal
 * with a message, and boundary parameters must behave.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/logging.hh"
#include "core/bounds.hh"
#include "core/cbs_table.hh"
#include "core/config_solver.hh"
#include "core/mithril.hh"
#include "dram/bank.hh"
#include "dram/rh_oracle.hh"
#include "engine/act_stream_engine.hh"
#include "mc/address_map.hh"
#include "registry/scheme_registry.hh"

namespace mithril
{
namespace
{

/** RAII guard that routes panic/fatal into exceptions and captures
 *  the log so assertion spam stays out of the test output. */
class FatalGuard
{
  public:
    FatalGuard()
    {
        setLogThrowOnFatal(true);
        setLogCapture(&capture_);
    }

    ~FatalGuard()
    {
        setLogCapture(nullptr);
        setLogThrowOnFatal(false);
    }

    const std::string &log() const { return capture_; }

  private:
    std::string capture_;
};

TEST(EdgeBank, DoubleActivatePanics)
{
    FatalGuard guard;
    dram::Timing timing = dram::ddr5_4800();
    dram::Bank bank(timing);
    bank.doActivate(0, 1);
    EXPECT_THROW(bank.doActivate(timing.tRC, 2), std::runtime_error);
}

TEST(EdgeBank, PrechargeClosedBankPanics)
{
    FatalGuard guard;
    dram::Timing timing = dram::ddr5_4800();
    dram::Bank bank(timing);
    EXPECT_THROW(bank.doPrecharge(0), std::runtime_error);
}

TEST(EdgeBank, ReadClosedBankPanics)
{
    FatalGuard guard;
    dram::Timing timing = dram::ddr5_4800();
    dram::Bank bank(timing);
    EXPECT_THROW(bank.doRead(0), std::runtime_error);
}

TEST(EdgeBank, EarlyActivatePanics)
{
    FatalGuard guard;
    dram::Timing timing = dram::ddr5_4800();
    dram::Bank bank(timing);
    bank.doActivate(0, 1);
    bank.doPrecharge(bank.earliestPre(0));
    // tRP not yet elapsed.
    EXPECT_THROW(bank.doActivate(bank.earliestAct(0) - 1, 2),
                 std::runtime_error);
}

TEST(EdgeOracle, OutOfRangeRowPanics)
{
    FatalGuard guard;
    dram::RhOracle oracle(1, 128, 100);
    EXPECT_THROW(oracle.onActivate(0, 128), std::runtime_error);
    EXPECT_THROW(oracle.onActivate(1, 0), std::runtime_error);
}

TEST(EdgeOracle, SingleRowBankDegenerate)
{
    // Rows 0-only bank: activations disturb nothing (no neighbours).
    dram::RhOracle oracle(1, 1, 100);
    oracle.onActivate(0, 0);
    EXPECT_EQ(oracle.bitFlips(), 0u);
    EXPECT_DOUBLE_EQ(oracle.maxDisturbanceEver(), 0.0);
}

TEST(EdgeCbs, CapacityOnePlusResets)
{
    core::CbsTable table(1);
    table.touch(5);
    table.touch(6);  // Evicts 5, inherits its count.
    EXPECT_EQ(table.estimate(6), 2u);
    EXPECT_EQ(table.resetMaxToMin(), 6u);
    EXPECT_TRUE(table.checkInvariants());
}

TEST(EdgeCbs, TinyCounterBitsRejected)
{
    FatalGuard guard;
    EXPECT_THROW(core::CbsTable(4, 1), std::runtime_error);
    EXPECT_THROW(core::CbsTable(0, 8), std::runtime_error);
}

TEST(EdgeCbs, WrappedLessRejectsBadBits)
{
    FatalGuard guard;
    EXPECT_THROW(core::CbsTable::wrappedLess(1, 2, 1),
                 std::runtime_error);
    EXPECT_THROW(core::CbsTable::wrappedLess(1, 2, 65),
                 std::runtime_error);
}

TEST(EdgeFactory, UnknownSchemeNameThrowsWithCandidates)
{
    try {
        registry::makeScheme("no-such-scheme", ParamSet(),
                             {dram::ddr5_4800(),
                              dram::paperGeometry()});
        FAIL() << "unknown scheme was accepted";
    } catch (const registry::SpecError &err) {
        EXPECT_NE(std::string(err.what()).find("mithril"),
                  std::string::npos);
    }
}

TEST(EdgeFactory, InfeasibleMithrilConfigThrows)
{
    registry::SchemeKnobs knobs;
    knobs.flipTh = 1500;
    knobs.rfmTh = 512;  // Infeasible per Figure 6.
    try {
        registry::makeScheme("mithril", knobs.toParams(),
                             {dram::ddr5_4800(),
                              dram::paperGeometry()});
        FAIL() << "infeasible configuration was accepted";
    } catch (const registry::SpecError &err) {
        EXPECT_NE(std::string(err.what()).find("infeasible"),
                  std::string::npos);
    }
}

TEST(EdgeSolver, TinyFlipThInfeasibleEverywhere)
{
    core::ConfigSolver solver(dram::ddr5_4800(),
                              dram::paperGeometry());
    // FlipTH 64 with RFM_TH 64: even one entry's harmonic term (64)
    // exceeds FlipTH/2 = 32.
    EXPECT_EQ(solver.minEntries(64, 64), 0u);
}

TEST(EdgeSolver, EffectBelowOneRejected)
{
    FatalGuard guard;
    EXPECT_THROW(core::isSafeConfig(dram::ddr5_4800(), 16, 64, 1000,
                                    0, 0.0),
                 std::runtime_error);
}

TEST(EdgeAddressMap, NonPowerOfTwoGeometryPanics)
{
    FatalGuard guard;
    dram::Geometry geom = dram::paperGeometry();
    geom.banksPerRank = 24;
    EXPECT_THROW(mc::AddressMap map(geom), std::runtime_error);
}

TEST(EdgeEngine, ZeroActsRunIsClean)
{
    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(dram::ddr5_4800(), 1000),
        nullptr);
    engine::CallbackSource source(0,
                                  [](std::uint64_t) { return RowId{0}; });
    eng.run(source);
    EXPECT_EQ(eng.acts(), 0u);
    EXPECT_EQ(eng.now(), 0);
}

TEST(EdgeMithril, RfmThOneDegenerate)
{
    // One RFM per ACT: every activation is immediately countered.
    core::MithrilParams params;
    params.nEntry = 2;
    params.rfmTh = 1;
    core::Mithril tracker(1, params);

    // FlipTH 16: absurdly fragile DRAM.
    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(dram::ddr5_4800(), 16),
        &tracker);
    engine::CallbackSource source(5000, [](std::uint64_t i) {
        return static_cast<RowId>(100 + 2 * (i % 2));
    });
    eng.run(source);
    EXPECT_EQ(eng.oracle().bitFlips(), 0u);
    EXPECT_EQ(eng.rfms(), 5000u);
}

TEST(EdgeMithril, EdgeRowAggressorHandled)
{
    // Hammering row 0 (one-sided neighbourhood) must be tracked and
    // refreshed without touching a negative row index.
    core::MithrilParams params;
    params.nEntry = 8;
    params.rfmTh = 16;
    core::Mithril tracker(1, params);

    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(dram::ddr5_4800(), 2000, 1024),
        &tracker);
    engine::CallbackSource source(100000, [](std::uint64_t i) {
        return static_cast<RowId>((i % 2) ? 0 : 2);
    });
    eng.run(source);
    EXPECT_EQ(eng.oracle().bitFlips(), 0u);
}

TEST(EdgeMithril, LastRowAggressorHandled)
{
    core::MithrilParams params;
    params.nEntry = 8;
    params.rfmTh = 16;
    core::Mithril tracker(1, params);

    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(dram::ddr5_4800(), 2000, 1024),
        &tracker);
    engine::CallbackSource source(100000, [](std::uint64_t i) {
        return static_cast<RowId>((i % 2) ? 1023 : 1021);
    });
    eng.run(source);
    EXPECT_EQ(eng.oracle().bitFlips(), 0u);
}

} // namespace
} // namespace mithril
