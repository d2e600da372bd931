/**
 * @file
 * Tests for the simulation layer: full-system integration runs for
 * every scheme.
 */

#include <gtest/gtest.h>

#include "registry/workload_registry.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/attacks.hh"
#include "workload/spec_like.hh"

namespace mithril::sim
{
namespace
{

// ----------------------------------------------------- System runs

ExperimentSpec
smallRun(const std::string &scheme)
{
    ExperimentSpec spec;
    spec.scheme = scheme;
    spec.workload = "mix-high";
    spec.flipTh = 6250;
    spec.cores = 4;
    spec.instrPerCore = 20000;
    return spec;
}

TEST(SystemIntegration, BaselineRunProducesTraffic)
{
    const RunMetrics m = runExperiment(smallRun("none"));
    EXPECT_GT(m.aggIpc, 0.0);
    EXPECT_GT(m.acts, 0u);
    EXPECT_GT(m.reads, 0u);
    EXPECT_GT(m.energyPj, 0.0);
    EXPECT_EQ(m.rfmIssued, 0u);
    EXPECT_EQ(m.bitFlips, 0u);
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    const RunMetrics a = runExperiment(smallRun("mithril"));
    const RunMetrics b = runExperiment(smallRun("mithril"));
    EXPECT_DOUBLE_EQ(a.aggIpc, b.aggIpc);
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_EQ(a.simTicks, b.simTicks);
}

class SystemSchemes : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SystemSchemes, RunsCleanlyWithModestOverhead)
{
    const RunMetrics base = runExperiment(smallRun("none"));
    const RunMetrics m = runExperiment(smallRun(GetParam()));

    EXPECT_GT(m.aggIpc, 0.0);
    const double rel = relativePerf(m, base);
    EXPECT_GT(rel, 70.0) << GetParam();
    EXPECT_LT(rel, 115.0) << GetParam();
    EXPECT_EQ(m.bitFlips, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SystemSchemes,
    ::testing::Values("mithril", "mithril+", "parfm", "blockhammer",
                      "para", "graphene", "twice", "cbt"));

TEST(SystemIntegration, MithrilIssuesRfmUnderAttack)
{
    ExperimentSpec spec = smallRun("mithril");
    spec.attack = "double-sided";
    spec.instrPerCore = 100000;
    spec.rfmTh = 32;  // Short run: keep the RAA epoch small.
    const RunMetrics m = runExperiment(spec);
    EXPECT_GT(m.rfmIssued, 0u);
    EXPECT_EQ(m.bitFlips, 0u);
}

TEST(SystemIntegration, MithrilPlusSkipsRfmOnBenignWork)
{
    ExperimentSpec spec = smallRun("mithril+");
    spec.instrPerCore = 100000;
    spec.rfmTh = 16;  // Short run: keep the RAA epoch small.
    const RunMetrics m = runExperiment(spec);
    // Benign traffic: most RAA epochs end in an MRR skip.
    EXPECT_GT(m.rfmSkippedMrr, 0u);
    EXPECT_GT(m.rfmSkippedMrr, m.rfmIssued);
}

TEST(SystemIntegration, BlockHammerThrottlesAttacker)
{
    ExperimentSpec spec = smallRun("blockhammer");
    spec.attack = "double-sided";
    // One benign core and a long budget: the attacker needs ~50us of
    // hammering for its pair to cross the blacklist threshold.
    spec.cores = 2;
    spec.instrPerCore = 600000;
    // Low FlipTH -> low NBL (490).
    spec.flipTh = 1500;
    const RunMetrics m = runExperiment(spec);
    EXPECT_GT(m.throttleStalls, 0u);
    // A stall is a delayed ACT, counted once however many scheduling
    // passes re-evaluate it.
    EXPECT_LE(m.throttleStalls, m.acts);
}

TEST(SystemIntegration, UnprotectedLongAttackFlipsBits)
{
    // Horizon-bound attack-only run: without protection the oracle
    // must observe flips within a fraction of tREFW.
    SystemConfig cfg;
    cfg.flipTh = 2000;
    cfg.horizon = msToTick(2.0);
    System system(cfg, nullptr);

    mc::AddressMap map(cfg.geometry);
    workload::AttackTarget target;
    target.map = &map;
    target.bank = 3;
    cpu::CoreParams params;
    params.instrBudget = ~0ull;
    params.excluded = true;
    system.addCore(params,
                   std::make_unique<workload::DoubleSidedAttack>(
                       target));
    system.run();
    EXPECT_GT(system.parts().bitFlips(), 0u);
}

TEST(SystemIntegration, TelemetrySheetCoversComponents)
{
    // Eight cores on one channel: the channel queue fills up.
    SystemConfig cfg;
    cfg.flipTh = 6250;
    cfg.geometry.channels = 1;
    System system(cfg, nullptr);
    constexpr std::uint32_t kCores = 8;
    cpu::CoreParams params;
    params.instrBudget = 5000;
    for (std::uint32_t i = 0; i < kCores; ++i) {
        system.addCore(params, registry::makeWorkload(
                                   "mix-high", {}, {i, kCores, 1}));
    }
    system.run();

    // No telemetry bundle: the sheet still covers every component.
    const telemetry::MetricSheet sheet = system.telemetrySheet();
    EXPECT_GT(sheet.counterValue("mc.reads"), 0u);
    EXPECT_EQ(sheet.counterValue("mc.acts"), system.stats().activates);
    EXPECT_EQ(sheet.counterValue("dram.acts"), system.energy().acts());
    EXPECT_GT(sheet.counterValue("cache.misses"), 0u);
    EXPECT_GT(sheet.counterValue("core0.instructions"), 4999u);
    EXPECT_DOUBLE_EQ(sheet.gaugeValue("core0.ipc"),
                     system.cores()[0]->ipc());
    EXPECT_EQ(sheet.counterValue("oracle.bit_flips"), 0u);
    EXPECT_EQ(sheet.dump().find("trace."), std::string::npos);
    EXPECT_EQ(sheet.dump().find("heatmap."), std::string::npos);

    // Every accepted request samples the queue depth it found.
    const std::map<std::string, double> flat = sheet.exportFlat();
    const double capacity = cfg.mcParams.queueCapacity;
    EXPECT_GE(flat.at("mc.queue_depth.count"),
              static_cast<double>(sheet.counterValue("mc.reads") +
                                  sheet.counterValue("mc.writes")));
    EXPECT_LE(flat.at("mc.queue_depth.p50"), capacity);
    EXPECT_LE(flat.at("mc.queue_depth.p99"), capacity);
    std::uint64_t retries = 0;
    for (std::uint32_t i = 0; i < kCores; ++i) {
        retries += sheet.counterValue("core" + std::to_string(i) +
                                      ".queue_full_retries");
    }
    EXPECT_GT(retries, 0u);
}

TEST(SystemIntegration, StarvedCoresFailTheRunAtTheHorizon)
{
    // PARFM at rfm=1 owes an RFM after every ACT, and the controller
    // settles it before the request's column command: no request ever
    // completes. The run must fail, naming the horizon, instead of
    // reporting the IPC of a machine that spun to it.
    ExperimentSpec spec = smallRun("parfm");
    spec.cores = 2;
    spec.instrPerCore = 2000;
    spec.rfmTh = 1;
    spec.sys.horizon = usToTick(50.0);
    try {
        runExperiment(spec);
        FAIL() << "a starved run reported success";
    } catch (const registry::SpecError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("(horizon " +
                            std::to_string(usToTick(50.0)) + ")"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("core 0 retired "), std::string::npos)
            << what;
        EXPECT_NE(what.find("/2000"), std::string::npos) << what;
    }

    // The same spec at a rate that lets requests through finishes.
    spec.rfmTh = 0;
    spec.sys.horizon = SystemConfig{}.horizon;
    EXPECT_GT(runExperiment(spec).aggIpc, 0.0);
}

TEST(SystemIntegration, EnergyOverheadHelpers)
{
    RunMetrics base, value;
    base.aggIpc = 10.0;
    base.energyPj = 100.0;
    value.aggIpc = 9.5;
    value.energyPj = 104.0;
    EXPECT_DOUBLE_EQ(relativePerf(value, base), 95.0);
    EXPECT_DOUBLE_EQ(energyOverheadPct(value, base), 4.0);
}

} // namespace
} // namespace mithril::sim
