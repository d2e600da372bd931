/**
 * @file
 * Telemetry subsystem tests: merge algebra of the stat primitives
 * (Average, Histogram, MetricSheet), mitigation-event
 * ring semantics, heatmap coarsening, Chrome trace export shape —
 * and the two contracts the subsystem lives or dies by:
 *
 *  1. Observation only: enabling every collector changes NOTHING
 *     about the simulated outcome, for every registered scheme.
 *  2. Shard invariance: the merged metric sheet, the merged event
 *     stream, and the serialized Chrome trace are byte-identical at
 *     any shard count and any thread-pool size.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/stats.hh"
#include "engine/sharded_engine.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "runner/thread_pool.hh"
#include "sim/experiment.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/telemetry.hh"

namespace mithril
{
namespace
{

constexpr std::uint32_t kBanks = 16;
constexpr std::uint32_t kFlipTh = 3125;
constexpr std::uint64_t kActs = 60000;

dram::Geometry
testGeometry()
{
    dram::Geometry geom = dram::paperGeometry();
    geom.channels = 1;
    geom.ranksPerChannel = 1;
    geom.banksPerRank = kBanks;
    return geom;
}

std::unique_ptr<trackers::RhProtection>
makeTracker(const std::string &scheme)
{
    registry::SchemeKnobs knobs;
    knobs.flipTh = kFlipTh;
    return registry::makeScheme(scheme, knobs.toParams(),
                                {dram::ddr5_4800(), testGeometry()});
}

std::unique_ptr<engine::ActSource>
makeAttackStream()
{
    ParamSet params;
    params.set("attack", "multi-sided");
    return registry::makeActSource(
        "attack", params,
        {dram::ddr5_4800(), testGeometry(), kFlipTh, /*seed=*/7});
}

engine::ShardedEngineConfig
engineConfig(std::uint32_t shards,
             const telemetry::TelemetryConfig &tel = {})
{
    engine::ShardedEngineConfig cfg;
    cfg.engine.timing = dram::ddr5_4800();
    cfg.engine.geometry = testGeometry();
    cfg.engine.flipTh = kFlipTh;
    cfg.shards = shards;
    cfg.telemetry = tel;
    return cfg;
}

telemetry::TelemetryConfig
allOn()
{
    telemetry::TelemetryConfig tel;
    tel.events = true;
    tel.eventCapacityPerBank = 256;
    tel.heatmap = true;
    tel.heatmapRegionBudget = 32;
    return tel;
}

/** The simulated outcome a run must not change under observation. */
struct Outcome
{
    std::uint64_t acts = 0, refs = 0, rfms = 0, preventive = 0;
    double maxDisturbance = 0.0;
    std::uint64_t bitFlips = 0, flippedRows = 0, logicOps = 0;
    std::vector<Tick> bankNow;

    bool
    operator==(const Outcome &o) const
    {
        return acts == o.acts && refs == o.refs && rfms == o.rfms &&
               preventive == o.preventive &&
               maxDisturbance == o.maxDisturbance &&
               bitFlips == o.bitFlips &&
               flippedRows == o.flippedRows &&
               logicOps == o.logicOps && bankNow == o.bankNow;
    }
};

Outcome
outcomeOf(engine::ShardedActStreamEngine &eng)
{
    Outcome o;
    o.acts = eng.acts();
    o.refs = eng.refs();
    o.rfms = eng.rfms();
    o.preventive = eng.preventiveRefreshes();
    o.maxDisturbance = eng.maxDisturbanceEver();
    o.bitFlips = eng.bitFlips();
    o.flippedRows = eng.flippedRows();
    o.logicOps = eng.logicOps();
    for (BankId b = 0; b < eng.numBanks(); ++b)
        o.bankNow.push_back(eng.now(b));
    return o;
}

/** Flattened sheet rendered to one comparable string. */
std::string
sheetString(telemetry::MetricSheet sheet)
{
    std::ostringstream os;
    for (const auto &[name, value] : sheet.exportFlat())
        os << name << '=' << value << '\n';
    return os.str();
}

std::string
traceString(const std::vector<telemetry::TraceEvent> &events)
{
    std::ostringstream os;
    telemetry::writeChromeTrace(os, events, "test", kBanks);
    return os.str();
}

std::string
schemeCaseName(const testing::TestParamInfo<std::string> &info)
{
    std::string name;
    for (char c : info.param)
        name += std::isalnum(static_cast<unsigned char>(c))
                    ? c
                    : '_';
    return name;
}

// --------------------------------------------------- stat primitives

TEST(AverageMerge, PreservesCountSumMinMax)
{
    Average a, b, all;
    for (double v : {5.0, 1.0, 3.0}) {
        a.sample(v);
        all.sample(v);
    }
    for (double v : {9.0, -2.0}) {
        b.sample(v);
        all.sample(v);
    }
    a.mergeFrom(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.sum(), all.sum());
    EXPECT_DOUBLE_EQ(a.mean(), all.mean());
    EXPECT_DOUBLE_EQ(a.minValue(), -2.0);
    EXPECT_DOUBLE_EQ(a.maxValue(), 9.0);
}

TEST(AverageMerge, EmptySideContributesNothing)
{
    // An empty shard's Average must not inject a spurious 0 into the
    // min/max of a populated one — all samples here are > 0.
    Average populated, empty;
    populated.sample(4.0);
    populated.sample(6.0);
    populated.mergeFrom(empty);
    EXPECT_EQ(populated.count(), 2u);
    EXPECT_DOUBLE_EQ(populated.minValue(), 4.0);
    EXPECT_DOUBLE_EQ(populated.maxValue(), 6.0);

    // And merging INTO an empty one adopts the other side verbatim.
    Average fresh;
    fresh.mergeFrom(populated);
    EXPECT_EQ(fresh.count(), 2u);
    EXPECT_DOUBLE_EQ(fresh.minValue(), 4.0);
    EXPECT_DOUBLE_EQ(fresh.maxValue(), 6.0);

    // Both-empty stays empty (mean/min/max report 0 by convention).
    Average e1, e2;
    e1.mergeFrom(e2);
    EXPECT_EQ(e1.count(), 0u);
    EXPECT_DOUBLE_EQ(e1.mean(), 0.0);
}

TEST(AverageMerge, Associative)
{
    const std::vector<std::vector<double>> shards = {
        {1.0, 7.0}, {}, {3.5}, {-1.0, 2.0, 2.0}};
    auto make = [&](std::size_t i) {
        Average avg;
        for (double v : shards[i])
            avg.sample(v);
        return avg;
    };
    // ((0+1)+2)+3 vs 0+((1+2)+3).
    Average left = make(0);
    left.mergeFrom(make(1));
    left.mergeFrom(make(2));
    left.mergeFrom(make(3));
    Average inner = make(1);
    inner.mergeFrom(make(2));
    inner.mergeFrom(make(3));
    Average right = make(0);
    right.mergeFrom(inner);
    EXPECT_EQ(left.count(), right.count());
    EXPECT_DOUBLE_EQ(left.sum(), right.sum());
    EXPECT_DOUBLE_EQ(left.minValue(), right.minValue());
    EXPECT_DOUBLE_EQ(left.maxValue(), right.maxValue());
}

TEST(HistogramMerge, BucketwiseEqualsUnionSampling)
{
    Histogram a(0.0, 100.0, 10), b(0.0, 100.0, 10),
        all(0.0, 100.0, 10);
    for (double v : {5.0, 15.0, 95.0, -3.0}) {
        a.sample(v);
        all.sample(v);
    }
    for (double v : {15.0, 250.0, 55.0}) {
        b.sample(v);
        all.sample(v);
    }
    a.mergeFrom(b);
    EXPECT_EQ(a.totalSamples(), all.totalSamples());
    EXPECT_EQ(a.underflow(), all.underflow());
    EXPECT_EQ(a.overflow(), all.overflow());
    for (std::size_t i = 0; i < all.bucketCount(); ++i)
        EXPECT_EQ(a.bucketValue(i), all.bucketValue(i));
    EXPECT_DOUBLE_EQ(a.percentile(0.5), all.percentile(0.5));
}

TEST(MetricSheetMerge, AllFamiliesAndAssociativity)
{
    auto make = [](std::uint64_t c, double g, double avg_sample,
                   double hist_sample) {
        telemetry::MetricSheet s;
        s.setCounter("n", c);
        s.setGauge("high_water", g);
        s.average("avg").sample(avg_sample);
        s.histogram("h", 0.0, 10.0, 5).sample(hist_sample);
        return s;
    };
    telemetry::MetricSheet a = make(1, 5.0, 2.0, 1.0);
    telemetry::MetricSheet b = make(10, 3.0, 4.0, 9.0);
    telemetry::MetricSheet c = make(100, 4.0, 6.0, 5.0);

    telemetry::MetricSheet left = make(1, 5.0, 2.0, 1.0);
    left.mergeFrom(b);
    left.mergeFrom(c);

    telemetry::MetricSheet inner = make(10, 3.0, 4.0, 9.0);
    inner.mergeFrom(c);
    telemetry::MetricSheet right = make(1, 5.0, 2.0, 1.0);
    right.mergeFrom(inner);

    EXPECT_EQ(sheetString(left), sheetString(right));
    EXPECT_EQ(left.counterValue("n"), 111u);
    EXPECT_DOUBLE_EQ(left.gaugeValue("high_water"), 5.0); // max
    EXPECT_EQ(left.average("avg").count(), 3u);
    EXPECT_DOUBLE_EQ(left.average("avg").mean(), 4.0);
    EXPECT_EQ(left.histogram("h", 0.0, 10.0, 5).totalSamples(), 3u);

    // Merging an empty sheet is the identity.
    const std::string before = sheetString(left);
    left.mergeFrom(telemetry::MetricSheet{});
    EXPECT_EQ(sheetString(left), before);
}

TEST(MetricSheetMerge, ExportFlatShape)
{
    telemetry::MetricSheet s;
    s.setCounter("c", 7);
    s.setGauge("g", 2.5);
    s.average("a").sample(3.0);
    s.histogram("h", 0.0, 4.0, 4).sample(1.0);
    const auto flat = s.exportFlat();
    EXPECT_DOUBLE_EQ(flat.at("c"), 7.0);
    EXPECT_DOUBLE_EQ(flat.at("g"), 2.5);
    EXPECT_DOUBLE_EQ(flat.at("a"), 3.0);
    EXPECT_DOUBLE_EQ(flat.at("a.count"), 1.0);
    EXPECT_DOUBLE_EQ(flat.at("h.count"), 1.0);
    EXPECT_TRUE(flat.count("h.mean"));
    EXPECT_TRUE(flat.count("h.p50"));
    EXPECT_TRUE(flat.count("h.p99"));
}

// ------------------------------------------------- event ring buffer

TEST(EventRecorder, RingKeepsMostRecentOldestFirst)
{
    telemetry::EventRecorder rec(kBanks, /*capacity=*/4);
    for (std::uint32_t i = 0; i < 10; ++i)
        rec.record(telemetry::EventKind::RfmIssued,
                   /*tick=*/100 * (i + 1), /*bank=*/3, /*row=*/i);

    EXPECT_EQ(rec.emitted(3), 10u);
    EXPECT_EQ(rec.dropped(), 6u);
    EXPECT_EQ(
        rec.emittedOfKind(telemetry::EventKind::RfmIssued), 10u);

    const auto events = rec.bankEvents(3);
    ASSERT_EQ(events.size(), 4u);
    // Rows 6..9 survive, oldest first, even though the ring wrapped.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].row, 6 + i);
        EXPECT_EQ(events[i].tick,
                  static_cast<Tick>(100 * (7 + i)));
    }
    // Untouched banks stay empty and never allocated a ring.
    EXPECT_EQ(rec.emitted(0), 0u);
    EXPECT_TRUE(rec.bankEvents(0).empty());
}

TEST(EventRecorder, MergeEventsTickOrderedAndShardInvariant)
{
    // One recorder covering all banks vs the same events split
    // across two recorders with disjoint bank halves.
    std::vector<telemetry::TraceEvent> raw;
    for (std::uint32_t i = 0; i < 40; ++i) {
        telemetry::TraceEvent e;
        e.tick = 1000 - 25 * (i % 7); // Deliberate tick collisions.
        e.bank = i % kBanks;
        e.row = i;
        e.kind = telemetry::EventKind::ArrFired;
        raw.push_back(e);
    }

    telemetry::EventRecorder whole(kBanks, 64);
    telemetry::EventRecorder lowHalf(kBanks, 64);
    telemetry::EventRecorder highHalf(kBanks, 64);
    for (const auto &e : raw) {
        whole.record(e.kind, e.tick, e.bank, e.row);
        (e.bank < kBanks / 2 ? lowHalf : highHalf)
            .record(e.kind, e.tick, e.bank, e.row);
    }

    const auto merged_whole = telemetry::mergeEvents({&whole});
    const auto merged_split =
        telemetry::mergeEvents({&lowHalf, &highHalf});
    ASSERT_EQ(merged_whole.size(), raw.size());
    EXPECT_EQ(merged_whole, merged_split);
    for (std::size_t i = 1; i < merged_whole.size(); ++i)
        EXPECT_LE(merged_whole[i - 1].tick, merged_whole[i].tick);
}

// ------------------------------------------------------- ACT heatmap

TEST(Heatmap, CoarsensToBudgetPreservingTotals)
{
    telemetry::ActHeatmap hm(kBanks, /*budget=*/4);
    // 16 distinct single rows on bank 0 force two fold rounds
    // (16 regions -> 8 -> 4).
    for (RowId r = 0; r < 16; ++r)
        hm.touch(0, r);
    EXPECT_EQ(hm.totalActs(), 16u);
    EXPECT_EQ(hm.granularityLog2(0), 2u);
    EXPECT_EQ(hm.folds(0), 2u);

    const auto snap = hm.bankSnapshot(0);
    ASSERT_EQ(snap.regions.size(), 4u);
    for (const auto &[region, count] : snap.regions)
        EXPECT_EQ(count, 4u) << "region " << region;

    // A bank under budget stays at single-row granularity.
    hm.touch(1, 100, 5);
    EXPECT_EQ(hm.granularityLog2(1), 0u);
    EXPECT_EQ(hm.bankSnapshot(1).regions.at(100), 5u);
}

TEST(Heatmap, MergeDisjointBanksIsUnion)
{
    telemetry::ActHeatmap a(kBanks, 8), b(kBanks, 8),
        all(kBanks, 8);
    for (RowId r = 0; r < 12; ++r) {
        a.touch(2, r);
        all.touch(2, r);
    }
    for (RowId r = 64; r < 67; ++r) {
        b.touch(9, r, 2);
        all.touch(9, r, 2);
    }
    a.mergeFrom(b);
    EXPECT_EQ(a.totalActs(), all.totalActs());
    EXPECT_EQ(a.dump(), all.dump());
}

// ------------------------------------------------ Chrome trace shape

TEST(ChromeTrace, WellFormedInstantsAndSlices)
{
    std::vector<telemetry::TraceEvent> events;
    telemetry::TraceEvent inst;
    inst.tick = 1234567;
    inst.bank = 2;
    inst.row = 99;
    inst.arg = 4;
    inst.kind = telemetry::EventKind::OracleFlip;
    events.push_back(inst);
    telemetry::TraceEvent slice;
    slice.tick = 2000000;
    slice.dur = 500000;
    slice.bank = 5;
    slice.kind = telemetry::EventKind::ThrottleStall;
    events.push_back(slice);

    const std::string json = traceString(events);
    // Envelope.
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
    // Process + one thread_name metadata record per bank.
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"bank 15\""), std::string::npos);
    // The instant: phase "i", microsecond ts with ps precision.
    EXPECT_NE(json.find("\"name\":\"oracle_flip\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ts\":1.234567,\"ph\":\"i\""),
              std::string::npos);
    // The duration slice: phase "X" with dur.
    EXPECT_NE(json.find("\"ts\":2.000000,\"ph\":\"X\","
                        "\"dur\":0.500000"),
              std::string::npos);
    // Balanced braces (cheap well-formedness check: the writer emits
    // no string containing braces).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(ChromeTrace, EmptyStreamStillValid)
{
    const std::string json = traceString({});
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
}

// --------------------------------- observation-only + shard invariance

class TelemetrySchemeTest : public testing::TestWithParam<std::string>
{
};

TEST_P(TelemetrySchemeTest, CollectorsDoNotPerturbOutcome)
{
    const std::string scheme = GetParam();

    auto run = [&](const telemetry::TelemetryConfig &tel) {
        engine::ShardedActStreamEngine eng(
            engineConfig(/*shards=*/4, tel),
            [&] { return makeTracker(scheme); });
        eng.run([&] { return makeAttackStream(); }, kActs);
        return outcomeOf(eng);
    };

    const Outcome plain = run({});
    const Outcome observed = run(allOn());
    EXPECT_EQ(plain, observed) << "scheme " << scheme;
}

TEST_P(TelemetrySchemeTest, SheetAndTraceShardInvariant)
{
    const std::string scheme = GetParam();

    auto run = [&](std::uint32_t shards, unsigned pool_threads) {
        std::unique_ptr<runner::ThreadPool> pool;
        engine::ShardedEngineConfig cfg =
            engineConfig(shards, allOn());
        if (pool_threads > 0) {
            pool = std::make_unique<runner::ThreadPool>(
                pool_threads);
            cfg.pool = pool.get();
        }
        engine::ShardedActStreamEngine eng(
            cfg, [&] { return makeTracker(scheme); });
        eng.run([&] { return makeAttackStream(); }, kActs);
        return std::make_pair(sheetString(eng.telemetrySheet()),
                              traceString(eng.mergedEvents()));
    };

    const auto [ref_sheet, ref_trace] = run(1, 0);
    EXPECT_FALSE(ref_sheet.empty());
    for (std::uint32_t shards : {4u, kBanks}) {
        for (unsigned pool_threads : {0u, 4u}) {
            const auto [sheet, trace] = run(shards, pool_threads);
            EXPECT_EQ(sheet, ref_sheet)
                << scheme << " shards=" << shards
                << " pool=" << pool_threads;
            EXPECT_EQ(trace, ref_trace)
                << scheme << " shards=" << shards
                << " pool=" << pool_threads;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, TelemetrySchemeTest,
    testing::ValuesIn(registry::schemeRegistry().names()),
    schemeCaseName);

// Heatmap snapshots are checked separately from the sheet: the dump
// carries the full per-bank region tables, not just the totals.
TEST(TelemetryEngine, HeatmapShardInvariant)
{
    auto run = [&](std::uint32_t shards) {
        engine::ShardedActStreamEngine eng(
            engineConfig(shards, allOn()),
            [&] { return makeTracker("mithril"); });
        eng.run([&] { return makeAttackStream(); }, kActs);
        return eng.mergedHeatmap().dump();
    };
    const std::string ref = run(1);
    EXPECT_FALSE(ref.empty());
    EXPECT_EQ(run(4), ref);
    EXPECT_EQ(run(kBanks), ref);
}

TEST(TelemetryEngine, SheetCoversEngineOracleTraceHeatmap)
{
    engine::ShardedActStreamEngine eng(
        engineConfig(4, allOn()),
        [&] { return makeTracker("mithril"); });
    eng.run([&] { return makeAttackStream(); }, kActs);

    telemetry::MetricSheet sheet = eng.telemetrySheet();
    EXPECT_EQ(sheet.counterValue("engine.acts"), eng.acts());
    EXPECT_EQ(sheet.counterValue("engine.refs"), eng.refs());
    EXPECT_EQ(sheet.counterValue("oracle.bit_flips"),
              eng.bitFlips());
    EXPECT_DOUBLE_EQ(sheet.gaugeValue("oracle.max_disturbance"),
                     eng.maxDisturbanceEver());
    EXPECT_EQ(sheet.counterValue("heatmap.acts"), eng.acts());
    // The trace accounting covers everything ever emitted, retained
    // or not.
    const auto events = eng.mergedEvents();
    EXPECT_EQ(sheet.counterValue("trace.emitted"),
              events.size() + sheet.counterValue("trace.dropped"));
}

// ----------------------------------------- experiment-level plumbing

TEST(TelemetryExperiment, EngineRunExportsSheetAndTraceFile)
{
    const std::string path =
        testing::TempDir() + "telemetry_engine_trace.json";

    sim::ExperimentSpec spec;
    spec.scheme = "mithril";
    spec.source = "attack";
    spec.attack = "multi-sided";
    spec.engineActs = 30000;
    spec.shards = 4;
    spec.flipTh = kFlipTh;
    spec.telemetry = true;
    spec.traceEvents = path;

    const sim::RunMetrics m = sim::runExperiment(spec);
    EXPECT_FALSE(m.telemetry.empty());
    EXPECT_TRUE(m.telemetry.count("engine.acts"));
    EXPECT_DOUBLE_EQ(m.telemetry.at("engine.acts"),
                     static_cast<double>(m.acts));
    EXPECT_TRUE(m.telemetry.count("trace.emitted"));
    EXPECT_TRUE(m.telemetry.count("heatmap.acts"));

    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.good()) << "trace file not written: " << path;
    std::stringstream buf;
    buf << is.rdbuf();
    const std::string json = buf.str();
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("\"name\":\"mithril\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(TelemetryExperiment, TelemetryOffByDefaultAndOutcomeIdentical)
{
    sim::ExperimentSpec spec;
    spec.scheme = "graphene";
    spec.source = "attack";
    spec.attack = "double-sided";
    spec.engineActs = 30000;
    spec.shards = 2;
    spec.flipTh = kFlipTh;

    const sim::RunMetrics off = sim::runExperiment(spec);
    EXPECT_TRUE(off.telemetry.empty());

    spec.telemetry = true;
    const sim::RunMetrics on = sim::runExperiment(spec);
    EXPECT_FALSE(on.telemetry.empty());
    EXPECT_EQ(on.acts, off.acts);
    EXPECT_EQ(on.rfmIssued, off.rfmIssued);
    EXPECT_EQ(on.preventiveRefreshes, off.preventiveRefreshes);
    EXPECT_EQ(on.simTicks, off.simTicks);
}

TEST(TelemetryExperiment, SpecKeysRoundTripAndStayQuietByDefault)
{
    // Defaults leave describe() untouched (golden stability).
    const sim::ExperimentSpec defaults;
    const std::string described = defaults.describe();
    EXPECT_EQ(described.find("telemetry"), std::string::npos);
    EXPECT_EQ(described.find("trace-events"), std::string::npos);
    EXPECT_EQ(described.find("heatmap-regions"), std::string::npos);
    EXPECT_EQ(described.find("trace-capacity"), std::string::npos);

    ParamSet params;
    params.set("telemetry", "1");
    params.set("trace-events", "out.json");
    params.set("heatmap-regions", "128");
    params.set("trace-capacity", "1000");
    const sim::ExperimentSpec spec =
        sim::ExperimentSpec::fromParams(params);
    EXPECT_TRUE(spec.telemetry);
    EXPECT_EQ(spec.traceEvents, "out.json");
    EXPECT_EQ(spec.heatmapRegions, 128u);
    EXPECT_EQ(spec.traceCapacity, 1000u);

    const ParamSet out = spec.toParams();
    const sim::ExperimentSpec again =
        sim::ExperimentSpec::fromParams(out);
    EXPECT_TRUE(again.telemetry);
    EXPECT_EQ(again.traceEvents, "out.json");
    EXPECT_EQ(again.heatmapRegions, 128u);
    EXPECT_EQ(again.traceCapacity, 1000u);
}

TEST(TelemetryExperiment, SystemPathSmoke)
{
    sim::ExperimentSpec spec;
    spec.scheme = "mithril";
    spec.workload = "mix-high";
    spec.attack = "multi-sided";
    spec.cores = 2;
    spec.instrPerCore = 5000;
    spec.telemetry = true;

    const sim::RunMetrics m = sim::runExperiment(spec);
    EXPECT_FALSE(m.telemetry.empty());
    EXPECT_TRUE(m.telemetry.count("mc.acts"));
    EXPECT_DOUBLE_EQ(m.telemetry.at("mc.acts"),
                     static_cast<double>(m.acts));
    EXPECT_TRUE(m.telemetry.count("oracle.bit_flips"));
    EXPECT_TRUE(m.telemetry.count("heatmap.acts"));

    // And byte-identical headline metrics with telemetry off.
    sim::ExperimentSpec off_spec = spec;
    off_spec.telemetry = false;
    const sim::RunMetrics off = sim::runExperiment(off_spec);
    EXPECT_EQ(m.acts, off.acts);
    EXPECT_EQ(m.rfmIssued, off.rfmIssued);
    EXPECT_EQ(m.preventiveRefreshes, off.preventiveRefreshes);
    EXPECT_EQ(m.simTicks, off.simTicks);
}

TEST(TelemetryExperiment, SystemSheetAgreesWithRunMetricsAtAnyLaneCount)
{
    // One sheet per channel lane, merged in channel order: the merged
    // names carry exactly the values RunMetrics reports, and the
    // trace accounting covers every event, retained or dropped.
    for (std::uint32_t channels : {1u, 2u, 4u}) {
        sim::ExperimentSpec spec;
        spec.scheme = "mithril";
        spec.workload = "mix-high";
        spec.attack = "multi-sided";
        spec.cores = 4;
        spec.instrPerCore = 20000;
        spec.flipTh = 1500;
        spec.channels = channels;
        spec.telemetry = true;
        spec.traceCapacity = 8;

        sim::Observation seen;
        const sim::RunMetrics m = sim::runExperiment(spec, &seen);
        const std::map<std::string, double> &t = m.telemetry;
        EXPECT_EQ(seen.parts, channels);
        EXPECT_EQ(seen.sheet.exportFlat(), t);
        EXPECT_EQ(t.at("mc.acts"), static_cast<double>(m.acts));
        EXPECT_EQ(t.at("mc.rfm_issued"),
                  static_cast<double>(m.rfmIssued));
        EXPECT_EQ(t.at("oracle.bit_flips"),
                  static_cast<double>(m.bitFlips));
        EXPECT_EQ(t.at("oracle.max_disturbance"), m.maxDisturbance);
        EXPECT_EQ(t.at("heatmap.acts"), static_cast<double>(m.acts));
        EXPECT_EQ(seen.heatmap.totalActs(), m.acts);
        EXPECT_GT(t.at("trace.dropped"), 0.0) << channels;
        EXPECT_EQ(t.at("trace.emitted"),
                  static_cast<double>(seen.events.size()) +
                      t.at("trace.dropped"))
            << channels;
    }
}

TEST(TelemetryExperiment, TrackerWarmupIsNotTraced)
{
    // Warm-up feeds the trackers before the measured run and the
    // collectors attach only when it starts: a warm-up that already
    // inserted every aggressor the run touches leaves no CbS insert
    // in the trace, though the tracker counts the warm-up's inserts.
    const std::string path =
        testing::TempDir() + "telemetry_warmup_trace.json";
    sim::ExperimentSpec spec;
    spec.scheme = "mithril";
    spec.source = "attack";
    spec.attack = "double-sided";
    spec.engineActs = 2000;
    spec.trackerWarmupActs = 3000;
    spec.telemetry = true;
    spec.traceEvents = path;

    const sim::RunMetrics warm = sim::runExperiment(spec);
    EXPECT_EQ(warm.telemetry.at("tracker.cbs.inserts"), 64.0);
    EXPECT_EQ(warm.telemetry.at("trace.emitted"), 0.0);
    std::ifstream is(path, std::ios::binary);
    std::stringstream buf;
    buf << is.rdbuf();
    EXPECT_EQ(buf.str().find("cbs_insert"), std::string::npos);
    std::remove(path.c_str());

    // Cold, the same run's inserts are all traced.
    spec.trackerWarmupActs = 0;
    spec.traceEvents.clear();
    sim::Observation seen;
    const sim::RunMetrics cold = sim::runExperiment(spec, &seen);
    EXPECT_GT(cold.telemetry.at("tracker.cbs.inserts"), 0.0);
    EXPECT_EQ(cold.telemetry.at("trace.emitted"),
              cold.telemetry.at("tracker.cbs.inserts"));
    EXPECT_EQ(static_cast<double>(seen.events.size()),
              cold.telemetry.at("trace.emitted"));
}

} // namespace
} // namespace mithril
