/**
 * @file
 * Tests for the registry subsystem and the unified ExperimentSpec:
 * duplicate-name registration is a hard error, unknown-name lookups
 * list every registered candidate, entry parameters range-check,
 * ExperimentSpec::describe() round-trips through ParamSet, and a
 * golden file pins the `sweep_cli --list` output.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/config.hh"
#include "common/logging.hh"
#include "registry/attack_registry.hh"
#include "registry/listing.hh"
#include "registry/registry.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "registry/workload_registry.hh"
#include "sim/experiment.hh"

namespace mithril
{
namespace
{

using registry::SpecError;

// ------------------------------------------------- generic registry

/** A private product/traits pair so these tests get registries that
 *  are isolated from the real scheme/workload/attack singletons. */
struct Widget
{
    int value = 0;
};

struct WidgetContext
{
    int scale = 1;
};

struct WidgetTraits
{
    using Product = Widget;
    using Context = WidgetContext;
    static constexpr const char *kCategory = "widget";
    static constexpr const char *kPlural = "widgets";
};

typename registry::Registry<WidgetTraits>::Entry
widgetEntry(const std::string &name, int value)
{
    typename registry::Registry<WidgetTraits>::Entry entry;
    entry.name = name;
    entry.display = name;
    entry.description = "a widget";
    entry.make = [value](const ParamSet &, const WidgetContext &ctx) {
        auto w = std::make_unique<Widget>();
        w->value = value * ctx.scale;
        return w;
    };
    return entry;
}

TEST(Registry, RegisterLookupAndMake)
{
    registry::Registry<WidgetTraits> reg;
    reg.add(widgetEntry("alpha", 3));
    reg.add(widgetEntry("beta", 5));

    EXPECT_TRUE(reg.has("alpha"));
    EXPECT_FALSE(reg.has("gamma"));
    EXPECT_EQ(reg.names(), (std::vector<std::string>{"alpha", "beta"}));

    auto w = reg.at("beta").make(ParamSet(), {10});
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->value, 50);
}

TEST(Registry, AliasesResolveToCanonicalEntry)
{
    registry::Registry<WidgetTraits> reg;
    auto entry = widgetEntry("alpha", 1);
    entry.aliases = {"alfa"};
    reg.add(entry);
    ASSERT_NE(reg.find("alfa"), nullptr);
    EXPECT_EQ(reg.find("alfa")->name, "alpha");
    // Aliases are not separate names.
    EXPECT_EQ(reg.names(), (std::vector<std::string>{"alpha"}));
}

TEST(Registry, DuplicateRegistrationIsAHardError)
{
    setLogThrowOnFatal(true);
    registry::Registry<WidgetTraits> reg;
    reg.add(widgetEntry("alpha", 1));
    EXPECT_THROW(reg.add(widgetEntry("alpha", 2)),
                 std::runtime_error);
    // An alias clashing with an existing name is equally fatal.
    auto entry = widgetEntry("beta", 1);
    entry.aliases = {"alpha"};
    EXPECT_THROW(reg.add(entry), std::runtime_error);
    setLogThrowOnFatal(false);
}

TEST(Registry, UnknownLookupListsEveryCandidate)
{
    registry::Registry<WidgetTraits> reg;
    reg.add(widgetEntry("alpha", 1));
    reg.add(widgetEntry("beta", 2));
    try {
        reg.at("gamma");
        FAIL() << "expected SpecError";
    } catch (const SpecError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("unknown widget 'gamma'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("alpha, beta"), std::string::npos)
            << what;
    }
}

// ------------------------------------------------ built-in entries

TEST(BuiltinRegistries, AllPaperEntriesAreRegistered)
{
    EXPECT_EQ(registry::schemeRegistry().names(),
              (std::vector<std::string>{
                  "blockhammer", "cbt", "graphene", "mithril",
                  "mithril+", "none", "para", "parfm",
                  "rfm-graphene", "twice"}));
    EXPECT_EQ(registry::workloadRegistry().names(),
              (std::vector<std::string>{
                  "gups", "mix-blend", "mix-high", "mt-fft",
                  "mt-pagerank", "mt-radix", "stencil"}));
    EXPECT_EQ(registry::attackRegistry().names(),
              (std::vector<std::string>{
                  "cbf-pollution", "double-sided", "multi-sided",
                  "none", "rfm-optimal"}));
}

TEST(BuiltinRegistries, UnknownSchemeListsCandidates)
{
    try {
        registry::schemeRegistry().at("mithril2");
        FAIL() << "expected SpecError";
    } catch (const SpecError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("registered schemes"), std::string::npos);
        EXPECT_NE(what.find("blockhammer"), std::string::npos);
        EXPECT_NE(what.find("twice"), std::string::npos);
    }
}

TEST(BuiltinRegistries, SchemeFactoriesHonourTheirKnobs)
{
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();
    ParamSet params;
    params.set("flip", "6250");
    for (const std::string &name :
         registry::schemeRegistry().names()) {
        auto tracker =
            registry::makeScheme(name, params, {timing, geom});
        if (name == "none")
            EXPECT_EQ(tracker, nullptr);
        else
            ASSERT_NE(tracker, nullptr) << name;
    }
}

TEST(BuiltinRegistries, OnlyBlockHammerThrottles)
{
    // The MC probes throttleAct() only where throttles() is true, so
    // a false answer must mean no ACT is ever delayed, even after a
    // burst that makes BlockHammer throttle.
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();
    ParamSet params;
    params.set("flip", "6250");
    for (const std::string &name :
         registry::schemeRegistry().names()) {
        auto tracker =
            registry::makeScheme(name, params, {timing, geom});
        if (!tracker)
            continue;  // "none" attaches no tracker.
        EXPECT_EQ(tracker->throttles(), name == "blockhammer") << name;
        std::vector<RowId> arr;
        Tick t = 0;
        for (int i = 0; i < 20000; ++i, t += timing.tRC) {
            tracker->onActivate(0, 1000 + 2 * (i % 2), t, arr);
            arr.clear();
        }
        if (tracker->throttles()) {
            EXPECT_GT(tracker->throttleAct(0, 1000, t), t) << name;
            continue;
        }
        for (const RowId row : {1000u, 1001u, 1002u})
            EXPECT_EQ(tracker->throttleAct(0, row, t), t) << name;
    }
}

TEST(BuiltinRegistries, NoEntryDeclaresASpecOwnedKey)
{
    // A key with two owners misreports runs: toParams() prints the
    // spec's value, then the entry's extra of the same name replaces
    // it in what the factories read.
    auto check = [](const auto &reg) {
        for (const std::string &name : reg.names()) {
            for (const registry::ParamDesc &desc : reg.at(name).params)
                EXPECT_FALSE(sim::ExperimentSpec::ownsKnob(desc.key))
                    << name << " declares the spec's " << desc.key
                    << "=";
        }
    };
    check(registry::schemeRegistry());
    check(registry::workloadRegistry());
    check(registry::attackRegistry());
    check(registry::sourceRegistry());
}

TEST(BuiltinRegistries, InfeasibleConfigurationThrowsSpecError)
{
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();
    ParamSet params;
    params.set("flip", "100");
    EXPECT_THROW(
        registry::makeScheme("mithril", params, {timing, geom}),
        SpecError);
}

// ---------------------------------------------------- ExperimentSpec

TEST(ExperimentSpec, DescribeRoundTripsThroughParamSet)
{
    ParamSet params = ParamSet::fromString(
        "scheme=blockhammer workload=gups attack=multi-sided "
        "victims=16 flip=3125 cores=4 instr=5000 seed=9");
    const sim::ExperimentSpec spec =
        sim::ExperimentSpec::parse(params);
    const std::string described = spec.describe();

    const sim::ExperimentSpec again = sim::ExperimentSpec::parse(
        ParamSet::fromString(described));
    EXPECT_EQ(again.describe(), described);
    EXPECT_EQ(again.scheme, "blockhammer");
    EXPECT_EQ(again.workload, "gups");
    EXPECT_EQ(again.attack, "multi-sided");
    EXPECT_EQ(again.flipTh, 3125u);
    EXPECT_EQ(again.extras.getString("victims"), "16");

    // Defaults round-trip too.
    const sim::ExperimentSpec defaults;
    EXPECT_EQ(sim::ExperimentSpec::parse(
                  ParamSet::fromString(defaults.describe()))
                  .describe(),
              defaults.describe());
}

TEST(ExperimentSpec, EveryKnobRoundTripsThroughDescribe)
{
    // Every spec-owned knob off its default and in range, the seeds at
    // the top of their 64 bits: parse(describe()) restores each field.
    sim::ExperimentSpec spec;
    spec.scheme = "para";
    spec.workload = "mt-fft";
    spec.attack = "multi-sided";
    spec.source = "act-trace";
    spec.engineActs = 12345;
    spec.shards = 3;
    spec.threads = 2;
    spec.flipTh = 3125;
    spec.rfmTh = 32;
    spec.adTh = 150;
    spec.blastRadius = 2;
    spec.schemeSeed = 18446744073709551614ull;
    spec.cores = 4;
    spec.instrPerCore = 5000;
    spec.seed = 18446744073709551615ull;
    spec.trackerWarmupActs = 77;
    spec.warmupFromWorkload = true;
    spec.record = "knobs.acttrace";
    spec.tracePipeline = "merge:a.acttrace,b.acttrace";
    spec.telemetry = true;
    spec.traceEvents = "knobs.json";
    spec.heatmapRegions = 16;
    spec.traceCapacity = 128;
    spec.channels = 4;
    spec.extras.set("trace", "replay.acttrace");
    ASSERT_NO_THROW(spec.validate());

    const std::string described = spec.describe();
    const sim::ExperimentSpec back =
        sim::ExperimentSpec::parse(ParamSet::fromString(described));
    EXPECT_EQ(back.scheme, spec.scheme);
    EXPECT_EQ(back.workload, spec.workload);
    EXPECT_EQ(back.attack, spec.attack);
    EXPECT_EQ(back.source, spec.source);
    EXPECT_EQ(back.engineActs, spec.engineActs);
    EXPECT_EQ(back.shards, spec.shards);
    EXPECT_EQ(back.threads, spec.threads);
    EXPECT_EQ(back.flipTh, spec.flipTh);
    EXPECT_EQ(back.rfmTh, spec.rfmTh);
    EXPECT_EQ(back.adTh, spec.adTh);
    EXPECT_EQ(back.blastRadius, spec.blastRadius);
    EXPECT_EQ(back.schemeSeed, spec.schemeSeed);
    EXPECT_EQ(back.cores, spec.cores);
    EXPECT_EQ(back.instrPerCore, spec.instrPerCore);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.trackerWarmupActs, spec.trackerWarmupActs);
    EXPECT_EQ(back.warmupFromWorkload, spec.warmupFromWorkload);
    EXPECT_EQ(back.record, spec.record);
    EXPECT_EQ(back.tracePipeline, spec.tracePipeline);
    EXPECT_EQ(back.telemetry, spec.telemetry);
    EXPECT_EQ(back.traceEvents, spec.traceEvents);
    EXPECT_EQ(back.heatmapRegions, spec.heatmapRegions);
    EXPECT_EQ(back.traceCapacity, spec.traceCapacity);
    EXPECT_EQ(back.channels, spec.channels);
    EXPECT_EQ(back.extras.getString("trace"), "replay.acttrace");
    EXPECT_EQ(back.describe(), described);
}

TEST(ExperimentSpec, CommittedDescribeLineRoundTrips)
{
    // The meta= string of the committed trace golden is a describe()
    // line from when that file was made: it must parse and describe
    // back to the same bytes.
    std::ifstream in(std::string(MITHRIL_SOURCE_DIR) +
                     "/tests/golden/acttrace_v1.describe.txt");
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    const std::size_t begin = header.find("meta=\"");
    ASSERT_NE(begin, std::string::npos) << header;
    const std::size_t end = header.find('"', begin + 6);
    ASSERT_NE(end, std::string::npos) << header;
    const std::string line = header.substr(begin + 6, end - begin - 6);
    EXPECT_EQ(
        sim::ExperimentSpec::parse(ParamSet::fromString(line)).describe(),
        line);
}

TEST(ExperimentSpec, CanonicalizesAliases)
{
    const sim::ExperimentSpec spec = sim::ExperimentSpec::parse(
        ParamSet::fromString("scheme=mithril_plus "
                             "attack=double_sided cores=2"));
    EXPECT_EQ(spec.scheme, "mithril+");
    EXPECT_EQ(spec.attack, "double-sided");
}

TEST(ExperimentSpec, UnknownNamesListCandidates)
{
    try {
        sim::ExperimentSpec::parse(
            ParamSet::fromString("scheme=graphene2"));
        FAIL() << "expected SpecError";
    } catch (const SpecError &err) {
        EXPECT_NE(std::string(err.what()).find("registered schemes"),
                  std::string::npos)
            << err.what();
    }
    try {
        sim::ExperimentSpec::parse(
            ParamSet::fromString("workload=mix-hihg"));
        FAIL() << "expected SpecError";
    } catch (const SpecError &err) {
        EXPECT_NE(std::string(err.what()).find("mix-high"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ExperimentSpec, RangeErrorsNameTheLegalRange)
{
    try {
        sim::ExperimentSpec::parse(ParamSet::fromString("flip=0"));
        FAIL() << "expected SpecError";
    } catch (const SpecError &err) {
        EXPECT_NE(std::string(err.what()).find("[1, 10000000]"),
                  std::string::npos)
            << err.what();
    }
    // Entry-declared parameters range-check too.
    try {
        sim::ExperimentSpec::parse(ParamSet::fromString(
            "attack=multi-sided victims=5000 cores=2"));
        FAIL() << "expected SpecError";
    } catch (const SpecError &err) {
        EXPECT_NE(std::string(err.what()).find("[1, 1024]"),
                  std::string::npos)
            << err.what();
    }
    // NaN is out of every range.
    for (const char *text :
         {"workload=mix-high mean-gap=nan", "scheme=para para-p=nan"}) {
        try {
            sim::ExperimentSpec::parse(ParamSet::fromString(text));
            ADD_FAILURE() << "expected SpecError for " << text;
        } catch (const SpecError &err) {
            EXPECT_NE(std::string(err.what()).find("is out of range"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(ExperimentSpec, RejectsUndeclaredParameters)
{
    try {
        sim::ExperimentSpec::parse(
            ParamSet::fromString("victims=8"));  // attack=none
        FAIL() << "expected SpecError";
    } catch (const SpecError &err) {
        EXPECT_NE(std::string(err.what())
                      .find("unknown experiment parameter"),
                  std::string::npos)
            << err.what();
    }
    // The same key is accepted once the owning entry is selected.
    EXPECT_NO_THROW(sim::ExperimentSpec::parse(ParamSet::fromString(
        "attack=multi-sided victims=8 cores=2")));
}

TEST(ExperimentSpec, AttackNeedsTwoCores)
{
    EXPECT_THROW(sim::ExperimentSpec::parse(ParamSet::fromString(
                     "attack=double-sided cores=1")),
                 SpecError);
}

TEST(ExperimentSpec, AttackSourceNeedsAnAttack)
{
    EXPECT_THROW(
        sim::ExperimentSpec::parse(ParamSet::fromString("source=attack")),
        SpecError);
    EXPECT_NO_THROW(sim::ExperimentSpec::parse(
        ParamSet::fromString("source=attack attack=multi-sided")));
}

// ------------------------------------------------------ golden list

TEST(Listing, GoldenFilePinsSweepCliListOutput)
{
    // The same rendering sweep_cli --list prints. Regenerate with:
    //   MITHRIL_UPDATE_GOLDEN=1 ./test_registry
    //       --gtest_filter=Listing.GoldenFilePinsSweepCliListOutput
    const std::string artifact = registry::renderRegistries("all");

    const std::string golden_path =
        std::string(MITHRIL_SOURCE_DIR) + "/tests/golden/list_v1.txt";
    if (std::getenv("MITHRIL_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        out << artifact;
        GTEST_SKIP() << "regenerated " << golden_path;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in) << "missing golden file " << golden_path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(artifact, buffer.str());
}

TEST(Listing, UnknownCategoryThrows)
{
    EXPECT_THROW(registry::renderRegistries("gadgets"), SpecError);
}

} // namespace
} // namespace mithril
