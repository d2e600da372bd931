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
