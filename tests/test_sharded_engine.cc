/**
 * @file
 * ShardedActStreamEngine equivalence and determinism tests.
 *
 * The centrepiece mirrors the engine's golden suite one level up: for
 * EVERY registered scheme, the sharded engine at shards in
 * {1, 2, 4, banks} — inline and on thread pools of several sizes —
 * must agree byte-for-byte with the single-threaded ActStreamEngine
 * on aggregate counters, every per-bank counter and clock, the
 * ground-truth oracle, and the tracker's logic-op count. This is what
 * licenses running all engine sweeps sharded, and it covers PARA's
 * and PARFM's per-bank derived-seed path explicitly (a shared RNG
 * would diverge the moment banks run on different shards).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "engine/sharded_engine.hh"
#include "engine/sources.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "runner/thread_pool.hh"
#include "trackers/graphene.hh"

namespace mithril
{
namespace
{

constexpr std::uint32_t kBanks = 16;
constexpr std::uint32_t kFlipTh = 3125;
constexpr std::uint64_t kActs = 120000;

dram::Geometry
testGeometry()
{
    dram::Geometry geom = dram::paperGeometry();
    geom.channels = 1;
    geom.ranksPerChannel = 1;
    geom.banksPerRank = kBanks;
    return geom;
}

engine::EngineConfig
testEngineConfig()
{
    engine::EngineConfig cfg;
    cfg.timing = dram::ddr5_4800();
    cfg.geometry = testGeometry();
    cfg.flipTh = kFlipTh;
    return cfg;
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
makeAttackStream(const std::string &attack = "multi-sided")
{
    ParamSet params;
    params.set("attack", attack);
    return registry::makeActSource(
        "attack", params,
        {dram::ddr5_4800(), testGeometry(), kFlipTh, /*seed=*/7});
}

/** Everything both engines must agree on, byte for byte. */
struct Outcome
{
    std::uint64_t acts = 0, refs = 0, rfms = 0, preventive = 0;
    double maxDisturbance = 0.0;
    std::uint64_t bitFlips = 0, flippedRows = 0, logicOps = 0;
    std::vector<std::uint64_t> bankActs, bankPrev;
    std::vector<Tick> bankNow;

    bool
    operator==(const Outcome &o) const
    {
        return acts == o.acts && refs == o.refs && rfms == o.rfms &&
               preventive == o.preventive &&
               maxDisturbance == o.maxDisturbance &&
               bitFlips == o.bitFlips &&
               flippedRows == o.flippedRows &&
               logicOps == o.logicOps && bankActs == o.bankActs &&
               bankPrev == o.bankPrev && bankNow == o.bankNow;
    }
};

std::ostream &
operator<<(std::ostream &os, const Outcome &o)
{
    return os << "acts=" << o.acts << " refs=" << o.refs
              << " rfms=" << o.rfms << " prev=" << o.preventive
              << " maxDist=" << o.maxDisturbance
              << " flips=" << o.bitFlips
              << " flippedRows=" << o.flippedRows
              << " logicOps=" << o.logicOps;
}

Outcome
runSingle(const std::string &scheme)
{
    auto tracker = makeTracker(scheme);
    engine::ActStreamEngine eng(testEngineConfig(), tracker.get());
    auto source = makeAttackStream();
    eng.run(*source, kActs);

    Outcome o;
    o.acts = eng.acts();
    o.refs = eng.refs();
    o.rfms = eng.rfms();
    o.preventive = eng.preventiveRefreshes();
    o.maxDisturbance = eng.oracle().maxDisturbanceEver();
    o.bitFlips = eng.oracle().bitFlips();
    o.flippedRows = eng.oracle().flippedRows();
    o.logicOps = tracker ? tracker->logicOps() : 0;
    for (BankId b = 0; b < kBanks; ++b) {
        o.bankActs.push_back(eng.actsAt(b));
        o.bankPrev.push_back(eng.preventiveRefreshesAt(b));
        o.bankNow.push_back(eng.now(b));
    }
    return o;
}

Outcome
runSharded(const std::string &scheme, std::uint32_t shards,
           runner::ThreadPool *pool = nullptr)
{
    engine::ShardedEngineConfig cfg;
    cfg.engine = testEngineConfig();
    cfg.shards = shards;
    cfg.pool = pool;
    engine::ShardedActStreamEngine eng(
        cfg, [&] { return makeTracker(scheme); });
    eng.run([&] { return makeAttackStream(); }, kActs);

    Outcome o;
    o.acts = eng.acts();
    o.refs = eng.refs();
    o.rfms = eng.rfms();
    o.preventive = eng.preventiveRefreshes();
    o.maxDisturbance = eng.maxDisturbanceEver();
    o.bitFlips = eng.bitFlips();
    o.flippedRows = eng.flippedRows();
    o.logicOps = eng.logicOps();
    for (BankId b = 0; b < kBanks; ++b) {
        o.bankActs.push_back(eng.actsAt(b));
        o.bankPrev.push_back(eng.preventiveRefreshesAt(b));
        o.bankNow.push_back(eng.now(b));
    }
    return o;
}

class ShardedEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ShardedEquivalence, ShardCountNeverChangesResults)
{
    const std::string scheme = GetParam();
    const Outcome single = runSingle(scheme);
    EXPECT_EQ(single.acts, kActs) << scheme;

    for (std::uint32_t shards : {1u, 2u, 4u, kBanks}) {
        const Outcome sharded = runSharded(scheme, shards);
        EXPECT_TRUE(sharded == single)
            << scheme << " shards=" << shards
            << "\n  sharded: " << sharded
            << "\n  single:  " << single;
    }
}

TEST_P(ShardedEquivalence, PoolSizeNeverChangesResults)
{
    const std::string scheme = GetParam();
    const Outcome inline_run = runSharded(scheme, 4);
    for (unsigned threads : {1u, 2u, 5u}) {
        runner::ThreadPool pool(threads);
        const Outcome pooled = runSharded(scheme, 4, &pool);
        EXPECT_TRUE(pooled == inline_run)
            << scheme << " threads=" << threads
            << "\n  pooled: " << pooled
            << "\n  inline: " << inline_run;
    }
}

std::vector<std::string>
allSchemes()
{
    return registry::schemeRegistry().names();
}

std::string
schemeCaseName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string s = info.param;
    for (auto &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredSchemes, ShardedEquivalence,
                         ::testing::ValuesIn(allSchemes()),
                         schemeCaseName);

// ------------------------------------------------ targeted checks

TEST(ShardedEngine, ParaDerivedSeedsAreRunToRunDeterministic)
{
    // Two identical sharded runs of the probabilistic scheme must be
    // bit-equal (no wall-clock or address-based seeding anywhere),
    // and a different base seed must actually change the draws.
    const Outcome a = runSharded("para", 4);
    const Outcome b = runSharded("para", 4);
    EXPECT_TRUE(a == b) << "\n  a: " << a << "\n  b: " << b;
    EXPECT_GT(a.preventive, 0u);
}

TEST(ShardedEngine, MergeTrackerStatsReducesCrossBankCounters)
{
    // Graphene's ARR count lives in the tracker, not the engine: the
    // per-shard instances must fold into exactly the single-tracker
    // total through the mergeStatsFrom() join protocol.
    auto single_tracker = makeTracker("graphene");
    {
        engine::ActStreamEngine eng(testEngineConfig(),
                                    single_tracker.get());
        auto source = makeAttackStream("double-sided");
        eng.run(*source, kActs);
    }
    const auto &single =
        dynamic_cast<const trackers::Graphene &>(*single_tracker);
    ASSERT_GT(single.arrCount(), 0u);

    engine::ShardedEngineConfig cfg;
    cfg.engine = testEngineConfig();
    cfg.shards = 4;
    engine::ShardedActStreamEngine eng(
        cfg, [] { return makeTracker("graphene"); });
    eng.run([] { return makeAttackStream("double-sided"); }, kActs);

    auto merged = makeTracker("graphene");
    eng.mergeTrackerStatsInto(*merged);
    const auto &m =
        dynamic_cast<const trackers::Graphene &>(*merged);
    EXPECT_EQ(m.arrCount(), single.arrCount());
    EXPECT_EQ(merged->logicOps(), single_tracker->logicOps());
}

TEST(ShardedEngine, ReusesAmbientPoolInsideSweepWorkers)
{
    // A sharded run issued from inside a pool task (a sweep job that
    // shards its own work) must reuse that pool through
    // ThreadPool::current() — the helping parallelFor makes this safe
    // — and still produce the exact single-threaded result.
    const Outcome expected = runSharded("mithril", 4);
    runner::ThreadPool pool(2);
    std::vector<Outcome> got(3);
    pool.parallelFor(got.size(), [&](std::size_t i) {
        ASSERT_EQ(runner::ThreadPool::current(), &pool);
        got[i] = runSharded("mithril", 4);  // cfg.pool = nullptr.
    });
    for (const Outcome &o : got)
        EXPECT_TRUE(o == expected)
            << "\n  got:      " << o << "\n  expected: " << expected;
}

TEST(BankFilterSource, SlicesPartitionTheBoundedPrefix)
{
    // Two complementary slices of the same stream must together carry
    // exactly the first `budget` records, each bank only on its side.
    auto make_stream = [] {
        return std::make_unique<engine::CallbackSource>(
            /*count=*/~0ull,
            [](std::uint64_t i) {
                return static_cast<RowId>(1000 + i % 7);
            });
    };
    // CallbackSource emits bank 0 only: the low slice sees all
    // records, the high slice none — and both stop at the budget.
    engine::BankFilterSource low(make_stream(), 0, 8, 5000);
    engine::BankFilterSource high(make_stream(), 8, 16, 5000);

    engine::ActBatch batch;
    std::uint64_t low_total = 0;
    while (std::size_t n = low.fill(batch, 4096)) {
        low_total += n;
        batch.clear();
    }
    std::uint64_t high_total = 0;
    while (std::size_t n = high.fill(batch, 4096)) {
        high_total += n;
        batch.clear();
    }
    EXPECT_EQ(low_total, 5000u);
    EXPECT_EQ(high_total, 0u);
}

TEST(ShardedEngine, ShardRangesPartitionBanks)
{
    engine::ShardedEngineConfig cfg;
    cfg.engine = testEngineConfig();
    for (std::uint32_t shards : {1u, 3u, 5u, kBanks, kBanks + 9}) {
        cfg.shards = shards;
        engine::ShardedActStreamEngine eng(cfg, nullptr);
        BankId next = 0;
        for (std::uint32_t s = 0; s < eng.shardCount(); ++s) {
            const auto [lo, hi] = eng.shardRange(s);
            EXPECT_EQ(lo, next);
            EXPECT_GT(hi, lo);
            next = hi;
        }
        EXPECT_EQ(next, kBanks);
        for (BankId b = 0; b < kBanks; ++b) {
            const auto [lo, hi] = eng.shardRange(eng.shardFor(b));
            EXPECT_TRUE(b >= lo && b < hi) << "bank " << b;
        }
    }
}

} // namespace
} // namespace mithril
