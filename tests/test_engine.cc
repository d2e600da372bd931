/**
 * @file
 * ActStream engine equivalence and source tests.
 *
 * The centrepiece is the golden equivalence suite: a verbatim copy of
 * the pre-refactor single-bank ActHarness loop (ReferenceHarness
 * below, frozen at the PR-2 state) is driven head-to-head against
 * ActStreamEngine — run() at several batch sizes and the per-ACT
 * activate() step — for EVERY registered scheme, and the two must
 * agree byte-for-byte on acts/refs/rfms/preventive counts, virtual
 * time, and the ground-truth oracle. This is what licenses routing
 * all safety sweeps through the batched hot loop.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <unistd.h>
#include <functional>
#include <tuple>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/mithril.hh"
#include "dram/rh_oracle.hh"
#include "dram/timing.hh"
#include "engine/act_stream_engine.hh"
#include "engine/sources.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "workload/spec_like.hh"
#include "workload/trace_file.hh"

namespace mithril
{
namespace
{

// --------------------------------------------------- reference copy

/** Pre-refactor ActHarness, copied verbatim (modulo naming): the
 *  specification the engine must reproduce exactly. */
class ReferenceHarness
{
  public:
    ReferenceHarness(const dram::Timing &timing,
                     std::uint32_t rows_per_bank,
                     std::uint32_t flip_th, std::uint32_t blast_radius,
                     trackers::RhProtection *tracker)
        : timing_(timing), blastRadius_(blast_radius),
          tracker_(tracker),
          oracle_(1, rows_per_bank, flip_th, blast_radius)
    {
        nextRef_ = timing_.tREFI;
    }

    void
    activate(RowId row)
    {
        while (now_ >= nextRef_) {
            oracle_.onAutoRefresh(0, dram::refreshGroups(timing_));
            if (tracker_)
                tracker_->onRefresh(0, nextRef_);
            now_ += timing_.tRFC;
            nextRef_ += timing_.tREFI;
            ++refs_;
        }

        oracle_.onActivate(0, row);
        ++acts_;
        scratch_.clear();
        if (tracker_)
            tracker_->onActivate(0, row, now_, scratch_);
        now_ += timing_.tRC;

        for (RowId aggressor : scratch_) {
            oracle_.onNeighborRefresh(0, aggressor);
            now_ += static_cast<Tick>(2 * blastRadius_) * timing_.tRC;
            ++preventive_;
        }

        if (tracker_ && tracker_->usesRfm() &&
            ++raa_ >= tracker_->rfmTh()) {
            raa_ = 0;
            if (tracker_->rfmPending(0)) {
                scratch_.clear();
                tracker_->onRfm(0, now_, scratch_);
                for (RowId aggressor : scratch_) {
                    oracle_.onNeighborRefresh(0, aggressor);
                    ++preventive_;
                }
                now_ += timing_.tRFM;
                ++rfms_;
            }
        }
    }

    void
    run(std::uint64_t count,
        const std::function<RowId(std::uint64_t)> &row_source)
    {
        for (std::uint64_t i = 0; i < count; ++i)
            activate(row_source(i));
    }

    const dram::RhOracle &oracle() const { return oracle_; }
    Tick now() const { return now_; }
    std::uint64_t acts() const { return acts_; }
    std::uint64_t refs() const { return refs_; }
    std::uint64_t rfms() const { return rfms_; }
    std::uint64_t preventive() const { return preventive_; }

  private:
    dram::Timing timing_;
    std::uint32_t blastRadius_;
    trackers::RhProtection *tracker_;
    dram::RhOracle oracle_;
    Tick now_ = 0;
    Tick nextRef_;
    std::uint32_t raa_ = 0;
    std::uint64_t acts_ = 0;
    std::uint64_t refs_ = 0;
    std::uint64_t rfms_ = 0;
    std::uint64_t preventive_ = 0;
    std::vector<RowId> scratch_;
};

/** A source that hands the engine at most `chunk` records per fill —
 *  exercises run-cutting at every batch size. */
class ChunkedSource : public engine::ActSource
{
  public:
    ChunkedSource(std::uint64_t count,
                  std::function<RowId(std::uint64_t)> fn,
                  std::size_t chunk)
        : count_(count), fn_(std::move(fn)), chunk_(chunk)
    {
    }

    std::string name() const override { return "chunked"; }

    std::size_t
    fill(engine::ActBatch &batch, std::size_t limit) override
    {
        std::size_t appended = 0;
        while (produced_ < count_ && appended < chunk_ &&
               appended < limit && !batch.full()) {
            batch.push(0, fn_(produced_));
            ++produced_;
            ++appended;
        }
        return appended;
    }

  private:
    std::uint64_t count_;
    std::function<RowId(std::uint64_t)> fn_;
    std::size_t chunk_;
    std::uint64_t produced_ = 0;
};

/** Mixed adversarial pattern: hammer pairs, rotation, and random hot
 *  rows — trips ARR, RFM, REF, and (for CBS schemes) evictions. */
RowId
patternRow(std::uint64_t i, Rng &rng)
{
    switch (i % 4) {
      case 0:
      case 1:
        return 2000 + 2 * static_cast<RowId>(i % 2);
      case 2:
        return 3000 + 2 * static_cast<RowId>(i % 600);
      default:
        return 2000 + static_cast<RowId>(rng.nextBounded(1024));
    }
}

constexpr std::uint32_t kRows = 65536;
constexpr std::uint32_t kFlipTh = 3125;
constexpr std::uint64_t kActs = 150000;

std::unique_ptr<trackers::RhProtection>
makeTracker(const std::string &scheme, const dram::Geometry &geom,
            const dram::Timing &timing = dram::ddr5_4800())
{
    registry::SchemeKnobs knobs;
    knobs.flipTh = kFlipTh;
    return registry::makeScheme(scheme, knobs.toParams(),
                                {timing, geom});
}

/** DDR5-4800 with tREFW cut to 2 ms, tREFI kept. kActs then span 7.9
 *  to 8.4 ms, so the per-tREFW table resets (Graphene, RFM-Graphene,
 *  CBT) and BlockHammer's filter rotation fall inside batched spans
 *  three or four times; at the real 32 ms window no run reaches one. */
dram::Timing
shortWindowTiming()
{
    dram::Timing timing = dram::ddr5_4800();
    timing.tREFW = msToTick(2.0);
    return timing;
}

struct RunOutcome
{
    std::uint64_t acts, refs, rfms, preventive;
    Tick now;
    double maxDisturbance;
    std::uint64_t bitFlips;
    std::uint64_t flippedRows;
    /** Tracker logic-op count: pins the batch fast paths to the exact
     *  per-ACT accounting of activate(). */
    std::uint64_t logicOps;
};

bool
operator==(const RunOutcome &a, const RunOutcome &b)
{
    return a.acts == b.acts && a.refs == b.refs && a.rfms == b.rfms &&
           a.preventive == b.preventive && a.now == b.now &&
           a.maxDisturbance == b.maxDisturbance &&
           a.bitFlips == b.bitFlips &&
           a.flippedRows == b.flippedRows &&
           a.logicOps == b.logicOps;
}

std::ostream &
operator<<(std::ostream &os, const RunOutcome &o)
{
    return os << "acts=" << o.acts << " refs=" << o.refs
              << " rfms=" << o.rfms << " prev=" << o.preventive
              << " now=" << o.now << " maxDist=" << o.maxDisturbance
              << " flips=" << o.bitFlips
              << " flippedRows=" << o.flippedRows
              << " logicOps=" << o.logicOps;
}

RunOutcome
runReference(const std::string &scheme, const dram::Timing &timing)
{
    dram::Geometry geom = dram::paperGeometry();
    geom.rowsPerBank = kRows;
    auto tracker = makeTracker(scheme, geom, timing);
    ReferenceHarness ref(timing, kRows, kFlipTh, 1, tracker.get());
    Rng rng(1234);
    ref.run(kActs, [&](std::uint64_t i) { return patternRow(i, rng); });
    return {ref.acts(),
            ref.refs(),
            ref.rfms(),
            ref.preventive(),
            ref.now(),
            ref.oracle().maxDisturbanceEver(),
            ref.oracle().bitFlips(),
            ref.oracle().flippedRows(),
            tracker ? tracker->logicOps() : 0};
}

/** Feed every record of `source` through activate(), one ACT at a
 *  time, in stream order: the per-ACT step run() must reproduce. */
void
activateEach(engine::ActStreamEngine &eng, engine::ActSource &source,
             std::uint64_t budget = ~0ull)
{
    engine::forEachRecord(source, budget,
                          [&](const engine::ActRecord &rec) {
                              eng.activate(rec.bank, rec.row);
                          });
}

/** The pattern through run() in `chunk`-record fills, or through
 *  activateEach() when `per_act`. */
RunOutcome
runEngine(const std::string &scheme, const dram::Timing &timing,
          bool per_act, std::size_t chunk)
{
    dram::Geometry geom = dram::paperGeometry();
    geom.rowsPerBank = kRows;
    auto tracker = makeTracker(scheme, geom, timing);
    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, kFlipTh, kRows),
        tracker.get());
    Rng rng(1234);
    ChunkedSource source(
        kActs, [&](std::uint64_t i) { return patternRow(i, rng); },
        chunk);
    if (per_act)
        activateEach(eng, source);
    else
        eng.run(source);
    return {eng.acts(),
            eng.refs(),
            eng.rfms(),
            eng.preventiveRefreshes(),
            eng.now(0),
            eng.oracle().maxDisturbanceEver(),
            eng.oracle().bitFlips(),
            eng.oracle().flippedRows(),
            tracker ? tracker->logicOps() : 0};
}

class EngineEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

/** activate() and run() at several chunk sizes must each reproduce
 *  the reference harness exactly. */
void
expectEngineMatchesReference(const std::string &scheme,
                             const dram::Timing &timing)
{
    const RunOutcome ref = runReference(scheme, timing);

    const RunOutcome scalar =
        runEngine(scheme, timing, /*per_act=*/true, 1024);
    EXPECT_TRUE(scalar == ref)
        << scheme << "\n  scalar: " << scalar << "\n  ref:    " << ref;

    for (std::size_t chunk : {1u, 7u, 64u, 1000u, 4096u}) {
        const RunOutcome batched =
            runEngine(scheme, timing, /*per_act=*/false, chunk);
        EXPECT_TRUE(batched == ref)
            << scheme << " chunk=" << chunk << "\n  batch: " << batched
            << "\n  ref:   " << ref;
    }
}

TEST_P(EngineEquivalence, BatchAndScalarMatchReferenceHarness)
{
    expectEngineMatchesReference(GetParam(), dram::ddr5_4800());
}

TEST_P(EngineEquivalence, BatchAndScalarMatchAcrossRefreshWindows)
{
    expectEngineMatchesReference(GetParam(), shortWindowTiming());
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

INSTANTIATE_TEST_SUITE_P(AllRegisteredSchemes, EngineEquivalence,
                         ::testing::ValuesIn(allSchemes()),
                         schemeCaseName);

// ------------------------------------------------ one-bank engine

TEST(SingleBankEngine, RefreshCadenceMatchesTrefi)
{
    const dram::Timing timing = dram::ddr5_4800();
    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, 1u << 30), nullptr);
    // Enough ACTs to span ~10 tREFI.
    const auto acts = static_cast<std::uint64_t>(
        10.0 * static_cast<double>(timing.tREFI) /
        static_cast<double>(timing.tRC));
    engine::CallbackSource source(acts, [](std::uint64_t i) {
        return static_cast<RowId>(i % 100);
    });
    eng.run(source);
    EXPECT_NEAR(static_cast<double>(eng.refs()), 10.0, 2.0);
    EXPECT_EQ(eng.acts(), acts);
}

TEST(SingleBankEngine, RfmCadenceMatchesTracker)
{
    core::MithrilParams mp;
    mp.nEntry = 32;
    mp.rfmTh = 64;
    core::Mithril tracker(1, mp);

    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(dram::ddr5_4800(), 1u << 30),
        &tracker);
    engine::CallbackSource source(6400, [](std::uint64_t i) {
        return static_cast<RowId>(i % 7);
    });
    eng.run(source);
    EXPECT_EQ(eng.rfms(), 100u);
    EXPECT_EQ(eng.preventiveRefreshes(), 100u);
}

TEST(SingleBankEngine, UnprotectedHammerFlipsBits)
{
    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(dram::ddr5_4800(), 5000),
        nullptr);
    engine::CallbackSource source(20000, [](std::uint64_t i) {
        return 1000 + 2 * static_cast<RowId>(i % 2);
    });
    eng.run(source);
    EXPECT_GT(eng.oracle().bitFlips(), 0u);
    EXPECT_GE(eng.oracle().maxDisturbanceEver(), 5000.0);
}

// ----------------------------------------------- multi-bank engine

TEST(EngineMultiBank, BatchedMatchesScalarAt16Banks)
{
    const dram::Timing timing = dram::ddr5_4800();
    dram::Geometry geom = dram::paperGeometry();
    geom.channels = 1;
    geom.ranksPerChannel = 1;
    geom.banksPerRank = 16;

    for (const std::string &scheme :
         {std::string("mithril"), std::string("graphene"),
          std::string("para")}) {
        auto run = [&](bool per_act) {
            auto tracker = makeTracker(scheme, geom);
            engine::EngineConfig cfg;
            cfg.timing = timing;
            cfg.geometry = geom;
            cfg.flipTh = kFlipTh;
            engine::ActStreamEngine eng(cfg, tracker.get());

            ParamSet params;
            params.set("attack", "multi-sided");
            auto source = registry::makeActSource(
                "attack", params,
                {timing, geom, kFlipTh, /*seed=*/7});
            if (per_act)
                activateEach(eng, *source, 400000);
            else
                eng.run(*source, 400000);
            return eng;
        };

        const auto batched = run(false);
        const auto scalar = run(true);

        EXPECT_EQ(batched.acts(), 400000u) << scheme;
        EXPECT_EQ(batched.acts(), scalar.acts()) << scheme;
        EXPECT_EQ(batched.refs(), scalar.refs()) << scheme;
        EXPECT_EQ(batched.rfms(), scalar.rfms()) << scheme;
        EXPECT_EQ(batched.preventiveRefreshes(),
                  scalar.preventiveRefreshes())
            << scheme;
        EXPECT_EQ(batched.oracle().maxDisturbanceEver(),
                  scalar.oracle().maxDisturbanceEver())
            << scheme;
        EXPECT_EQ(batched.oracle().bitFlips(),
                  scalar.oracle().bitFlips())
            << scheme;
        for (BankId b = 0; b < 16; ++b) {
            EXPECT_EQ(batched.actsAt(b), scalar.actsAt(b))
                << scheme << " bank " << b;
            EXPECT_EQ(batched.now(b), scalar.now(b))
                << scheme << " bank " << b;
            EXPECT_EQ(batched.preventiveRefreshesAt(b),
                      scalar.preventiveRefreshesAt(b))
                << scheme << " bank " << b;
        }
        // All 16 banks actually hammered.
        for (BankId b = 0; b < 16; ++b)
            EXPECT_GT(batched.actsAt(b), 0u) << scheme << " bank " << b;
    }
}

TEST(EngineRun, IncrementalMaxActsLosesNoRecords)
{
    // Driving the same source through many small bounded run() calls
    // must dispatch exactly the records a single unbounded run would:
    // a truncated batch's tail is carried, never dropped.
    auto run = [](bool incremental) {
        dram::Geometry geom = dram::paperGeometry();
        geom.rowsPerBank = kRows;
        auto tracker = makeTracker("mithril", geom);
        engine::EngineConfig cfg = engine::EngineConfig::singleBank(
            dram::ddr5_4800(), kFlipTh, kRows);
        engine::ActStreamEngine eng(cfg, tracker.get());
        Rng rng(77);
        // Chunk 4096: every fill() over-pulls far past a 100-act cap.
        ChunkedSource source(
            20000, [&](std::uint64_t i) { return patternRow(i, rng); },
            4096);
        if (incremental) {
            std::uint64_t total = 0;
            while (total < 20000)
                total += eng.run(source, 100);
            EXPECT_EQ(total, 20000u);
        } else {
            EXPECT_EQ(eng.run(source), 20000u);
        }
        return std::make_tuple(eng.acts(), eng.now(0),
                               eng.oracle().maxDisturbanceEver());
    };
    EXPECT_EQ(run(true), run(false));
}

// ------------------------------------------------- engine sources

TEST(EngineSources, TraceFileSourceReplaysExactly)
{
    const std::string path = ::testing::TempDir() +
                             "mithril_engine_trace_" +
                             std::to_string(::getpid()) + ".trace";
    workload::SyntheticParams sp;
    sp.footprint = 32ull << 20;
    sp.meanGap = 10.0;
    sp.seed = 5;
    workload::StreamSweepGen gen(sp);
    const std::size_t n = workload::recordTrace(gen, 5000, path);
    ASSERT_EQ(n, 5000u);

    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();
    ParamSet params;
    params.set("trace-file", path);
    auto source = registry::makeActSource("trace-file", params,
                                          {timing, geom, 6250, 7});

    engine::EngineConfig cfg;
    cfg.timing = timing;
    cfg.geometry = geom;
    cfg.flipTh = 1u << 30;
    engine::ActStreamEngine eng(cfg, nullptr);
    EXPECT_EQ(eng.run(*source), 5000u);
    EXPECT_EQ(eng.acts(), 5000u);
}

TEST(EngineSources, UnknownSourceListsCandidates)
{
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();
    try {
        registry::makeActSource("no-such-source", ParamSet(),
                                {timing, geom, 6250, 7});
        FAIL() << "unknown source was accepted";
    } catch (const registry::SpecError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("trace-file"), std::string::npos);
        EXPECT_NE(what.find("attack"), std::string::npos);
    }
}

TEST(EngineSources, AttackSourceRejectsNone)
{
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();
    ParamSet params;
    params.set("attack", "none");
    EXPECT_THROW(registry::makeActSource("attack", params,
                                         {timing, geom, 6250, 7}),
                 registry::SpecError);
}

TEST(EngineSources, AttackSourceRejectsExplicitBankTarget)
{
    // The source assigns attack-bank per replicated bank; a
    // user-supplied value must be rejected, not silently overwritten.
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();
    ParamSet params;
    params.set("attack", "double-sided");
    params.set("attack-bank", "5");
    EXPECT_THROW(registry::makeActSource("attack", params,
                                         {timing, geom, 6250, 7}),
                 registry::SpecError);
}

} // namespace
} // namespace mithril
