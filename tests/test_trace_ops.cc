/**
 * @file
 * The trace-algebra pin suite: every registered trace-op, the
 * pipeline syntax, and the index-only bank spans.
 *
 * Four layers of guarantees:
 *
 *  1. Algebraic identities: merge(slice-by-bank(T)) == T,
 *     dilate(1/1) == identity, remap composed with its inverse
 *     rotation == identity, slice keeps exactly [from, to) x
 *     [bank-lo, bank-hi), splice adds exactly the injection while
 *     preserving every background record — and every materialized
 *     output is byte-deterministic.
 *  2. bankSpans() agrees with a full scan from the index alone.
 *  3. Composed corpora replay shard-invariantly: a 16-tenant merged +
 *     attack-spliced corpus produces one identical outcome for every
 *     registered scheme at shards {1, 4, 16} across pool sizes, and
 *     a fuzzed mutation corpus over composed traces must parse or
 *     raise registry::SpecError — never UB (the CI sanitize job runs
 *     this suite under ASan/UBSan).
 *  4. Crash-safety: ActTraceWriter publishes through a temp file +
 *     atomic rename — no finalize, no file; re-materializing over an
 *     existing trace replaces it atomically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "engine/act_trace.hh"
#include "engine/sharded_engine.hh"
#include "registry/scheme_registry.hh"
#include "runner/sweep_spec.hh"
#include "runner/thread_pool.hh"
#include "sim/experiment.hh"
#include "trace/op_registry.hh"
#include "trace/pipeline.hh"

namespace mithril
{
namespace
{

using registry::SpecError;

// ------------------------------------------------------- plumbing

constexpr std::uint32_t kBanks = 16;
constexpr std::uint32_t kRows = 65536;
constexpr std::uint32_t kFlipTh = 3125;

dram::Geometry
smallGeometry(std::uint32_t banks = kBanks,
              std::uint32_t rows = kRows)
{
    dram::Geometry geom = dram::paperGeometry();
    geom.channels = 1;
    geom.ranksPerChannel = 1;
    geom.banksPerRank = banks;
    geom.rowsPerBank = rows;
    return geom;
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "traceops_" + name;
}

struct Rec
{
    BankId bank;
    RowId row;
    Tick tick;

    bool
    operator==(const Rec &o) const
    {
        return bank == o.bank && row == o.row && tick == o.tick;
    }
};

std::vector<Rec>
drain(engine::ActSource &source)
{
    std::vector<Rec> out;
    engine::ActBatch batch;
    for (;;) {
        batch.clear();
        const std::size_t n =
            source.fill(batch, engine::ActBatch::kCapacity);
        if (n == 0)
            break;
        for (std::size_t i = 0; i < n; ++i) {
            const engine::ActRecord r = batch.record(i);
            out.push_back({r.bank, r.row, r.tick});
        }
    }
    return out;
}

std::vector<Rec>
drainStream(trace::RecordStream &stream)
{
    std::vector<Rec> out;
    trace::TraceRecord r;
    while (stream.next(r))
        out.push_back({r.bank, r.row, r.tick});
    return out;
}

/** Canonical-order records of a trace file. */
std::vector<Rec>
readRecords(const std::string &path)
{
    engine::ActTraceSource source(path);
    return drain(source);
}

/** Random stream with in-range banks/rows and per-bank
 *  non-decreasing ticks, optionally confined to a bank range. */
std::vector<Rec>
randomStream(std::uint64_t seed, const dram::Geometry &geom,
             std::size_t count, std::uint32_t bank_lo = 0,
             std::uint32_t bank_hi = 0)
{
    if (bank_hi == 0)
        bank_hi = geom.totalBanks();
    std::mt19937_64 rng(seed);
    std::vector<Tick> last(geom.totalBanks(), 0);
    std::vector<Rec> recs;
    recs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const auto bank = static_cast<BankId>(
            bank_lo + rng() % (bank_hi - bank_lo));
        const auto row =
            static_cast<RowId>(rng() % geom.rowsPerBank);
        last[bank] += static_cast<Tick>(rng() % 5000);
        recs.push_back({bank, row, last[bank]});
    }
    return recs;
}

void
writeTrace(const std::string &path, const dram::Geometry &geom,
           std::uint64_t seed, const std::string &meta,
           const std::vector<Rec> &recs)
{
    engine::ActTraceWriter writer(path, geom, seed, meta);
    for (const Rec &r : recs)
        writer.append(r.bank, r.row, r.tick);
    writer.finalize();
}

std::vector<std::vector<Rec>>
perBank(const std::vector<Rec> &recs, std::uint32_t banks)
{
    std::vector<std::vector<Rec>> out(banks);
    for (const Rec &r : recs)
        out[r.bank].push_back(r);
    return out;
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path,
          const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** A small tenant trace on disk; memoized per (name, seed, count). */
std::string
tenantTrace(const std::string &name, std::uint64_t seed,
            std::size_t count)
{
    const std::string path = tmpPath(name);
    if (!fileExists(path)) {
        writeTrace(path, smallGeometry(), seed, "tenant:" + name,
                   randomStream(seed, smallGeometry(), count));
    }
    return path;
}

// ------------------------------------- pipeline syntax and wiring

TEST(TracePipelineParse, SyntaxAndParameterErrors)
{
    EXPECT_THROW(trace::parsePipeline(""), SpecError);
    EXPECT_THROW(trace::parsePipeline("bogus:a.acttrace"), SpecError);
    // Undeclared / duplicate / out-of-range parameters fail at parse
    // time, before any file is touched.
    EXPECT_THROW(trace::parsePipeline("remap:a,frobnicate=1"),
                 SpecError);
    EXPECT_THROW(
        trace::parsePipeline("remap:a,bank-rotate=1,bank-rotate=2"),
        SpecError);
    EXPECT_THROW(trace::parsePipeline("dilate:a,num=0"), SpecError);

    // The unknown-op error teaches the registered vocabulary.
    try {
        trace::parsePipeline("bogus:a.acttrace");
        FAIL() << "expected SpecError";
    } catch (const SpecError &err) {
        EXPECT_NE(std::string(err.what()).find("merge"),
                  std::string::npos)
            << err.what();
    }

    // Aliases resolve to the canonical op.
    const std::vector<trace::PipelineStage> stages =
        trace::parsePipeline("interleave:a,b|timescale:num=2");
    ASSERT_EQ(stages.size(), 2u);
    EXPECT_EQ(stages[0].op, "merge");
    EXPECT_EQ(stages[1].op, "dilate");
}

TEST(TracePipelineBuild, StagePlacementErrors)
{
    const std::string t0 = tenantTrace("build_t0", 11, 500);
    const std::string t1 = tenantTrace("build_t1", 12, 500);

    // Head op mid-pipeline.
    EXPECT_THROW(trace::buildPipeline(
                     "merge:" + t0 + "|merge:" + t1, 42),
                 SpecError);
    // Filter op with neither upstream nor input...
    EXPECT_THROW(trace::buildPipeline("remap:bank-rotate=1", 42),
                 SpecError);
    // ...with upstream AND an input...
    EXPECT_THROW(trace::buildPipeline(
                     "merge:" + t0 + "|slice:" + t1, 42),
                 SpecError);
    // ...or with two inputs.
    EXPECT_THROW(trace::buildPipeline("slice:" + t0 + "," + t1, 42),
                 SpecError);

    // Eager option validation: empty bank range / tick window.
    EXPECT_THROW(trace::buildPipeline(
                     "slice:" + t0 + ",bank-lo=5,bank-hi=5", 42),
                 SpecError);
    EXPECT_THROW(trace::buildPipeline(
                     "slice:" + t0 + ",from=10,to=10", 42),
                 SpecError);
    // splice needs exactly one of with= / attack=.
    EXPECT_THROW(trace::buildPipeline("splice:" + t0, 42), SpecError);
    EXPECT_THROW(
        trace::buildPipeline("splice:" + t0 + ",with=" + t1 +
                                 ",attack=multi-sided",
                             42),
        SpecError);
}

TEST(TracePipelineMaterialize, RefusesOutputAliasingAnInput)
{
    const std::string t0 = tenantTrace("alias_t0", 13, 500);
    const std::string t1 = tenantTrace("alias_t1", 14, 500);
    const std::vector<std::uint8_t> before = readFile(t0);

    EXPECT_THROW(trace::materializePipeline("merge:" + t0 + "," + t1,
                                            t0, 42),
                 SpecError);
    // The splice with= side input is an input too.
    EXPECT_THROW(trace::materializePipeline(
                     "slice:" + t0 + "|splice:with=" + t1 + ",at=5",
                     t1, 42),
                 SpecError);
    EXPECT_EQ(readFile(t0), before); // Inputs untouched.
    EXPECT_TRUE(fileExists(t1));
}

TEST(TracePipelineMaterialize, RecordsTheSpecInMeta)
{
    const std::string t0 = tenantTrace("meta_t0", 15, 500);
    const std::string out = tmpPath("meta_out");
    const std::string spec = "slice:" + t0 + ",to=100000";
    const engine::ActTraceInfo info =
        trace::materializePipeline(spec, out, 42);
    EXPECT_EQ(info.meta,
              std::string(trace::kPipelineMetaPrefix) + spec);
}

// --------------------------------------- merge: k-way loser tree

TEST(TraceMerge, SliceByBankThenMergeIsIdentity)
{
    const dram::Geometry geom = smallGeometry();
    const std::string t = tmpPath("split_src");
    writeTrace(t, geom, 21, "", randomStream(21, geom, 20000));

    const std::string lo = tmpPath("split_lo");
    const std::string hi = tmpPath("split_hi");
    const std::string merged = tmpPath("split_merged");
    trace::materializePipeline("slice:" + t + ",bank-hi=8", lo, 42);
    trace::materializePipeline("slice:" + t + ",bank-lo=8", hi, 42);
    trace::materializePipeline("merge:" + lo + "," + hi, merged, 42);

    // Identity is per-bank: every bank's subsequence — the semantic
    // content of a trace — survives the split/merge round trip.
    EXPECT_EQ(perBank(readRecords(merged), kBanks),
              perBank(readRecords(t), kBanks));
}

TEST(TraceMerge, EmitsGlobalTickOrderAndDeterministicBytes)
{
    const std::string t0 = tenantTrace("merge_t0", 22, 12000);
    const std::string t1 = tenantTrace("merge_t1", 23, 12000);
    const std::string spec = "merge:" + t0 + "," + t1;

    const std::unique_ptr<trace::RecordStream> stream =
        trace::buildPipeline(spec, 42);
    const std::vector<Rec> recs = drainStream(*stream);
    ASSERT_EQ(recs.size(), 24000u);
    for (std::size_t i = 1; i < recs.size(); ++i)
        ASSERT_LE(recs[i - 1].tick, recs[i].tick) << "at " << i;

    // Per-bank content: the tick-merge of the two inputs' banks.
    const auto banks0 = perBank(readRecords(t0), kBanks);
    const auto banks1 = perBank(readRecords(t1), kBanks);
    const auto got = perBank(recs, kBanks);
    for (std::uint32_t b = 0; b < kBanks; ++b) {
        EXPECT_EQ(got[b].size(),
                  banks0[b].size() + banks1[b].size())
            << "bank " << b;
        EXPECT_TRUE(std::is_sorted(
            got[b].begin(), got[b].end(),
            [](const Rec &a, const Rec &c) { return a.tick < c.tick; }))
            << "bank " << b;
    }

    // Same pipeline, same seed -> byte-identical files.
    const std::string out1 = tmpPath("merge_out1");
    const std::string out2 = tmpPath("merge_out2");
    trace::materializePipeline(spec, out1, 42);
    trace::materializePipeline(spec, out2, 42);
    EXPECT_EQ(readFile(out1), readFile(out2));
}

/** Stream over `banks` whose ticks advance by 0-2 per record, so
 *  ticks tie within a bank and across banks. */
std::vector<Rec>
tiedStream(std::uint64_t seed, std::size_t count,
           const std::vector<BankId> &banks)
{
    std::mt19937_64 rng(seed);
    std::vector<Tick> last(kBanks, 0);
    std::vector<Rec> recs;
    for (std::size_t i = 0; i < count; ++i) {
        const BankId bank = banks[rng() % banks.size()];
        last[bank] += static_cast<Tick>(rng() % 3);
        recs.push_back(
            {bank, static_cast<RowId>(rng() % kRows), last[bank]});
    }
    return recs;
}

std::vector<Rec>
rotateBanks(std::vector<Rec> recs, std::uint32_t by)
{
    for (Rec &r : recs)
        r.bank = (r.bank + by) % kBanks;
    return recs;
}

TEST(TraceMerge, MatchesStableSortReference)
{
    const dram::Geometry geom = smallGeometry();
    std::vector<BankId> all_banks(kBanks);
    for (BankId b = 0; b < kBanks; ++b)
        all_banks[b] = b;
    const std::vector<Rec> full = tiedStream(41, 3000, all_banks);
    const std::vector<Rec> two_banks = tiedStream(42, 500, {3, 7});
    const auto traceOf = [&](const std::string &name,
                             const std::vector<Rec> &recs) {
        const std::string path = tmpPath("ref_" + name);
        writeTrace(path, geom, 1, name, recs);
        return path;
    };
    const std::string one = traceOf("one", {{3, 17, 5}});
    const std::string two = traceOf("two", two_banks);
    const std::string two_rot = traceOf("two_rot", rotateBanks(two_banks, 5));
    // Bank-rotated copies of one trace: every tick ties across them.
    std::vector<std::string> wide;
    for (std::uint32_t r = 0; r < 8; ++r) {
        wide.push_back(traceOf("full_rot" + std::to_string(r),
                               rotateBanks(full, r)));
    }
    wide.push_back(two);

    // Each case names its (input, bank) cursor count.
    const std::vector<std::pair<std::size_t, std::vector<std::string>>>
        cases = {{1, {one}},
                 {3, {two, one}},
                 {5, {two, two_rot, one}},
                 {130, wide}};
    for (const auto &[cursors, inputs] : cases) {
        // Reference: every input's per-bank subsequences in file
        // order, input-major then bank-ascending, stably sorted by
        // (tick, input, bank).
        struct Keyed
        {
            Rec rec;
            std::size_t input;
        };
        std::vector<Keyed> ref;
        std::size_t touched = 0;
        std::string spec = "merge:";
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            spec += (i ? "," : "") + inputs[i];
            for (const std::vector<Rec> &bank :
                 perBank(readRecords(inputs[i]), kBanks)) {
                touched += bank.empty() ? 0 : 1;
                for (const Rec &r : bank)
                    ref.push_back({r, i});
            }
        }
        ASSERT_EQ(touched, cursors);
        std::stable_sort(ref.begin(), ref.end(),
                         [](const Keyed &a, const Keyed &b) {
                             if (a.rec.tick != b.rec.tick)
                                 return a.rec.tick < b.rec.tick;
                             if (a.input != b.input)
                                 return a.input < b.input;
                             return a.rec.bank < b.rec.bank;
                         });
        std::vector<Rec> want;
        for (const Keyed &k : ref)
            want.push_back(k.rec);

        const std::unique_ptr<trace::RecordStream> stream =
            trace::buildPipeline(spec, 42);
        EXPECT_EQ(drainStream(*stream), want)
            << cursors << " cursors";
    }
}

TEST(TraceMerge, CursorIsSmall)
{
    // A merge holds one cursor per (input, bank): 65,536 of them for
    // 1024 tenants of a 64-bank capture.
    EXPECT_LE(sizeof(trace::SourceCursor), 2048u);
}

// -------------------------------------------- dilate: time scaling

TEST(TraceDilate, UnitScaleIsIdentity)
{
    const std::string t = tenantTrace("dilate_t", 31, 8000);
    const std::unique_ptr<trace::RecordStream> stream =
        trace::buildPipeline("dilate:" + t + ",num=1,den=1", 42);
    EXPECT_EQ(drainStream(*stream), readRecords(t));
}

TEST(TraceDilate, ScalesTicksByTheRational)
{
    const std::string t = tenantTrace("dilate_t", 31, 8000);
    const std::vector<Rec> base = readRecords(t);

    const std::unique_ptr<trace::RecordStream> x3 =
        trace::buildPipeline("dilate:" + t + ",num=3", 42);
    const std::vector<Rec> scaled = drainStream(*x3);
    ASSERT_EQ(scaled.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(scaled[i].bank, base[i].bank);
        EXPECT_EQ(scaled[i].row, base[i].row);
        EXPECT_EQ(scaled[i].tick, base[i].tick * 3) << "at " << i;
    }

    const std::unique_ptr<trace::RecordStream> rational =
        trace::buildPipeline("dilate:" + t + ",num=3,den=2", 42);
    const std::vector<Rec> halved = drainStream(*rational);
    ASSERT_EQ(halved.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i)
        EXPECT_EQ(halved[i].tick, base[i].tick * 3 / 2) << "at " << i;
}

TEST(TraceDilate, TickOverflowThrowsInsteadOfWrapping)
{
    const std::string t = tmpPath("dilate_huge");
    writeTrace(t, smallGeometry(), 32, "",
               {{0, 1, kTickMax - 5}});
    const std::unique_ptr<trace::RecordStream> stream =
        trace::buildPipeline("dilate:" + t + ",num=2", 42);
    trace::TraceRecord r;
    EXPECT_THROW(stream->next(r), SpecError);
}

// ------------------------------------------- remap: bank/row rotate

TEST(TraceRemap, RotatesBanksAndRowsModGeometry)
{
    const std::string t = tenantTrace("remap_t", 41, 8000);
    const std::vector<Rec> base = readRecords(t);

    const std::unique_ptr<trace::RecordStream> stream =
        trace::buildPipeline(
            "remap:" + t + ",bank-rotate=5,row-rotate=123", 42);
    const std::vector<Rec> rotated = drainStream(*stream);
    ASSERT_EQ(rotated.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(rotated[i].bank, (base[i].bank + 5) % kBanks);
        EXPECT_EQ(rotated[i].row, (base[i].row + 123) % kRows);
        EXPECT_EQ(rotated[i].tick, base[i].tick);
    }
}

TEST(TraceRemap, ComposedWithInverseRotationIsIdentity)
{
    const std::string t = tenantTrace("remap_t", 41, 8000);
    const std::unique_ptr<trace::RecordStream> stream =
        trace::buildPipeline(
            "remap:" + t + ",bank-rotate=5,row-rotate=123"
            "|remap:bank-rotate=" + std::to_string(kBanks - 5) +
                ",row-rotate=" + std::to_string(kRows - 123),
            42);
    EXPECT_EQ(drainStream(*stream), readRecords(t));
}

// ----------------------------------- slice: window and bank range

TEST(TraceSlice, KeepsExactlyTheHalfOpenWindow)
{
    const std::string t = tmpPath("slice_window");
    writeTrace(t, smallGeometry(), 51, "",
               {{0, 10, 0}, {0, 11, 99}, {0, 12, 100}, {0, 13, 101},
                {0, 14, 199}, {0, 15, 200}, {0, 16, 201},
                {1, 20, 100}, {1, 21, 150}});

    // Canonical file order is per-bank inside a chunk, so slicing
    // yields bank 0's kept records, then bank 1's.
    const std::vector<Rec> windowed = drainStream(*trace::buildPipeline(
        "slice:" + t + ",from=100,to=200", 42));
    EXPECT_EQ(windowed, (std::vector<Rec>{{0, 12, 100}, {0, 13, 101},
                                          {0, 14, 199},
                                          {1, 20, 100},
                                          {1, 21, 150}}));

    // rebase=1 shifts the kept window down to tick 0.
    const std::vector<Rec> rebased = drainStream(*trace::buildPipeline(
        "slice:" + t + ",from=100,to=200,rebase=1", 42));
    EXPECT_EQ(rebased, (std::vector<Rec>{{0, 12, 0}, {0, 13, 1},
                                         {0, 14, 99},
                                         {1, 20, 0},
                                         {1, 21, 50}}));

    // to=0 means unbounded; bank range composes with the window.
    const std::vector<Rec> tail = drainStream(*trace::buildPipeline(
        "slice:" + t + ",from=200", 42));
    EXPECT_EQ(tail, (std::vector<Rec>{{0, 15, 200}, {0, 16, 201}}));

    const std::vector<Rec> bank1 = drainStream(*trace::buildPipeline(
        "slice:" + t + ",bank-lo=1,bank-hi=2", 42));
    EXPECT_EQ(bank1, (std::vector<Rec>{{1, 20, 100}, {1, 21, 150}}));
}

// ------------------------------------------- splice: injection

TEST(TraceSplice, AttackBurstLandsInsideTheWindow)
{
    const Tick at = 100000000; // Past every background tick.
    const std::string bg = tenantTrace("splice_bg", 61, 5000);
    const std::string out = tmpPath("splice_burst");
    const std::string spec = "splice:" + bg +
                             ",attack=multi-sided,at=" +
                             std::to_string(at) + ",burst-acts=3000";
    // Materializing proves per-bank monotonicity: the writer
    // validates every append.
    trace::materializePipeline(spec, out, 42);

    const std::vector<Rec> recs = readRecords(out);
    ASSERT_EQ(recs.size(), 8000u);
    std::size_t injected = 0;
    Tick first_injected = kTickMax;
    for (const Rec &r : recs) {
        if (r.tick >= at) {
            ++injected;
            first_injected = std::min(first_injected, r.tick);
        }
    }
    EXPECT_EQ(injected, 3000u);
    EXPECT_EQ(first_injected, at);

    // The background survives untouched.
    std::vector<Rec> bg_part;
    for (const Rec &r : recs)
        if (r.tick < at)
            bg_part.push_back(r);
    EXPECT_EQ(perBank(bg_part, kBanks),
              perBank(readRecords(bg), kBanks));

    // Burst synthesis is seed-deterministic.
    const std::string out2 = tmpPath("splice_burst2");
    trace::materializePipeline(spec, out2, 42);
    EXPECT_EQ(readFile(out), readFile(out2));
}

TEST(TraceSplice, SecondTraceInjectsShiftedByAt)
{
    const Tick at = 500000000;
    const std::string bg = tenantTrace("splice_bg", 61, 5000);
    const std::string other = tenantTrace("splice_other", 62, 2000);
    const std::string out = tmpPath("splice_with");
    trace::materializePipeline("splice:" + bg + ",with=" + other +
                                   ",at=" + std::to_string(at),
                               out, 42);

    const std::vector<Rec> recs = readRecords(out);
    ASSERT_EQ(recs.size(), 7000u);
    std::vector<Rec> injected;
    for (const Rec &r : recs)
        if (r.tick >= at)
            injected.push_back({r.bank, r.row, r.tick - at});
    EXPECT_EQ(perBank(injected, kBanks),
              perBank(readRecords(other), kBanks));
}

TEST(TraceSplice, GeometryMismatchIsRejectedEagerly)
{
    const std::string bg = tenantTrace("splice_bg", 61, 5000);
    const std::string narrow = tmpPath("splice_narrow");
    writeTrace(narrow, smallGeometry(8, kRows), 63, "",
               randomStream(63, smallGeometry(8, kRows), 100));
    EXPECT_THROW(trace::buildPipeline(
                     "splice:" + bg + ",with=" + narrow + ",at=0",
                     42),
                 SpecError);
}

// --------------------------------------- bank spans from the index

TEST(TraceMmap, BankSpansMatchAFullScan)
{
    // Banks 8..15 stay empty to exercise the zero-count rows.
    const dram::Geometry geom = smallGeometry();
    const std::string t = tmpPath("mmap_spans");
    writeTrace(t, geom, 72, "",
               randomStream(72, geom, 20000, /*bank_lo=*/0,
                            /*bank_hi=*/8));

    engine::ActTraceSource source(t);
    const std::vector<engine::ActTraceBankSpan> spans =
        source.bankSpans();
    ASSERT_EQ(spans.size(), kBanks);

    const auto banks = perBank(readRecords(t), kBanks);
    for (std::uint32_t b = 0; b < kBanks; ++b) {
        EXPECT_EQ(spans[b].count, banks[b].size()) << "bank " << b;
        if (banks[b].empty())
            continue;
        EXPECT_EQ(spans[b].first, banks[b].front().tick)
            << "bank " << b;
        EXPECT_EQ(spans[b].last, banks[b].back().tick)
            << "bank " << b;
    }
}

// ------------------------------------- crash-safe trace publishing

TEST(TraceWriter, FinalizePublishesViaAtomicRename)
{
    const std::string path = tmpPath("atomic");
    const std::string tmp = path + ".tmp";
    std::remove(path.c_str());
    std::remove(tmp.c_str());
    {
        engine::ActTraceWriter writer(path, smallGeometry(), 81, "");
        writer.append(0, 1, 10);
        // In-flight bytes live in the temp file only; a crash here
        // leaves no half-written trace at the published path.
        EXPECT_TRUE(fileExists(tmp));
        EXPECT_FALSE(fileExists(path));
        writer.finalize();
    }
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(tmp));
    EXPECT_EQ(engine::actTraceInfo(path).records, 1u);
}

TEST(TraceWriter, AbandonedWriterLeavesNoFiles)
{
    const std::string path = tmpPath("abandoned");
    const std::string tmp = path + ".tmp";
    std::remove(path.c_str());
    {
        engine::ActTraceWriter writer(path, smallGeometry(), 82, "");
        writer.append(0, 1, 10);
    } // Destroyed unfinalized: the temp file is swept up.
    EXPECT_FALSE(fileExists(path));
    EXPECT_FALSE(fileExists(tmp));
}

TEST(TraceWriter, RefinalizingReplacesAnExistingTrace)
{
    const std::string path = tmpPath("replace");
    writeTrace(path, smallGeometry(), 83, "", {{0, 1, 10}});
    ASSERT_EQ(engine::actTraceInfo(path).records, 1u);
    writeTrace(path, smallGeometry(), 84, "",
               {{0, 1, 10}, {1, 2, 20}, {2, 3, 30}});
    EXPECT_EQ(engine::actTraceInfo(path).records, 3u);
    EXPECT_FALSE(fileExists(path + ".tmp"));
}

// ---------------------- spec plumbing: trace-pipeline= validation

TEST(TracePipelineSpec, ExperimentSpecNeedsActTraceSource)
{
    sim::ExperimentSpec spec;
    spec.scheme = "mithril";
    spec.tracePipeline = "merge:a,b";
    // No engine source at all.
    EXPECT_THROW(spec.validate(), SpecError);
    // Engine source, but not act-trace.
    spec.source = "attack";
    spec.engineActs = 100;
    EXPECT_THROW(spec.validate(), SpecError);
    // act-trace (via its alias) without trace=.
    spec.source = "act_trace";
    EXPECT_THROW(spec.validate(), SpecError);
    spec.extras.set("trace", tmpPath("spec_target"));
    EXPECT_NO_THROW(spec.validate());
}

TEST(TracePipelineSpec, SweepSpecComposesOncePerSweep)
{
    setLogThrowOnFatal(true);
    EXPECT_THROW(
        runner::SweepSpec::fromParams(ParamSet::fromString(
            "schemes=mithril sources=act-trace "
            "trace-pipeline=merge:a,b")),
        std::runtime_error);
    const runner::SweepSpec ok =
        runner::SweepSpec::fromParams(ParamSet::fromString(
            "schemes=mithril,para sources=act-trace trace=x "
            "trace-pipeline=merge:a,b"));
    setLogThrowOnFatal(false);
    // The pipeline composes once per sweep: expanded jobs never
    // carry it (the runner materializes before expansion).
    for (const runner::Job &job : ok.expand())
        EXPECT_TRUE(job.spec.tracePipeline.empty());
}

TEST(TracePipelineSpec, SingleRunComposesThenReplays)
{
    // runExperiment replays on the paper geometry, so the tenants
    // must be captured on it too.
    const dram::Geometry geom = dram::paperGeometry();
    const std::string t0 = tmpPath("single_t0");
    const std::string t1 = tmpPath("single_t1");
    writeTrace(t0, geom, 91, "", randomStream(91, geom, 2000));
    writeTrace(t1, geom, 92, "", randomStream(92, geom, 2000));
    const std::string corpus = tmpPath("single_corpus");
    std::remove(corpus.c_str());

    sim::ExperimentSpec spec;
    spec.scheme = "mithril";
    spec.attack = "none";
    spec.source = "act-trace";
    spec.extras.set("trace", corpus);
    spec.engineActs = 4000;
    spec.tracePipeline = "merge:" + t0 + "," + t1;

    const sim::RunMetrics m = sim::runExperiment(spec);
    EXPECT_EQ(m.acts, 4000u);
    EXPECT_EQ(engine::actTraceInfo(corpus).records, 4000u);
}

// ------------- the acceptance corpus: 16 tenants + spliced attack

constexpr std::size_t kTenants = 16;
constexpr std::size_t kTenantRecords = 3000;
constexpr std::uint64_t kBurstActs = 8000;
constexpr std::uint64_t kCorpusActs =
    kTenants * kTenantRecords + kBurstActs;

/** Build (once) the multi-tenant corpus the ISSUE's acceptance
 *  criterion names: 16 merged tenants plus one spliced attack. */
std::string
corpusTrace()
{
    const std::string path = tmpPath("corpus");
    if (fileExists(path))
        return path;
    std::string spec = "merge:";
    for (std::size_t i = 0; i < kTenants; ++i) {
        if (i)
            spec += ",";
        spec += tenantTrace("corpus_t" + std::to_string(i), 100 + i,
                            kTenantRecords);
    }
    spec += "|splice:attack=multi-sided,at=100000000,burst-acts=" +
            std::to_string(kBurstActs);
    const engine::ActTraceInfo info =
        trace::materializePipeline(spec, path, 42);
    EXPECT_EQ(info.records, kCorpusActs);
    return path;
}

/** Everything a replay must reproduce byte for byte. */
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

engine::EngineConfig
replayEngineConfig()
{
    engine::EngineConfig cfg;
    cfg.timing = dram::ddr5_4800();
    cfg.geometry = smallGeometry();
    cfg.flipTh = kFlipTh;
    return cfg;
}

std::unique_ptr<trackers::RhProtection>
makeTracker(const std::string &scheme)
{
    registry::SchemeKnobs knobs;
    knobs.flipTh = kFlipTh;
    return registry::makeScheme(scheme, knobs.toParams(),
                                {dram::ddr5_4800(), smallGeometry()});
}

Outcome
replayCorpusSharded(const std::string &scheme,
                    const std::string &path, std::uint32_t shards,
                    runner::ThreadPool *pool)
{
    engine::ShardedEngineConfig cfg;
    cfg.engine = replayEngineConfig();
    cfg.shards = shards;
    cfg.pool = pool;
    engine::ShardedActStreamEngine eng(
        cfg, [&] { return makeTracker(scheme); });
    eng.run(
        [&] {
            return std::make_unique<engine::ActTraceSource>(path);
        },
        kCorpusActs);

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

class MergedCorpusReplay : public ::testing::TestWithParam<std::string>
{
};

TEST_P(MergedCorpusReplay, ShardAndPoolInvariantForEveryScheme)
{
    const std::string scheme = GetParam();
    const std::string path = corpusTrace();

    const Outcome base =
        replayCorpusSharded(scheme, path, /*shards=*/1,
                            /*pool=*/nullptr);
    EXPECT_EQ(base.acts, kCorpusActs) << scheme;

    runner::ThreadPool pool(3);
    for (std::uint32_t shards : {1u, 4u, 16u}) {
        for (runner::ThreadPool *p :
             {static_cast<runner::ThreadPool *>(nullptr), &pool}) {
            if (shards == 1 && p == nullptr)
                continue; // That is `base` itself.
            const Outcome sharded =
                replayCorpusSharded(scheme, path, shards, p);
            EXPECT_TRUE(sharded == base)
                << scheme << " shards=" << shards << " pool="
                << (p ? "3" : "none") << "\n  sharded: " << sharded
                << "\n  base:    " << base;
        }
    }
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

INSTANTIATE_TEST_SUITE_P(AllRegisteredSchemes, MergedCorpusReplay,
                         ::testing::ValuesIn(
                             registry::schemeRegistry().names()),
                         schemeCaseName);

// --------------------------- fuzzed mutations of composed corpora

/** Open + fully drain; the corpus driver for "parses or throws
 *  SpecError, never UB". */
void
drainFuzz(const std::string &path)
{
    engine::ActTraceSource source(path);
    engine::ActBatch batch;
    for (;;) {
        batch.clear();
        if (source.fill(batch, engine::ActBatch::kCapacity) == 0)
            break;
    }
}

TEST(TraceFuzz, MutatedComposedCorporaParseOrThrowCleanly)
{
    // Seed corpus: a merged + spliced trace, so the mutations hit
    // pipeline-written multi-chunk layouts, not just hand-written
    // single-tenant files.
    const std::string t0 = tenantTrace("fuzz_t0", 201, 6000);
    const std::string t1 = tenantTrace("fuzz_t1", 202, 6000);
    const std::string seed_path = tmpPath("fuzz_seed");
    trace::materializePipeline(
        "merge:" + t0 + "," + t1 +
            "|splice:attack=double-sided,at=50000000,burst-acts=4000",
        seed_path, 42);
    const std::vector<std::uint8_t> base = readFile(seed_path);
    ASSERT_GT(base.size(), 1000u);

    const std::string fuzz_path = tmpPath("fuzz_mut");
    std::mt19937_64 rng(2027);
    unsigned rejected = 0;
    const unsigned kIterations = 120;
    for (unsigned i = 0; i < kIterations; ++i) {
        std::vector<std::uint8_t> bytes = base;
        switch (rng() % 4) {
        case 0: // Truncate anywhere.
            bytes.resize(rng() % bytes.size());
            break;
        case 1: // Flip one byte.
            bytes[rng() % bytes.size()] ^=
                static_cast<std::uint8_t>(1 + rng() % 255);
            break;
        case 2: { // Overwrite a u32 with garbage.
            const std::size_t off = rng() % (bytes.size() - 4);
            const std::uint32_t v = static_cast<std::uint32_t>(rng());
            for (int k = 0; k < 4; ++k)
                bytes[off + k] =
                    static_cast<std::uint8_t>(v >> (8 * k));
            break;
        }
        default: { // Copy a random slice over another offset.
            const std::size_t len = 1 + rng() % 256;
            if (bytes.size() <= len + 1)
                break;
            const std::size_t src = rng() % (bytes.size() - len);
            const std::size_t dst = rng() % (bytes.size() - len);
            std::copy(bytes.begin() +
                          static_cast<std::ptrdiff_t>(src),
                      bytes.begin() +
                          static_cast<std::ptrdiff_t>(src + len),
                      bytes.begin() +
                          static_cast<std::ptrdiff_t>(dst));
            break;
        }
        }
        writeFile(fuzz_path, bytes);
        try {
            drainFuzz(fuzz_path);
        } catch (const SpecError &) {
            ++rejected;
        }
    }
    // Most mutations must be caught (a few land in slack bytes and
    // legitimately still parse).
    EXPECT_GT(rejected, kIterations / 3);
}

} // namespace
} // namespace mithril
