/**
 * @file
 * The mithril.acttrace.v1 capture/replay pin suite.
 *
 * Four layers of guarantees:
 *
 *  1. Format round-trip: write/read identity for random streams
 *     (per-bank subsequences exact, canonical order deterministic),
 *     and the seeking bank-range reader emits exactly what a
 *     BankFilterSource over the bounded linear stream does — for any
 *     range and any replay budget.
 *  2. Capture -> replay equivalence: for EVERY registered scheme, the
 *     captured stream of an engine run replays to the
 *     byte-identical RunOutcome (counters, per-bank clocks, oracle,
 *     logicOps) single-threaded and sharded at {1, 4, 16} across
 *     pool sizes; a System run captured via record= replays to one
 *     identical outcome at every shard/pool count, and capture
 *     itself is byte-deterministic.
 *  3. Corrupt inputs: truncations, bad magic, geometry mismatches,
 *     out-of-range banks/rows, payloads ending mid-record, paths that
 *     are not regular files, and a fuzzed mutation corpus must all
 *     raise registry::SpecError — never UB (the CI sanitize job runs
 *     this suite under ASan/UBSan) — and a corrupt trace fails its
 *     sweep job cleanly.
 *  4. Golden: a committed trace must keep describing and replaying
 *     exactly as frozen here, guarding format drift across PRs.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "engine/act_trace.hh"
#include "engine/sharded_engine.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "runner/runner.hh"
#include "runner/sinks.hh"
#include "runner/thread_pool.hh"
#include "sim/experiment.hh"

namespace mithril
{
namespace
{

using registry::SpecError;

// ------------------------------------------------------- plumbing

dram::Geometry
smallGeometry(std::uint32_t banks = 16, std::uint32_t rows = 4096)
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
    return ::testing::TempDir() + "acttrace_" + name;
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

/** Random stream with in-range banks/rows and per-bank
 *  non-decreasing ticks — the writer's whole legal input domain. */
std::vector<Rec>
randomStream(std::uint64_t seed, const dram::Geometry &geom,
             std::size_t count)
{
    std::mt19937_64 rng(seed);
    std::vector<Tick> last(geom.totalBanks(), 0);
    std::vector<Rec> recs;
    recs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const auto bank =
            static_cast<BankId>(rng() % geom.totalBanks());
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

void
patchU32(std::vector<std::uint8_t> &bytes, std::size_t offset,
         std::uint32_t v)
{
    ASSERT_LE(offset + 4, bytes.size());
    for (int i = 0; i < 4; ++i)
        bytes[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
readU64(const std::vector<std::uint8_t> &bytes, std::size_t offset)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(bytes[offset + i]) << (8 * i);
    return v;
}

/** Open + fully drain; the corpus driver for "parses or throws
 *  SpecError, never UB". */
void
drainFile(const std::string &path)
{
    engine::ActTraceSource source(path);
    engine::ActBatch batch;
    for (;;) {
        batch.clear();
        if (source.fill(batch, engine::ActBatch::kCapacity) == 0)
            break;
    }
}

// --------------------------------------------- round-trip identity

TEST(ActTraceRoundTrip, RandomStreamsSurviveWriteRead)
{
    const dram::Geometry geom = smallGeometry();
    // Sizes straddling the batch capacity (4096) and the writer's
    // chunk size (8192), so single-chunk, chunk-boundary, and
    // multi-chunk layouts all round-trip.
    const std::size_t sizes[] = {1, 7, 4095, 4096, 4097,
                                 8192, 8193, 20000};
    for (std::size_t size : sizes) {
        const std::string path =
            tmpPath("roundtrip_" + std::to_string(size));
        const std::vector<Rec> recs = randomStream(size, geom, size);
        writeTrace(path, geom, /*seed=*/99, "round-trip", recs);

        engine::ActTraceSource source(path);
        const engine::ActTraceInfo &info = source.info();
        EXPECT_EQ(info.records, size);
        EXPECT_EQ(info.seed, 99u);
        EXPECT_EQ(info.meta, "round-trip");
        EXPECT_NO_THROW(
            engine::requireSameGeometry("trace", info.geometry(), geom));

        const std::vector<Rec> replayed = drain(source);
        ASSERT_EQ(replayed.size(), recs.size()) << "size " << size;

        // Chunking canonicalizes cross-bank order; the per-bank
        // subsequences must survive exactly.
        const auto want = perBank(recs, geom.totalBanks());
        const auto got = perBank(replayed, geom.totalBanks());
        for (std::uint32_t b = 0; b < geom.totalBanks(); ++b) {
            EXPECT_EQ(got[b], want[b])
                << "bank " << b << " size " << size;
            EXPECT_EQ(info.perBank[b], want[b].size());
        }

        // ...and the canonical order itself is deterministic.
        engine::ActTraceSource again(path);
        EXPECT_EQ(drain(again), replayed) << "size " << size;
    }
}

TEST(ActTraceRoundTrip, EmptyTraceIsValid)
{
    const std::string path = tmpPath("empty");
    writeTrace(path, smallGeometry(), 7, "", {});
    engine::ActTraceSource source(path);
    EXPECT_EQ(source.info().records, 0u);
    EXPECT_EQ(source.info().chunks, 0u);
    EXPECT_TRUE(drain(source).empty());
}

TEST(ActTraceRoundTrip, TicksMonotonePerBankNotGlobally)
{
    // Per-bank monotonicity is the format's invariant; global ticks
    // may interleave arbitrarily (two banks running ahead of each
    // other), which is exactly what a System capture produces.
    const dram::Geometry geom = smallGeometry(2);
    const std::vector<Rec> recs = {
        {0, 10, 100}, {1, 20, 5}, {0, 11, 100}, {1, 21, 900},
        {0, 12, 250},
    };
    const std::string path = tmpPath("perbank_ticks");
    writeTrace(path, geom, 1, "", recs);
    engine::ActTraceSource source(path);
    EXPECT_EQ(perBank(drain(source), 2), perBank(recs, 2));
}

// ------------------------------------- seeking vs filtered linear

TEST(ActTraceSeek, BankRangeEqualsFilteredLinearScan)
{
    const dram::Geometry geom = smallGeometry();
    const std::size_t total = 20000;
    const std::string path = tmpPath("seek");
    writeTrace(path, geom, 3, "seek", randomStream(3, geom, total));

    const std::pair<BankId, BankId> ranges[] = {
        {0, 16}, {0, 1}, {3, 7}, {15, 16}, {5, 5}};
    const std::uint64_t budgets[] = {0,     1,     777,  8192,
                                     8200,  total, total + 5,
                                     ~0ull};
    for (const auto &[lo, hi] : ranges) {
        for (std::uint64_t budget : budgets) {
            engine::BankFilterSource filtered(
                std::make_unique<engine::ActTraceSource>(path), lo,
                hi, budget);
            engine::ActTraceSource full(path);
            const auto seeking = full.shardSlice(lo, hi, budget);
            ASSERT_NE(seeking, nullptr);
            EXPECT_EQ(drain(*seeking), drain(filtered))
                << "range [" << lo << "," << hi << ") budget "
                << budget;
        }
    }
}

TEST(ActTraceSeek, ShardSliceIsTheNativeSeekingReader)
{
    const dram::Geometry geom = smallGeometry(8);
    const std::string path = tmpPath("slice");
    writeTrace(path, geom, 4, "", randomStream(4, geom, 9000));

    engine::ActTraceSource full(path);
    auto slice = full.shardSlice(2, 5, 4000);
    ASSERT_NE(slice, nullptr);

    engine::BankFilterSource filtered(
        std::make_unique<engine::ActTraceSource>(path), 2, 5, 4000);
    EXPECT_EQ(drain(*slice), drain(filtered));

    // Slicing must not have disturbed the full reader.
    EXPECT_EQ(drain(full).size(), 9000u);
}

// --------------------------------- capture -> replay, every scheme

constexpr std::uint32_t kBanks = 16;
constexpr std::uint32_t kFlipTh = 3125;
constexpr std::uint64_t kActs = 60000;

engine::EngineConfig
replayEngineConfig()
{
    engine::EngineConfig cfg;
    cfg.timing = dram::ddr5_4800();
    cfg.geometry = smallGeometry(kBanks, 65536);
    cfg.flipTh = kFlipTh;
    return cfg;
}

std::unique_ptr<trackers::RhProtection>
makeTracker(const std::string &scheme)
{
    registry::SchemeKnobs knobs;
    knobs.flipTh = kFlipTh;
    return registry::makeScheme(
        scheme, knobs.toParams(),
        {dram::ddr5_4800(), smallGeometry(kBanks, 65536)});
}

std::unique_ptr<engine::ActSource>
makeAttackStream()
{
    ParamSet params;
    params.set("attack", "multi-sided");
    return registry::makeActSource(
        "attack", params,
        {dram::ddr5_4800(), smallGeometry(kBanks, 65536), kFlipTh,
         /*seed=*/7});
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

Outcome
outcomeOf(const engine::ActStreamEngine &eng,
          const trackers::RhProtection *tracker)
{
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

/** Live engine run over the attack stream; the kActs-record prefix
 *  it consumes is captured to `path` from an identical stream copy
 *  (the registry source is deterministic in its seed). */
Outcome
runLiveRecorded(const std::string &scheme, const std::string &path)
{
    engine::ActTraceWriter writer(path, smallGeometry(kBanks, 65536),
                                  /*seed=*/7, "live:" + scheme);
    engine::forEachRecord(*makeAttackStream(), kActs,
                          [&](const engine::ActRecord &r) {
                              writer.append(r.bank, r.row, r.tick);
                          });
    writer.finalize();
    EXPECT_EQ(writer.records(), kActs);

    auto tracker = makeTracker(scheme);
    engine::ActStreamEngine eng(replayEngineConfig(), tracker.get());
    auto source = makeAttackStream();
    eng.run(*source, kActs);
    return outcomeOf(eng, tracker.get());
}

Outcome
replaySingle(const std::string &scheme, const std::string &path)
{
    auto tracker = makeTracker(scheme);
    engine::ActStreamEngine eng(replayEngineConfig(), tracker.get());
    engine::ActTraceSource source(path);
    eng.run(source, kActs);
    return outcomeOf(eng, tracker.get());
}

Outcome
replaySharded(const std::string &scheme, const std::string &path,
              std::uint32_t shards,
              runner::ThreadPool *pool = nullptr)
{
    engine::ShardedEngineConfig cfg;
    cfg.engine = replayEngineConfig();
    cfg.shards = shards;
    cfg.pool = pool;
    engine::ShardedActStreamEngine eng(
        cfg, [&] { return makeTracker(scheme); });
    eng.run([&] { return std::make_unique<engine::ActTraceSource>(
                      path); },
            kActs);

    Outcome o;
    o.acts = eng.acts();
    o.refs = eng.parts().counts().refs;
    o.rfms = eng.rfms();
    o.preventive = eng.preventiveRefreshes();
    o.maxDisturbance = eng.maxDisturbanceEver();
    o.bitFlips = eng.bitFlips();
    o.flippedRows = eng.parts().flippedRows();
    o.logicOps = eng.parts().logicOps();
    for (BankId b = 0; b < kBanks; ++b) {
        o.bankActs.push_back(eng.actsAt(b));
        o.bankPrev.push_back(eng.preventiveRefreshesAt(b));
        o.bankNow.push_back(eng.now(b));
    }
    return o;
}

class CaptureReplayEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CaptureReplayEquivalence, ReplayMatchesLiveRunExactly)
{
    const std::string scheme = GetParam();
    const std::string path = tmpPath("capture_" + scheme);
    const Outcome live = runLiveRecorded(scheme, path);
    EXPECT_EQ(live.acts, kActs) << scheme;

    const Outcome single = replaySingle(scheme, path);
    EXPECT_TRUE(single == live)
        << scheme << "\n  replay: " << single
        << "\n  live:   " << live;

    runner::ThreadPool pool(3);
    for (std::uint32_t shards : {1u, 4u, 16u}) {
        const Outcome sharded = replaySharded(
            scheme, path, shards, shards == 4 ? &pool : nullptr);
        EXPECT_TRUE(sharded == live)
            << scheme << " shards=" << shards
            << "\n  sharded: " << sharded
            << "\n  live:    " << live;
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

INSTANTIATE_TEST_SUITE_P(AllRegisteredSchemes,
                         CaptureReplayEquivalence,
                         ::testing::ValuesIn(
                             registry::schemeRegistry().names()),
                         schemeCaseName);

// --------------------------------------- System capture -> replay

/** Tiny attacked System run; record= taps the controller's ACTs. */
sim::ExperimentSpec
systemCaptureSpec(const std::string &record_path)
{
    sim::ExperimentSpec spec;
    spec.scheme = "none";
    spec.workload = "mix-high";
    spec.attack = "multi-sided";
    spec.cores = 2;
    spec.instrPerCore = 6000;
    spec.record = record_path;
    return spec;
}

sim::ExperimentSpec
replaySpec(const std::string &scheme, const std::string &trace_path,
           std::uint64_t acts, std::uint32_t shards)
{
    sim::ExperimentSpec spec;
    spec.scheme = scheme;
    spec.attack = "none";
    spec.source = "act-trace";
    spec.extras.set("trace", trace_path);
    spec.engineActs = acts;
    spec.shards = shards;
    return spec;
}

TEST(SystemCaptureReplay, EverySchemeReplaysShardInvariant)
{
    const std::string path = tmpPath("system_capture");
    const sim::RunMetrics live =
        sim::runExperiment(systemCaptureSpec(path));
    ASSERT_GT(live.acts, 0u);

    const engine::ActTraceInfo info = engine::actTraceInfo(path);
    // The capture is exactly the tracker-observed ACT stream.
    EXPECT_EQ(info.records, live.acts);
    EXPECT_NO_THROW(engine::requireSameGeometry(
        "capture", info.geometry(), dram::paperGeometry()));

    for (const std::string &scheme :
         registry::schemeRegistry().names()) {
        sim::RunMetrics first;
        bool have_first = false;
        for (std::uint32_t shards : {1u, 4u, 16u}) {
            const sim::RunMetrics m = sim::runExperiment(
                replaySpec(scheme, path, info.records, shards));
            EXPECT_EQ(m.acts, info.records) << scheme;
            if (!have_first) {
                first = m;
                have_first = true;
                continue;
            }
            // One outcome per scheme, no matter how it is sharded.
            EXPECT_EQ(m.acts, first.acts) << scheme;
            EXPECT_EQ(m.rfmIssued, first.rfmIssued) << scheme;
            EXPECT_EQ(m.preventiveRefreshes,
                      first.preventiveRefreshes)
                << scheme;
            EXPECT_EQ(m.throttleStalls, first.throttleStalls)
                << scheme;
            EXPECT_EQ(m.bitFlips, first.bitFlips) << scheme;
            EXPECT_EQ(m.maxDisturbance, first.maxDisturbance)
                << scheme;
            EXPECT_EQ(m.simTicks, first.simTicks) << scheme;
        }
    }
}

TEST(SystemCaptureReplay, CaptureIsByteDeterministic)
{
    // Same path twice: the meta line embeds the spec (including the
    // record path), so determinism is judged on identical specs.
    const std::string path = tmpPath("system_capture_det");
    sim::runExperiment(systemCaptureSpec(path));
    const std::vector<std::uint8_t> first = readFile(path);
    sim::runExperiment(systemCaptureSpec(path));
    EXPECT_EQ(readFile(path), first);
}

TEST(SystemCaptureReplay, RecordingDoesNotPerturbTheRun)
{
    sim::ExperimentSpec plain = systemCaptureSpec("");
    plain.record.clear();
    const sim::RunMetrics bare = sim::runExperiment(plain);
    const sim::RunMetrics taped = sim::runExperiment(
        systemCaptureSpec(tmpPath("system_capture_tap")));
    EXPECT_EQ(bare.acts, taped.acts);
    EXPECT_EQ(bare.simTicks, taped.simTicks);
    EXPECT_DOUBLE_EQ(bare.aggIpc, taped.aggIpc);
}

/**
 * The System and the engine drive one protection protocol
 * (dram::Protection), so replaying a System capture through the engine
 * must reproduce each bank's tracker history: its ACTs in commit
 * order, an RFM or MRR skip right after the ACT that brings RAA to
 * RFM_TH (the System fences the bank until then) and ARRs before the
 * bank's next ACT. Only REF placement and ACT ticks differ (the engine
 * runs its own max-rate clock), so the schemes are those whose tracker
 * state depends on neither. Left out: graphene, rfm-graphene and cbt
 * reset their tables on tREFW epochs of the ACT tick, twice prunes at
 * every REF, and blockhammer throttles and rotates its filters by
 * tick.
 */
class SystemEngineAgreement
    : public ::testing::TestWithParam<std::tuple<const char *, std::uint32_t>>
{
};

TEST_P(SystemEngineAgreement, ReplayOfTheCaptureAgrees)
{
    const auto [scheme, channels] = GetParam();
    const std::string path = tmpPath(
        std::string("agree_") + scheme + std::to_string(channels));
    sim::ExperimentSpec live_spec;
    live_spec.scheme = scheme;
    live_spec.workload = "mix-high";
    live_spec.attack = "multi-sided";
    live_spec.flipTh = 1500;
    // A low adaptive threshold: Mithril+ both issues and skips RFMs.
    live_spec.adTh = 20;
    live_spec.cores = 4;
    live_spec.instrPerCore = 100000;
    live_spec.channels = channels;
    live_spec.telemetry = true;
    live_spec.record = path;
    const sim::RunMetrics live = sim::runExperiment(live_spec);
    ASSERT_GT(live.acts, 0u);

    sim::ExperimentSpec replay_spec =
        replaySpec(scheme, path, live.acts, 0);
    replay_spec.flipTh = live_spec.flipTh;
    replay_spec.adTh = live_spec.adTh;
    replay_spec.channels = channels;
    replay_spec.telemetry = true;
    const sim::RunMetrics replay = sim::runExperiment(replay_spec);
    EXPECT_EQ(replay.acts, live.acts);

    const auto &sys = live.telemetry;
    const auto &eng = replay.telemetry;
    auto trackerEntries = [](const std::map<std::string, double> &m) {
        std::map<std::string, double> out;
        for (const auto &[name, value] : m) {
            if (name.rfind("tracker.", 0) == 0)
                out.emplace(name, value);
        }
        return out;
    };
    EXPECT_EQ(trackerEntries(eng), trackerEntries(sys));

    // The engine settles owed work at once; the System may stop with
    // one RFM (or skip) and one ACT's ARRs still owed per bank.
    const double banks = sim::SystemConfig{}.geometry.banksPerRank *
                         static_cast<double>(channels);
    const double sys_rfm =
        sys.at("mc.rfm_issued") + sys.at("mc.rfm_skipped_mrr");
    const double eng_rfm =
        eng.at("engine.rfms") + eng.at("engine.rfm_skipped_mrr");
    EXPECT_GE(eng_rfm, sys_rfm);
    EXPECT_LE(eng_rfm, sys_rfm + banks);
    const double sys_arr = sys.at("mc.arr_executed");
    const double eng_arr = eng.at("engine.arr_executed");
    EXPECT_GE(eng_arr, sys_arr);
    EXPECT_LE(eng_arr, sys_arr + banks);
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    RefIndependentSchemes, SystemEngineAgreement,
    ::testing::Combine(::testing::Values("none", "mithril", "mithril+",
                                         "parfm", "para"),
                       ::testing::Values(1u, 2u)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name + "_ch" + std::to_string(std::get<1>(info.param));
    });

TEST(EngineCaptureReplay, RunExperimentRecordThenReplayAgrees)
{
    // The runExperiment-level engine capture path: record= on a
    // source= run captures the exact stream prefix the run consumed,
    // and a source=act-trace run of the same scheme reproduces it.
    const std::string path = tmpPath("engine_record");
    sim::ExperimentSpec rec;
    rec.scheme = "graphene";
    rec.attack = "multi-sided";
    rec.source = "attack";
    rec.engineActs = 30000;
    rec.record = path;
    const sim::RunMetrics live = sim::runExperiment(rec);
    EXPECT_EQ(live.acts, 30000u);
    EXPECT_EQ(engine::actTraceInfo(path).records, 30000u);

    for (std::uint32_t shards : {1u, 4u}) {
        const sim::RunMetrics replay = sim::runExperiment(
            replaySpec("graphene", path, 30000, shards));
        EXPECT_EQ(replay.acts, live.acts);
        EXPECT_EQ(replay.rfmIssued, live.rfmIssued);
        EXPECT_EQ(replay.preventiveRefreshes,
                  live.preventiveRefreshes);
        EXPECT_EQ(replay.bitFlips, live.bitFlips);
        EXPECT_EQ(replay.maxDisturbance, live.maxDisturbance);
        EXPECT_EQ(replay.simTicks, live.simTicks);
    }
}

// ------------------------------------------------ writer validation

TEST(ActTraceWriter, RejectsIllegalAppends)
{
    const dram::Geometry geom = smallGeometry(4, 100);
    {
        engine::ActTraceWriter writer(tmpPath("w_bank"), geom, 1, "");
        EXPECT_THROW(writer.append(4, 0, 0), SpecError);
    }
    {
        engine::ActTraceWriter writer(tmpPath("w_row"), geom, 1, "");
        EXPECT_THROW(writer.append(0, 100, 0), SpecError);
    }
    {
        engine::ActTraceWriter writer(tmpPath("w_tick"), geom, 1, "");
        writer.append(0, 1, 500);
        writer.append(0, 2, 500);  // Equal ticks are legal...
        EXPECT_THROW(writer.append(0, 3, 499), SpecError);  // ...regressions not.
        writer.append(1, 1, 10);   // Other banks are independent.
    }
    {
        engine::ActTraceWriter writer(tmpPath("w_neg"), geom, 1, "");
        EXPECT_THROW(writer.append(0, 1, -1), SpecError);
    }
    {
        engine::ActTraceWriter writer(tmpPath("w_fin"), geom, 1, "");
        writer.append(0, 1, 0);
        writer.finalize();
        writer.finalize();  // Idempotent.
        EXPECT_THROW(writer.append(0, 2, 1), SpecError);
    }
    EXPECT_THROW(
        engine::ActTraceWriter("/nonexistent-dir/x.acttrace", geom,
                               1, ""),
        SpecError);
}

TEST(ActTraceWriter, UnfinalizedFileDoesNotParse)
{
    // A capture that dies before finalize() — here: the writer is
    // destroyed mid-capture, as exception unwind would — must NOT
    // leave a parseable file. The destructor closes without writing
    // the footer instead of "helpfully" finalizing partial data.
    const std::string path = tmpPath("w_crash");
    std::string captured;
    setLogCapture(&captured);
    {
        engine::ActTraceWriter writer(path, smallGeometry(), 1, "");
        for (int i = 0; i < 10000; ++i)
            writer.append(0, 1, i);
        // No finalize().
    }
    setLogCapture(nullptr);
    EXPECT_NE(captured.find("abandoned without finalize"),
              std::string::npos)
        << captured;
    EXPECT_THROW(engine::actTraceInfo(path), SpecError);
}

// ------------------------------------------------- corrupt inputs

/** One small, fully understood trace for surgical byte patches:
 *  empty meta, so the first chunk header sits at offset 48 and the
 *  first block header at 56. */
std::string
patchableTrace(const std::string &name, const std::vector<Rec> &recs,
               std::uint32_t banks = 4, std::uint32_t rows = 4096)
{
    const std::string path = tmpPath(name);
    writeTrace(path, smallGeometry(banks, rows), 1, "", recs);
    return path;
}

constexpr std::size_t kHeaderBytes = 48;  // magic+geometry+seed+len.

TEST(ActTraceCorrupt, TruncatedHeaderAndFooter)
{
    const std::string path =
        patchableTrace("c_trunc", randomStream(5, smallGeometry(4), 500));
    const std::vector<std::uint8_t> valid = readFile(path);
    ASSERT_GT(valid.size(), kHeaderBytes);

    const std::size_t cuts[] = {0,
                                5,
                                19,
                                20,
                                30,
                                kHeaderBytes - 1,
                                kHeaderBytes + 5,
                                valid.size() / 2,
                                valid.size() - 25,
                                valid.size() - 8,
                                valid.size() - 1};
    for (std::size_t cut : cuts) {
        std::vector<std::uint8_t> bytes(valid.begin(),
                                        valid.begin() +
                                            static_cast<long>(cut));
        const std::string mutated = tmpPath("c_trunc_cut");
        writeFile(mutated, bytes);
        EXPECT_THROW(drainFile(mutated), SpecError) << "cut " << cut;
    }
}

TEST(ActTraceCorrupt, BadMagicRejected)
{
    const std::string path =
        patchableTrace("c_magic", {{0, 1, 0}, {1, 2, 3}});
    std::vector<std::uint8_t> bytes = readFile(path);
    bytes[0] ^= 0xff;
    writeFile(path, bytes);
    EXPECT_THROW(engine::actTraceInfo(path), SpecError);
}

TEST(ActTraceCorrupt, GeometryMismatchRejectedAtTheRegistry)
{
    const std::string path =
        patchableTrace("c_geom", {{0, 1, 0}}, /*banks=*/4);
    ParamSet params;
    params.set("trace", path);
    const dram::Geometry other = smallGeometry(/*banks=*/8);
    try {
        registry::makeActSource("act-trace", params,
                                {dram::ddr5_4800(), other, 6250, 42});
        FAIL() << "geometry mismatch not detected";
    } catch (const SpecError &err) {
        EXPECT_NE(std::string(err.what()).find("geometry mismatch"),
                  std::string::npos)
            << err.what();
    }

    // ...and the matching geometry is accepted.
    const dram::Geometry same = smallGeometry(4);
    EXPECT_NE(registry::makeActSource(
                  "act-trace", params,
                  {dram::ddr5_4800(), same, 6250, 42}),
              nullptr);
}

TEST(ActTraceCorrupt, OutOfRangeBankRejected)
{
    const std::string path =
        patchableTrace("c_bank", {{0, 1, 0}, {0, 2, 5}});
    std::vector<std::uint8_t> bytes = readFile(path);
    // Index block entries start 12 bytes into the index (magic +
    // chunk count) plus 12 per chunk header entry; the bank field is
    // first.
    const std::uint64_t index_offset =
        readU64(bytes, bytes.size() - 24);
    patchU32(bytes, static_cast<std::size_t>(index_offset) + 24,
             0xffff);
    writeFile(path, bytes);
    try {
        drainFile(path);
        FAIL() << "out-of-range bank not detected";
    } catch (const SpecError &err) {
        EXPECT_NE(std::string(err.what())
                      .find("outside the declared geometry"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ActTraceCorrupt, OutOfRangeRowRejected)
{
    // Shrink the declared geometry under the rows actually encoded:
    // decode must reject the row, not hand it to the engine.
    const std::string path =
        patchableTrace("c_row", {{0, 3000, 0}, {0, 3001, 5}});
    std::vector<std::uint8_t> bytes = readFile(path);
    patchU32(bytes, 32, /*rowsPerBank=*/16);
    writeFile(path, bytes);
    try {
        drainFile(path);
        FAIL() << "out-of-range row not detected";
    } catch (const SpecError &err) {
        EXPECT_NE(std::string(err.what())
                      .find("outside the declared geometry"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ActTraceCorrupt, PayloadEndingMidRecordRejected)
{
    // One record (row=5, tick=7): payload is exactly two 1-byte
    // varints at offset 68. Setting the continuation bit on the
    // first makes the row varint swallow the tick byte and the tick
    // read run off the payload.
    const std::string path = patchableTrace("c_midrec", {{0, 5, 7}});
    std::vector<std::uint8_t> bytes = readFile(path);
    ASSERT_EQ(bytes[68], 5u);
    ASSERT_EQ(bytes[69], 7u);
    bytes[68] |= 0x80;
    writeFile(path, bytes);
    try {
        drainFile(path);
        FAIL() << "mid-record payload end not detected";
    } catch (const SpecError &err) {
        EXPECT_NE(std::string(err.what()).find("ends mid-record"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ActTraceCorrupt, TrailingPayloadBytesRejected)
{
    // Two same-bank records = 4 payload bytes. Claim only one record
    // everywhere (block header, index, footer): the sizes stay
    // consistent, but decoding leaves 2 undecoded bytes.
    const std::string path =
        patchableTrace("c_trail", {{0, 5, 7}, {0, 6, 9}});
    std::vector<std::uint8_t> bytes = readFile(path);
    const std::uint64_t index_offset =
        readU64(bytes, bytes.size() - 24);
    patchU32(bytes, 60, 1);  // Block header count.
    patchU32(bytes, static_cast<std::size_t>(index_offset) + 28,
             1);             // Index block count.
    patchU32(bytes, bytes.size() - 16, 1);  // Footer records (lo).
    patchU32(bytes, bytes.size() - 12, 0);  // Footer records (hi).
    writeFile(path, bytes);
    try {
        drainFile(path);
        FAIL() << "trailing payload bytes not detected";
    } catch (const SpecError &err) {
        EXPECT_NE(std::string(err.what()).find("trailing bytes"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ActTraceCorrupt, ImplausibleGeometryRejectedBeforeAllocating)
{
    // A crafted header declaring billions of banks must die as a
    // SpecError at parse, not as a multi-gigabyte perBank allocation
    // (which would escape the sweep runner's per-job error
    // handling) — including values whose uint32 bank product wraps
    // back to something small.
    const std::string path = patchableTrace("c_geom_huge", {{0, 1, 0}});
    for (std::uint32_t banks : {0xf0000000u, 0x40000000u}) {
        std::vector<std::uint8_t> bytes = readFile(path);
        patchU32(bytes, 28, banks);  // banksPerRank field.
        const std::string mutated = tmpPath("c_geom_huge_mut");
        writeFile(mutated, bytes);
        try {
            drainFile(mutated);
            FAIL() << "implausible geometry not detected";
        } catch (const SpecError &err) {
            EXPECT_NE(std::string(err.what())
                          .find("implausible geometry"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(ActTraceCorrupt, TrailingIndexBytesRejected)
{
    // Garbage spliced between the last index entry and the footer
    // leaves every offset/count check satisfied; only a "the index
    // must be fully consumed" check can catch it.
    const std::string path =
        patchableTrace("c_idxtrail", {{0, 5, 7}, {1, 6, 9}});
    std::vector<std::uint8_t> bytes = readFile(path);
    const std::vector<std::uint8_t> footer(bytes.end() - 24,
                                           bytes.end());
    bytes.resize(bytes.size() - 24);
    bytes.insert(bytes.end(), {0xde, 0xad, 0xbe, 0xef});
    bytes.insert(bytes.end(), footer.begin(), footer.end());
    writeFile(path, bytes);
    try {
        drainFile(path);
        FAIL() << "trailing index bytes not detected";
    } catch (const SpecError &err) {
        EXPECT_NE(std::string(err.what()).find("trailing bytes"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ActTraceCorrupt, FuzzedMutationsNeverEscapeSpecError)
{
    // The ASan-run corpus (the CI sanitize job executes this test
    // under ASan/UBSan): deterministic mutations of a valid trace
    // must either parse and drain cleanly or throw SpecError. Any
    // other exception, crash, hang, or sanitizer report is a format
    // hole.
    const dram::Geometry geom = smallGeometry(8);
    const std::string valid_path = tmpPath("fuzz_valid");
    writeTrace(valid_path, geom, 11, "fuzz",
               randomStream(11, geom, 3000));
    const std::vector<std::uint8_t> valid = readFile(valid_path);

    std::mt19937_64 rng(2026);
    const std::string path = tmpPath("fuzz_case");
    std::size_t parsed = 0, rejected = 0;
    for (int iter = 0; iter < 300; ++iter) {
        std::vector<std::uint8_t> bytes = valid;
        switch (rng() % 4) {
          case 0:  // Truncate anywhere.
            bytes.resize(rng() % (bytes.size() + 1));
            break;
          case 1:  // Flip one byte.
            if (!bytes.empty())
                bytes[rng() % bytes.size()] ^=
                    static_cast<std::uint8_t>(1 + rng() % 255);
            break;
          case 2: {  // Overwrite a random u32.
            if (bytes.size() >= 4) {
                const std::size_t off = rng() % (bytes.size() - 3);
                for (int i = 0; i < 4; ++i)
                    bytes[off + i] =
                        static_cast<std::uint8_t>(rng());
            }
            break;
          }
          default: {  // Splice a random slice over another offset.
            if (bytes.size() >= 16) {
                const std::size_t n = 1 + rng() % 64;
                const std::size_t src =
                    rng() % (bytes.size() - std::min(
                                                n, bytes.size() - 1));
                const std::size_t dst =
                    rng() % (bytes.size() - std::min(
                                                n, bytes.size() - 1));
                for (std::size_t i = 0;
                     i < n && src + i < bytes.size() &&
                     dst + i < bytes.size();
                     ++i)
                    bytes[dst + i] = bytes[src + i];
            }
            break;
          }
        }
        writeFile(path, bytes);
        try {
            drainFile(path);
            ++parsed;
        } catch (const SpecError &) {
            ++rejected;
        }
    }
    // The corpus must actually exercise the rejection paths (and a
    // benign mutation — e.g. inside the meta string — may parse).
    EXPECT_GT(rejected, 100u);
    EXPECT_EQ(parsed + rejected, 300u);
}

TEST(ActTraceCorrupt, NonRegularPathsRejectedWithoutBlocking)
{
    const std::string dir = tmpPath("c_dir");
    ::mkdir(dir.c_str(), 0700);
    try {
        engine::actTraceInfo(dir);
        ADD_FAILURE() << "a directory parsed as a trace";
    } catch (const SpecError &err) {
        EXPECT_NE(std::string(err.what()).find("is a directory"),
                  std::string::npos)
            << err.what();
    }
    ::rmdir(dir.c_str());

    // A reader that opens a FIFO blocks until a writer appears. The
    // helper plays that writer after about a second, so a blocking
    // reader ends (late) instead of hanging the suite; the reader
    // must have failed before the helper ever ran.
    const std::string fifo = tmpPath("c_fifo");
    std::remove(fifo.c_str());
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool helper_ran = false;
    std::thread helper([&] {
        std::unique_lock<std::mutex> lock(mu);
        if (cv.wait_for(lock, std::chrono::seconds(1),
                        [&] { return done; }))
            return;
        helper_ran = true;
        lock.unlock();
        // Succeeds only while a reader is waiting in open().
        const int fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
        if (fd >= 0)
            ::close(fd);
    });
    std::string error;
    bool failed_before_helper = false;
    try {
        engine::actTraceInfo(fifo);
    } catch (const SpecError &err) {
        error = err.what();
        std::lock_guard<std::mutex> lock(mu);
        failed_before_helper = !helper_ran;
    } catch (const std::exception &err) {
        error = err.what(); // Fails below; the helper still joins.
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        done = true;
    }
    cv.notify_one();
    helper.join();
    std::remove(fifo.c_str());
    EXPECT_TRUE(failed_before_helper) << "error: " << error;
    EXPECT_NE(error.find("not a regular file"), std::string::npos)
        << error;
}

// ----------------------------------------------- runner integration

TEST(ActTraceRunner, CorruptTraceFailsItsJobNotTheSweep)
{
    const std::string path = tmpPath("runner_corrupt");
    writeFile(path, {'n', 'o', 't', ' ', 'a', ' ', 't', 'r', 'a',
                     'c', 'e'});

    runner::SweepSpec spec;
    spec.schemes = {"mithril", "para"};
    spec.sources = {"act-trace"};
    spec.tunables.set("trace", path);
    spec.engineActs = 1000;

    runner::RunnerOptions options;
    options.jobs = 1;
    options.progress = false;
    const runner::SweepResult result =
        runner::SweepRunner(options).run(spec);

    ASSERT_EQ(result.results.size(), 2u);
    EXPECT_EQ(result.failedCount(), 2u);
    for (const runner::JobResult &job : result.results) {
        EXPECT_TRUE(job.failed());
        EXPECT_NE(job.error.find("act-trace"), std::string::npos)
            << job.error;
    }

    std::ostringstream os;
    runner::TableSink().write(result, os);
    EXPECT_NE(os.str().find("FAILED"), std::string::npos) << os.str();
}

TEST(ActTraceRunner, RecordNeedsASingleJobGrid)
{
    setLogThrowOnFatal(true);
    EXPECT_THROW(runner::SweepSpec::fromParams(ParamSet::fromString(
                     "schemes=mithril,para record=x.acttrace")),
                 std::runtime_error);
    // A single-job grid is accepted and carries the path per job.
    const runner::SweepSpec ok = runner::SweepSpec::fromParams(
        ParamSet::fromString("schemes=mithril record=x.acttrace"));
    setLogThrowOnFatal(false);
    const std::vector<runner::Job> jobs = ok.expand();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].spec.record, "x.acttrace");
}

TEST(ActTraceRunner, RecordingOverTheReplayedTraceIsRejected)
{
    // record= onto the trace= being replayed would truncate the
    // input before the reader opens it; the job must fail before any
    // byte is written.
    const std::string path = tmpPath("record_over_trace");
    writeTrace(path, dram::paperGeometry(), 1, "",
               {{0, 1, 0}, {1, 2, 3}});
    const std::vector<std::uint8_t> before = readFile(path);

    sim::ExperimentSpec spec = replaySpec("mithril", path, 2, 0);
    spec.record = path;
    EXPECT_THROW(sim::runExperiment(spec), SpecError);
    EXPECT_EQ(readFile(path), before);  // Input untouched.

    // Aliased spellings of the same file must be caught too (the
    // guard compares file identity, not strings).
    const std::string aliased = tmpPath("record_over_trace_link");
    std::remove(aliased.c_str());
    ASSERT_EQ(
        std::system(("ln -s " + path + " " + aliased).c_str()), 0);
    spec.record = aliased;
    EXPECT_THROW(sim::runExperiment(spec), SpecError);
    EXPECT_EQ(readFile(path), before);

    // A different output path re-captures the replay fine.
    spec.record = tmpPath("record_over_trace_copy");
    const sim::RunMetrics m = sim::runExperiment(spec);
    EXPECT_EQ(m.acts, 2u);
    EXPECT_EQ(engine::actTraceInfo(spec.record).records, 2u);

    // The guard also covers the instruction-trace source's input
    // ("trace-file="), not just act-trace's "trace=".
    const std::string instr_trace = tmpPath("record_over_instr.trc");
    {
        std::ofstream out(instr_trace);
        out << "1 0x1000 R\n1 0x2000 R\n";
    }
    sim::ExperimentSpec tf;
    tf.scheme = "mithril";
    tf.source = "trace-file";
    tf.extras.set("trace-file", instr_trace);
    tf.engineActs = 2;
    tf.record = instr_trace;
    EXPECT_THROW(sim::runExperiment(tf), SpecError);
    EXPECT_FALSE(readFile(instr_trace).empty());  // Not truncated.
}

TEST(ActTraceRunner, RecordAndTraceEventsOnOneFileAreRejected)
{
    // The event trace is written after the capture is finalized, so
    // one path for both used to leave Chrome JSON where the ACT trace
    // should be, with the job reported ok. Both spellings of one file
    // must fail the job before it writes anything.
    EXPECT_THROW(sim::ExperimentSpec::parse(ParamSet::fromString(
                     "record=x.out trace-events=x.out")),
                 SpecError);

    const std::string path = tmpPath("record_and_events");
    const std::string aliased = tmpPath("record_and_events_link");
    writeFile(path, {'k', 'e', 'e', 'p'});
    const std::vector<std::uint8_t> before = readFile(path);
    std::remove(aliased.c_str());
    ASSERT_EQ(
        std::system(("ln -s " + path + " " + aliased).c_str()), 0);

    for (const bool engine_job : {false, true}) {
        for (const std::string &events : {path, aliased}) {
            runner::SweepSpec spec;
            spec.schemes = {"mithril"};
            spec.cores = 2;
            spec.instrPerCore = 2000;
            if (engine_job) {
                spec.sources = {"attack"};
                spec.cases = {{"mix-high", "multi-sided"}};
                spec.engineActs = 1000;
            }
            spec.record = path;
            spec.traceEvents = events;

            runner::RunnerOptions options;
            options.jobs = 1;
            options.progress = false;
            const runner::SweepResult result =
                runner::SweepRunner(options).run(spec);
            ASSERT_EQ(result.results.size(), 1u);
            EXPECT_EQ(result.failedCount(), 1u)
                << "engine=" << engine_job << " events=" << events;
            EXPECT_NE(result.results[0].error.find("trace-events="),
                      std::string::npos)
                << result.results[0].error;
            EXPECT_EQ(readFile(path), before);
        }
    }
}

TEST(ActTraceRunner, RecordRoundTripsThroughDescribe)
{
    sim::ExperimentSpec spec;
    spec.record = "foo.acttrace";
    const sim::ExperimentSpec back = sim::ExperimentSpec::parse(
        ParamSet::fromString(spec.describe()));
    EXPECT_EQ(back.record, "foo.acttrace");
    // ...and the default stays out of describe(), keeping the
    // canonical line of record-free specs unchanged.
    EXPECT_EQ(sim::ExperimentSpec{}.describe().find("record="),
              std::string::npos);
}

// --------------------------------------------------------- golden

// Frozen replay outcome of the committed golden trace under Mithril
// (paper geometry, flip=6250). Regenerate only with the golden trace
// itself, for a deliberate format or engine-semantics change.
constexpr std::uint64_t kFrozenRfms = 20;
constexpr std::uint64_t kFrozenPreventive = 8;
constexpr std::uint64_t kFrozenBitFlips = 0;
constexpr Tick kFrozenSimTicks = 39916400;

const std::string kGoldenTrace = std::string(MITHRIL_SOURCE_DIR) +
                                 "/tests/golden/acttrace_v1.bin";
const std::string kGoldenDescribe =
    std::string(MITHRIL_SOURCE_DIR) +
    "/tests/golden/acttrace_v1.describe.txt";

TEST(ActTraceGolden, DescribeMatchesCommittedDump)
{
    const engine::ActTraceInfo info =
        engine::actTraceInfo(kGoldenTrace);
    std::ifstream golden(kGoldenDescribe);
    ASSERT_TRUE(golden.good()) << kGoldenDescribe;
    std::stringstream want;
    want << golden.rdbuf();
    EXPECT_EQ(info.describe(), want.str())
        << "Format drift: regenerate tests/golden/acttrace_v1.* "
           "ONLY for a deliberate, versioned format change.";
}

TEST(ActTraceGolden, ReplayMatchesFrozenOutcome)
{
    // The committed trace replayed under Mithril at the paper
    // geometry must reproduce this frozen outcome on every platform
    // and every future PR. Shard count must not matter.
    const engine::ActTraceInfo info =
        engine::actTraceInfo(kGoldenTrace);
    ASSERT_EQ(info.records, 3000u);

    sim::RunMetrics first;
    bool have_first = false;
    for (std::uint32_t shards : {1u, 4u}) {
        const sim::RunMetrics m = sim::runExperiment(
            replaySpec("mithril", kGoldenTrace, 3000, shards));
        EXPECT_EQ(m.acts, 3000u);
        if (!have_first) {
            first = m;
            have_first = true;
            continue;
        }
        EXPECT_EQ(m.rfmIssued, first.rfmIssued);
        EXPECT_EQ(m.preventiveRefreshes, first.preventiveRefreshes);
        EXPECT_EQ(m.simTicks, first.simTicks);
    }
    // Frozen values (regenerate only on a deliberate format or
    // engine-semantics change, with the golden trace).
    EXPECT_EQ(first.acts, 3000u);
    EXPECT_EQ(first.rfmIssued, kFrozenRfms);
    EXPECT_EQ(first.preventiveRefreshes, kFrozenPreventive);
    EXPECT_EQ(first.bitFlips, kFrozenBitFlips);
    EXPECT_EQ(first.simTicks, kFrozenSimTicks);
}

TEST(ActTraceGolden, WriterReencodesTheGoldenByteForByte)
{
    // The golden trace is one chunk, so writing its records back in
    // canonical order must reproduce every byte: this pins the
    // writer's encoding, not just the reader's.
    engine::ActTraceSource source(kGoldenTrace);
    const engine::ActTraceInfo info = source.info();
    ASSERT_EQ(info.chunks, 1u);
    dram::Geometry geom = dram::paperGeometry();
    geom.channels = info.channels;
    geom.ranksPerChannel = info.ranksPerChannel;
    geom.banksPerRank = info.banksPerRank;
    geom.rowsPerBank = info.rowsPerBank;
    const std::string path = tmpPath("golden_reencoded");
    writeTrace(path, geom, info.seed, info.meta, drain(source));
    EXPECT_EQ(readFile(path), readFile(kGoldenTrace));
}

} // namespace
} // namespace mithril
