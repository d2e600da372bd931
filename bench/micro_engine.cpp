/**
 * @file
 * ActStream engine throughput bench: acts/sec per scheme at 16 banks —
 * the batched run() vs the per-ACT activate() step (the "scalar"
 * column), plus the sharded multi-threaded engine across a `threads=`
 * axis. The headline numbers of the engine refactor (batching) and
 * the shard refactor (scaling).
 *
 * The stream is a synthetic per-bank double-sided hammer generated
 * straight into the SoA batches (no generator/address-map cost); the
 * sharded runs use native per-shard slices of the same stream (no
 * filtering cost), and the ground-truth oracle is disabled, so the
 * measurement isolates exactly what the optimized paths touch:
 * tracker dispatch, the engine's REF/RFM interleaving bookkeeping,
 * and the shard fan-out/merge. Sweeps and replays keep the oracle on,
 * so each scheme also gets one single-thread batched run with it
 * enabled (oracle_acts_per_sec).
 *
 * Knobs: acts=N per timed run (default 2M), banks=N (default 16),
 * threads=LIST sharded thread counts (default "1,4"), shards=N shard
 * count override (default 0 = one shard per worker thread),
 * json=FILE writes the BENCH_engine.json artifact (schema v4: the
 * cpu-model/core-count meta fields on top of v3's host/build "meta"
 * block and per-point phase breakdown — source-pull,
 * tracker-dispatch, join seconds — plus each scheme's
 * oracle_acts_per_sec).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "engine/act_stream_engine.hh"
#include "engine/sharded_engine.hh"
#include "registry/scheme_registry.hh"
#include "runner/thread_pool.hh"

using namespace mithril;

namespace
{

/** Zero-cost stream: every bank hammers its own double-sided pair,
 *  banks round-robin inside each batch. Strength-reduced — the bank
 *  cycles and the row toggles 2000/2002 on each round's parity, the
 *  identical stream to bank = produced % banks,
 *  row = 2000 + 2*((produced / banks) % 2) with no divide in the
 *  source, so the measurement times the engine, not the generator. */
class HammerSource : public engine::ActSource
{
  public:
    HammerSource(std::uint32_t banks, std::uint64_t count)
        : banks_(banks), count_(count)
    {
    }

    std::string name() const override { return "hammer-16"; }

    /** The sharded runs' slices: a ShardHammerSource per shard. */
    std::unique_ptr<engine::ActSource>
    shardSlice(BankId lo, BankId hi, std::uint64_t budget) override;

    std::size_t
    fill(engine::ActBatch &batch, std::size_t limit) override
    {
        std::size_t appended = 0;
        while (produced_ < count_ && appended < limit &&
               !batch.full()) {
            batch.push(bank_, row_);
            ++produced_;
            ++appended;
            if (++bank_ == banks_) {
                bank_ = 0;
                row_ ^= 2;  // 2000 <-> 2002 per round.
            }
        }
        return appended;
    }

  private:
    std::uint32_t banks_;
    std::uint64_t count_;
    std::uint64_t produced_ = 0;
    BankId bank_ = 0;
    RowId row_ = 2000;
};

/**
 * Native shard slice of HammerSource: only banks [lo, hi), with the
 * identical per-bank row subsequences (bank b's j-th activation is
 * row 2000 + 2*(j%2), and b receives ceil((count - b) / banks)
 * records of the global stream) — zero generation waste.
 */
class ShardHammerSource : public engine::ActSource
{
  public:
    ShardHammerSource(std::uint32_t banks, std::uint64_t count,
                      BankId lo, BankId hi)
        : banks_(banks), count_(count), lo_(lo), hi_(hi), bank_(lo)
    {
    }

    std::string name() const override { return "hammer-shard"; }

    std::size_t
    fill(engine::ActBatch &batch, std::size_t limit) override
    {
        // Strength-reduced like HammerSource: the bank cycles
        // [lo, hi), roundBase_ carries round*banks, the row toggles
        // at each wrap — the same records as the divide form.
        std::size_t appended = 0;
        while (appended < limit && !batch.full()) {
            // The global index of bank's round-th record.
            const std::uint64_t global = roundBase_ + bank_;
            if (global >= count_) {
                if (bank_ + 1 == hi_)
                    break;  // Last (partial) round finished.
                advance();
                continue;
            }
            batch.push(bank_, row_);
            advance();
            ++appended;
        }
        return appended;
    }

  private:
    void
    advance()
    {
        if (++bank_ == hi_) {
            bank_ = lo_;
            roundBase_ += banks_;
            row_ ^= 2;  // 2000 <-> 2002 per round.
        }
    }

    std::uint32_t banks_;
    std::uint64_t count_;
    BankId lo_;
    BankId hi_;
    BankId bank_ = 0;
    std::uint64_t roundBase_ = 0;
    RowId row_ = 2000;
};

std::unique_ptr<engine::ActSource>
HammerSource::shardSlice(BankId lo, BankId hi, std::uint64_t budget)
{
    return std::make_unique<ShardHammerSource>(
        banks_, std::min(count_, budget), lo, hi);
}

engine::EngineConfig
makeEngineConfig(std::uint32_t banks, bool oracle = false)
{
    engine::EngineConfig cfg;
    cfg.timing = dram::ddr5_4800();
    cfg.geometry = dram::paperGeometry();
    cfg.geometry.channels = 1;
    cfg.geometry.ranksPerChannel = 1;
    cfg.geometry.banksPerRank = banks;
    cfg.flipTh = 6250;
    cfg.enableOracle = oracle;
    return cfg;
}

std::unique_ptr<trackers::RhProtection>
makeTracker(const std::string &scheme,
            const engine::EngineConfig &cfg)
{
    registry::SchemeKnobs knobs;
    knobs.flipTh = 6250;
    return registry::makeScheme(scheme, knobs.toParams(),
                                {cfg.timing, cfg.geometry});
}

/** acts/sec through run(), or through activate() one record at a
 *  time when `per_act`. */
double
measureActsPerSec(const std::string &scheme, std::uint32_t banks,
                  std::uint64_t acts, bool per_act,
                  bool oracle = false)
{
    const engine::EngineConfig cfg = makeEngineConfig(banks, oracle);
    auto tracker = makeTracker(scheme, cfg);
    engine::ActStreamEngine eng(cfg, tracker.get());
    auto drive = [&](engine::ActSource &source) {
        if (!per_act)
            return eng.run(source);
        std::uint64_t n = 0;
        engine::forEachRecord(source, ~0ull,
                              [&](const engine::ActRecord &rec) {
                                  eng.activate(rec.bank, rec.row);
                                  ++n;
                              });
        return n;
    };

    // Warm up tables and branch predictors, untimed.
    HammerSource warmup(banks, acts / 8 + 1);
    drive(warmup);

    HammerSource source(banks, acts);
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t done = drive(source);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(t1 - t0).count();
    if (done != acts)
        fatal("engine consumed %llu of %llu acts",
              static_cast<unsigned long long>(done),
              static_cast<unsigned long long>(acts));
    return static_cast<double>(done) / seconds;
}

/** One sharded timing point, with the engine's phase breakdown. */
struct ShardedMeasurement
{
    double actsPerSec = 0.0;
    /** Wall seconds summed over shards, inside the timed run only. */
    double sourceSec = 0.0;   //!< Pulling batches from the source.
    double dispatchSec = 0.0; //!< Dispatching batches to the tracker.
    double joinSec = 0.0;     //!< Fan-out/merge beyond the slowest
                              //!< shard.
};

ShardedMeasurement
measureShardedActsPerSec(const std::string &scheme,
                         std::uint32_t banks, std::uint64_t acts,
                         std::uint32_t shards,
                         runner::ThreadPool *pool)
{
    engine::ShardedEngineConfig cfg;
    cfg.engine = makeEngineConfig(banks);
    cfg.shards = shards;
    cfg.pool = pool;
    cfg.telemetry.phases = true;
    engine::ShardedActStreamEngine eng(cfg, [&] {
        return makeTracker(scheme, cfg.engine);
    });

    auto stream = [&](std::uint64_t count) {
        return [count, banks] {
            return std::make_unique<HammerSource>(banks, count);
        };
    };

    eng.run(stream(acts / 8 + 1));  // Warm-up, untimed.

    // The phase profile accumulates across runs; snapshot after the
    // warm-up so the reported breakdown covers the timed run only.
    auto phase_sums = [&] {
        double source = 0.0, dispatch = 0.0;
        for (std::uint32_t s = 0; s < eng.parts().size(); ++s) {
            const auto &p = eng.shardTelemetry(s)->phases();
            source += p.sourceSec;
            dispatch += p.dispatchSec;
        }
        return std::pair<double, double>(source, dispatch);
    };
    const auto [source0, dispatch0] = phase_sums();
    const double join0 = eng.joinSec();

    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t done = eng.run(stream(acts));
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(t1 - t0).count();
    if (done != acts)
        fatal("sharded engine consumed %llu of %llu acts",
              static_cast<unsigned long long>(done),
              static_cast<unsigned long long>(acts));

    ShardedMeasurement m;
    m.actsPerSec = static_cast<double>(done) / seconds;
    const auto [source1, dispatch1] = phase_sums();
    m.sourceSec = source1 - source0;
    m.dispatchSec = dispatch1 - dispatch0;
    m.joinSec = eng.joinSec() - join0;
    return m;
}

struct ShardedPoint
{
    unsigned threads = 1;
    std::uint32_t shards = 1;
    double actsPerSec = 0.0;
    double sourceSec = 0.0;
    double dispatchSec = 0.0;
    double joinSec = 0.0;
};

struct SchemeResult
{
    std::string name;
    std::string display;
    double batched = 0.0;
    double scalar = 0.0;
    double oracle = 0.0;  //!< Batched, one thread, oracle on.
    std::vector<ShardedPoint> sharded;

    double speedup() const
    {
        return scalar > 0.0 ? batched / scalar : 0.0;
    }

    /** acts/sec of the threads=N point scaled to the threads=1 one. */
    double
    scalingAt(std::size_t i) const
    {
        return !sharded.empty() && sharded.front().actsPerSec > 0.0
                   ? sharded[i].actsPerSec /
                         sharded.front().actsPerSec
                   : 0.0;
    }
};

void
writeJson(const std::string &path, std::uint32_t banks,
          std::uint64_t acts, const std::vector<unsigned> &threads,
          std::uint32_t shard_override,
          const std::vector<SchemeResult> &results)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", path.c_str());
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"mithril.bench_engine.v4\",\n");
    bench::writeMetaJson(f, threads, shard_override);
    std::fprintf(f, "  \"banks\": %u,\n", banks);
    std::fprintf(f, "  \"acts_per_run\": %llu,\n",
                 static_cast<unsigned long long>(acts));
    std::fprintf(f, "  \"pattern\": \"per-bank double-sided\",\n");
    std::fprintf(f, "  \"oracle\": false,\n");
    std::fprintf(f, "  \"threads\": [");
    for (std::size_t i = 0; i < threads.size(); ++i)
        std::fprintf(f, "%s%u", i ? ", " : "", threads[i]);
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SchemeResult &r = results[i];
        std::fprintf(f,
                     "    {\"scheme\": \"%s\", \"display\": \"%s\", "
                     "\"batched_acts_per_sec\": %.0f, "
                     "\"scalar_acts_per_sec\": %.0f, "
                     "\"oracle_acts_per_sec\": %.0f, "
                     "\"speedup\": %.3f, \"sharded\": [",
                     r.name.c_str(), r.display.c_str(), r.batched,
                     r.scalar, r.oracle, r.speedup());
        for (std::size_t j = 0; j < r.sharded.size(); ++j) {
            const ShardedPoint &p = r.sharded[j];
            std::fprintf(f,
                         "%s{\"threads\": %u, \"shards\": %u, "
                         "\"acts_per_sec\": %.0f, "
                         "\"scaling\": %.3f, "
                         "\"source_sec\": %.4f, "
                         "\"dispatch_sec\": %.4f, "
                         "\"join_sec\": %.4f}",
                         j ? ", " : "", p.threads, p.shards, p.actsPerSec,
                         r.scalingAt(j), p.sourceSec, p.dispatchSec,
                         p.joinSec);
        }
        std::fprintf(f, "]}%s\n",
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchScale scale = bench::BenchScale::fromArgs(
        argc, argv, {"acts", "banks", "threads", "shards"});
    bench::rejectParallelKnobs(scale, "micro_engine");
    if (!scale.csvOut.empty())
        fatal("micro_engine emits json= only");
    const std::uint64_t acts =
        scale.params.getUint("acts", 2000000);
    const auto banks = scale.params.getUint32("banks", 16);
    const auto shard_override =
        scale.params.getUint32("shards", 0);
    if (acts == 0 || banks == 0)
        fatal("acts= and banks= must be positive");

    std::vector<unsigned> thread_counts;
    for (std::uint64_t t : scale.params.has("threads")
                               ? scale.params.getUintList("threads")
                               : std::vector<std::uint64_t>{1, 4}) {
        if (t == 0 || t > 1024)
            fatal("threads= entries must be in [1, 1024]");
        thread_counts.push_back(static_cast<unsigned>(t));
    }

    bench::banner("ActStream engine throughput (" +
                  std::to_string(banks) +
                  " banks, oracle off unless noted)");

    // One reused pool per thread count, shared by every scheme.
    std::vector<std::unique_ptr<runner::ThreadPool>> pools;
    for (unsigned t : thread_counts) {
        pools.push_back(
            t > 1 ? std::make_unique<runner::ThreadPool>(t)
                  : nullptr);  // threads=1 runs shards inline.
    }

    std::vector<SchemeResult> results;
    for (const std::string &scheme :
         registry::schemeRegistry().names()) {
        SchemeResult r;
        r.name = scheme;
        r.display = registry::schemeDisplay(scheme);
        r.batched = measureActsPerSec(scheme, banks, acts, false);
        r.scalar = measureActsPerSec(scheme, banks, acts, true);
        r.oracle = measureActsPerSec(scheme, banks, acts, false, true);
        for (std::size_t i = 0; i < thread_counts.size(); ++i) {
            ShardedPoint p;
            p.threads = thread_counts[i];
            p.shards = shard_override != 0
                           ? shard_override
                           : std::min<std::uint32_t>(p.threads,
                                                     banks);
            const ShardedMeasurement sm = measureShardedActsPerSec(
                scheme, banks, acts, p.shards, pools[i].get());
            p.actsPerSec = sm.actsPerSec;
            p.sourceSec = sm.sourceSec;
            p.dispatchSec = sm.dispatchSec;
            p.joinSec = sm.joinSec;
            r.sharded.push_back(p);
        }
        results.push_back(r);
    }

    std::vector<std::string> header = {"scheme", "batched Macts/s",
                                       "scalar Macts/s", "speedup",
                                       "oracle Macts/s"};
    for (unsigned t : thread_counts)
        header.push_back("sh@" + std::to_string(t) + "t Macts/s");
    header.push_back("scaling");
    TablePrinter table(header);
    for (const SchemeResult &r : results) {
        auto &row = table.beginRow()
                        .cell(r.display)
                        .num(r.batched / 1e6, 2)
                        .num(r.scalar / 1e6, 2)
                        .cell(formatFixed(r.speedup(), 2) + "x")
                        .num(r.oracle / 1e6, 2);
        for (const ShardedPoint &p : r.sharded)
            row.num(p.actsPerSec / 1e6, 2);
        row.cell(formatFixed(r.scalingAt(r.sharded.size() - 1), 2) +
                 "x");
    }
    std::printf("%s", table.str().c_str());
    std::printf(
        "\nReading: batched dispatch amortizes the virtual call, "
        "per-bank table lookup,\nand REF/RFM bookkeeping over whole "
        "per-bank runs; every tracker now has a\nbatch fast path. "
        "The sh@Nt columns run the bank partition as shards on an\n"
        "N-worker pool (deterministic merge, byte-identical output); "
        "'scaling' is the\nlargest thread count's acts/sec over the "
        "1-thread sharded run.\n'oracle' is batched single-thread "
        "dispatch with the ground-truth oracle on.\n");

    if (!scale.jsonOut.empty())
        writeJson(scale.jsonOut, banks, acts, thread_counts,
                  shard_override, results);
    return 0;
}
