/**
 * @file
 * The sharded ActStream engine: the bank partition of a
 * `dram::Geometry` split into contiguous shards (one per channel by
 * default, configurable down to one bank each), every shard running
 * the full single-threaded `ActStreamEngine` over its own banks on a
 * `runner::ThreadPool` worker, with a deterministic merge on join.
 *
 * Why this is *byte-identical* to the single-threaded engine at any
 * shard count and any pool size:
 *
 *  - Every bank is an independent virtual clock, and all engine
 *    bookkeeping (REF rotation, and the protection core's RFM cadence,
 *    ARR work, oracle rows and counters) is per-bank state.
 *  - Tracker state is per-bank by construction; the two historic
 *    exceptions — PARA's and PARFM's shared RNG — now draw from
 *    per-bank streams seeded via `RhProtection::bankSeed()`, so a
 *    bank's draw sequence depends only on (seed, bank).
 *  - Each shard therefore only needs the *per-bank subsequences* of
 *    the global activation stream for its banks, which is exactly
 *    what a `BankFilterSource` slice (or a caller-provided native
 *    slice) delivers. Cross-bank interleaving is irrelevant.
 *  - Each shard runs its own tracker instance (built by the same
 *    factory, observing a disjoint bank set) and its own oracle; the
 *    join reduces counters by sum, high-water marks by max, and the
 *    logic-op counter through `RhProtection::mergeStatsFrom()`. Each
 *    shard writes only its own slot, so the merged result is
 *    independent of completion order.
 *
 * Parallelism comes from an explicitly passed pool, else the ambient
 * `runner::ThreadPool::current()` when the run is already executing
 * inside a pool task (a sweep job that shards reuses the sweep's own
 * workers — no second pool, no oversubscription), else the shards run
 * inline on the calling thread.
 */

#ifndef MITHRIL_ENGINE_SHARDED_ENGINE_HH
#define MITHRIL_ENGINE_SHARDED_ENGINE_HH

#include <functional>
#include <memory>
#include <vector>

#include "engine/act_stream_engine.hh"
#include "runner/thread_pool.hh"
#include "telemetry/telemetry.hh"

namespace mithril::engine
{

/**
 * Restriction of a full activation stream to one shard's bank range
 * [lo, hi): pulls batches from the wrapped source, forwards matching
 * records, discards the rest, and stops after `budget` *global*
 * records — so every shard slices the same bounded prefix of the
 * stream and the shard union equals a single-threaded run of that
 * prefix exactly.
 */
class BankFilterSource : public ActSource
{
  public:
    BankFilterSource(std::unique_ptr<ActSource> inner, BankId lo,
                     BankId hi, std::uint64_t budget = ~0ull)
        : inner_(std::move(inner)), lo_(lo), hi_(hi), budget_(budget)
    {
    }

    std::string name() const override
    {
        return inner_->name() + "[" + std::to_string(lo_) + "," +
               std::to_string(hi_) + ")";
    }

    std::size_t fill(ActBatch &batch, std::size_t limit) override;

  private:
    std::unique_ptr<ActSource> inner_;
    BankId lo_;
    BankId hi_;
    std::uint64_t budget_;  //!< Remaining *global* records.

    /** Staging buffer of unfiltered records (pos_ .. size_ pending). */
    ActBatch buffer_;
    std::size_t pos_ = 0;
    std::size_t size_ = 0;
};

/** Sharded engine configuration. */
struct ShardedEngineConfig
{
    /** Per-shard engine configuration (geometry spans ALL banks; each
     *  shard simply only ever sees its own banks' records). */
    EngineConfig engine;

    /** Number of bank shards; 0 = one per channel. Clamped to the
     *  bank count. The shard partition never affects results — only
     *  the available parallelism. */
    std::uint32_t shards = 0;

    /** Worker pool for the shard runs. nullptr = use the ambient
     *  ThreadPool::current() when running inside a pool task, else
     *  run the shards inline on the calling thread. */
    runner::ThreadPool *pool = nullptr;

    /** What to collect (off by default). Each shard gets its own
     *  telemetry bundle; the accessors below merge deterministically
     *  in shard order, so sheets/traces are byte-identical at any
     *  shard/pool count. */
    telemetry::TelemetryConfig telemetry;
};

/** Multi-threaded bank-sharded ActStream engine. */
class ShardedActStreamEngine
{
  public:
    /** Builds one tracker instance per shard (nullptr = untracked). */
    using TrackerFactory =
        std::function<std::unique_ptr<trackers::RhProtection>()>;

    /** Builds one full-stream instance (wrapped in BankFilterSource
     *  per shard). Called once per shard, serially, in shard order. */
    using StreamFactory = std::function<std::unique_ptr<ActSource>()>;

    /** Builds one shard's native slice of the stream: only records of
     *  banks in [lo, hi), preserving per-bank subsequences of the
     *  global stream. */
    using SliceFactory = std::function<std::unique_ptr<ActSource>(
        std::uint32_t shard, BankId lo, BankId hi)>;

    ShardedActStreamEngine(const ShardedEngineConfig &config,
                           const TrackerFactory &make_tracker);

    /**
     * Drain the first `max_acts` records of the stream through the
     * shards and merge on join; returns total ACTs performed. Each
     * shard filters its own fresh copy of the stream, so the factory
     * must produce identical streams on every call (all registry
     * sources and generators do — they are deterministic in their
     * seed).
     */
    std::uint64_t run(const StreamFactory &make_stream,
                      std::uint64_t max_acts = ~0ull);

    /**
     * As run(), but with caller-provided native slices (no filtering
     * overhead). The slices bound themselves; the caller guarantees
     * each equals the global stream restricted to the shard's banks.
     */
    std::uint64_t runSliced(const SliceFactory &make_slice);

    // ------------------------------------------------ shard topology
    std::uint32_t shardCount() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }

    /** Bank range [lo, hi) of a shard. */
    std::pair<BankId, BankId> shardRange(std::uint32_t shard) const
    {
        const Shard &s = shards_.at(shard);
        return {s.lo, s.hi};
    }

    /** Shard owning a bank. */
    std::uint32_t shardFor(BankId bank) const;

    std::uint32_t numBanks() const { return numBanks_; }

    // ----------------------------------- merged aggregate counters
    std::uint64_t acts() const;
    std::uint64_t refs() const;
    std::uint64_t rfms() const;
    std::uint64_t preventiveRefreshes() const;

    /** Merged ground-truth oracle reductions. */
    double maxDisturbanceEver() const;
    std::uint64_t bitFlips() const;
    std::uint64_t flippedRows() const;

    /** Total tracker logic operations across all shards. */
    std::uint64_t logicOps() const;

    // ----------------------------------------- per-bank accessors
    Tick now(BankId bank) const { return engineFor(bank).now(bank); }
    std::uint64_t actsAt(BankId bank) const
    {
        return engineFor(bank).actsAt(bank);
    }
    std::uint64_t preventiveRefreshesAt(BankId bank) const
    {
        return engineFor(bank).preventiveRefreshesAt(bank);
    }

    /** The oracle that tracked this bank (its owning shard's). */
    const dram::RhOracle &oracleFor(BankId bank) const
    {
        return engineFor(bank).oracle();
    }

    /** A shard's tracker (nullptr when untracked). */
    trackers::RhProtection *tracker(std::uint32_t shard) const
    {
        return shards_.at(shard).tracker.get();
    }

    /**
     * Fold every shard tracker's statistics into `target` via
     * RhProtection::mergeStatsFrom() — the join protocol for
     * cross-bank stat counters (sums) and high-water marks (max).
     * `target` must be a fresh tracker of the same configuration, not
     * one of the shard trackers.
     */
    void mergeTrackerStatsInto(trackers::RhProtection &target) const;

    const ShardedEngineConfig &config() const { return config_; }

    // --------------------------------------------------- telemetry

    /** A shard's telemetry bundle (null when telemetry is off). */
    const telemetry::EngineTelemetry *
    shardTelemetry(std::uint32_t shard) const
    {
        return shards_.at(shard).telemetry.get();
    }

    /**
     * One fresh sheet per shard — its engine (`engine.*`, `oracle.*`),
     * tracker (`tracker.*`) and enabled collectors (`trace.*`,
     * `heatmap.*`) — folded in shard order: counters add, gauges max,
     * averages/histograms merge exactly. Deterministic at any
     * shard/pool count; needs no telemetry bundle.
     */
    telemetry::MetricSheet telemetrySheet() const;

    /** Tick-ordered merge of every shard's retained trace events
     *  (empty when event tracing is off). */
    std::vector<telemetry::TraceEvent> mergedEvents() const;

    /** Union of the per-shard heatmaps (banks are disjoint, so this
     *  is exact). Callable only when the heatmap is enabled. */
    telemetry::ActHeatmap mergedHeatmap() const;

    /** Wall seconds shard s spent inside its run loop (phase
     *  profiling only; 0 otherwise). */
    double shardWallSec(std::uint32_t shard) const
    {
        return slots_.at(shard).wallSec;
    }

    /** True when every per-shard result slot starts on its own cache
     *  line (the padding guarantee runShards() relies on). */
    bool shardSlotsCacheAligned() const;

    /** Wall seconds of join overhead: total runShards wall minus the
     *  slowest shard (phase profiling only). */
    double joinSec() const { return joinSec_; }

  private:
    struct Shard
    {
        BankId lo = 0;
        BankId hi = 0;
        std::unique_ptr<trackers::RhProtection> tracker;
        std::unique_ptr<telemetry::EngineTelemetry> telemetry;
        std::unique_ptr<ActStreamEngine> engine;
    };

    /** Per-shard result slot written by that shard's pool worker
     *  during runShards(). Padded to one cache line: every worker
     *  stores into its own line, so the hot loop never false-shares
     *  the result array. */
    struct alignas(64) ShardSlot
    {
        std::uint64_t done = 0;
        double wallSec = 0.0;
    };
    static_assert(sizeof(ShardSlot) == 64,
                  "ShardSlot must fill exactly one cache line");
    static_assert(alignof(ShardSlot) == 64,
                  "ShardSlot must start on a cache-line boundary");

    const ActStreamEngine &engineFor(BankId bank) const
    {
        return *shards_.at(shardFor(bank)).engine;
    }

    /** Run `sources[s]` through shard s, on the pool when one is
     *  available (explicit, else ambient), inline otherwise. */
    std::uint64_t
    runShards(std::vector<std::unique_ptr<ActSource>> &sources);

    ShardedEngineConfig config_;
    std::uint32_t numBanks_;
    std::vector<Shard> shards_;
    std::vector<ShardSlot> slots_;
    double joinSec_ = 0.0;
};

} // namespace mithril::engine

#endif // MITHRIL_ENGINE_SHARDED_ENGINE_HH
