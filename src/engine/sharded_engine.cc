#include "sharded_engine.hh"

#include <algorithm>

#include "common/failpoint.hh"
#include "common/logging.hh"

namespace mithril::engine
{

namespace
{

/** Resilience injection site: a shard body that throws or stalls —
 *  what a wedged worker looks like to the sweep watchdog. */
const failpoint::SiteRegistrar kFpShardDispatch{
    "engine.shard-dispatch",
    "fail or stall a shard body at dispatch "
    "(ShardedActStreamEngine::runShards) — exercises exception "
    "propagation through parallelFor and the job watchdog"};

} // namespace

// ------------------------------------------------ BankFilterSource

std::size_t
BankFilterSource::fill(ActBatch &batch, std::size_t limit)
{
    std::size_t appended = 0;
    while (appended < limit && !batch.full()) {
        if (pos_ == size_) {
            // Refill the staging buffer from the wrapped stream,
            // never pulling past the global budget.
            buffer_.clear();
            const auto want = static_cast<std::size_t>(
                std::min<std::uint64_t>(ActBatch::kCapacity,
                                        budget_));
            if (want == 0)
                break;
            size_ = inner_->fill(buffer_, want);
            pos_ = 0;
            if (size_ == 0)
                break;
            budget_ -= size_;
        }
        while (pos_ < size_ && appended < limit && !batch.full()) {
            const ActRecord rec = buffer_.record(pos_);
            if (rec.bank >= lo_ && rec.bank < hi_) {
                batch.push(rec.bank, rec.row, rec.tick);
                ++appended;
            }
            ++pos_;
        }
    }
    return appended;
}

// -------------------------------------------- ShardedActStreamEngine

ShardedActStreamEngine::ShardedActStreamEngine(
    const ShardedEngineConfig &config,
    const TrackerFactory &make_tracker)
    : config_(config), numBanks_(config.engine.geometry.totalBanks())
{
    MITHRIL_ASSERT(numBanks_ > 0);
    std::uint32_t shards = config_.shards;
    if (shards == 0)
        shards = config_.engine.geometry.channels;
    shards = std::max(1u, std::min(shards, numBanks_));
    config_.shards = shards;

    shards_.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
        Shard shard;
        // Balanced contiguous partition: shard s owns
        // [s*B/S, (s+1)*B/S).
        shard.lo = static_cast<BankId>(
            (static_cast<std::uint64_t>(numBanks_) * s) / shards);
        shard.hi = static_cast<BankId>(
            (static_cast<std::uint64_t>(numBanks_) * (s + 1)) /
            shards);
        MITHRIL_ASSERT(shard.hi > shard.lo);
        shard.tracker = make_tracker ? make_tracker() : nullptr;
        EngineConfig engine_config = config_.engine;
        if (config_.telemetry.any()) {
            shard.telemetry =
                std::make_unique<telemetry::EngineTelemetry>(
                    config_.telemetry, numBanks_);
            engine_config.telemetry = shard.telemetry.get();
        }
        shard.engine = std::make_unique<ActStreamEngine>(
            engine_config, shard.tracker.get());
        shards_.push_back(std::move(shard));
    }
    slots_.assign(shards_.size(), ShardSlot{});
}

bool
ShardedActStreamEngine::shardSlotsCacheAligned() const
{
    for (const ShardSlot &slot : slots_) {
        if ((reinterpret_cast<std::uintptr_t>(&slot) & 63u) != 0)
            return false;
    }
    return true;
}

std::uint32_t
ShardedActStreamEngine::shardFor(BankId bank) const
{
    MITHRIL_ASSERT(bank < numBanks_);
    // The inverse of the balanced partition above.
    const auto s = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(bank) * shards_.size()) /
        numBanks_);
    // Integer rounding can land one off; fix up locally.
    for (std::uint32_t probe :
         {s, s > 0 ? s - 1 : s,
          s + 1 < shards_.size() ? s + 1 : s}) {
        if (bank >= shards_[probe].lo && bank < shards_[probe].hi)
            return probe;
    }
    MITHRIL_ASSERT_MSG(false, "bank %u not covered by any shard",
                       bank);
    return 0;
}

std::uint64_t
ShardedActStreamEngine::run(const StreamFactory &make_stream,
                            std::uint64_t max_acts)
{
    std::vector<std::unique_ptr<ActSource>> sources;
    sources.reserve(shards_.size());
    // A stream that can slice itself natively (an act-trace reader
    // seeking through its bank index) skips the filter-and-discard
    // scan — and every shard slices off the SAME parsed instance, so
    // the trace header/index are parsed once per run, not per shard.
    // Both paths deliver the identical bounded per-bank
    // subsequences.
    auto probe = make_stream();
    if (auto native = probe->shardSlice(shards_[0].lo, shards_[0].hi,
                                        max_acts)) {
        sources.push_back(std::move(native));
        for (std::size_t s = 1; s < shards_.size(); ++s) {
            sources.push_back(probe->shardSlice(
                shards_[s].lo, shards_[s].hi, max_acts));
            MITHRIL_ASSERT(sources.back() != nullptr);
        }
    } else {
        for (const Shard &shard : shards_) {
            if (!probe)
                probe = make_stream();
            sources.push_back(std::make_unique<BankFilterSource>(
                std::move(probe), shard.lo, shard.hi, max_acts));
        }
    }
    return runShards(sources);
}

std::uint64_t
ShardedActStreamEngine::runSliced(const SliceFactory &make_slice)
{
    std::vector<std::unique_ptr<ActSource>> sources;
    sources.reserve(shards_.size());
    for (std::uint32_t s = 0; s < shards_.size(); ++s)
        sources.push_back(
            make_slice(s, shards_[s].lo, shards_[s].hi));
    return runShards(sources);
}

std::uint64_t
ShardedActStreamEngine::runShards(
    std::vector<std::unique_ptr<ActSource>> &sources)
{
    MITHRIL_ASSERT(sources.size() == shards_.size());
    // Each shard writes only its own cache-line-padded slot: no
    // false sharing between workers, and the merged result below is
    // deterministic regardless of scheduling or completion order.
    const bool phases = config_.telemetry.phases;
    for (ShardSlot &slot : slots_)
        slot.done = 0;
    auto body = [&](std::size_t s) {
        MITHRIL_FAILPOINT("engine.shard-dispatch");
        telemetry::PhaseTimer timer;
        slots_[s].done = shards_[s].engine->run(*sources[s]);
        if (phases)
            slots_[s].wallSec += timer.lap();
    };

    telemetry::PhaseTimer total_timer;
    runner::ThreadPool *pool =
        config_.pool ? config_.pool : runner::ThreadPool::current();
    if (pool && shards_.size() > 1) {
        pool->parallelFor(shards_.size(), body);
    } else {
        for (std::size_t s = 0; s < shards_.size(); ++s)
            body(s);
    }
    if (phases) {
        // Join overhead: the wall the caller waited beyond the
        // slowest shard (scheduling + merge barrier).
        const double wall = total_timer.lap();
        double slowest = 0.0;
        for (const ShardSlot &slot : slots_)
            slowest = std::max(slowest, slot.wallSec);
        joinSec_ += std::max(0.0, wall - slowest);
    }

    std::uint64_t total = 0;
    for (const ShardSlot &slot : slots_)
        total += slot.done;
    return total;
}

std::uint64_t
ShardedActStreamEngine::acts() const
{
    std::uint64_t sum = 0;
    for (const Shard &s : shards_)
        sum += s.engine->acts();
    return sum;
}

std::uint64_t
ShardedActStreamEngine::refs() const
{
    std::uint64_t sum = 0;
    for (const Shard &s : shards_)
        sum += s.engine->refs();
    return sum;
}

std::uint64_t
ShardedActStreamEngine::rfms() const
{
    std::uint64_t sum = 0;
    for (const Shard &s : shards_)
        sum += s.engine->rfms();
    return sum;
}

std::uint64_t
ShardedActStreamEngine::preventiveRefreshes() const
{
    std::uint64_t sum = 0;
    for (const Shard &s : shards_)
        sum += s.engine->preventiveRefreshes();
    return sum;
}

double
ShardedActStreamEngine::maxDisturbanceEver() const
{
    double max = 0.0;
    for (const Shard &s : shards_)
        max = std::max(max, s.engine->oracle().maxDisturbanceEver());
    return max;
}

std::uint64_t
ShardedActStreamEngine::bitFlips() const
{
    std::uint64_t sum = 0;
    for (const Shard &s : shards_)
        sum += s.engine->oracle().bitFlips();
    return sum;
}

std::uint64_t
ShardedActStreamEngine::flippedRows() const
{
    // Shards own disjoint banks, so distinct-row counts add exactly.
    std::uint64_t sum = 0;
    for (const Shard &s : shards_)
        sum += s.engine->oracle().flippedRows();
    return sum;
}

std::uint64_t
ShardedActStreamEngine::logicOps() const
{
    std::uint64_t sum = 0;
    for (const Shard &s : shards_)
        sum += s.tracker ? s.tracker->logicOps() : 0;
    return sum;
}

void
ShardedActStreamEngine::mergeTrackerStatsInto(
    trackers::RhProtection &target) const
{
    for (const Shard &s : shards_) {
        MITHRIL_ASSERT(s.tracker.get() != &target);
        if (s.tracker)
            target.mergeStatsFrom(*s.tracker);
    }
}

telemetry::MetricSheet
ShardedActStreamEngine::telemetrySheet() const
{
    telemetry::MetricSheet merged;
    for (const Shard &s : shards_) {
        telemetry::MetricSheet sheet;
        s.engine->exportMetrics(sheet);
        if (s.tracker)
            s.tracker->exportMetrics(sheet);
        if (s.telemetry)
            s.telemetry->exportMetrics(sheet);
        merged.mergeFrom(sheet);
    }
    return merged;
}

std::vector<telemetry::TraceEvent>
ShardedActStreamEngine::mergedEvents() const
{
    std::vector<const telemetry::EventRecorder *> recorders;
    for (const Shard &s : shards_) {
        if (s.telemetry && s.telemetry->events())
            recorders.push_back(s.telemetry->events());
    }
    return telemetry::mergeEvents(recorders);
}

telemetry::ActHeatmap
ShardedActStreamEngine::mergedHeatmap() const
{
    MITHRIL_ASSERT(config_.telemetry.heatmap);
    telemetry::ActHeatmap merged(
        numBanks_, config_.telemetry.heatmapRegionBudget);
    for (const Shard &s : shards_) {
        if (s.telemetry && s.telemetry->heatmap())
            merged.mergeFrom(*s.telemetry->heatmap());
    }
    return merged;
}

} // namespace mithril::engine
