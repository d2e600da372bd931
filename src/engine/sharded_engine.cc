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
    : config_(config),
      parts_(config.engine.geometry,
             config.shards ? config.shards
                           : config.engine.geometry.channels,
             make_tracker, config.telemetry)
{
    for (std::uint32_t s = 0; s < parts_.size(); ++s) {
        EngineConfig engine_config = config_.engine;
        engine_config.telemetry = parts_.telemetry(s);
        engines_.push_back(std::make_unique<ActStreamEngine>(
            engine_config, parts_.tracker(s)));
        parts_.bind(s, engines_.back()->protection());
    }
    slots_.assign(parts_.size(), ShardSlot{});
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

std::uint64_t
ShardedActStreamEngine::run(const StreamFactory &make_stream,
                            std::uint64_t max_acts)
{
    // One source per shard over the first `max_acts` records (see
    // StreamFactory); both kinds deliver the same per-bank
    // subsequences.
    std::vector<std::unique_ptr<ActSource>> sources;
    auto probe = make_stream();
    for (std::uint32_t s = 0; s < parts_.size(); ++s) {
        const auto [lo, hi] = parts_.range(s);
        auto slice = probe ? probe->shardSlice(lo, hi, max_acts) : nullptr;
        if (!slice) {
            slice = std::make_unique<BankFilterSource>(
                probe ? std::move(probe) : make_stream(), lo, hi,
                max_acts);
        }
        sources.push_back(std::move(slice));
    }
    return runShards(sources);
}

std::uint64_t
ShardedActStreamEngine::runShards(
    std::vector<std::unique_ptr<ActSource>> &sources)
{
    MITHRIL_ASSERT(sources.size() == engines_.size());
    // Each shard writes only its own cache-line-padded slot: no
    // false sharing between workers, and the merged result below is
    // deterministic regardless of scheduling or completion order.
    const bool phases = config_.telemetry.phases;
    for (ShardSlot &slot : slots_)
        slot.done = 0;
    auto body = [&](std::size_t s) {
        MITHRIL_FAILPOINT("engine.shard-dispatch");
        telemetry::PhaseTimer timer;
        slots_[s].done = engines_[s]->run(*sources[s]);
        if (phases)
            slots_[s].wallSec += timer.lap();
    };

    telemetry::PhaseTimer total_timer;
    runner::ThreadPool *pool =
        config_.pool ? config_.pool : runner::ThreadPool::current();
    if (pool && engines_.size() > 1) {
        pool->parallelFor(engines_.size(), body);
    } else {
        for (std::size_t s = 0; s < engines_.size(); ++s)
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

telemetry::MetricSheet
ShardedActStreamEngine::telemetrySheet() const
{
    return parts_.sheet(
        [this](std::uint32_t s, telemetry::MetricSheet &sheet) {
            engines_[s]->exportMetrics(sheet);
        });
}

} // namespace mithril::engine
