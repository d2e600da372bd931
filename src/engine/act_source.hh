/**
 * @file
 * The activation-stream vocabulary of the ActStream engine: fixed-size
 * structure-of-arrays batches of ActRecord{bank, row, tick} and the
 * pull interface every engine-drivable workload implements.
 *
 * The tick column is a source-defined replay hint, not simulated
 * time: TraceActSource stores the record's ordinal in its trace, and
 * sources with nothing to say fill 0. The engine never reads it — it
 * runs banks at the maximum legal rate and resolves the
 * authoritative per-bank ticks internally. Keeping the column in the
 * batch makes the record layout ready for a capture/replay format
 * without another schema change.
 */

#ifndef MITHRIL_ENGINE_ACT_SOURCE_HH
#define MITHRIL_ENGINE_ACT_SOURCE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/types.hh"

namespace mithril::engine
{

/** One activation as sources describe it (AoS view of a batch slot). */
struct ActRecord
{
    BankId bank = 0;
    RowId row = 0;
    Tick tick = 0;
};

/** Fixed-capacity SoA activation batch. */
class ActBatch
{
  public:
    static constexpr std::size_t kCapacity = 4096;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == kCapacity; }
    void clear() { size_ = 0; }

    /** Append one record; false when the batch is full. */
    bool
    push(BankId bank, RowId row, Tick tick = 0)
    {
        if (size_ == kCapacity)
            return false;
        bank_[size_] = bank;
        row_[size_] = row;
        tick_[size_] = tick;
        ++size_;
        return true;
    }

    ActRecord
    record(std::size_t i) const
    {
        return ActRecord{bank_[i], row_[i], tick_[i]};
    }

    const BankId *banks() const { return bank_.data(); }
    const RowId *rows() const { return row_.data(); }
    const Tick *ticks() const { return tick_.data(); }

  private:
    std::array<BankId, kCapacity> bank_;
    std::array<RowId, kCapacity> row_;
    std::array<Tick, kCapacity> tick_;
    std::size_t size_ = 0;
};

/** Pull-based activation source the engine drains batch by batch. */
class ActSource
{
  public:
    virtual ~ActSource() = default;

    /** Human-readable source name. */
    virtual std::string name() const = 0;

    /**
     * Append up to min(limit, free capacity) records; returns the
     * number appended. 0 means the source is exhausted (the engine
     * stops pulling). The limit lets a budget-bounded engine run ask
     * for exactly the records it will dispatch, so the source's
     * cursor never runs ahead of the simulation.
     */
    virtual std::size_t fill(ActBatch &batch, std::size_t limit) = 0;

    /**
     * A native slice of this stream restricted to banks [lo, hi) and
     * to the first `budget` records of the global stream — exactly
     * what a BankFilterSource over a fresh copy would deliver, but
     * produced without scanning the out-of-range records (e.g. an
     * act-trace reader seeking through its per-bank block index).
     * The sharded engine asks every stream for one and falls back to
     * BankFilterSource on nullptr (the default). Slicing must not
     * disturb this source — implementations open fresh state.
     */
    virtual std::unique_ptr<ActSource>
    shardSlice(BankId lo, BankId hi, std::uint64_t budget)
    {
        (void)lo;
        (void)hi;
        (void)budget;
        return nullptr;
    }
};

/**
 * Hand each of the first `budget` records of `source` to `fn`, in
 * stream order, never asking the source for more than the budget
 * leaves.
 */
template <typename Fn>
void
forEachRecord(ActSource &source, std::uint64_t budget, Fn &&fn)
{
    ActBatch batch;
    while (budget > 0) {
        batch.clear();
        const std::size_t n = source.fill(
            batch, static_cast<std::size_t>(std::min<std::uint64_t>(
                       ActBatch::kCapacity, budget)));
        if (n == 0)
            break;
        for (std::size_t i = 0; i < n; ++i)
            fn(batch.record(i));
        budget -= n;
    }
}

/**
 * Index-addressed callback source on one bank: record i is
 * row_source(i) — how the one-bank max-rate safety runs feed an
 * EngineConfig::singleBank() engine.
 */
class CallbackSource : public ActSource
{
  public:
    CallbackSource(std::uint64_t count,
                   std::function<RowId(std::uint64_t)> row_source,
                   BankId bank = 0)
        : count_(count), rowSource_(std::move(row_source)), bank_(bank)
    {
    }

    std::string name() const override { return "callback"; }

    std::size_t
    fill(ActBatch &batch, std::size_t limit) override
    {
        std::size_t appended = 0;
        while (produced_ < count_ && appended < limit &&
               !batch.full()) {
            batch.push(bank_, rowSource_(produced_));
            ++produced_;
            ++appended;
        }
        return appended;
    }

  private:
    std::uint64_t count_;
    std::function<RowId(std::uint64_t)> rowSource_;
    BankId bank_;
    std::uint64_t produced_ = 0;
};

} // namespace mithril::engine

#endif // MITHRIL_ENGINE_ACT_SOURCE_HH
