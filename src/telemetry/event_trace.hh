/**
 * @file
 * Mitigation-event tracer: fixed-capacity per-bank ring buffers of
 * typed events, stamped with tick + bank + row, merged tick-ordered
 * across shards at join.
 *
 * Retention is budgeted per BANK, not per shard: banks are disjoint
 * across shards, so the set of retained events is invariant under the
 * shard count — a 1-shard and a 16-shard run of the same experiment
 * keep byte-identical traces. Each bank's ring keeps the most recent
 * `capacity` events (overwriting the oldest), and the per-bank
 * emitted/dropped totals are always exact even when the ring wraps.
 */

#ifndef MITHRIL_TELEMETRY_EVENT_TRACE_HH
#define MITHRIL_TELEMETRY_EVENT_TRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mithril::telemetry
{

class MetricSheet;

/** Typed mitigation events emitted by the protection core
 *  (dram::Protection), the controller's throttle probe, trackers and
 *  the oracle. Keep in sync with eventKindName(). */
enum class EventKind : std::uint8_t
{
    RfmIssued,     //!< RFM executed (row = first treated aggressor
                   //!< or kInvalidRow, arg = aggressor count).
    RfmSkipped,    //!< Mithril+ MRR poll skipped a needless RFM.
    ArrFired,      //!< ARR refresh of one aggressor's victims
                   //!< (row = aggressor, arg = 1).
    ThrottleStall, //!< BlockHammer delayed an ACT (dur = stall ticks).
    CbsInsert,     //!< CbS table inserted a new row entry.
    CbsEvict,      //!< CbS table evicted a minimum entry (overflow).
    OracleFlip,    //!< Oracle row crossed FlipTH (arg = row count).
    NearMiss,      //!< Oracle row within 1/8 of FlipTH (arg = margin
                   //!< in quarter-ACT units).
};

inline constexpr std::size_t kEventKindCount = 8;

/** Stable lower-case name for trace output. */
const char *eventKindName(EventKind kind);

/** One traced event. `dur` is nonzero only for duration-style events
 *  (throttle windows); `arg` is a kind-specific payload. */
struct TraceEvent
{
    Tick tick = 0;
    Tick dur = 0;
    RowId row = 0;
    std::uint32_t arg = 0;
    BankId bank = 0;
    EventKind kind = EventKind::RfmIssued;

    bool operator==(const TraceEvent &o) const
    {
        return tick == o.tick && dur == o.dur && row == o.row &&
               arg == o.arg && bank == o.bank && kind == o.kind;
    }
};

/**
 * Per-bank ring-buffer recorder. One instance per engine shard; the
 * shard only ever touches its own banks, so rings are allocated
 * lazily on a bank's first event.
 */
class EventRecorder
{
  public:
    /**
     * @param num_banks  Global bank count (bank ids index rings).
     * @param capacity_per_bank  Ring capacity per bank (>= 1).
     */
    EventRecorder(std::uint32_t num_banks,
                  std::uint32_t capacity_per_bank);

    /** Record one event (hot path only when tracing is enabled). */
    void record(EventKind kind, Tick tick, BankId bank, RowId row,
                std::uint32_t arg = 0, Tick dur = 0);

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(rings_.size());
    }

    /** Events ever emitted on the bank (including overwritten). */
    std::uint64_t emitted(BankId bank) const
    {
        return emitted_.at(bank);
    }

    /** Events ever emitted of the given kind, across banks. */
    std::uint64_t emittedOfKind(EventKind kind) const
    {
        return kindTotals_.at(static_cast<std::size_t>(kind));
    }

    /** Total events overwritten (lost to ring wrap), all banks. */
    std::uint64_t dropped() const;

    /** Set the `trace.emitted` and `trace.dropped` counters. */
    void exportMetrics(MetricSheet &sheet) const;

    /** The bank's retained events, oldest first. */
    std::vector<TraceEvent> bankEvents(BankId bank) const;

  private:
    std::uint32_t capacity_;
    std::vector<std::vector<TraceEvent>> rings_; //!< Lazily sized.
    std::vector<std::uint64_t> emitted_;
    std::array<std::uint64_t, kEventKindCount> kindTotals_{};
};

/**
 * Merge the retained events of several recorders covering disjoint
 * bank sets into one tick-ordered stream. Recorders are visited in
 * the order given (shard order == ascending bank order), each bank
 * oldest-first, then stable-sorted by tick — so ties break by bank,
 * then by within-bank emission order, and the result is invariant
 * under the shard partition.
 */
std::vector<TraceEvent>
mergeEvents(const std::vector<const EventRecorder *> &recorders);

} // namespace mithril::telemetry

#endif // MITHRIL_TELEMETRY_EVENT_TRACE_HH
