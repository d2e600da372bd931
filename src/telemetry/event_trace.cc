#include "telemetry/event_trace.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/metric_sheet.hh"

namespace mithril::telemetry
{

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::RfmIssued:
        return "rfm_issued";
      case EventKind::RfmSkipped:
        return "rfm_skipped";
      case EventKind::ArrFired:
        return "arr_fired";
      case EventKind::ThrottleStall:
        return "throttle_stall";
      case EventKind::CbsInsert:
        return "cbs_insert";
      case EventKind::CbsEvict:
        return "cbs_evict";
      case EventKind::OracleFlip:
        return "oracle_flip";
      case EventKind::NearMiss:
        return "near_miss";
    }
    return "unknown";
}

EventRecorder::EventRecorder(std::uint32_t num_banks,
                             std::uint32_t capacity_per_bank)
    : capacity_(capacity_per_bank), rings_(num_banks),
      emitted_(num_banks, 0)
{
    MITHRIL_ASSERT(capacity_ >= 1);
}

void
EventRecorder::record(EventKind kind, Tick tick, BankId bank,
                      RowId row, std::uint32_t arg, Tick dur)
{
    auto &ring = rings_.at(bank);
    TraceEvent ev;
    ev.tick = tick;
    ev.dur = dur;
    ev.row = row;
    ev.arg = arg;
    ev.bank = bank;
    ev.kind = kind;
    if (ring.size() < capacity_) {
        ring.push_back(ev);
    } else {
        ring[emitted_[bank] % capacity_] = ev;
    }
    ++emitted_[bank];
    ++kindTotals_[static_cast<std::size_t>(kind)];
}

std::uint64_t
EventRecorder::dropped() const
{
    std::uint64_t lost = 0;
    for (std::size_t b = 0; b < rings_.size(); ++b)
        lost += emitted_[b] - rings_[b].size();
    return lost;
}

void
EventRecorder::exportMetrics(MetricSheet &sheet) const
{
    std::uint64_t emitted = 0;
    for (std::uint64_t n : emitted_)
        emitted += n;
    sheet.setCounter("trace.emitted", emitted);
    sheet.setCounter("trace.dropped", dropped());
}

std::vector<TraceEvent>
EventRecorder::bankEvents(BankId bank) const
{
    const auto &ring = rings_.at(bank);
    std::vector<TraceEvent> out;
    out.reserve(ring.size());
    if (ring.size() < capacity_) {
        out = ring;
    } else {
        // Ring is full: the oldest retained event sits at the next
        // write position.
        const std::size_t head =
            static_cast<std::size_t>(emitted_[bank] % capacity_);
        out.insert(out.end(), ring.begin() + head, ring.end());
        out.insert(out.end(), ring.begin(), ring.begin() + head);
    }
    return out;
}

std::vector<TraceEvent>
mergeEvents(const std::vector<const EventRecorder *> &recorders)
{
    std::vector<TraceEvent> all;
    std::size_t total = 0;
    for (const EventRecorder *rec : recorders) {
        for (BankId b = 0; b < rec->numBanks(); ++b)
            total += rec->bankEvents(b).size();
    }
    all.reserve(total);
    for (const EventRecorder *rec : recorders) {
        for (BankId b = 0; b < rec->numBanks(); ++b) {
            const auto events = rec->bankEvents(b);
            all.insert(all.end(), events.begin(), events.end());
        }
    }
    // Stable sort on the tick alone: equal-tick events keep their
    // concatenation order (ascending bank, then emission order), which
    // is what makes the merged stream shard-partition invariant.
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.tick < b.tick;
                     });
    return all;
}

} // namespace mithril::telemetry
