#include "cbs_tracker.hh"

#include "common/logging.hh"
#include "telemetry/event_trace.hh"
#include "telemetry/metric_sheet.hh"

namespace mithril::core
{

CbsTracker::CbsTracker(std::uint32_t num_banks, std::uint32_t n_entry,
                       std::uint32_t row_bits, std::uint32_t counter_bits,
                       std::uint32_t threshold, Tick reset_interval)
    : lastReset_(reset_interval > 0 ? num_banks : 0, 0), rowBits_(row_bits),
      threshold_(threshold), resetInterval_(reset_interval)
{
    MITHRIL_ASSERT(num_banks > 0);
    MITHRIL_ASSERT(n_entry > 0);
    tables_.reserve(num_banks);
    for (std::uint32_t b = 0; b < num_banks; ++b)
        tables_.emplace_back(n_entry, counter_bits);
}

std::uint64_t
CbsTracker::touch(CbsTable &table, BankId bank, RowId row, Tick now)
{
    if (!eventRecorder_)
        return table.touch(row);
    const std::uint64_t inserts = table.inserts();
    const std::uint64_t evictions = table.evictions();
    const std::uint64_t est = table.touch(row);
    if (table.evictions() != evictions) {
        eventRecorder_->record(telemetry::EventKind::CbsEvict, now, bank,
                               row);
    } else if (table.inserts() != inserts) {
        eventRecorder_->record(telemetry::EventKind::CbsInsert, now,
                               bank, row);
    }
    return est;
}

void
CbsTracker::onActivate(BankId bank, RowId row, Tick now,
                       std::vector<RowId> &arr_aggressors)
{
    CbsTable &table = tables_.at(bank);
    if (resetDue(bank, now)) {
        table.clear();
        lastReset_[bank] = now;
        onTableReset(bank);
    }
    const std::uint64_t est = touch(table, bank, row, now);
    countOp();
    // Every crossing of a multiple of the threshold reports, not just
    // the first: the spillover-counter behaviour of Graphene.
    if (threshold_ > 0 && est % threshold_ == 0) {
        ++crossings_;
        onCrossing(bank, row, arr_aggressors);
    }
}

std::size_t
CbsTracker::onActivateBatch(const trackers::ActSpan &span,
                            std::vector<RowId> &arr_aggressors)
{
    if (span.size == 0)
        return 0;
    // The base scalar loop takes two kinds of span, byte-identical in
    // effect by the onActivateBatch() contract (pinned by the
    // equivalence tests): every span while tracing, so per-record
    // table events carry exact ticks, and the rare span whose last
    // tick reaches the reset interval (once per tREFW), inside which
    // the table resets. The tight run takes the rest.
    if (eventRecorder_ || resetDue(span.bank, span.tickAt(span.size - 1)))
        return RhProtection::onActivateBatch(span, arr_aggressors);

    CbsTable &table = tables_.at(span.bank);
    std::size_t done = 0;
    while (done < span.size) {
        bool hit = false;
        done += table.touchRun(span.rows + done, span.size - done,
                               threshold_, &hit);
        if (hit) {
            ++crossings_;
            onCrossing(span.bank, span.rows[done - 1], arr_aggressors);
            if (!arr_aggressors.empty())
                break;
        }
    }
    countOp(done);
    return done;
}

double
CbsTracker::tableBytesPerBank() const
{
    const CbsTable &table = tables_.front();
    return static_cast<double>(table.capacity()) *
           (rowBits_ + table.counterBits()) / 8.0;
}

void
CbsTracker::mergeStatsFrom(const trackers::RhProtection &other)
{
    RhProtection::mergeStatsFrom(other);
    crossings_ += dynamic_cast<const CbsTracker &>(other).crossings_;
}

void
CbsTracker::exportMetrics(telemetry::MetricSheet &sheet) const
{
    RhProtection::exportMetrics(sheet);
    std::uint64_t touches = 0, inserts = 0, evictions = 0;
    for (const CbsTable &table : tables_) {
        touches += table.touches();
        inserts += table.inserts();
        evictions += table.evictions();
    }
    sheet.setCounter("tracker.cbs.touches", touches);
    sheet.setCounter("tracker.cbs.inserts", inserts);
    sheet.setCounter("tracker.cbs.evictions", evictions);
}

} // namespace mithril::core
