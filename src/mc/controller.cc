#include "controller.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/event_trace.hh"
#include "telemetry/metric_sheet.hh"

namespace mithril::mc
{

void
ControllerStats::mergeFrom(const ControllerStats &other)
{
    reads += other.reads;
    writes += other.writes;
    rowHits += other.rowHits;
    rowMisses += other.rowMisses;
    activates += other.activates;
    precharges += other.precharges;
    refreshes += other.refreshes;
    rfmIssued += other.rfmIssued;
    rfmSkippedByMrr += other.rfmSkippedByMrr;
    arrExecuted += other.arrExecuted;
    throttleStalls += other.throttleStalls;
    totalReadLatencyNs += other.totalReadLatencyNs;
    readLatencyNs.mergeFrom(other.readLatencyNs);
}

void
Controller::exportMetrics(telemetry::MetricSheet &sheet) const
{
    sheet.setCounter("mc.acts", stats_.activates);
    sheet.setCounter("mc.reads", stats_.reads);
    sheet.setCounter("mc.writes", stats_.writes);
    sheet.setCounter("mc.row_hits", stats_.rowHits);
    sheet.setCounter("mc.row_misses", stats_.rowMisses);
    sheet.setCounter("mc.precharges", stats_.precharges);
    sheet.setCounter("mc.refreshes", stats_.refreshes);
    sheet.setCounter("mc.rfm_issued", stats_.rfmIssued);
    sheet.setCounter("mc.rfm_skipped_mrr", stats_.rfmSkippedByMrr);
    sheet.setCounter("mc.arr_executed", stats_.arrExecuted);
    sheet.setCounter("mc.throttle_stalls", stats_.throttleStalls);
}

Controller::Controller(dram::Device &device, const AddressMap &map,
                       const ControllerParams &params,
                       std::uint32_t channel)
    : device_(device), map_(map), params_(params), channel_(channel)
{
    const auto &geom = device_.geometry();
    MITHRIL_ASSERT(channel_ < geom.channels);
    firstRank_ = channel_ * geom.ranksPerChannel;
    firstBank_ = firstRank_ * geom.banksPerRank;
    banks_.resize(geom.ranksPerChannel * geom.banksPerRank);

    const std::uint32_t total_ranks =
        geom.channels * geom.ranksPerChannel;
    refreshDue_.resize(geom.ranksPerChannel);
    refreshBankPtr_.assign(geom.ranksPerChannel, 0);
    refsbCarry_.assign(geom.ranksPerChannel, 0);
    const Tick interval =
        params_.perBankRefresh
            ? device_.timing().tREFI / geom.banksPerRank
            : device_.timing().tREFI;
    for (std::uint32_t r = 0; r < geom.ranksPerChannel; ++r) {
        // Stagger by the *global* rank index so the system-wide
        // refresh phases match the historical single-frontend layout
        // and refreshes never collide across channels.
        const auto g = static_cast<Tick>(firstRank_ + r);
        refreshDue_[r] = interval + g * (interval / total_ranks);
    }
}

bool
Controller::enqueue(const Request &req, Tick now)
{
    MITHRIL_ASSERT_MSG(req.channel == channel_,
                       "request for channel %u enqueued on the "
                       "channel-%u controller",
                       req.channel, channel_);
    if (queue_.size() >= params_.queueCapacity)
        return false;
    Request stored = req;
    stored.arrival = now;
    stored.seq = seq_++;
    queue_.push_back(stored);
    return true;
}

bool
Controller::idle() const
{
    if (!queue_.empty())
        return false;
    for (const auto &bank : banks_)
        if (bank.rfmRequired || !bank.pendingArr.empty())
            return false;
    return true;
}

bool
Controller::blacklisted(std::uint32_t core, Tick t) const
{
    if (!params_.useBliss)
        return false;
    auto it = bliss_.blacklistUntil.find(core);
    return it != bliss_.blacklistUntil.end() && it->second > t;
}

void
Controller::noteServed(std::uint32_t core, Tick t)
{
    if (!params_.useBliss)
        return;
    if (bliss_.lastCore == core) {
        if (++bliss_.streak > params_.blissStreak)
            bliss_.blacklistUntil[core] = t + params_.blissDuration;
    } else {
        bliss_.lastCore = core;
        bliss_.streak = 1;
    }
}

bool
Controller::refreshPressing(std::uint32_t rank, BankId bank,
                            Tick t) const
{
    if (t < refreshDue_.at(rank - firstRank_) -
                2 * device_.timing().tRC)
        return false;
    if (!params_.perBankRefresh)
        return true;  // All-bank REF drains the whole rank.
    // Same-bank REF only fences the rotation's current target.
    const BankId target =
        rank * device_.geometry().banksPerRank +
        refreshBankPtr_.at(rank - firstRank_);
    return bank == target;
}

void
Controller::decrementRaa(BankId bank)
{
    if (params_.raaRefDecrement == 0)
        return;
    BankCtl &ctl = bankCtl(bank);
    if (ctl.rfmRequired)
        return;  // An owed RFM is not cancelled by a REF.
    ctl.raa = ctl.raa > params_.raaRefDecrement
                  ? ctl.raa - params_.raaRefDecrement
                  : 0;
}

void
Controller::handleActSideEffects(BankId bank, Tick t,
                                 std::vector<RowId> &arr_out)
{
    (void)t;
    BankCtl &ctl = bankCtl(bank);
    auto *tracker = device_.tracker();
    if (tracker && tracker->usesRfm()) {
        if (++ctl.raa >= tracker->rfmTh())
            ctl.rfmRequired = true;
    }
    for (RowId aggressor : arr_out)
        ctl.pendingArr.push_back(aggressor);
    arr_out.clear();
}

Controller::Decision
Controller::choose(Tick t0)
{
    const auto &geom = device_.geometry();
    const std::uint32_t banks_per_channel =
        geom.ranksPerChannel * geom.banksPerRank;

    // Commands that cannot issue yet are kept only as wake-up hints so
    // that a stalled high-priority command never blocks ready work on
    // other banks.
    Decision future;
    future.kind = Decision::Kind::None;

    // Priority 1: overdue auto-refresh (all-bank REF or DDR5 REFsb).
    for (std::uint32_t r = 0; r < geom.ranksPerChannel; ++r) {
        const std::uint32_t rank = firstRank_ + r;
        if (t0 < refreshDue_[r])
            continue;
        const BankId rank_first = rank * geom.banksPerRank;
        Decision d;
        if (params_.perBankRefresh) {
            const BankId b = rank_first + refreshBankPtr_[r];
            const auto &bank = device_.bank(b);
            d.bank = b;
            d.rank = rank;
            if (bank.isOpen()) {
                d.kind = Decision::Kind::Pre;
                d.issue = bank.earliestPre(t0);
            } else {
                d.kind = Decision::Kind::RefSb;
                d.issue = bank.earliestRefresh(t0);
            }
        } else {
            Tick ready = t0;
            // Close any open bank first (cheapest one).
            Decision pre;
            for (std::uint32_t i = 0; i < geom.banksPerRank; ++i) {
                const BankId b = rank_first + i;
                const auto &bank = device_.bank(b);
                if (bank.isOpen()) {
                    const Tick t = bank.earliestPre(t0);
                    if (t < pre.issue) {
                        pre.kind = Decision::Kind::Pre;
                        pre.issue = t;
                        pre.bank = b;
                    }
                } else {
                    ready = std::max(ready, bank.earliestRefresh(t0));
                }
            }
            if (pre.kind == Decision::Kind::Pre) {
                d = pre;
            } else {
                d.kind = Decision::Kind::Ref;
                d.rank = rank;
                d.issue = ready;
            }
        }
        if (d.issue <= t0)
            return d;
        if (d.issue < future.issue)
            future = d;
    }

    // Priority 2: RFM-required banks and pending ARR work.
    Decision best;
    auto *tracker = device_.tracker();
    for (std::uint32_t i = 0; i < banks_per_channel; ++i) {
        const BankId b = firstBank_ + i;
        BankCtl &ctl = banks_[i];
        if (!ctl.rfmRequired && ctl.pendingArr.empty())
            continue;
        const auto &bank = device_.bank(b);
        Decision d;
        d.bank = b;
        if (ctl.rfmRequired && tracker && !tracker->rfmPending(b)) {
            // Mithril+ MRR poll says no refresh needed: skip the RFM.
            d.kind = Decision::Kind::MrrSkip;
            d.issue = t0;
        } else if (bank.isOpen()) {
            d.kind = Decision::Kind::Pre;
            d.issue = bank.earliestPre(t0);
        } else if (ctl.rfmRequired) {
            d.kind = Decision::Kind::Rfm;
            d.issue = bank.earliestRefresh(t0);
        } else {
            d.kind = Decision::Kind::Arr;
            d.issue = bank.earliestRefresh(t0);
            d.arrAggressor = ctl.pendingArr.front();
        }
        if (d.issue < best.issue)
            best = d;
    }
    if (best.kind != Decision::Kind::None) {
        if (best.issue <= t0)
            return best;
        if (best.issue < future.issue)
            future = best;
        best = Decision{};
    }

    // Priority 3: demand requests, BLISS + FR-FCFS + minimalist-open.
    int best_class = 4;
    std::uint64_t best_seq = ~0ull;
    // Blacklist lookups are hash probes; memoize per core for this
    // scheduling pass (core ids are small).
    std::uint64_t bl_known = 0;
    std::uint64_t bl_set = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const Request &req = queue_[i];
        BankCtl &ctl = bankCtl(req.bank);
        if (ctl.rfmRequired || !ctl.pendingArr.empty())
            continue;  // Bank fenced for protection work.
        if (refreshPressing(firstRank_ + req.rank, req.bank, t0))
            continue;  // Bank/rank draining for REF.

        const std::uint64_t bl_bit = 1ull << (req.coreId & 63);
        if (!(bl_known & bl_bit)) {
            bl_known |= bl_bit;
            if (blacklisted(req.coreId, t0))
                bl_set |= bl_bit;
        }
        const auto &bank = device_.bank(req.bank);
        const bool open_hit = bank.isOpen() &&
                              bank.openRow() == req.row &&
                              ctl.rowHitStreak < params_.maxRowHits;
        const int cls = ((bl_set & bl_bit) ? 2 : 0) +
                        (open_hit ? 0 : 1);
        if (cls > best_class ||
            (cls == best_class && req.seq >= best_seq)) {
            continue;  // A ready candidate already beats this one.
        }

        Decision d;
        d.bank = req.bank;
        d.reqIndex = i;
        if (open_hit) {
            d.kind = req.isWrite ? Decision::Kind::Wr
                                 : Decision::Kind::Rd;
            d.issue = bank.earliestCol(t0);
        } else if (bank.isOpen()) {
            d.kind = Decision::Kind::Pre;
            d.issue = bank.earliestPre(t0);
        } else {
            d.kind = Decision::Kind::Act;
            Tick t = device_.earliestAct(req.bank, t0);
            if (tracker) {
                const Tick throttled =
                    tracker->throttleAct(req.bank, req.row, t);
                if (throttled > t) {
                    // Every pass re-evaluates a held ACT until it
                    // commits; count and trace each one once.
                    const std::pair<BankId, RowId> act{req.bank, req.row};
                    if (std::find(throttledActs_.begin(),
                                  throttledActs_.end(),
                                  act) == throttledActs_.end()) {
                        throttledActs_.push_back(act);
                        if (eventRecorder_) {
                            eventRecorder_->record(
                                telemetry::EventKind::ThrottleStall, t,
                                req.bank, req.row, 0, throttled - t);
                        }
                        ++stats_.throttleStalls;
                    }
                    t = throttled;
                }
            }
            d.issue = t;
        }
        if (d.issue <= t0) {
            best = d;
            best_class = cls;
            best_seq = req.seq;
        } else if (d.issue < future.issue) {
            future = d;
        }
    }
    if (best.kind != Decision::Kind::None)
        return best;
    if (future.issue != kTickMax) {
        // Nothing is ready; report the earliest future command as the
        // wake-up hint without executing it.
        Decision d;
        d.kind = Decision::Kind::None;
        d.issue = future.issue;
        return d;
    }

    // Fully idle; the next auto-refresh still needs a wakeup.
    Decision d;
    for (std::uint32_t r = 0; r < geom.ranksPerChannel; ++r)
        d.issue = std::min(d.issue, refreshDue_[r]);
    d.kind = Decision::Kind::None;
    return d;
}

Tick
Controller::execute(const Decision &d)
{
    const auto &timing = device_.timing();
    Tick bus_done = d.issue + params_.commandSlot;

    switch (d.kind) {
      case Decision::Kind::Pre: {
        device_.precharge(d.bank, d.issue);
        bankCtl(d.bank).rowHitStreak = 0;
        ++stats_.precharges;
        break;
      }
      case Decision::Kind::Act: {
        const Request &req = queue_[d.reqIndex];
        const auto held = std::find(throttledActs_.begin(),
                                    throttledActs_.end(),
                                    std::make_pair(d.bank, req.row));
        if (held != throttledActs_.end()) {
            *held = throttledActs_.back();
            throttledActs_.pop_back();
        }
        scratch_.reset();
        device_.activate(d.bank, req.row, d.issue, scratch_.arr);
        handleActSideEffects(d.bank, d.issue, scratch_.arr);
        bankCtl(d.bank).rowHitStreak = 0;
        ++stats_.activates;
        ++stats_.rowMisses;
        break;
      }
      case Decision::Kind::Rd:
      case Decision::Kind::Wr: {
        Request req = queue_[d.reqIndex];
        queue_[d.reqIndex] = queue_.back();
        queue_.pop_back();
        Tick data;
        if (d.kind == Decision::Kind::Rd) {
            data = device_.read(d.bank, d.issue);
            ++stats_.reads;
            const double lat_ns = tickToNs(data - req.arrival);
            stats_.totalReadLatencyNs += lat_ns;
            stats_.readLatencyNs.sample(lat_ns);
        } else {
            data = device_.write(d.bank, d.issue);
            ++stats_.writes;
        }
        ++stats_.rowHits;
        ++bankCtl(d.bank).rowHitStreak;
        noteServed(req.coreId, d.issue);
        if (onComplete_)
            onComplete_(req, data);
        break;
      }
      case Decision::Kind::Ref: {
        device_.autoRefreshRank(d.rank, d.issue);
        refreshDue_[d.rank - firstRank_] += timing.tREFI;
        ++stats_.refreshes;
        const BankId first =
            d.rank * device_.geometry().banksPerRank;
        for (std::uint32_t i = 0;
             i < device_.geometry().banksPerRank; ++i) {
            decrementRaa(first + i);
        }
        break;
      }
      case Decision::Kind::RefSb: {
        device_.autoRefreshBank(d.bank, d.issue);
        // Bresenham remainder carry: banksPerRank REFsb steps must
        // span exactly tREFI, but the integer step truncates up to
        // banksPerRank-1 ticks per rotation. Spreading the remainder
        // keeps the per-bank cadence drift-free over long runs.
        const std::uint32_t r = d.rank - firstRank_;
        const auto bpr =
            static_cast<Tick>(device_.geometry().banksPerRank);
        Tick step = timing.tREFI / bpr;
        refsbCarry_[r] += timing.tREFI % bpr;
        if (refsbCarry_[r] >= bpr) {
            refsbCarry_[r] -= bpr;
            ++step;
        }
        refreshDue_[r] += step;
        refreshBankPtr_[r] =
            (refreshBankPtr_[r] + 1) %
            device_.geometry().banksPerRank;
        ++stats_.refreshes;
        decrementRaa(d.bank);
        break;
      }
      case Decision::Kind::Rfm: {
        const std::size_t treated = device_.rfm(d.bank, d.issue);
        bankCtl(d.bank).raa = 0;
        bankCtl(d.bank).rfmRequired = false;
        ++stats_.rfmIssued;
        if (eventRecorder_) {
            eventRecorder_->record(
                telemetry::EventKind::RfmIssued, d.issue, d.bank,
                kInvalidRow, static_cast<std::uint32_t>(treated));
        }
        break;
      }
      case Decision::Kind::MrrSkip: {
        bankCtl(d.bank).raa = 0;
        bankCtl(d.bank).rfmRequired = false;
        ++stats_.rfmSkippedByMrr;
        bus_done = d.issue + params_.mrrLatency;
        if (eventRecorder_) {
            eventRecorder_->record(telemetry::EventKind::RfmSkipped,
                                   d.issue, d.bank, kInvalidRow);
        }
        break;
      }
      case Decision::Kind::Arr: {
        BankCtl &ctl = bankCtl(d.bank);
        MITHRIL_ASSERT(!ctl.pendingArr.empty());
        device_.preventiveRefresh(d.bank, d.arrAggressor, d.issue);
        ctl.pendingArr.pop_front();
        ++stats_.arrExecuted;
        if (eventRecorder_) {
            eventRecorder_->record(telemetry::EventKind::ArrFired,
                                   d.issue, d.bank, d.arrAggressor,
                                   1);
        }
        break;
      }
      case Decision::Kind::None:
        panic("executing a None decision");
    }
    return bus_done;
}

Tick
Controller::service(Tick now)
{
    Tick next = kTickMax;
    while (true) {
        const Tick t0 = std::max(now, busFree_);
        if (t0 > now) {
            next = std::min(next, t0);
            break;
        }
        Decision d = choose(t0);
        if (d.kind == Decision::Kind::None) {
            next = std::min(next, d.issue);
            break;
        }
        if (d.issue > now) {
            next = std::min(next, d.issue);
            break;
        }
        busFree_ = execute(d);
    }
    return next;
}

} // namespace mithril::mc
