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

ControllerStats
Controller::stats() const
{
    ControllerStats s = stats_;
    const dram::Protection::Counts c = device_.protection().total(
        firstBank_, firstBank_ + static_cast<BankId>(banks_.size()));
    s.rfmIssued = c.rfms;
    s.rfmSkippedByMrr = c.mrrSkips;
    s.arrExecuted = c.arrs;
    return s;
}

void
Controller::exportMetrics(telemetry::MetricSheet &sheet) const
{
    const ControllerStats s = stats();
    sheet.setCounter("mc.acts", s.activates);
    sheet.setCounter("mc.reads", s.reads);
    sheet.setCounter("mc.writes", s.writes);
    sheet.setCounter("mc.row_hits", s.rowHits);
    sheet.setCounter("mc.row_misses", s.rowMisses);
    sheet.setCounter("mc.precharges", s.precharges);
    sheet.setCounter("mc.refreshes", s.refreshes);
    sheet.setCounter("mc.rfm_issued", s.rfmIssued);
    sheet.setCounter("mc.rfm_skipped_mrr", s.rfmSkippedByMrr);
    sheet.setCounter("mc.arr_executed", s.arrExecuted);
    sheet.setCounter("mc.throttle_stalls", s.throttleStalls);
    sheet.histogram("mc.queue_depth", 0.0,
                    static_cast<double>(params_.queueCapacity),
                    params_.queueCapacity) = queueDepth_;
}

Controller::Controller(dram::Device &device, const AddressMap &map,
                       const ControllerParams &params,
                       std::uint32_t channel)
    : device_(device), map_(map), params_(params), channel_(channel),
      queueDepth_(0.0, static_cast<double>(params_.queueCapacity),
                  params_.queueCapacity)
{
    const auto &geom = device_.geometry();
    MITHRIL_ASSERT(channel_ < geom.channels);
    MITHRIL_ASSERT(params_.queueCapacity > 0);
    firstRank_ = channel_ * geom.ranksPerChannel;
    firstBank_ = firstRank_ * geom.banksPerRank;
    device_.protection().setRaaRefDecrement(params_.raaRefDecrement);
    banks_.resize(geom.ranksPerChannel * geom.banksPerRank);
    wordsPerRank_ = (geom.banksPerRank + 63) / 64;
    nonEmpty_.assign(geom.ranksPerChannel * wordsPerRank_, 0);
    owing_.assign(nonEmpty_.size(), 0);

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
    if (queued_ >= params_.queueCapacity)
        return false;
    queueDepth_.sample(static_cast<double>(queued_));
    std::uint32_t id;
    if (freeSlots_.empty()) {
        id = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        id = freeSlots_.back();
        freeSlots_.pop_back();
    }
    Slot &slot = slots_[id];
    slot.req = req;
    slot.req.arrival = now;
    slot.req.seq = seq_++;

    // Append at the bank's tail: seq grows, so every list stays in
    // seq order.
    BankCtl &ctl = bankCtl(req.bank);
    slot.prev = ctl.tail;
    slot.next = kNoSlot;
    (ctl.tail == kNoSlot ? ctl.head : slots_[ctl.tail].next) = id;
    ctl.tail = id;
    ++ctl.queued;
    if (ctl.open && req.row == device_.bank(req.bank).openRow())
        ++ctl.openHits;
    refreshFence(req.bank);
    const auto [word, bit] = bankBit(req.bank);
    nonEmpty_[word] |= bit;
    ++queued_;
    hintUntil_ = 0;
    return true;
}

void
Controller::release(std::uint32_t id)
{
    const Slot &slot = slots_[id];
    BankCtl &ctl = bankCtl(slot.req.bank);
    (slot.prev == kNoSlot ? ctl.head : slots_[slot.prev].next) =
        slot.next;
    (slot.next == kNoSlot ? ctl.tail : slots_[slot.next].prev) =
        slot.prev;
    --ctl.queued;
    if (ctl.open && slot.req.row == device_.bank(slot.req.bank).openRow())
        --ctl.openHits;
    if (ctl.head == kNoSlot) {
        const auto [word, bit] = bankBit(slot.req.bank);
        nonEmpty_[word] &= ~bit;
    }
    freeSlots_.push_back(id);
    --queued_;
}

std::pair<std::size_t, std::uint64_t>
Controller::bankBit(BankId bank) const
{
    const std::uint32_t bpr = device_.geometry().banksPerRank;
    const std::uint32_t rank = device_.rankOf(bank) - firstRank_;
    const std::uint32_t k = bank % bpr;
    return {static_cast<std::size_t>(rank) * wordsPerRank_ + k / 64,
            1ull << (k % 64)};
}

void
Controller::refreshFence(BankId b)
{
    BankCtl &ctl = bankCtl(b);
    const dram::Bank &bank = device_.bank(b);
    if (!ctl.open) {
        ctl.fence = bank.earliestAct(0);
        return;
    }
    // Minimalist-open: past the cap every request is a miss.
    const std::uint32_t hits =
        ctl.rowHitStreak < params_.maxRowHits ? ctl.openHits : 0;
    ctl.fence =
        std::min(hits > 0 ? bank.earliestCol(0) : kTickMax,
                 ctl.queued > hits ? bank.earliestPre(0) : kTickMax);
}

bool
Controller::idle() const
{
    return queued_ == 0 &&
           std::all_of(owing_.begin(), owing_.end(),
                       [](std::uint64_t word) { return word == 0; });
}

void
Controller::noteServed(std::uint32_t core, Tick t)
{
    if (!params_.useBliss)
        return;
    if (bliss_.lastCore == core) {
        if (++bliss_.streak > params_.blissStreak) {
            if (core >= bliss_.blacklistUntil.size())
                bliss_.blacklistUntil.resize(core + 1, 0);
            bliss_.blacklistUntil[core] = t + params_.blissDuration;
        }
    } else {
        bliss_.lastCore = core;
        bliss_.streak = 1;
    }
}

Tick
Controller::nextRefreshThreshold(Tick t0) const
{
    const Tick drain_lead = 2 * device_.timing().tRC;
    Tick next = kTickMax;
    for (const Tick due : refreshDue_) {
        if (t0 < due - drain_lead)
            next = std::min(next, due - drain_lead);
        else if (t0 < due)
            next = std::min(next, due);
    }
    return next;
}

Controller::Decision
Controller::choose(Tick t0)
{
    const auto &geom = device_.geometry();

    // Commands that cannot issue yet only lower the wake-up hint, so
    // that a stalled high-priority command never blocks ready work on
    // other banks.
    Pass pass;
    pass.t0 = t0;

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
        pass.future = std::min(pass.future, d.issue);
    }

    // Priority 2: banks owing an RFM or ARR work, in bank order; the
    // first with the least issue tick wins.
    const dram::Protection &prot = device_.protection();
#ifndef NDEBUG
    // The mask agrees with the protection core on every owned bank.
    for (std::uint32_t i = 0; i < banks_.size(); ++i) {
        const std::uint32_t k = i % geom.banksPerRank;
        const std::uint64_t word =
            owing_[i / geom.banksPerRank * wordsPerRank_ + k / 64];
        MITHRIL_ASSERT((((word >> (k % 64)) & 1) != 0) ==
                       prot.owes(firstBank_ + i));
    }
#endif
    Decision owed;
    for (std::uint32_t r = 0; r < geom.ranksPerChannel; ++r) {
        for (std::uint32_t w = 0; w < wordsPerRank_; ++w) {
            std::uint64_t bits = owing_[r * wordsPerRank_ + w];
            for (; bits; bits &= bits - 1) {
                const BankId b =
                    firstBank_ + r * geom.banksPerRank + w * 64 +
                    static_cast<std::uint32_t>(__builtin_ctzll(bits));
                const auto &bank = device_.bank(b);
                Decision d;
                d.bank = b;
                if (prot.rfmSkippable(b)) {
                    // Mithril+ MRR poll says no refresh needed: skip
                    // the RFM.
                    d.kind = Decision::Kind::MrrSkip;
                    d.issue = t0;
                } else if (bank.isOpen()) {
                    d.kind = Decision::Kind::Pre;
                    d.issue = bank.earliestPre(t0);
                } else {
                    d.kind = prot.rfmOwed(b) ? Decision::Kind::Rfm
                                             : Decision::Kind::Arr;
                    d.issue = bank.earliestRefresh(t0);
                }
                if (d.issue < owed.issue)
                    owed = d;
            }
        }
    }
    if (owed.kind != Decision::Kind::None) {
        if (owed.issue <= t0)
            return owed;
        pass.future = std::min(pass.future, owed.issue);
    }

    // Priority 3: demand requests.
    chooseDemand(pass);
    if (pass.best.kind != Decision::Kind::None)
        return pass.best;

    // Nothing is ready: report the earliest future command as the
    // wake-up hint without executing it. Fully idle, the next
    // auto-refresh still needs a wakeup.
    Decision d;
    if (pass.future != kTickMax) {
        d.issue = pass.future;
    } else {
        for (const Tick due : refreshDue_)
            d.issue = std::min(d.issue, due);
    }
    hint_ = d.issue;
    hintFrom_ = t0;
    hintUntil_ =
        pass.delayed ? 0 : std::min(hint_, nextRefreshThreshold(t0));
    return d;
}

void
Controller::chooseDemand(Pass &pass)
{
    constexpr std::uint32_t kNoBank = ~0u;
    const std::uint32_t bpr = device_.geometry().banksPerRank;
    const Tick drain_lead = 2 * device_.timing().tRC;
    // A throttle probe can hold a closed bank's ACTs past its fence, so
    // under a throttling tracker every closed bank is scanned.
    const bool throttles = device_.protection().throttles();
    for (std::uint32_t r = 0; r < refreshDue_.size(); ++r) {
        // Banks draining for an imminent REF: an all-bank REF fences
        // the whole rank, a REFsb only the rotation's target.
        std::uint32_t fenced = kNoBank;
        if (pass.t0 >= refreshDue_[r] - drain_lead) {
            if (!params_.perBankRefresh)
                continue;
            fenced = refreshBankPtr_[r];
        }
        const Tick rank_act =
            device_.rankEarliestAct(firstRank_ + r, pass.t0);
        for (std::uint32_t w = 0; w < wordsPerRank_; ++w) {
            const std::size_t word = r * wordsPerRank_ + w;
            std::uint64_t bits = nonEmpty_[word] & ~owing_[word];
            for (; bits; bits &= bits - 1) {
                const std::uint32_t k =
                    w * 64 +
                    static_cast<std::uint32_t>(__builtin_ctzll(bits));
                const BankCtl &ctl = banks_[r * bpr + k];
                const BankId b = firstBank_ + r * bpr + k;
                if (k == fenced)
                    continue;  // Draining for REF.
                const Tick fence =
                    ctl.open ? ctl.fence : std::max(ctl.fence, rank_act);
                const bool skip =
                    fence > pass.t0 && (ctl.open || !throttles);
#ifndef NDEBUG
                // The cache agrees with the device, and a full scan of
                // a skipped bank takes nothing and wakes at its fence.
                MITHRIL_ASSERT(ctl.open == device_.bank(b).isOpen());
                MITHRIL_ASSERT(ctl.open ||
                               std::max(fence, pass.t0) ==
                                   device_.earliestAct(b, pass.t0));
                if (skip) {
                    Pass full;
                    full.t0 = pass.t0;
                    if (ctl.open)
                        scanOpenBank(full, b, ctl);
                    else
                        scanClosedBank(full, b, ctl, fence);
                    MITHRIL_ASSERT(full.best.kind == Decision::Kind::None);
                    MITHRIL_ASSERT(full.future == fence);
                }
#endif
                if (skip)
                    pass.future = std::min(pass.future, fence);
                else if (ctl.open)
                    scanOpenBank(pass, b, ctl);
                else
                    scanClosedBank(pass, b, ctl,
                                   std::max(fence, pass.t0));
            }
        }
    }
}

void
Controller::scanOpenBank(Pass &pass, BankId b, const BankCtl &ctl)
{
    const dram::Bank &bank = device_.bank(b);
    // Minimalist-open: a hit counts only under the cap.
    const RowId open_row = ctl.rowHitStreak < params_.maxRowHits
                               ? bank.openRow()
                               : kInvalidRow;
    const Tick col = bank.earliestCol(pass.t0);
    const Tick pre = bank.earliestPre(pass.t0);
    for (std::uint32_t id = ctl.head; id != kNoSlot;
         id = slots_[id].next) {
        const Request &req = slots_[id].req;
        if (req.seq >= pass.bestSeq && pass.bestClass == 0)
            break;  // Later requests here cannot win.
        const bool hit = req.row == open_row;
        const Tick issue = hit ? col : pre;
        if (issue > pass.t0) {
            pass.future = std::min(pass.future, issue);
            continue;
        }
        const int cls =
            (blacklisted(req.coreId, pass.t0) ? 2 : 0) + (hit ? 0 : 1);
        if (pass.beaten(cls, req.seq))
            continue;
        Decision::Kind kind = Decision::Kind::Pre;
        if (hit)
            kind = req.isWrite ? Decision::Kind::Wr : Decision::Kind::Rd;
        pass.take(kind, b, id, cls, req.seq, issue);
    }
}

void
Controller::scanClosedBank(Pass &pass, BankId b, const BankCtl &ctl,
                           Tick act)
{
    // Every request is an ACT behind one timing fence, probed in seq
    // order when the tracker throttles. A probe's only side effect is
    // BlockHammer's epoch rotation, monotone per bank, so skipping the
    // probes of requests that cannot win never changes tracker state.
    const bool probe = device_.protection().throttles();
    for (std::uint32_t id = ctl.head; id != kNoSlot;
         id = slots_[id].next) {
        const Request &req = slots_[id].req;
        if (req.seq >= pass.bestSeq && pass.bestClass <= 1)
            break;  // Later requests here cannot win.
        const int cls = (blacklisted(req.coreId, pass.t0) ? 2 : 0) + 1;
        if (pass.beaten(cls, req.seq))
            continue;
        const Tick issue = probe ? throttledAct(req, act) : act;
        if (issue > act)
            pass.delayed = true;
        if (issue <= pass.t0) {
            pass.take(Decision::Kind::Act, b, id, cls, req.seq, issue);
            continue;
        }
        pass.future = std::min(pass.future, issue);
        if (issue == act)
            break;  // No later request can issue sooner.
    }
}

Tick
Controller::throttledAct(const Request &req, Tick act)
{
    const Tick throttled =
        device_.tracker()->throttleAct(req.bank, req.row, act);
    if (throttled <= act)
        return act;
    // Every pass re-evaluates a held ACT until it commits; count and
    // trace each one once.
    const std::pair<BankId, RowId> held{req.bank, req.row};
    if (std::find(throttledActs_.begin(), throttledActs_.end(), held) ==
        throttledActs_.end()) {
        throttledActs_.push_back(held);
        if (telemetry::EventRecorder *events =
                device_.protection().events()) {
            events->record(telemetry::EventKind::ThrottleStall, act,
                           req.bank, req.row, 0, throttled - act);
        }
        ++stats_.throttleStalls;
    }
    return throttled;
}

Tick
Controller::execute(const Decision &d)
{
    const auto &timing = device_.timing();
    Tick bus_done = d.issue + params_.commandSlot;

    switch (d.kind) {
      case Decision::Kind::Pre: {
        device_.precharge(d.bank, d.issue);
        BankCtl &ctl = bankCtl(d.bank);
        ctl.rowHitStreak = 0;
        ctl.open = false;
        ctl.openHits = 0;
        ++stats_.precharges;
        break;
      }
      case Decision::Kind::Act: {
        const Request &req = slots_[d.reqIndex].req;
        const auto held = std::find(throttledActs_.begin(),
                                    throttledActs_.end(),
                                    std::make_pair(d.bank, req.row));
        if (held != throttledActs_.end()) {
            *held = throttledActs_.back();
            throttledActs_.pop_back();
        }
        device_.activate(d.bank, req.row, d.issue);
        noteProtection(d.bank);
        BankCtl &ctl = bankCtl(d.bank);
        ctl.rowHitStreak = 0;
        ctl.open = true;
        ctl.openHits = 0;
        for (std::uint32_t id = ctl.head; id != kNoSlot;
             id = slots_[id].next)
            ctl.openHits += slots_[id].req.row == req.row;
        ++stats_.activates;
        ++stats_.rowMisses;
        break;
      }
      case Decision::Kind::Rd:
      case Decision::Kind::Wr: {
        const Request req = slots_[d.reqIndex].req;
        release(d.reqIndex);
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
        // Every bank of the rank is busy for tRFC.
        const std::uint32_t bpr = device_.geometry().banksPerRank;
        for (std::uint32_t i = 0; i < bpr; ++i)
            refreshFence(d.rank * bpr + i);
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
        break;
      }
      case Decision::Kind::Rfm:
        device_.rfm(d.bank, d.issue);
        noteProtection(d.bank);
        break;
      case Decision::Kind::MrrSkip:
        device_.protection().skipRfm(d.bank, d.issue);
        noteProtection(d.bank);
        bus_done = d.issue + params_.mrrLatency;
        break;
      case Decision::Kind::Arr:
        device_.arr(d.bank, d.issue);
        noteProtection(d.bank);
        break;
      case Decision::Kind::None:
        panic("executing a None decision");
    }
    if (d.kind != Decision::Kind::Ref)
        refreshFence(d.bank);
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
        if (hintFrom_ <= t0 && t0 < hintUntil_) {
            next = std::min(next, hint_);
            break;  // Nothing a rescan could see has changed.
        }
        const Decision d = choose(t0);
        if (d.kind == Decision::Kind::None) {
            next = std::min(next, d.issue);
            break;
        }
        if (d.issue > now) {
            next = std::min(next, d.issue);
            break;
        }
        busFree_ = execute(d);
        hintUntil_ = 0;
    }
    return next;
}

} // namespace mithril::mc
