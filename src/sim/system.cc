#include "system.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"

namespace mithril::sim
{

System::System(const SystemConfig &config,
               const TrackerFactory &make_tracker,
               const telemetry::TelemetryConfig &telemetry)
    : config_(config),
      map_(config.geometry),
      device_(config.timing, config.geometry, config.flipTh,
              config.blastRadius),
      parts_(config.geometry, 1, make_tracker, telemetry)
{
    lookahead_ =
        std::min(config_.timing.tCL, config_.timing.tCWL) +
        config_.timing.tBL;
    device_.setTracker(parts_.tracker(0));
    parts_.bind(0, device_.protection());

    // Every controller drives the one Device; run() services them one
    // after another. A completion becomes an event-queue entry as it
    // is reported, so a window's completions are numbered lane by
    // lane in channel order, which fixes the queue's tie-breaking.
    lanes_.resize(config_.geometry.channels);
    for (std::uint32_t ch = 0; ch < lanes_.size(); ++ch) {
        Lane &lane = lanes_[ch];
        lane.controller = std::make_unique<mc::Controller>(
            device_, map_, config_.mcParams, ch);
        lane.controller->setCompletionCallback(
            [this](const mc::Request &req, Tick completion) {
                if (req.tracked && req.coreId < cores_.size())
                    pushEvent(completion, req.coreId,
                              Event::Kind::Completion);
            });
    }
    cache_ = std::make_unique<cpu::Cache>(config_.cacheParams);
}

void
System::setActObserver(dram::Device::ActObserver observer)
{
    MITHRIL_ASSERT(!started_);
    device_.setActObserver(std::move(observer));
}

cpu::Core &
System::addCore(const cpu::CoreParams &params,
                std::unique_ptr<workload::TraceGenerator> trace)
{
    MITHRIL_ASSERT(!started_);
    const auto id = static_cast<std::uint32_t>(cores_.size());
    traces_.push_back(std::move(trace));
    cores_.push_back(
        std::make_unique<cpu::Core>(id, params, traces_.back().get()));
    coreWake_.push_back(kTickMax);
    cores_.back()->setAccessFn(
        [this](std::uint32_t core_id, const workload::TraceRecord &rec,
               Tick now) { return access(core_id, rec, now); });
    return *cores_.back();
}

cpu::Core::AccessOutcome
System::access(std::uint32_t core_id, const workload::TraceRecord &rec,
               Tick now)
{
    cpu::Core::AccessOutcome outcome;

    auto channelOf = [&](Addr addr) {
        mc::Request probe;
        probe.addr = addr;
        map_.decode(probe);
        return probe.channel;
    };
    auto enqueue = [&](Addr addr, bool write, bool tracked) -> bool {
        mc::Request req;
        req.addr = addr;
        req.isWrite = write;
        req.tracked = tracked;
        req.coreId = core_id;
        map_.decode(req);
        if (!lanes_[req.channel].controller->enqueue(req, now))
            return false;
        lastEnqueue_ = now;
        return true;
    };

    if (rec.uncached) {
        outcome.accepted = enqueue(rec.addr, rec.write, true);
        outcome.missOutstanding = outcome.accepted;
        return outcome;
    }

    // Reserve queue slots in every channel the access may touch
    // *before* mutating the cache, so a rejected access can retry
    // with unchanged LRU state. A miss needs one slot for the fill —
    // and, when the victim line is dirty, one slot in the channel its
    // writeback decodes to, which (for cache lines wider than the
    // channel-interleave granularity) need not be the fill's channel.
    const cpu::Cache::AccessResult found = cache_->lookup(rec.addr);
    if (!found.hit) {
        const std::uint32_t fill_ch = channelOf(rec.addr);
        std::size_t fill_need = 1;
        if (found.writeback) {
            const std::uint32_t wb_ch = channelOf(found.writebackAddr);
            if (wb_ch == fill_ch) {
                ++fill_need;
            } else if (lanes_[wb_ch].controller->queueDepth() + 1 >
                       config_.mcParams.queueCapacity) {
                outcome.accepted = false;
                return outcome;
            }
        }
        if (lanes_[fill_ch].controller->queueDepth() + fill_need >
            config_.mcParams.queueCapacity) {
            outcome.accepted = false;
            return outcome;
        }
    }

    cache_->commit(found, rec.write);
    if (found.hit)
        return outcome;  // Hit: no DRAM traffic.

    const bool accepted = enqueue(rec.addr, rec.write, true);
    MITHRIL_ASSERT(accepted);
    if (found.writeback) {
        // The slot was reserved above; a failed enqueue here would be
        // silent write loss (the bug this path regressed with before).
        const bool wb_accepted =
            enqueue(found.writebackAddr, true, false);
        MITHRIL_ASSERT_MSG(wb_accepted,
                           "cross-channel writeback dropped: no queue "
                           "slot despite reservation");
    }
    outcome.missOutstanding = true;
    return outcome;
}

void
System::wakeCore(std::uint32_t core_id, Tick now)
{
    cpu::Core &core = *cores_[core_id];
    const Tick next = core.tryProgress(now);
    if (next != kTickMax) {
        MITHRIL_ASSERT(next > now);
        scheduleWake(core_id, next);
    }
}

void
System::scheduleWake(std::uint32_t core_id, Tick when)
{
    // One live wake chain per core. A pending wake at or before `when`
    // re-derives the core's next tick when it fires, so a second event
    // would be pure overhead — and a core polling a full queue would
    // otherwise gain one chain per completion, growing the event rate
    // without bound over the run.
    if (coreWake_[core_id] <= when)
        return;
    coreWake_[core_id] = when;
    pushEvent(when, core_id, Event::Kind::Wake);
}

void
System::pushEvent(Tick tick, std::uint32_t core, Event::Kind kind)
{
    MITHRIL_ASSERT(tick >= eventNow_);
    events_.push_back(Event{tick, eventSeq_++, core, kind});
    std::push_heap(events_.begin(), events_.end(), std::greater<>());
}

bool
System::benignDone() const
{
    bool any_benign = false;
    for (const auto &core : cores_) {
        if (core->excluded())
            continue;
        any_benign = true;
        if (!core->done())
            return false;
    }
    return any_benign;
}

Tick
System::advanceLane(Lane &lane, Tick window_end)
{
    Tick t = lane.next;
    while (lane.next <= window_end) {
        t = lane.next;
        lane.next = lane.controller->service(t);
        MITHRIL_ASSERT(lane.next > t);
    }
    return t;
}

void
System::run()
{
    MITHRIL_ASSERT(!started_);
    started_ = true;

    // The collectors attach here, after any warm-up fed the tracker.
    if (telemetry::EngineTelemetry *tel = parts_.telemetry(0))
        device_.protection().attach(*tel);

    for (std::uint32_t i = 0; i < cores_.size(); ++i)
        scheduleWake(i, 0);

    while (!benignDone()) {
        Tick t_mc = kTickMax;
        for (const Lane &lane : lanes_)
            t_mc = std::min(t_mc, lane.next);
        const Tick t_ev = events_.empty() ? kTickMax : events_.front().tick;

        // A stall (see run()'s contract): the time test costs O(1) per
        // pass, and the cores are scanned only once it holds.
        const Tick t_next = std::min(t_mc, t_ev);
        if (t_next <= config_.horizon &&
            t_next > std::max(lastCompletion_, lastEnqueue_) +
                         config_.timing.tREFW &&
            std::any_of(cores_.begin(), cores_.end(), [](const auto &c) {
                return !c->excluded() && c->outstanding() > 0;
            })) {
            stalled_ = true;
            break;
        }

        if (t_mc <= t_ev) {
            // Lanes are due strictly before the next event: advance
            // every due lane through the causality window. No command
            // issued inside [t_mc, window_end] can produce a
            // completion (hence a core wakeup, hence a new request)
            // before t_mc + lookahead_, so the lanes are mutually
            // independent over the whole window.
            if (t_mc > config_.horizon)
                break;
            Tick window_end = std::min(t_ev, config_.horizon);
            window_end = std::min(window_end, t_mc + lookahead_);

            // Advance lane by lane in channel order: completions enter
            // the event queue (tie-broken by insertion sequence, hence
            // by channel) and ACTs reach the observer channel-major,
            // per-bank ticks monotone.
            for (Lane &lane : lanes_) {
                if (lane.next <= window_end)
                    now_ = std::max(now_, advanceLane(lane, window_end));
            }
            continue;
        }

        if (t_ev == kTickMax || t_ev > config_.horizon)
            break;
        std::pop_heap(events_.begin(), events_.end(), std::greater<>());
        const Event ev = events_.back();
        events_.pop_back();
        now_ = eventNow_ = ev.tick;
        if (ev.kind == Event::Kind::Completion) {
            cores_[ev.core]->onCompletion(ev.tick);
            lastCompletion_ = ev.tick;
        } else if (coreWake_[ev.core] == ev.tick) {
            coreWake_[ev.core] = kTickMax;
        }
        wakeCore(ev.core, ev.tick);
        // The event may have enqueued requests; give every lane a
        // chance to act at the current tick.
        for (Lane &lane : lanes_)
            lane.next = std::min(lane.next, now_);
    }
}

double
System::aggregateIpc() const
{
    double sum = 0.0;
    for (const auto &core : cores_) {
        if (!core->excluded())
            sum += core->ipc();
    }
    return sum;
}

mc::ControllerStats
System::stats() const
{
    mc::ControllerStats merged;
    for (const Lane &lane : lanes_)
        merged.mergeFrom(lane.controller->stats());
    return merged;
}

double
System::totalEnergyPj() const
{
    dram::EnergyMeter meter = energy();
    meter.addTrackerOps(parts_.logicOps() - trackerOpBaseline_);
    return meter.totalPj();
}

void
System::snapshotTrackerOps()
{
    trackerOpBaseline_ = parts_.logicOps();
}

telemetry::MetricSheet
System::telemetrySheet() const
{
    telemetry::MetricSheet merged = parts_.sheet(
        [this](std::uint32_t, telemetry::MetricSheet &sheet) {
            device_.exportMetrics(sheet);
        });
    // Controllers set their counters, so each exports into a fresh
    // sheet that folds in channel order.
    for (const Lane &lane : lanes_) {
        telemetry::MetricSheet sheet;
        lane.controller->exportMetrics(sheet);
        merged.mergeFrom(sheet);
    }
    // The LLC and the cores are shared by every lane.
    cache_->exportMetrics(merged);
    for (const auto &core : cores_)
        core->exportMetrics(merged);
    return merged;
}

} // namespace mithril::sim
