#include "system.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"

namespace mithril::sim
{

System::System(const SystemConfig &config, TrackerFactory make_tracker,
               const telemetry::TelemetryConfig &telemetry)
    : config_(config), telemetry_(telemetry)
{
    map_ = std::make_unique<mc::AddressMap>(config_.geometry);
    lookahead_ =
        std::min(config_.timing.tCL, config_.timing.tCWL) +
        config_.timing.tBL;

    lanes_.reserve(config_.geometry.channels);
    for (std::uint32_t ch = 0; ch < config_.geometry.channels; ++ch) {
        auto lane = std::make_unique<Lane>();
        lane->device = std::make_unique<dram::Device>(
            config_.timing, config_.geometry, config_.flipTh,
            config_.blastRadius);
        if (make_tracker)
            lane->tracker = make_tracker();
        lane->device->setTracker(lane->tracker.get());
        lane->controller = std::make_unique<mc::Controller>(
            *lane->device, *map_, config_.mcParams, ch);
        if (telemetry_.any()) {
            lane->telemetry = std::make_unique<telemetry::EngineTelemetry>(
                telemetry_, config_.geometry.totalBanks());
        }

        // Completions are buffered lane-locally and turned into event
        // queue entries only at the window drain, in channel order:
        // that order fixes the event queue's tie-breaking sequence
        // numbers.
        Lane *lp = lane.get();
        lane->controller->setCompletionCallback(
            [this, lp](const mc::Request &req, Tick completion) {
                if (!req.tracked || req.coreId >= cores_.size())
                    return;
                lp->completions.push_back({completion, req.coreId});
            });
        lanes_.push_back(std::move(lane));
    }
    cache_ = std::make_unique<cpu::Cache>(config_.cacheParams);
}

void
System::setActObserver(dram::Device::ActObserver observer)
{
    MITHRIL_ASSERT(!started_);
    actObserver_ = std::move(observer);
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
        map_->decode(probe);
        return probe.channel;
    };
    auto enqueue = [&](Addr addr, bool write, bool tracked) -> bool {
        mc::Request req;
        req.addr = addr;
        req.isWrite = write;
        req.tracked = tracked;
        req.coreId = core_id;
        map_->decode(req);
        return lanes_[req.channel]->controller->enqueue(req, now);
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
            } else if (lanes_[wb_ch]->controller->queueDepth() + 1 >
                       config_.mcParams.queueCapacity) {
                outcome.accepted = false;
                return outcome;
            }
        }
        if (lanes_[fill_ch]->controller->queueDepth() + fill_need >
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

    // Observers attach here, after any warm-up fed the trackers.
    // Each lane's collectors attach to its protection core; its device
    // tap buffers records for the channel-order observer drain below.
    for (auto &lane : lanes_) {
        if (lane->telemetry)
            lane->device->protection().attach(*lane->telemetry);
        if (actObserver_) {
            Lane *lp = lane.get();
            lane->device->setActObserver(
                [lp](BankId b, RowId r, Tick t) {
                    lp->acts.push_back({b, r, t});
                });
        }
    }

    for (std::uint32_t i = 0; i < cores_.size(); ++i)
        scheduleWake(i, 0);

    while (!benignDone()) {
        Tick t_mc = kTickMax;
        for (const auto &lane : lanes_)
            t_mc = std::min(t_mc, lane->next);
        const Tick t_ev = events_.empty() ? kTickMax : events_.front().tick;

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

            // Service and drain lane by lane in channel order:
            // completions become event-queue entries (tie-broken by
            // insertion sequence — hence by channel), ACT records
            // reach the observer channel-major with per-bank ticks
            // monotone.
            for (auto &lane : lanes_) {
                if (lane->next <= window_end)
                    now_ = std::max(now_, advanceLane(*lane, window_end));
                if (actObserver_) {
                    for (const Lane::Act &act : lane->acts)
                        actObserver_(act.bank, act.row, act.tick);
                }
                lane->acts.clear();
                for (const Lane::Completion &c : lane->completions)
                    pushEvent(c.tick, c.coreId, Event::Kind::Completion);
                lane->completions.clear();
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
        } else if (coreWake_[ev.core] == ev.tick) {
            coreWake_[ev.core] = kTickMax;
        }
        wakeCore(ev.core, ev.tick);
        // The event may have enqueued requests; give every lane a
        // chance to act at the current tick.
        for (auto &lane : lanes_)
            lane->next = std::min(lane->next, now_);
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
    for (const auto &lane : lanes_)
        merged.mergeFrom(lane->controller->stats());
    return merged;
}

dram::EnergyMeter
System::energy() const
{
    dram::EnergyMeter merged;
    for (const auto &lane : lanes_)
        merged.mergeFrom(lane->device->energy());
    return merged;
}

std::uint64_t
System::bitFlips() const
{
    std::uint64_t sum = 0;
    for (const auto &lane : lanes_)
        sum += lane->device->oracle().bitFlips();
    return sum;
}

double
System::maxDisturbanceEver() const
{
    double max_d = 0.0;
    for (const auto &lane : lanes_)
        max_d = std::max(max_d,
                         lane->device->oracle().maxDisturbanceEver());
    return max_d;
}

std::uint64_t
System::preventiveCount() const
{
    std::uint64_t sum = 0;
    for (const auto &lane : lanes_)
        sum += lane->device->protection().total().preventive;
    return sum;
}

std::uint64_t
System::trackerLogicOps() const
{
    std::uint64_t sum = 0;
    for (const auto &lane : lanes_) {
        if (lane->tracker)
            sum += lane->tracker->logicOps();
    }
    return sum;
}

double
System::totalEnergyPj() const
{
    dram::EnergyMeter meter = energy();
    meter.addTrackerOps(trackerLogicOps() - trackerOpBaseline_);
    return meter.totalPj();
}

void
System::snapshotTrackerOps()
{
    trackerOpBaseline_ = trackerLogicOps();
}

telemetry::MetricSheet
System::telemetrySheet() const
{
    telemetry::MetricSheet merged;
    for (const auto &lane : lanes_) {
        telemetry::MetricSheet sheet;
        lane->controller->exportMetrics(sheet);
        lane->device->exportMetrics(sheet);
        if (lane->tracker)
            lane->tracker->exportMetrics(sheet);
        if (lane->telemetry)
            lane->telemetry->exportMetrics(sheet);
        merged.mergeFrom(sheet);
    }
    // The LLC and the cores are shared by every lane.
    cache_->exportMetrics(merged);
    for (const auto &core : cores_)
        core->exportMetrics(merged);
    return merged;
}

std::vector<telemetry::TraceEvent>
System::mergedEvents() const
{
    std::vector<const telemetry::EventRecorder *> recorders;
    for (const auto &lane : lanes_) {
        if (lane->telemetry && lane->telemetry->events())
            recorders.push_back(lane->telemetry->events());
    }
    return telemetry::mergeEvents(recorders);
}

telemetry::ActHeatmap
System::mergedHeatmap() const
{
    MITHRIL_ASSERT(telemetry_.heatmap);
    telemetry::ActHeatmap merged(config_.geometry.totalBanks(),
                                 telemetry_.heatmapRegionBudget);
    for (const auto &lane : lanes_)
        merged.mergeFrom(*lane->telemetry->heatmap());
    return merged;
}

} // namespace mithril::sim
