/**
 * @file
 * Full-system simulation: cores + shared LLC + per-channel memory
 * controllers + DRAM + protection scheme, co-simulated event-driven.
 *
 * The memory side is one dram::Device, one tracker and one collector
 * bundle: a dram::Parts of one part. Mithril keeps its protection
 * state per bank and RFM is a per-bank command, so nothing needs a
 * per-channel copy. Each channel is a lane that holds only its
 * mc::Controller and its next service tick; every controller drives
 * the one Device. The event loop interleaves lane service ticks
 * deterministically — minimum next-tick first, ties broken by channel
 * index. Due lanes advance one at a time, in channel order, through a
 * causality window bounded by the DRAM data latency: a command issued
 * at tick t cannot produce a cross-lane effect (a core wakeup, hence
 * a new request) before t + min(tCL, tCWL) + tBL, so every lane can
 * run up to that horizon without observing the others. A completion
 * enters the event queue as its controller reports it and an ACT
 * reaches the observer as the Device commits it, so both arrive
 * channel-major within a window.
 */

#ifndef MITHRIL_SIM_SYSTEM_HH
#define MITHRIL_SIM_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "cpu/cache.hh"
#include "cpu/core.hh"
#include "dram/device.hh"
#include "dram/parts.hh"
#include "mc/controller.hh"
#include "telemetry/telemetry.hh"
#include "trackers/rh_protection.hh"
#include "workload/trace.hh"

namespace mithril::sim
{

/** Whole-system configuration (Table III defaults). */
struct SystemConfig
{
    dram::Timing timing = dram::ddr5_4800();
    dram::Geometry geometry = dram::paperGeometry();
    std::uint32_t flipTh = 6250;      //!< Oracle ground truth.
    std::uint32_t blastRadius = 1;
    mc::ControllerParams mcParams;
    cpu::CacheParams cacheParams;
    Tick horizon = msToTick(200.0);   //!< Hard stop for attack-only runs.
};

/** The simulated machine. */
class System
{
  public:
    /** Builds the one tracker instance (a null factory — or one
     *  returning null — leaves the System unprotected). */
    using TrackerFactory = dram::Parts::TrackerFactory;

    /** `telemetry` selects the collectors (off by default); they
     *  attach when run() starts, so nothing fed to the tracker before
     *  (warm-up) is observed. */
    System(const SystemConfig &config, const TrackerFactory &make_tracker,
           const telemetry::TelemetryConfig &telemetry = {});

    /** The controllers and their callbacks hold this System's address
     *  and its Device's. */
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Add a core running the given trace. The System owns both. */
    cpu::Core &addCore(const cpu::CoreParams &params,
                       std::unique_ptr<workload::TraceGenerator> trace);

    /**
     * Run until every non-excluded core finishes, or the horizon, or a
     * stall: no request completed or was enqueued for one tREFW while a
     * benign core waits on a miss. No legitimate wait is that long
     * (BlockHammer's throttle delay, the longest, stays below tCBF =
     * tREFW), so a stall means a protection that fences every bank
     * forever, e.g. an RFM owed after every ACT.
     */
    void run();

    /** True when run() stopped at a stall. */
    bool stalled() const { return stalled_; }

    /** Tick of the last request completion (0 when none). */
    Tick lastCompletion() const { return lastCompletion_; }

    /** Sum of non-excluded cores' IPC (the paper's aggregate metric). */
    double aggregateIpc() const;

    /** Number of channels, one lane each (== geometry.channels). */
    std::uint32_t channels() const
    {
        return static_cast<std::uint32_t>(lanes_.size());
    }

    mc::Controller &controller(std::uint32_t channel = 0)
    {
        return *lanes_.at(channel).controller;
    }
    /** The one part: its tracker, collectors, the tracker warm-up and
     *  the protection reductions. */
    dram::Parts &parts() { return parts_; }
    const dram::Parts &parts() const { return parts_; }
    cpu::Cache &cache() { return *cache_; }
    const std::vector<std::unique_ptr<cpu::Core>> &cores() const
    {
        return cores_;
    }
    Tick now() const { return now_; }

    /**
     * Observe every committed ACT across all channels: the Device's
     * tap, called as each ACT commits. Lanes advance one at a time,
     * so records arrive channel-major within each service window with
     * per-bank ticks monotone — exactly what the act-trace capture
     * format requires.
     */
    void setActObserver(dram::Device::ActObserver observer);

    /** Controller statistics merged across channels (channel order). */
    mc::ControllerStats stats() const;

    /** The Device's energy counters. */
    const dram::EnergyMeter &energy() const { return device_.energy(); }

    /** Aggressors treated by RFM or ARR. */
    std::uint64_t preventiveCount() const
    {
        return parts_.counts().preventive;
    }

    /** Total dynamic energy incl. tracker logic ops, in picojoules. */
    double totalEnergyPj() const;

    /** Exclude tracker ops performed before this point (warm-up). */
    void snapshotTrackerOps();

    /**
     * The run's sheet: the Device (`dram.*`, `oracle.*`), tracker
     * (`tracker.*`) and enabled collectors (`trace.*`, `heatmap.*`),
     * each controller's `mc.*` folded in channel order, plus the
     * shared LLC (`cache.*`) and every core (`core<N>.instructions`,
     * gauge `core<N>.ipc`). Needs no telemetry bundle.
     */
    telemetry::MetricSheet telemetrySheet() const;

  private:
    /** One channel: its controller over the shared Device. */
    struct Lane
    {
        std::unique_ptr<mc::Controller> controller;
        Tick next = 0;  //!< Next tick the controller needs service.
    };

    /** A pending core event. The heap pops the least (tick, seq);
     *  seq is the insertion order, so same-tick events run in the
     *  order they were scheduled. */
    struct Event
    {
        enum class Kind : std::uint8_t
        {
            Wake,        //!< Retry the core's pending work.
            Completion,  //!< A read returned; then wake the core.
        };

        Tick tick;
        std::uint64_t seq;
        std::uint32_t core;
        Kind kind;

        /** Heap order: the later event sinks. */
        bool
        operator>(const Event &other) const
        {
            return tick > other.tick ||
                   (tick == other.tick && seq > other.seq);
        }
    };

    void pushEvent(Tick tick, std::uint32_t core, Event::Kind kind);

    /** Core memory-access callback: LLC then MC. */
    cpu::Core::AccessOutcome access(std::uint32_t core_id,
                                    const workload::TraceRecord &rec,
                                    Tick now);

    /** Service `lane` through every tick it owes in [*, window_end];
     *  returns the last tick serviced. */
    Tick advanceLane(Lane &lane, Tick window_end);

    void wakeCore(std::uint32_t core_id, Tick now);

    /** Schedule a wake for `core_id` at `when` unless one is already
     *  pending at or before it: completions and retry backoffs would
     *  otherwise each spawn their own polling chain, and a core that
     *  never blocks (e.g. one being throttled at a full queue)
     *  accumulates chains until the event queue drowns. */
    void scheduleWake(std::uint32_t core_id, Tick when);

    bool benignDone() const;

    SystemConfig config_;
    mc::AddressMap map_;
    dram::Device device_;
    dram::Parts parts_;
    std::vector<Lane> lanes_;
    std::unique_ptr<cpu::Cache> cache_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::vector<std::unique_ptr<workload::TraceGenerator>> traces_;
    std::vector<Event> events_;       //!< Min-heap on (tick, seq).
    std::uint64_t eventSeq_ = 0;
    Tick eventNow_ = 0;               //!< Tick of the last popped event.
    std::vector<Tick> coreWake_;      //!< Pending wake per core.
    Tick lookahead_;                  //!< min(tCL,tCWL)+tBL causality.
    Tick now_ = 0;
    Tick lastCompletion_ = 0;
    Tick lastEnqueue_ = 0;            //!< Tick of the last enqueue.
    bool started_ = false;
    bool stalled_ = false;
    std::uint64_t trackerOpBaseline_ = 0;
};

} // namespace mithril::sim

#endif // MITHRIL_SIM_SYSTEM_HH
