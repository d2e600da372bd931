/**
 * @file
 * Full-system simulation: cores + shared LLC + per-channel memory
 * controllers + DRAM + protection scheme, co-simulated event-driven.
 *
 * The memory side is partitioned by channel: each channel owns a
 * frontend lane (Device slice, Controller, tracker instance,
 * completion/ACT buffers) and the event loop interleaves lane service
 * ticks deterministically — minimum next-tick first, ties broken by
 * channel index. Due lanes advance serially, in channel order, through
 * a causality window bounded by the DRAM data latency: a command
 * issued at tick t cannot produce a cross-lane effect (a core wakeup,
 * hence a new request) before t + min(tCL, tCWL) + tBL, so every lane
 * can run up to that horizon without observing the others. Buffered
 * completions and ACT-trace records are drained in channel order after
 * each lane's window — the same partition-and-merge discipline the
 * sharded ActStream engine applies to banks. Telemetry follows it too:
 * each lane carries the per-part collector bundle an engine shard
 * has, and telemetrySheet()/mergedEvents()/mergedHeatmap() merge the
 * lanes in channel order.
 */

#ifndef MITHRIL_SIM_SYSTEM_HH
#define MITHRIL_SIM_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "cpu/cache.hh"
#include "cpu/core.hh"
#include "dram/device.hh"
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
    /** Builds one tracker instance per channel lane (a null factory —
     *  or one returning null — leaves the lanes unprotected). Matches
     *  the sharded engine's per-shard factory discipline so per-bank
     *  RNG streams stay structural via RhProtection::bankSeed. */
    using TrackerFactory =
        std::function<std::unique_ptr<trackers::RhProtection>()>;

    /** `telemetry` selects the collectors every lane carries (off by
     *  default); they attach when run() starts, so nothing fed to the
     *  trackers before (warm-up) is observed. */
    System(const SystemConfig &config, TrackerFactory make_tracker,
           const telemetry::TelemetryConfig &telemetry = {});

    /** Add a core running the given trace. The System owns both. */
    cpu::Core &addCore(const cpu::CoreParams &params,
                       std::unique_ptr<workload::TraceGenerator> trace);

    /** Run until every non-excluded core finishes (or the horizon). */
    void run();

    /** Sum of non-excluded cores' IPC (the paper's aggregate metric). */
    double aggregateIpc() const;

    /** Number of channel lanes (== geometry.channels). */
    std::uint32_t channels() const
    {
        return static_cast<std::uint32_t>(lanes_.size());
    }

    dram::Device &device(std::uint32_t channel = 0)
    {
        return *lanes_.at(channel)->device;
    }
    const dram::Device &device(std::uint32_t channel = 0) const
    {
        return *lanes_.at(channel)->device;
    }
    mc::Controller &controller(std::uint32_t channel = 0)
    {
        return *lanes_.at(channel)->controller;
    }
    const mc::Controller &controller(std::uint32_t channel = 0) const
    {
        return *lanes_.at(channel)->controller;
    }
    trackers::RhProtection *tracker(std::uint32_t channel = 0)
    {
        return lanes_.at(channel)->tracker.get();
    }
    cpu::Cache &cache() { return *cache_; }
    const std::vector<std::unique_ptr<cpu::Core>> &cores() const
    {
        return cores_;
    }
    Tick now() const { return now_; }

    /**
     * Observe every committed ACT across all channels. Records are
     * delivered in channel-major batches after each service window
     * (per-bank tick order is preserved — exactly what the act-trace
     * capture format requires). Takes effect when run() starts.
     */
    void setActObserver(dram::Device::ActObserver observer);

    /** Controller statistics merged across channels (channel order). */
    mc::ControllerStats stats() const;

    /** Energy counters merged across channels. */
    dram::EnergyMeter energy() const;

    /** Oracle ground truth merged across channels. */
    std::uint64_t bitFlips() const;
    double maxDisturbanceEver() const;

    /** Device preventive refreshes summed across channels. */
    std::uint64_t preventiveCount() const;

    /** Tracker logic operations summed across channels. */
    std::uint64_t trackerLogicOps() const;

    /** Total dynamic energy incl. tracker logic ops, in picojoules. */
    double totalEnergyPj() const;

    /** Exclude tracker ops performed before this point (warm-up). */
    void snapshotTrackerOps();

    /**
     * One fresh sheet per lane — its controller (`mc.*`), device
     * (`dram.*`, `oracle.*`), tracker (`tracker.*`) and enabled
     * collectors (`trace.*`, `heatmap.*`) — folded in channel order,
     * plus the shared LLC (`cache.*`) and every core
     * (`core<N>.instructions`, gauge `core<N>.ipc`). Needs no
     * telemetry bundle.
     */
    telemetry::MetricSheet telemetrySheet() const;

    /** Tick-ordered merge of every lane's retained trace events
     *  (empty when event tracing is off). */
    std::vector<telemetry::TraceEvent> mergedEvents() const;

    /** Union of the per-lane heatmaps (lanes own disjoint banks, so
     *  this is exact). Callable only when the heatmap is enabled. */
    telemetry::ActHeatmap mergedHeatmap() const;

  private:
    /** One channel's frontend: its controller, its Device partition
     *  (full-geometry instance of which only this channel's banks are
     *  driven — bank state is per-bank and the oracle is sparse, so
     *  the unused slice costs nothing), its tracker, its telemetry
     *  bundle (null when off), and the buffers that defer cross-lane
     *  effects to the window drain. */
    struct Lane
    {
        struct Completion
        {
            Tick tick;
            std::uint32_t coreId;
        };
        struct Act
        {
            BankId bank;
            RowId row;
            Tick tick;
        };

        std::unique_ptr<dram::Device> device;
        std::unique_ptr<trackers::RhProtection> tracker;
        std::unique_ptr<mc::Controller> controller;
        std::unique_ptr<telemetry::EngineTelemetry> telemetry;
        std::vector<Completion> completions;
        std::vector<Act> acts;
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
    telemetry::TelemetryConfig telemetry_;
    std::unique_ptr<mc::AddressMap> map_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::unique_ptr<cpu::Cache> cache_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::vector<std::unique_ptr<workload::TraceGenerator>> traces_;
    std::vector<Event> events_;       //!< Min-heap on (tick, seq).
    std::uint64_t eventSeq_ = 0;
    Tick eventNow_ = 0;               //!< Tick of the last popped event.
    std::vector<Tick> coreWake_;      //!< Pending wake per core.
    dram::Device::ActObserver actObserver_;
    Tick lookahead_;                  //!< min(tCL,tCWL)+tBL causality.
    Tick now_ = 0;
    bool started_ = false;
    std::uint64_t trackerOpBaseline_ = 0;
};

} // namespace mithril::sim

#endif // MITHRIL_SIM_SYSTEM_HH
