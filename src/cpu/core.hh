/**
 * @file
 * Trace-driven core model.
 *
 * Approximates the paper's 4-way out-of-order cores with the standard
 * MLP-window abstraction: instructions retire at the peak width until
 * the next memory record is due; LLC misses become DRAM reads that stay
 * outstanding, and the core stalls only when its miss window (ROB MSHR
 * budget) is full. Writes are posted. IPC falls out of instructions
 * retired over elapsed cycles.
 */

#ifndef MITHRIL_CPU_CORE_HH
#define MITHRIL_CPU_CORE_HH

#include <cstdint>
#include <functional>

#include "common/types.hh"
#include "workload/trace.hh"

namespace mithril::telemetry
{
class MetricSheet;
}

namespace mithril::cpu
{

/** Core construction parameters (Table III defaults). */
struct CoreParams
{
    double freqGhz = 3.6;
    std::uint32_t width = 4;             //!< Peak retire rate.
    std::uint32_t maxOutstanding = 16;   //!< Miss window (MLP).
    Tick llcHitLatency = nsToTick(5.0); //!< Exposed (non-overlapped)
                                        //!< part of an LLC hit.
    std::uint64_t instrBudget = 500000;  //!< Instructions to retire.
    bool excluded = false;               //!< Attacker thread: runs but
                                         //!< its IPC is not reported.
    Tick retryInterval = nsToTick(40.0); //!< MC-queue-full backoff.
};

/** One trace-driven core. */
class Core
{
  public:
    /**
     * The memory-access callback: the System decides LLC hit/miss and
     * enqueues DRAM requests. Returns the outcome the core needs.
     */
    struct AccessOutcome
    {
        bool accepted = true;    //!< False: MC queue full, retry later.
        bool missOutstanding = false;  //!< A read miss now in flight.
    };

    using AccessFn = std::function<AccessOutcome(
        std::uint32_t core_id, const workload::TraceRecord &rec,
        Tick now)>;

    Core(std::uint32_t id, const CoreParams &params,
         workload::TraceGenerator *trace);

    void setAccessFn(AccessFn fn) { access_ = std::move(fn); }

    /**
     * Run the core forward at `now`: retire instructions, issue memory
     * accesses. Returns the next tick the core needs a wakeup, or
     * kTickMax when blocked on a completion / finished.
     */
    Tick tryProgress(Tick now);

    /** A previously issued read miss completed. */
    void onCompletion(Tick now);

    bool done() const { return done_; }
    bool excluded() const { return params_.excluded; }
    std::uint32_t id() const { return id_; }

    std::uint64_t instructionsRetired() const { return retired_; }
    std::uint64_t outstanding() const { return outstanding_; }

    /** Elapsed core cycles from tick 0 to the end of its work. */
    double elapsedCycles() const;

    /** Retired instructions per cycle. */
    double ipc() const;

    /** Set the `core<id>.instructions` and `core<id>.queue_full_retries`
     *  counters and the `core<id>.ipc` gauge. */
    void exportMetrics(telemetry::MetricSheet &sheet) const;

  private:
    std::uint32_t id_;
    CoreParams params_;
    workload::TraceGenerator *trace_;
    AccessFn access_;

    Tick cycleTick_;
    Tick readyTick_ = 0;   //!< When the pending record may issue.
    Tick endTick_ = 0;     //!< When the budget was exhausted.
    std::uint64_t retired_ = 0;
    std::uint64_t outstanding_ = 0;
    /** Accesses rejected because a channel queue was full. */
    std::uint64_t queueFullRetries_ = 0;
    bool blockedOnWindow_ = false;
    bool done_ = false;
    bool havePending_ = false;
    workload::TraceRecord pending_;
};

} // namespace mithril::cpu

#endif // MITHRIL_CPU_CORE_HH
