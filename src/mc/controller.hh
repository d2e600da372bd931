/**
 * @file
 * The per-channel memory-controller frontend.
 *
 * One Controller instance owns exactly one channel of the geometry:
 * its request queue, its command bus, its BLISS state, and — for the
 * channel's rank slice — the DDR5 RAA (rolling accumulated ACT)
 * counters, RFM issue at RFM_TH per Figure 1, pending ARR preventive
 * refreshes for the ARR-based baselines, and the auto-refresh cadence
 * (all-bank REF every tREFI, or the REFsb rotation). Requests are
 * arbitrated with BLISS (FR-FCFS + served-streak blacklisting) under
 * a minimalist-open page policy.
 *
 * A multi-channel System builds one Controller per channel and
 * interleaves their service() loops deterministically (min-tick, ties
 * by channel index); because a controller touches only its own
 * channel's ranks/banks of the Device, the per-channel instances may
 * also advance in parallel within a causality window. Cross-channel
 * statistics merge through ControllerStats::mergeFrom() in channel
 * order — the same partition-and-merge discipline the sharded
 * ActStream engine uses for banks.
 *
 * The controller is event-driven: service(now) issues every command
 * legal at `now` and returns the next tick it needs servicing.
 */

#ifndef MITHRIL_MC_CONTROLLER_HH
#define MITHRIL_MC_CONTROLLER_HH

#include <deque>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.hh"
#include "common/types.hh"
#include "dram/device.hh"
#include "mc/address_map.hh"
#include "mc/request.hh"
#include "trackers/rh_protection.hh"

namespace mithril::telemetry
{
class EventRecorder;
class MetricSheet;
}

namespace mithril::mc
{

/** Controller tuning knobs. */
struct ControllerParams
{
    std::uint32_t queueCapacity = 64;   //!< Requests per channel.
    bool useBliss = true;               //!< BLISS vs plain FR-FCFS.
    std::uint32_t blissStreak = 4;      //!< Served streak before
                                        //!< blacklisting.
    Tick blissDuration = usToTick(8.0); //!< Blacklist duration.
    std::uint32_t maxRowHits = 4;       //!< Minimalist-open hit cap.
    /** Use DDR5 same-bank refresh (REFsb): one bank refreshed every
     *  tREFI/banksPerRank instead of an all-bank REF every tREFI. */
    bool perBankRefresh = false;
    /** DDR5 RAA decrement applied by each REF the bank receives
     *  (0 = the paper's reset-only RAA semantics). */
    std::uint32_t raaRefDecrement = 0;
    Tick commandSlot = nsToTick(0.83);  //!< Command bus occupancy.
    Tick mrrLatency = nsToTick(2.0);    //!< Mithril+ MRR poll cost
                                        //!< (command-bus occupancy).
};

/** Aggregate controller statistics (one channel's slice). */
struct ControllerStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t activates = 0;
    std::uint64_t precharges = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t rfmIssued = 0;
    std::uint64_t rfmSkippedByMrr = 0;  //!< Mithril+ avoided commands.
    std::uint64_t arrExecuted = 0;
    std::uint64_t throttleStalls = 0;  //!< ACTs a throttle delayed.
    double totalReadLatencyNs = 0.0;
    /** Read latency distribution (ns), 20ns buckets up to 2us. */
    Histogram readLatencyNs{0.0, 2000.0, 100};

    double avgReadLatencyNs() const
    {
        return reads ? totalReadLatencyNs / static_cast<double>(reads)
                     : 0.0;
    }

    /** Fold another channel's statistics into this one (sums; the
     *  latency histogram merges bucket-wise). Folding in channel
     *  order makes the merged sheet deterministic at any pool size. */
    void mergeFrom(const ControllerStats &other);
};

/** Event-driven DDR5 memory controller for one channel. */
class Controller
{
  public:
    /** Callback fired when a request's data completes. */
    using CompletionFn =
        std::function<void(const Request &, Tick completion)>;

    /**
     * Build the frontend for `channel` of the device's geometry. The
     * controller drives only that channel's ranks and banks; the
     * Device (and AddressMap) may be shared with other channels'
     * controllers only if the caller serializes their service calls.
     */
    Controller(dram::Device &device, const AddressMap &map,
               const ControllerParams &params,
               std::uint32_t channel = 0);

    void setCompletionCallback(CompletionFn fn)
    {
        onComplete_ = std::move(fn);
    }

    /** Enqueue a decoded request targeting this controller's channel;
     *  false when the queue is full. */
    bool enqueue(const Request &req, Tick now);

    /** Outstanding requests in the channel queue. */
    std::size_t queueDepth() const { return queue_.size(); }

    /** The channel this controller owns. */
    std::uint32_t channel() const { return channel_; }

    /**
     * Issue every command legal at `now`; returns the next tick the
     * controller can make progress (kTickMax when fully idle).
     */
    Tick service(Tick now);

    const ControllerStats &stats() const { return stats_; }
    dram::Device &device() { return device_; }

    /** Set this channel's `mc.*` command and request counters. */
    void exportMetrics(telemetry::MetricSheet &sheet) const;

    /**
     * Attach a mitigation-event recorder: RFM issue/skip, executed
     * ARRs, and throttle stalls emit trace events at their issue
     * ticks. Observation only — never affects scheduling. Null
     * detaches.
     */
    void setEventRecorder(telemetry::EventRecorder *recorder)
    {
        eventRecorder_ = recorder;
    }

    /** True when the queue and every pending-work list is empty. */
    bool idle() const;

  private:
    /** A scheduling decision for one instant on this channel. */
    struct Decision
    {
        enum class Kind
        {
            None,
            Pre,
            Act,
            Rd,
            Wr,
            Ref,
            RefSb,
            Rfm,
            MrrSkip,
            Arr,
        };

        Kind kind = Kind::None;
        Tick issue = kTickMax;
        BankId bank = 0;            //!< Global (system-flat) bank id.
        std::uint32_t rank = 0;     //!< Global flat rank id.
        std::size_t reqIndex = 0;   //!< For Rd/Wr/Act/Pre on a request.
        RowId arrAggressor = 0;
    };

    struct BankCtl
    {
        std::uint32_t raa = 0;
        bool rfmRequired = false;
        std::deque<RowId> pendingArr;
        std::uint32_t rowHitStreak = 0;
    };

    struct BlissState
    {
        std::uint32_t lastCore = ~0u;
        std::uint32_t streak = 0;
        std::unordered_map<std::uint32_t, Tick> blacklistUntil;
    };

    /** Pick the next command given bus-free tick t0. */
    Decision choose(Tick t0);

    /** Commit a decision; returns the tick the bus frees. */
    Tick execute(const Decision &d);

    bool blacklisted(std::uint32_t core, Tick t) const;
    void noteServed(std::uint32_t core, Tick t);

    /** True when the bank must drain for an imminent auto-refresh.
     *  `rank` is the global flat rank id. */
    bool refreshPressing(std::uint32_t rank, BankId bank,
                         Tick t) const;

    /** Apply the DDR5 RAA decrement to one refreshed bank. */
    void decrementRaa(BankId bank);

    void handleActSideEffects(BankId bank, Tick t,
                              std::vector<RowId> &arr_out);

    /** Per-bank control state of a global bank id in our channel. */
    BankCtl &bankCtl(BankId bank) { return banks_[bank - firstBank_]; }

    dram::Device &device_;
    const AddressMap &map_;
    ControllerParams params_;
    std::uint32_t channel_;
    std::uint32_t firstRank_;     //!< First global flat rank we own.
    BankId firstBank_;            //!< First global bank id we own.
    CompletionFn onComplete_;

    std::vector<Request> queue_;  //!< The channel's request queue.
    Tick busFree_ = 0;            //!< The channel's command bus.
    BlissState bliss_;
    std::vector<Tick> refreshDue_;               //!< Per owned rank.
    std::vector<std::uint32_t> refreshBankPtr_;  //!< Per owned rank
                                                 //!< (REFsb rotation).
    /** REFsb cadence remainder per owned rank: tREFI rarely divides
     *  by banksPerRank, so the integer step alone would drift the
     *  rotation early by up to banksPerRank-1 ticks per tREFI. The
     *  carry spreads the remainder Bresenham-style so banksPerRank
     *  REFsb commands span exactly tREFI. */
    std::vector<Tick> refsbCarry_;
    std::vector<BankCtl> banks_;                 //!< Per owned bank.

    std::uint64_t seq_ = 0;
    ControllerStats stats_;
    /** (bank, row) of every ACT a throttle has held back and that has
     *  not committed yet: one stall per delayed ACT, not per pass. */
    std::vector<std::pair<BankId, RowId>> throttledActs_;
    /** ARR/RFM aggressor scratch — the same reusable-buffer protocol
     *  the ActStream engine uses (trackers append, frontend drains). */
    trackers::ActScratch scratch_;
    /** Non-null while mitigation-event tracing is enabled. */
    telemetry::EventRecorder *eventRecorder_ = nullptr;
};

} // namespace mithril::mc

#endif // MITHRIL_MC_CONTROLLER_HH
