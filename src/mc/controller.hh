/**
 * @file
 * The per-channel memory-controller frontend.
 *
 * One Controller instance owns exactly one channel of the geometry:
 * its request queue, its command bus, its BLISS state, the
 * auto-refresh cadence (all-bank REF every tREFI, or the REFsb
 * rotation) and the scheduling of protection work. What each bank
 * owes — an RFM once its RAA (rolling accumulated ACT) count reaches
 * RFM_TH per Figure 1, or ARR preventive refreshes for the ARR-based
 * baselines — is the Device's dram::Protection core; the controller
 * fences an owing bank against demand and issues the MRR poll, RFM or
 * ARR at the highest priority after REF. Requests are arbitrated with
 * BLISS (FR-FCFS + served-streak blacklisting) under a minimalist-open
 * page policy.
 *
 * A multi-channel System builds one Controller per channel over its
 * one Device and services them one after another, deterministically
 * (min-tick, ties by channel index); a controller touches only its
 * own channel's ranks and banks of the Device. Cross-channel
 * statistics merge through ControllerStats::mergeFrom() in channel
 * order.
 *
 * The controller is event-driven: service(now) issues every command
 * legal at `now` and returns the next tick it needs servicing.
 *
 * A scheduling pass costs O(banks), not O(queue), and walks only the
 * requests of banks that can issue. Each bank links its requests in
 * arrival order and caches its fence, the least tick any of them can
 * issue, which changes only when a request or command changes the
 * bank. Two bitmasks name the banks worth a look: the non-empty ones
 * and the ones owing RFM/ARR work. The protection phase walks only
 * the owing banks; the demand phase visits the non-empty banks that
 * owe nothing and are not draining for REF. A bank whose fence is
 * past the pass tick only offers that fence as a wake-up candidate,
 * which is all its requests would offer. A pass that finds nothing
 * ready leaves a wake-up hint that later passes reuse until anything
 * could change it (see service()).
 */

#ifndef MITHRIL_MC_CONTROLLER_HH
#define MITHRIL_MC_CONTROLLER_HH

#include <functional>
#include <utility>
#include <vector>

#include "common/histogram.hh"
#include "common/types.hh"
#include "dram/device.hh"
#include "mc/address_map.hh"
#include "mc/request.hh"

namespace mithril::telemetry
{
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
     *  (0 = the paper's reset-only RAA semantics); the controller
     *  hands it to the Device's protection core. */
    std::uint32_t raaRefDecrement = 0;
    Tick commandSlot = nsToTick(0.83);  //!< Command bus occupancy.
    Tick mrrLatency = nsToTick(2.0);    //!< Mithril+ MRR poll cost
                                        //!< (command-bus occupancy).
};

/** Aggregate controller statistics (one channel's slice). The RFM,
 *  MRR-skip and ARR counts are the protection core's, over the
 *  channel's banks. */
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
     *  latency histogram merges bucket-wise), in channel order. */
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
    std::size_t queueDepth() const { return queued_; }

    /** The channel this controller owns. */
    std::uint32_t channel() const { return channel_; }

    /**
     * Issue every command legal at `now`; returns the next tick the
     * controller can make progress (kTickMax when fully idle).
     *
     * A pass that finds nothing ready returns the least issue tick of
     * every candidate as its hint. The next pass reuses that hint
     * without rescanning while nothing was enqueued or executed since,
     * its bus-free tick is not before the hinting pass's and is below
     * the hint and below every rank's next refresh threshold, and no
     * throttle probe of the hinting pass returned a delay. Every
     * candidate's issue tick is then a fixed timing fence above the
     * pass tick, so a rescan would return the same hint; a throttle
     * delay is excluded because a later probe tick may rotate a
     * BlockHammer epoch and lift it. A bank the pass skipped at its
     * cached fence offered exactly that fence.
     */
    Tick service(Tick now);

    ControllerStats stats() const;
    dram::Device &device() { return device_; }

    /** Set this channel's `mc.*` command and request counters and the
     *  `mc.queue_depth` histogram: for each accepted request, the
     *  requests already queued ahead of it. */
    void exportMetrics(telemetry::MetricSheet &sheet) const;

    /** True when the queue and every pending-work list is empty. */
    bool idle() const;

  private:
    /** Marks the end of a bank's request list. */
    static constexpr std::uint32_t kNoSlot = ~0u;

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
        std::uint32_t reqIndex = 0; //!< Slot of the request (Rd/Wr/
                                    //!< Act/Pre on a request).
    };

    /** One queued request. Its slot id is stable while it waits; the
     *  links chain its bank's requests in seq order. */
    struct Slot
    {
        Request req;
        std::uint32_t prev = kNoSlot;
        std::uint32_t next = kNoSlot;
    };

    /** One owned bank's request list and its cached issue fence. */
    struct BankCtl
    {
        std::uint32_t rowHitStreak = 0;
        std::uint32_t head = kNoSlot;  //!< Oldest queued request.
        std::uint32_t tail = kNoSlot;  //!< Youngest queued request.
        std::uint32_t queued = 0;      //!< Requests in the list.
        std::uint32_t openHits = 0;    //!< Of those, to the open row.
        bool open = false;             //!< The bank has a row open.
        /** Open: the column fence if a row hit under the
         *  minimalist-open cap is queued, else the precharge fence if a
         *  miss is (the smaller when both are). Closed: the bank's own
         *  ACT fence, which a pass maxes with its rank's tRRD/tFAW
         *  fence. */
        Tick fence = 0;
    };

    struct BlissState
    {
        std::uint32_t lastCore = ~0u;
        std::uint32_t streak = 0;
        /** Per core id, the tick its blacklisting ends. */
        std::vector<Tick> blacklistUntil;
    };

    /**
     * One scheduling pass's running state. The demand winner is the
     * ready request with the least (class, seq): class 0/1 for a row
     * hit/miss, plus 2 when its core is blacklisted. `future` is the
     * least issue tick of every candidate that is not ready. Neither
     * depends on the order banks are visited in.
     */
    struct Pass
    {
        Tick t0 = 0;
        Decision best;
        int bestClass = 4;
        std::uint64_t bestSeq = ~0ull;
        Tick future = kTickMax;
        bool delayed = false;  //!< A throttle probe held an ACT back.

        /** True when (cls, seq) cannot beat the best ready request. */
        bool
        beaten(int cls, std::uint64_t seq) const
        {
            return cls > bestClass || (cls == bestClass && seq >= bestSeq);
        }

        /** Make the request in slot `id`, ready at `issue`, the best. */
        void
        take(Decision::Kind kind, BankId b, std::uint32_t id, int cls,
             std::uint64_t seq, Tick issue)
        {
            best.kind = kind;
            best.issue = issue;
            best.bank = b;
            best.reqIndex = id;
            bestClass = cls;
            bestSeq = seq;
        }
    };

    /** Pick the next command given bus-free tick t0. */
    Decision choose(Tick t0);

    /** The demand phase of choose(): BLISS + FR-FCFS +
     *  minimalist-open over the non-empty banks that owe no RFM/ARR
     *  work and are not draining for REF, scanning only those whose
     *  fence is at or below the pass tick. */
    void chooseDemand(Pass &pass);

    /** Offer an open bank's requests: row hits behind its column
     *  fence, misses behind its precharge fence. */
    void scanOpenBank(Pass &pass, BankId b, const BankCtl &ctl);

    /** Offer a closed bank's requests: ACTs at `act`, its bank and
     *  rank timing fence at or past the pass tick, or later where the
     *  tracker throttles the row. */
    void scanClosedBank(Pass &pass, BankId b, const BankCtl &ctl,
                        Tick act);

    /** A closed bank's ACT tick for `req` given the bank's timing
     *  fence `act`: the tracker's throttle probe, counting each held
     *  ACT once and tracing it to the protection core's recorder. */
    Tick throttledAct(const Request &req, Tick act);

    /** Commit a decision; returns the tick the bus frees. */
    Tick execute(const Decision &d);

    bool blacklisted(std::uint32_t core, Tick t) const
    {
        return params_.useBliss &&
               core < bliss_.blacklistUntil.size() &&
               bliss_.blacklistUntil[core] > t;
    }
    void noteServed(std::uint32_t core, Tick t);

    /** The earliest tick past t0 at which a rank's refresh state
     *  changes what a pass sees: the drain fence 2*tRC before a REF
     *  falls due, then the REF itself. */
    Tick nextRefreshThreshold(Tick t0) const;

    /** Unlink a served request and free its slot; the caller
     *  refreshes the bank's fence. */
    void release(std::uint32_t slot);

    /** Recompute a bank's cached fence after its requests, row
     *  buffer, hit streak or timing changed. */
    void refreshFence(BankId bank);

    /** The word and bit of an owned bank in nonEmpty_ and owing_. */
    std::pair<std::size_t, std::uint64_t> bankBit(BankId bank) const;

    /** Set or clear the bank's owing_ bit from the protection core
     *  after a command on it (ACT, RFM, MRR skip or ARR). */
    void noteProtection(BankId bank)
    {
        const auto [word, bit] = bankBit(bank);
        if (device_.protection().owes(bank))
            owing_[word] |= bit;
        else
            owing_[word] &= ~bit;
    }

    /** Per-bank control state of a global bank id in our channel. */
    BankCtl &bankCtl(BankId bank) { return banks_[bank - firstBank_]; }

    dram::Device &device_;
    const AddressMap &map_;
    ControllerParams params_;
    std::uint32_t channel_;
    std::uint32_t firstRank_;     //!< First global flat rank we own.
    BankId firstBank_;            //!< First global bank id we own.
    CompletionFn onComplete_;

    std::vector<Slot> slots_;             //!< The channel's requests.
    std::vector<std::uint32_t> freeSlots_;
    std::size_t queued_ = 0;              //!< Slots in use.
    /** One bit per owned bank that has a queued request, rank by
     *  rank in wordsPerRank_ words each. */
    std::vector<std::uint64_t> nonEmpty_;
    /** One bit per owned bank that owes RFM or ARR work, laid out
     *  like nonEmpty_. */
    std::vector<std::uint64_t> owing_;
    std::uint32_t wordsPerRank_;
    /** The last hint a pass found nothing ready at, reusable by
     *  service() for t0 in [hintFrom_, hintUntil_) (hintUntil_ is 0
     *  after any state change). */
    Tick hint_ = kTickMax;
    Tick hintFrom_ = 0;
    Tick hintUntil_ = 0;
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
    /** Requests already queued ahead of each accepted one. */
    Histogram queueDepth_;
    /** (bank, row) of every ACT a throttle has held back and that has
     *  not committed yet: one stall per delayed ACT, not per pass. */
    std::vector<std::pair<BankId, RowId>> throttledActs_;
};

} // namespace mithril::mc

#endif // MITHRIL_MC_CONTROLLER_HH
