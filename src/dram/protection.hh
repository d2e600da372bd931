/**
 * @file
 * The RH protection protocol of one part of a run (an engine shard or
 * a System channel lane), per bank.
 *
 * Mithril relies on DDR5's RFM interface, which splits protection into
 * two sides. The memory controller counts each bank's RAA (rolling
 * accumulated ACTs) and owes the bank an RFM once RAA reaches the
 * tracker's RFM_TH; for Mithril+ it first polls MRR and skips the RFM
 * when the tracker says none is needed. The DRAM refreshes the victims
 * of the aggressors the tracker picks inside tRFM, and of every
 * aggressor an ARR-based tracker asks to be refreshed at once.
 *
 * This core is the one copy of that protocol. It owns the ground-truth
 * oracle, the tracker pointer, each bank's RAA, owed RFM and ARR
 * queue, and one set of step counters; each step makes every tracker
 * and oracle call, records its mitigation event and feeds the ACT
 * heatmap. It never decides *when* owed work runs:
 *
 *  - engine::ActStreamEngine settles a bank's owed ARRs, then its RFM
 *    or MRR skip, right after the ACT that owes them, at its max-rate
 *    clock;
 *  - mc::Controller fences an owing bank against demand and schedules
 *    the MRR poll, RFM and ARRs in its priority-2 pass, and
 *    dram::Device adds bank timing and energy to each step.
 *
 * Events have one shape in both frontends: RfmIssued carries the first
 * treated aggressor (kInvalidRow when none) and the aggressor count,
 * ArrFired fires once per refreshed aggressor with count 1.
 */

#ifndef MITHRIL_DRAM_PROTECTION_HH
#define MITHRIL_DRAM_PROTECTION_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/rh_oracle.hh"
#include "dram/timing.hh"
#include "trackers/rh_protection.hh"

namespace mithril::telemetry
{
class ActHeatmap;
class EngineTelemetry;
class EventRecorder;
}

namespace mithril::dram
{

/** One part's RFM/ARR protection protocol. */
class Protection
{
  public:
    /** A bank's step counts (or their sum over banks). */
    struct Counts
    {
        std::uint64_t acts = 0;
        std::uint64_t refs = 0;       //!< REFs the bank received.
        std::uint64_t rfms = 0;       //!< RFMs executed.
        std::uint64_t idleRfms = 0;   //!< RFMs that treated nothing.
        std::uint64_t mrrSkips = 0;   //!< RFMs an MRR poll skipped.
        std::uint64_t arrs = 0;       //!< ARR refreshes executed.
        std::uint64_t preventive = 0; //!< Aggressors treated by RFM
                                      //!< or ARR.
    };

    /** `oracle` off skips every oracle call (throughput benches). */
    Protection(const Geometry &geometry, const Timing &timing,
               std::uint32_t flip_th, std::uint32_t blast_radius,
               bool oracle = true);

    /** Attach the scheme (null = unprotected). Its usesRfm()/rfmTh()
     *  are read here, once: RhProtection pins both constant. */
    void setTracker(trackers::RhProtection *tracker);
    trackers::RhProtection *tracker() const { return tracker_; }

    /** DDR5 RAA decrement each REF applies to a bank that owes no RFM
     *  (mc::ControllerParams::raaRefDecrement; 0 = reset-only). */
    void setRaaRefDecrement(std::uint32_t decrement)
    {
        raaRefDecrement_ = decrement;
    }

    /** Route the part's mitigation events (from the oracle, the
     *  tracker and this core) and ACT heatmap to its collectors. */
    void attach(telemetry::EngineTelemetry &telemetry);

    /** The attached event recorder (null when not tracing). */
    telemetry::EventRecorder *events() const { return events_; }

    // ------------------------------------------------------ steps

    /** One ACT at tick t. */
    void activate(BankId bank, RowId row, Tick t);

    /** A run of same-bank ACTs (the engine's batched dispatch). The
     *  tracker may stop early, after the first ACT that owes ARR work;
     *  returns the ACTs consumed. */
    std::size_t activateRun(const trackers::ActSpan &span);

    /** A REF reaching the bank at tick t. */
    void refresh(BankId bank, Tick t);

    /** Execute an RFM on the bank at tick t, settling any owed one;
     *  returns the aggressors whose victims were refreshed. */
    std::size_t rfm(BankId bank, Tick t);

    /** Settle the bank's owed RFM without one: the MRR poll said the
     *  tracker needs none. */
    void skipRfm(BankId bank, Tick t);

    /** Refresh the victims of the bank's oldest owed ARR aggressor. */
    void arr(BankId bank, Tick t);

    // -------------------------------------------------- owed work

    /** Owed RFM or ARR work: the frontend must settle it before the
     *  bank's next ACT. */
    bool owes(BankId bank) const
    {
        const BankState &s = banks_[bank];
        return s.rfmOwed || s.arrHead < s.arr.size();
    }
    bool rfmOwed(BankId bank) const { return banks_[bank].rfmOwed; }
    bool arrOwed(BankId bank) const
    {
        const BankState &s = banks_[bank];
        return s.arrHead < s.arr.size();
    }

    /** The Mithril+ MRR poll: an RFM is owed but the tracker needs
     *  none. Calls RhProtection::rfmPending() only when one is owed. */
    bool rfmSkippable(BankId bank) const
    {
        return banks_[bank].rfmOwed && !tracker_->rfmPending(bank);
    }

    /** ACTs the bank may take before it owes an RFM (unbounded when
     *  the tracker takes no RFM). */
    std::uint64_t actsToRfm(BankId bank) const
    {
        return usesRfm_ ? rfmTh_ - banks_[bank].raa : ~0ull;
    }

    // --------------------------------------------------- counters

    const Counts &counts(BankId bank) const
    {
        return banks_.at(bank).counts;
    }

    /** The counts summed over banks [lo, hi) (default: all). */
    Counts total(BankId lo = 0, BankId hi = ~0u) const;

    const RhOracle &oracle() const { return oracle_; }
    RhOracle &oracle() { return oracle_; }

  private:
    /** Per-bank protocol state, padded to whole cache lines so engines
     *  on different shard threads never false-share. */
    struct alignas(64) BankState
    {
        std::uint32_t raa = 0;
        bool rfmOwed = false;
        /** Owed ARR aggressors, oldest at arrHead. */
        std::uint32_t arrHead = 0;
        std::vector<RowId> arr;
        Counts counts;
    };

    /** Book `acts` ACTs' tracker output: RAA and the ARR requests in
     *  scratch_. */
    void owe(BankState &s, std::size_t acts);

    /** Settle an owed RFM (RFM executed or skipped). */
    static void clearRfm(BankState &s)
    {
        s.raa = 0;
        s.rfmOwed = false;
    }

    RhOracle oracle_;
    bool oracleOn_;
    std::uint32_t refreshGroups_;
    trackers::RhProtection *tracker_ = nullptr;
    bool usesRfm_ = false;
    std::uint32_t rfmTh_ = 0;
    std::uint32_t raaRefDecrement_ = 0;
    std::vector<BankState> banks_;
    /** Aggressors of the current tracker call, reused across calls. */
    std::vector<RowId> scratch_;
    telemetry::EventRecorder *events_ = nullptr;
    telemetry::ActHeatmap *heatmap_ = nullptr;
};

} // namespace mithril::dram

#endif // MITHRIL_DRAM_PROTECTION_HH
