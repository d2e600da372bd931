/**
 * @file
 * Abstract interface every Row Hammer protection scheme implements.
 *
 * A tracker observes the activation stream of every bank and chooses
 * when/which rows receive preventive refreshes. The interface covers all
 * four remedy styles used by the paper's schemes:
 *
 *  - RFM-based (Mithril, PARFM): the MC issues RFM every rfmTh() ACTs;
 *    onRfm() picks aggressors to treat within the tRFM window.
 *  - ARR-based (PARA, Graphene, TWiCe, CBT): onActivate() returns
 *    aggressor rows whose victims the MC must refresh immediately.
 *  - Throttling (BlockHammer): throttleAct() delays hazardous ACTs.
 *  - Mithril+: rfmPending() lets the MC skip needless RFM commands via
 *    an MRR mode-register poll.
 */

#ifndef MITHRIL_TRACKERS_RH_PROTECTION_HH
#define MITHRIL_TRACKERS_RH_PROTECTION_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mithril::telemetry
{
class EventRecorder;
class MetricSheet;
}

namespace mithril::trackers
{

/** Where a scheme's counter structures physically live (Table I). */
enum class Location
{
    Mc,         //!< Processor-side memory controller.
    Dram,       //!< On-DRAM, per bank per chip.
    BufferChip, //!< DIMM buffer chip (TWiCe).
};

/**
 * One bank's slice of an activation batch, as the ActStream engine
 * hands it to a tracker: a contiguous SoA view of rows, all on the
 * same bank, with engine-resolved ticks. Record i activates
 * rows[i] at tick0 + i * tickStride (the engine guarantees no REF or
 * RFM boundary falls inside the span, so the stride is exact).
 */
struct ActSpan
{
    BankId bank = 0;
    const RowId *rows = nullptr;
    std::size_t size = 0;
    Tick tick0 = 0;
    Tick tickStride = 0;

    /** Tick of record i under the span's uniform stride. */
    Tick tickAt(std::size_t i) const
    {
        return tick0 + static_cast<Tick>(i) * tickStride;
    }
};

/**
 * Base class for all protection schemes.
 *
 * The base is cache-line-aligned: the sharded engine allocates one
 * tracker per shard back-to-back on the main thread, and every shard
 * worker bumps its own tracker's logic-op counter from the hot loop —
 * the alignment keeps two shards' tracker headers off one line.
 */
class alignas(64) RhProtection
{
  public:
    virtual ~RhProtection() = default;

    /** Scheme name for reports. */
    virtual std::string name() const = 0;

    /** Where the scheme is implemented. */
    virtual Location location() const = 0;

    /** True when the scheme consumes RFM commands. Must be constant
     *  over the tracker's lifetime — dram::Protection reads it once,
     *  when the tracker is attached. */
    virtual bool usesRfm() const { return false; }

    /** RFM threshold the MC must honour (0 when usesRfm() is false).
     *  Must be constant over the tracker's lifetime (cached like
     *  usesRfm()). */
    virtual std::uint32_t rfmTh() const { return 0; }

    /**
     * Observe an ACT. ARR-based schemes append aggressor rows that
     * require an immediate preventive refresh to arr_aggressors.
     */
    virtual void onActivate(BankId bank, RowId row, Tick now,
                            std::vector<RowId> &arr_aggressors) = 0;

    /**
     * Observe a span of same-bank ACTs in one call (the engine's hot
     * path). Contract, mirrored from the scalar loop it replaces:
     *
     *  - `arr_aggressors` arrives empty;
     *  - the tracker processes records in order and MUST stop after
     *    the first record that requests ARR work (its aggressors are
     *    appended to `arr_aggressors`), because preventive refreshes
     *    advance the bank clock and invalidate the remaining ticks;
     *  - returns the number of records consumed (>= 1 when
     *    span.size > 0), byte-identical in effect to calling
     *    onActivate() that many times.
     *
     * The default does exactly that scalar loop; hot trackers
     * override it with an allocation-free tight loop.
     */
    virtual std::size_t onActivateBatch(const ActSpan &span,
                                        std::vector<RowId> &arr_aggressors);

    /**
     * Consume an RFM command for the bank. Appends the aggressor rows
     * whose victims are preventively refreshed inside this tRFM window
     * (possibly none, e.g. under Mithril's adaptive refresh policy).
     */
    virtual void
    onRfm(BankId bank, Tick now, std::vector<RowId> &aggressors)
    {
        (void)bank;
        (void)now;
        (void)aggressors;
    }

    /**
     * Mithril+ hook: true when the bank's RFM is actually needed. The
     * MC polls this through an MRR read at every RAA epoch and skips
     * the RFM command when it returns false.
     */
    virtual bool rfmPending(BankId bank) const
    {
        (void)bank;
        return true;
    }

    /**
     * Throttling hook: earliest tick this ACT may legally issue. The
     * default performs no throttling.
     */
    virtual Tick throttleAct(BankId bank, RowId row, Tick now)
    {
        (void)bank;
        (void)row;
        return now;
    }

    /** Auto-refresh (REF) notification for schemes with time epochs. */
    virtual void onRefresh(BankId bank, Tick now)
    {
        (void)bank;
        (void)now;
    }

    /** Counter-table bytes per bank (for Table IV / Fig. 10e). */
    virtual double tableBytesPerBank() const = 0;

    /**
     * Fold the statistics of `other` — a tracker of the same concrete
     * type that observed a *disjoint* set of banks — into this one.
     * This is the sharded engine's join protocol: each shard runs its
     * own tracker instance over its bank partition, and the merge
     * reduces the cross-bank counters (sums for event counts, max for
     * high-water marks). Overrides must call the base, which folds
     * the logic-op counter.
     */
    virtual void mergeStatsFrom(const RhProtection &other)
    {
        logicOps_ += other.logicOps_;
    }

    /**
     * Seed-derivation hook for per-bank RNG streams (one splitmix64
     * step over the bank index). Every stochastic tracker (PARA,
     * PARFM) seeds bank b's generator with bankSeed(seed, b), so a
     * bank's draw sequence depends only on (seed, bank) — never on
     * how the banks are interleaved or partitioned across engine
     * shards. This is what makes sharded runs byte-identical to
     * single-threaded ones for the probabilistic schemes.
     */
    static std::uint64_t bankSeed(std::uint64_t seed, BankId bank);

    /** Total tracker logic operations performed (energy accounting). */
    std::uint64_t logicOps() const { return logicOps_; }

    /**
     * Attach a mitigation-event recorder (null detaches). Trackers
     * emit scheme-internal events (CbS insert/evict, ...) from their
     * scalar observation path when one is attached; trackers whose
     * batched fast path skips that bookkeeping fall back to the base
     * scalar loop while tracing — byte-identical in effect by the
     * onActivateBatch() contract, so attaching a recorder can never
     * change the simulated outcome.
     */
    void setEventRecorder(telemetry::EventRecorder *recorder)
    {
        eventRecorder_ = recorder;
    }

    /**
     * Export scheme-internal metrics into a telemetry sheet under
     * `tracker.`-prefixed dotted names. Idempotent (set, not add);
     * the base exports the logic-op counter. Called at the end of a
     * run on each shard's tracker, before the shard sheets merge.
     */
    virtual void exportMetrics(telemetry::MetricSheet &sheet) const;

  protected:
    /** Count one CAM/table operation. */
    void countOp(std::uint64_t n = 1) { logicOps_ += n; }

    /** Non-null while mitigation-event tracing is enabled. */
    telemetry::EventRecorder *eventRecorder_ = nullptr;

  private:
    std::uint64_t logicOps_ = 0;
};

} // namespace mithril::trackers

#endif // MITHRIL_TRACKERS_RH_PROTECTION_HH
