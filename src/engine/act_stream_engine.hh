/**
 * @file
 * The ActStream engine: the one command-level simulation core every
 * maximum-rate frontend drives.
 *
 * It generalizes the historical single-bank ActHarness to the full
 * dram::Geometry (channels x ranks x banks, each bank an independent
 * clock at one ACT per tRC), consumes SoA batches of activations from
 * an ActSource, and interleaves REF (every tREFI, per the refresh-group
 * rotation), RFM (every rfmTh() ACTs), immediate ARR work, and —
 * optionally — BlockHammer-style throttling per bank exactly as the
 * harness always has, while keeping the ground-truth oracle and the
 * ACT/REF/RFM/preventive counters per bank.
 *
 * Two dispatch modes share all bookkeeping:
 *
 *  - Scalar: the faithful per-ACT port of ActHarness::activate() —
 *    one virtual tracker call per activation.
 *  - Batched (default): activations are partitioned per bank and cut
 *    into maximal runs that cross no REF or RFM boundary; each run is
 *    handed to RhProtection::onActivateBatch() with precomputed ticks
 *    (tick = run start + i*tRC), so the hot trackers amortize virtual
 *    dispatch, table lookup, and scratch management over the whole
 *    run. ARR triggers terminate a run (preventive refreshes advance
 *    the bank clock), which keeps both modes byte-identical at any
 *    batch size — pinned by the engine equivalence golden test.
 *
 * Every buffer (batch, partition scratch, ARR scratch) is reused
 * across the run, so the steady-state loop performs zero heap
 * allocations. Per-bank hot state is cache-line-aligned (one
 * `BankState` per line) so engines running on different shard threads
 * never false-share, and the batch partition is a flat counting sort
 * into one reused buffer — with a SIMD uniform-bank fast path that
 * skips it entirely for the single-bank batches sharded runs produce.
 */

#ifndef MITHRIL_ENGINE_ACT_STREAM_ENGINE_HH
#define MITHRIL_ENGINE_ACT_STREAM_ENGINE_HH

#include <cstdint>
#include <vector>

#include "common/simd.hh"
#include "dram/rh_oracle.hh"
#include "dram/timing.hh"
#include "engine/act_source.hh"
#include "trackers/rh_protection.hh"

namespace mithril::telemetry
{
class ActHeatmap;
class EngineTelemetry;
class EventRecorder;
class MetricSheet;
class PhaseProfile;
}

namespace mithril::engine
{

/** Engine configuration. */
struct EngineConfig
{
    /** Tracker dispatch strategy (see file header). */
    enum class Dispatch
    {
        Batched,
        Scalar,
    };

    dram::Timing timing;
    dram::Geometry geometry;
    std::uint32_t flipTh = 6250;
    std::uint32_t blastRadius = 1;
    Dispatch dispatch = Dispatch::Batched;
    /** Ground-truth safety accounting. Throughput benches may disable
     *  it to time the tracker/dispatch hot loop alone; safety
     *  experiments must keep it on. */
    bool enableOracle = true;
    /** Honour RhProtection::throttleAct() (System-style frontends).
     *  Off by default — the harness never throttled, and max-rate
     *  safety sweeps model an attacker that ignores advisories.
     *  Throttling is an inherently per-ACT decision, so enabling it
     *  forces scalar dispatch regardless of `dispatch`. */
    bool honorThrottle = false;

    /**
     * Optional telemetry bundle (not owned; must outlive the engine
     * and its tracker). Null — the default — costs the hot loop one
     * pointer check per batch; non-null never changes simulated
     * outcomes, only observes them. Its collectors attach to the
     * engine, oracle and tracker when run() starts, so anything fed
     * to the tracker before (warm-up) is not observed.
     */
    telemetry::EngineTelemetry *telemetry = nullptr;

    /** The historical ActHarness shape: one bank, default geometry
     *  elsewhere. */
    static EngineConfig singleBank(const dram::Timing &timing,
                                   std::uint32_t rows_per_bank,
                                   std::uint32_t flip_th,
                                   std::uint32_t blast_radius);
};

/** Multi-bank maximum-rate command stream engine. */
class ActStreamEngine
{
  public:
    ActStreamEngine(const EngineConfig &config,
                    trackers::RhProtection *tracker);

    /** Feed one activation on one bank (scalar path; advances that
     *  bank's clock by tRC, interleaving REF/RFM/ARR work as due). */
    void activate(BankId bank, RowId row);

    /** Drain the source until exhausted; returns ACTs performed. */
    std::uint64_t run(ActSource &source);

    /**
     * Drain the source until exhausted or `max_acts` activations.
     * The source is only ever asked for the remaining budget, so
     * bounded incremental runs dispatch every record they pull and
     * stay in lockstep with the source's cursor.
     */
    std::uint64_t run(ActSource &source, std::uint64_t max_acts);

    const dram::RhOracle &oracle() const { return oracle_; }
    dram::RhOracle &oracle() { return oracle_; }

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    /** Per-bank virtual clock. */
    Tick now(BankId bank = 0) const { return banks_.at(bank).now; }

    // Aggregate counters (sum over banks).
    std::uint64_t acts() const { return acts_; }
    std::uint64_t refs() const { return refs_; }
    std::uint64_t rfms() const { return rfms_; }
    std::uint64_t preventiveRefreshes() const { return preventive_; }
    std::uint64_t throttleStalls() const { return throttleStalls_; }

    // Per-bank counters.
    std::uint64_t actsAt(BankId bank) const
    {
        return banks_.at(bank).acts;
    }
    std::uint64_t refsAt(BankId bank) const
    {
        return banks_.at(bank).refs;
    }
    std::uint64_t rfmsAt(BankId bank) const
    {
        return banks_.at(bank).rfms;
    }
    std::uint64_t preventiveRefreshesAt(BankId bank) const
    {
        return banks_.at(bank).preventive;
    }

    const EngineConfig &config() const { return config_; }

    /** Set the `engine.*` counters, plus the oracle's `oracle.*`
     *  when the oracle is enabled. */
    void exportMetrics(telemetry::MetricSheet &sheet) const;

  private:
    /** Per-bank interleaving state, padded to exactly one cache line
     *  so adjacent banks — and engines on different shard threads —
     *  never false-share. */
    struct alignas(64) BankState
    {
        Tick now = 0;
        Tick nextRef = 0;
        std::uint32_t raa = 0;
        std::uint64_t acts = 0;
        std::uint64_t refs = 0;
        std::uint64_t rfms = 0;
        std::uint64_t preventive = 0;
    };
    static_assert(sizeof(BankState) == 64,
                  "BankState must fill exactly one cache line");
    static_assert(alignof(BankState) == 64,
                  "BankState must start on a cache-line boundary");

    /** Catch the bank up on every REF due at or before its clock. */
    void maybeRefresh(BankState &bs, BankId bank);

    /** Execute the immediate ARR work in scratch_ for the bank. */
    void applyArr(BankState &bs, BankId bank);

    /** Per-ACT RFM cadence bookkeeping after `consumed` ACTs. */
    void maybeRfm(BankState &bs, BankId bank, std::uint32_t consumed);

    /** Batched-dispatch processing of one bank's contiguous rows. */
    void processRun(BankState &bs, BankId bank, const RowId *rows,
                    std::size_t n);

    /** Partition a batch per bank and dispatch it. */
    void dispatchBatch(const ActBatch &batch, std::size_t n);

    EngineConfig config_;
    trackers::RhProtection *tracker_;
    dram::RhOracle oracle_;

    // Telemetry taps hoisted out of the bundle (all null when off).
    telemetry::EventRecorder *events_ = nullptr;
    telemetry::ActHeatmap *heatmap_ = nullptr;
    telemetry::PhaseProfile *phases_ = nullptr;

    // Tracker constants hoisted out of the hot loop (batched path).
    bool usesRfm_ = false;
    std::uint32_t rfmTh_ = 0;
    std::uint32_t refreshGroups_;

    std::vector<BankState> banks_;
    trackers::ActScratch scratch_;
    ActBatch batch_;

    /** REF-boundary division by tRC without a hardware divide. */
    simd::U64Divisor tRcDiv_;

    // Flat counting-sort partition scratch (reused; see
    // dispatchBatch()). partRows_ holds the batch's rows grouped by
    // bank: bank b's slice is [partOffset_[b], partOffset_[b] +
    // partCount_[b]).
    std::vector<std::uint32_t> partCount_;
    std::vector<std::uint32_t> partOffset_;
    std::vector<std::uint32_t> partCursor_;
    std::vector<RowId> partRows_;

    std::uint64_t acts_ = 0;
    std::uint64_t refs_ = 0;
    std::uint64_t rfms_ = 0;
    std::uint64_t preventive_ = 0;
    std::uint64_t throttleStalls_ = 0;
};

} // namespace mithril::engine

#endif // MITHRIL_ENGINE_ACT_STREAM_ENGINE_HH
