/**
 * @file
 * The ActStream engine: the one command-level simulation core every
 * maximum-rate frontend drives.
 *
 * It generalizes the historical single-bank harness to the full
 * dram::Geometry (channels x ranks x banks, each bank an independent
 * clock at one ACT per tRC), consumes SoA batches of activations from
 * an ActSource, and keeps each bank's REF cadence (every tREFI, per
 * the refresh-group rotation). The RFM/ARR protocol itself — tracker,
 * oracle, RAA, owed work and counters — is the part's
 * dram::Protection; the engine only decides when owed work runs: right
 * after the ACT that owes it, ARRs first (each blocking the bank for
 * 2*radius row cycles), then the RFM (tRFM) or its MRR skip.
 *
 * run() drains a source in batches: activations are partitioned per
 * bank and cut into maximal runs that cross no REF or RFM boundary;
 * each run is handed to dram::Protection::activateRun() with
 * precomputed ticks (tick = run start + i*tRC), so the hot trackers'
 * batch paths amortize virtual dispatch, table lookup, and scratch
 * management over the whole run. ARR triggers terminate a run
 * (preventive refreshes advance the bank clock). activate() is the
 * same protocol one ACT at a time — one virtual tracker call per
 * activation — and the engine equivalence tests pin run() to it,
 * byte for byte, at any batch size.
 *
 * Every buffer (batch, partition scratch, ARR scratch) is reused
 * across the run, so the steady-state loop performs zero heap
 * allocations. Per-bank clocks are cache-line-aligned (one
 * `BankState` per line) so engines running on different shard threads
 * never false-share, and the batch partition is a flat counting sort
 * into one reused buffer — with a uniform-bank fast path that skips it
 * entirely for the single-bank batches sharded runs produce.
 */

#ifndef MITHRIL_ENGINE_ACT_STREAM_ENGINE_HH
#define MITHRIL_ENGINE_ACT_STREAM_ENGINE_HH

#include <cstdint>
#include <vector>

#include "common/simd.hh"
#include "dram/protection.hh"
#include "dram/timing.hh"
#include "engine/act_source.hh"
#include "trackers/rh_protection.hh"

namespace mithril::telemetry
{
class EngineTelemetry;
class MetricSheet;
class PhaseProfile;
}

namespace mithril::engine
{

/** Engine configuration. */
struct EngineConfig
{
    dram::Timing timing;
    dram::Geometry geometry;
    std::uint32_t flipTh = 6250;
    std::uint32_t blastRadius = 1;
    /** Ground-truth safety accounting (dram::Protection's oracle).
     *  Throughput benches may disable it to time the tracker/dispatch
     *  hot loop alone; safety experiments must keep it on. The engine
     *  ignores RhProtection::throttleAct(): max-rate sweeps model an
     *  attacker that ignores advisories. */
    bool enableOracle = true;

    /**
     * Optional telemetry bundle (not owned; must outlive the engine
     * and its tracker). Null — the default — costs the hot loop one
     * pointer check per batch; non-null never changes simulated
     * outcomes, only observes them. Its collectors attach to the
     * protection core when run() starts, so anything fed to the
     * tracker before (warm-up) is not observed.
     */
    telemetry::EngineTelemetry *telemetry = nullptr;

    /** One bank of `rows_per_bank` rows: the shape of the max-rate
     *  safety runs (Figure 2, Theorems 1/2), which drive bank 0 with
     *  activate(0, row) or a CallbackSource. */
    static EngineConfig singleBank(const dram::Timing &timing,
                                   std::uint32_t flip_th,
                                   std::uint32_t rows_per_bank = 65536,
                                   std::uint32_t blast_radius = 1);
};

/** Multi-bank maximum-rate command stream engine. */
class ActStreamEngine
{
  public:
    ActStreamEngine(const EngineConfig &config,
                    trackers::RhProtection *tracker);

    /** Feed one activation on one bank (the per-ACT step; advances
     *  that bank's clock by tRC, interleaving REF/RFM/ARR work as
     *  due). */
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

    const dram::RhOracle &oracle() const { return protection_.oracle(); }
    dram::RhOracle &oracle() { return protection_.oracle(); }

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    /** Per-bank virtual clock. */
    Tick now(BankId bank = 0) const { return banks_.at(bank).now; }

    /** The part's protocol state and step counts. */
    const dram::Protection &protection() const { return protection_; }

    // Aggregate counters (sum over banks).
    std::uint64_t acts() const { return protection_.total().acts; }
    std::uint64_t refs() const { return protection_.total().refs; }
    std::uint64_t rfms() const { return protection_.total().rfms; }
    std::uint64_t preventiveRefreshes() const
    {
        return protection_.total().preventive;
    }

    // Per-bank counters.
    std::uint64_t actsAt(BankId bank) const
    {
        return protection_.counts(bank).acts;
    }
    std::uint64_t preventiveRefreshesAt(BankId bank) const
    {
        return protection_.counts(bank).preventive;
    }

    const EngineConfig &config() const { return config_; }

    /** Set the `engine.*` counters (`engine.rfm_skipped_mrr` and
     *  `engine.arr_executed` name what mc.* names them in a System
     *  sheet), plus the oracle's `oracle.*` when the oracle is on. */
    void exportMetrics(telemetry::MetricSheet &sheet) const;

  private:
    /** Per-bank clock, padded to exactly one cache line so adjacent
     *  banks — and engines on different shard threads — never
     *  false-share. */
    struct alignas(64) BankState
    {
        Tick now = 0;
        Tick nextRef = 0;
    };
    static_assert(sizeof(BankState) == 64,
                  "BankState must fill exactly one cache line");
    static_assert(alignof(BankState) == 64,
                  "BankState must start on a cache-line boundary");

    /** Catch the bank up on every REF due at or before its clock. */
    void maybeRefresh(BankState &bs, BankId bank);

    /** Run the bank's owed work at its clock: ARRs, then the RFM or
     *  its MRR skip. */
    void settle(BankState &bs, BankId bank);

    /** Batched processing of one bank's contiguous rows. */
    void processRun(BankState &bs, BankId bank, const RowId *rows,
                    std::size_t n);

    /** Partition a batch per bank and dispatch it. */
    void dispatchBatch(const ActBatch &batch, std::size_t n);

    EngineConfig config_;
    dram::Protection protection_;
    /** Phase profile (null unless the bundle profiles phases). */
    telemetry::PhaseProfile *phases_ = nullptr;

    std::vector<BankState> banks_;
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
};

} // namespace mithril::engine

#endif // MITHRIL_ENGINE_ACT_STREAM_ENGINE_HH
