/**
 * @file
 * Whole-system DRAM device model.
 *
 * Owns every bank's state machine, rank-level ACT pacing, the energy
 * meter, and the run's dram::Protection core (the tracker, the ground
 * truth RH oracle and the RFM/ARR protocol state). A System builds one
 * Device, and each channel's memory controller drives that channel's
 * banks by committing commands; the device adds each command's bank
 * timing and energy to the core's protocol step.
 */

#ifndef MITHRIL_DRAM_DEVICE_HH
#define MITHRIL_DRAM_DEVICE_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/energy.hh"
#include "dram/protection.hh"
#include "dram/rank.hh"
#include "dram/timing.hh"
#include "trackers/rh_protection.hh"

namespace mithril::dram
{

/** The DRAM subsystem across all channels/ranks/banks. */
class Device
{
  public:
    /**
     * @param timing       Timing preset (e.g. ddr5_4800()).
     * @param geometry     System geometry.
     * @param flip_th      Ground-truth RH threshold for the oracle.
     * @param blast_radius Oracle disturbance radius.
     */
    Device(const Timing &timing, const Geometry &geometry,
           std::uint32_t flip_th, std::uint32_t blast_radius = 1);

    /** Attach the active protection scheme (may be null = unprotected). */
    void setTracker(trackers::RhProtection *tracker)
    {
        protection_.setTracker(tracker);
    }
    trackers::RhProtection *tracker() const
    {
        return protection_.tracker();
    }

    /** The protocol core: what each bank owes, and the step counts. */
    Protection &protection() { return protection_; }
    const Protection &protection() const { return protection_; }

    /** Observes every committed ACT (bank, row, issue tick) — the
     *  tap an act-trace recorder captures a System run through.
     *  Preventive/auto refreshes are not ACTs and are not reported. */
    using ActObserver = std::function<void(BankId, RowId, Tick)>;
    void setActObserver(ActObserver observer)
    {
        actObserver_ = std::move(observer);
    }

    const Timing &timing() const { return timing_; }
    const Geometry &geometry() const { return geometry_; }

    Bank &bank(BankId b) { return banks_.at(b); }
    const Bank &bank(BankId b) const { return banks_.at(b); }

    /** Flat rank index of a bank. */
    std::uint32_t rankOf(BankId b) const
    {
        return b / geometry_.banksPerRank;
    }

    /** Earliest tick an ACT anywhere in a flat rank satisfies its
     *  tRRD/tFAW pacing. */
    Tick rankEarliestAct(std::uint32_t flat_rank, Tick now) const
    {
        return ranks_.at(flat_rank).earliestAct(now);
    }

    /** Earliest tick an ACT to this bank satisfies bank+rank timing. */
    Tick earliestAct(BankId b, Tick now) const
    {
        return std::max(banks_.at(b).earliestAct(now),
                        rankEarliestAct(rankOf(b), now));
    }

    /** Commit an ACT. ARR or RFM work it makes the bank owe is
     *  queued in protection() for the controller to schedule. */
    void activate(BankId b, RowId row, Tick t);

    /** Commit a PRE. */
    void precharge(BankId b, Tick t);

    /** Commit a RD; returns data-ready tick. */
    Tick read(BankId b, Tick t);

    /** Commit a WR; returns data-done tick. */
    Tick write(BankId b, Tick t);

    /**
     * Commit an all-bank REF for one rank at tick t: every bank of the
     * rank is busy for tRFC and one refresh group of rows is refreshed.
     */
    void autoRefreshRank(std::uint32_t flat_rank, Tick t);

    /**
     * Commit a same-bank REF (DDR5 REFsb) at tick t: only this bank is
     * busy (tRFCsb) and one refresh group of its rows is refreshed.
     */
    void autoRefreshBank(BankId b, Tick t);

    /**
     * Commit an RFM to a bank: the bank is busy for tRFM and the
     * tracker decides which aggressors' victims to refresh.
     * @return Number of aggressor rows treated (0 = skipped refresh).
     */
    std::size_t rfm(BankId b, Tick t);

    /** Commit an ARR for the bank's oldest owed aggressor: its victims
     *  are refreshed at roughly one row cycle each. */
    void arr(BankId b, Tick t);

    RhOracle &oracle() { return protection_.oracle(); }
    const RhOracle &oracle() const { return protection_.oracle(); }

    EnergyMeter &energy() { return energy_; }
    const EnergyMeter &energy() const { return energy_; }

    /** Set the `dram.*` counters (energy-meter command counts, RFMs
     *  executed and those that treated nothing) plus the oracle's
     *  `oracle.*`. */
    void exportMetrics(telemetry::MetricSheet &sheet) const;

  private:
    Timing timing_;
    Geometry geometry_;
    std::vector<Bank> banks_;
    std::vector<RankTiming> ranks_;
    Protection protection_;
    EnergyMeter energy_;
    ActObserver actObserver_;
    std::uint32_t blastRadius_;
};

} // namespace mithril::dram

#endif // MITHRIL_DRAM_DEVICE_HH
