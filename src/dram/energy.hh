/**
 * @file
 * Dynamic-energy accounting for the DRAM subsystem.
 *
 * Following the paper's methodology (Section VI-A), energy is computed by
 * counting ACTs, PREs, column bursts, auto-refresh row work, and executed
 * preventive refreshes, each weighted by a per-operation energy constant.
 * Absolute joules are not the point; the per-scheme *relative* dynamic
 * energy overhead is what the paper's Figures 7, 10(d), and 11(c) report.
 */

#ifndef MITHRIL_DRAM_ENERGY_HH
#define MITHRIL_DRAM_ENERGY_HH

#include <cstdint>

namespace mithril::dram
{

/** Per-operation dynamic energy constants (picojoules). */
struct EnergyParams
{
    double actPj = 170.0;        //!< Row activation.
    double prePj = 60.0;         //!< Precharge.
    double rdPj = 150.0;         //!< 64B read burst.
    double wrPj = 160.0;         //!< 64B write burst.
    double refRowPj = 230.0;     //!< Per-row auto-refresh work.
    double prevRefRowPj = 230.0; //!< Per-row preventive refresh work.
    double trackerOpPj = 2.0;    //!< One CAM search/update (from the
                                 //!< paper's 40nm synthesis, scaled).
};

/** Accumulates per-operation counts and reports total picojoules. */
class EnergyMeter
{
  public:
    explicit EnergyMeter(EnergyParams params = EnergyParams{})
        : params_(params)
    {
    }

    void addAct(std::uint64_t n = 1) { acts_ += n; }
    void addPre(std::uint64_t n = 1) { pres_ += n; }
    void addRead(std::uint64_t n = 1) { reads_ += n; }
    void addWrite(std::uint64_t n = 1) { writes_ += n; }
    void addRefreshRows(std::uint64_t rows) { refRows_ += rows; }
    void addPreventiveRows(std::uint64_t rows) { prevRows_ += rows; }
    void addTrackerOps(std::uint64_t n = 1) { trackerOps_ += n; }

    std::uint64_t acts() const { return acts_; }
    std::uint64_t pres() const { return pres_; }
    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t refreshRows() const { return refRows_; }
    std::uint64_t preventiveRows() const { return prevRows_; }

    /** Total dynamic energy in picojoules. */
    double totalPj() const;

    /** Energy attributable to RH protection (preventive refresh rows +
     *  tracker logic). */
    double protectionPj() const;

    void reset();

  private:
    EnergyParams params_;
    std::uint64_t acts_ = 0;
    std::uint64_t pres_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t refRows_ = 0;
    std::uint64_t prevRows_ = 0;
    std::uint64_t trackerOps_ = 0;
};

} // namespace mithril::dram

#endif // MITHRIL_DRAM_ENERGY_HH
