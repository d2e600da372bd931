/**
 * @file
 * Per-bank DRAM state machine enforcing intra-bank timing constraints.
 *
 * The memory controller queries earliestX() to find when a command may
 * legally issue, then calls the matching doX() to commit it. Inter-bank
 * constraints (tRRD/tFAW, command bus) live in Rank/Controller.
 */

#ifndef MITHRIL_DRAM_BANK_HH
#define MITHRIL_DRAM_BANK_HH

#include <algorithm>
#include <cstdint>

#include "common/types.hh"
#include "dram/timing.hh"

namespace mithril::dram
{

/** One DRAM bank: row-buffer state plus timing fences. */
class Bank
{
  public:
    explicit Bank(const Timing &timing);

    /** Row currently latched in the row buffer (kInvalidRow if closed). */
    RowId openRow() const { return openRow_; }
    bool isOpen() const { return openRow_ != kInvalidRow; }

    /** Earliest tick an ACT may issue (bank must be precharged). */
    Tick earliestAct(Tick now) const { return std::max(now, nextAct_); }
    /** Earliest tick a PRE may issue. */
    Tick earliestPre(Tick now) const { return std::max(now, nextPre_); }
    /** Earliest tick a RD/WR may issue (row must be open). */
    Tick earliestCol(Tick now) const { return std::max(now, nextCol_); }
    /** Earliest tick a REF/RFM may start (bank precharged and idle):
     *  the ACT fence, where the bank is guaranteed idle and closed. */
    Tick earliestRefresh(Tick now) const
    {
        return std::max(now, nextAct_);
    }

    /** Commit an ACT at tick t opening the given row. */
    void doActivate(Tick t, RowId row);
    /** Commit a PRE at tick t. */
    void doPrecharge(Tick t);
    /** Commit a RD at tick t; returns the tick the data burst completes. */
    Tick doRead(Tick t);
    /** Commit a WR at tick t; returns the tick the data burst completes. */
    Tick doWrite(Tick t);
    /** Occupy the bank for a refresh-like operation of given duration
     *  (REF uses tRFC, RFM uses tRFM, ARR uses caller-provided time). */
    void doRefresh(Tick t, Tick duration);

    /** Number of ACTs committed to this bank so far. */
    std::uint64_t actCount() const { return actCount_; }

  private:
    const Timing &timing_;
    RowId openRow_ = kInvalidRow;

    Tick nextAct_ = 0;   //!< Earliest next ACT.
    Tick nextPre_ = 0;   //!< Earliest next PRE.
    Tick nextCol_ = 0;   //!< Earliest next RD/WR.
    std::uint64_t actCount_ = 0;
};

} // namespace mithril::dram

#endif // MITHRIL_DRAM_BANK_HH
