/**
 * @file
 * CBT — Counter-Based Tree (Seyedzadeh et al., ISCA 2018): the grouped
 * counter approach of Section III-D.
 *
 * Each bank owns an adaptive binary tree over its row-address space. A
 * node counts the ACTs landing anywhere in its range; when the count
 * reaches the split threshold and spare counters remain, the node
 * splits and both children conservatively inherit the count (any row of
 * the range could own it). When a leaf's count reaches the refresh
 * threshold, every row in its range is treated as an aggressor and the
 * whole group's victims are refreshed — which is exactly why CBT fits
 * the ARR remedy but wastes the fixed-size RFM window: an unsplit leaf
 * covers far more rows than one tRFM can refresh.
 */

#ifndef MITHRIL_TRACKERS_CBT_HH
#define MITHRIL_TRACKERS_CBT_HH

#include <cstdint>
#include <vector>

#include "trackers/rh_protection.hh"

namespace mithril::trackers
{

/** Construction parameters for CBT. */
struct CbtParams
{
    std::uint32_t nCounters;     //!< Counter budget per bank.
    std::uint32_t splitThreshold;   //!< Count at which a node splits.
    std::uint32_t refreshThreshold; //!< Count at which a leaf refreshes
                                    //!< its whole group (FlipTH/4).
    std::uint32_t rowsPerBank;
    Tick resetInterval;          //!< Tree reset period (tREFW).
    std::uint32_t counterBits = 14;
};

/** CBT grouped-counter tracker. */
class Cbt : public RhProtection
{
  public:
    Cbt(std::uint32_t num_banks, const CbtParams &params);

    std::string name() const override { return "CBT"; }
    Location location() const override { return Location::Mc; }
    bool throttles() const override { return false; }

    void onActivate(BankId bank, RowId row, Tick now,
                    std::vector<RowId> &arr_aggressors) override;

    /** Batched hot path: onActivate()'s per-ACT step with the
     *  bank/reset bookkeeping hoisted out of the loop and a 2-way
     *  (row -> leaf) cache, so repeated hammer rows skip the root
     *  walk; falls back to the scalar loop for the rare span that
     *  crosses a tree-reset boundary. Byte-identical to the scalar
     *  loop (the existing engine equivalence suite pins it). */
    std::size_t onActivateBatch(const ActSpan &span,
                                std::vector<RowId> &arr_aggressors)
        override;

    double tableBytesPerBank() const override;

    void mergeStatsFrom(const RhProtection &other) override;

    const CbtParams &params() const { return params_; }

    /** Leaves currently allocated in a bank's tree. */
    std::size_t leafCount(BankId bank) const;

    /** Largest group ever refreshed at once (RFM-misfit signature). */
    std::uint32_t maxGroupRefreshed() const { return maxGroupRefreshed_; }

  private:
    struct Node
    {
        RowId lo;
        RowId hi;  //!< Exclusive.
        std::uint32_t count = 0;
        std::int32_t left = -1;
        std::int32_t right = -1;
        bool isLeaf() const { return left < 0; }
    };

    struct Tree
    {
        std::vector<Node> nodes;
        Tick lastReset = 0;
    };

    /** Walk to the leaf covering the row. */
    std::size_t findLeaf(Tree &tree, RowId row) const;

    /** Count one ACT on the row's leaf `idx`, split it at most once
     *  (`idx` moves to the row's child), and at the refresh threshold
     *  book the leaf's whole group for ARR and return true. */
    bool countAct(Tree &tree, std::size_t &idx, RowId row,
                  std::vector<RowId> &arr_aggressors);

    void resetTree(Tree &tree, Tick now) const;

    CbtParams params_;
    std::vector<Tree> trees_;
    std::uint32_t maxGroupRefreshed_ = 0;
};

} // namespace mithril::trackers

#endif // MITHRIL_TRACKERS_CBT_HH
