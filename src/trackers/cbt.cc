#include "cbt.hh"

#include <algorithm>

#include "common/logging.hh"
#include "registry/scheme_registry.hh"

namespace mithril::trackers
{

Cbt::Cbt(std::uint32_t num_banks, const CbtParams &params)
    : params_(params), trees_(num_banks)
{
    MITHRIL_ASSERT(num_banks > 0);
    MITHRIL_ASSERT(params_.nCounters >= 1);
    MITHRIL_ASSERT(params_.splitThreshold > 0);
    MITHRIL_ASSERT(params_.refreshThreshold >= params_.splitThreshold);
    MITHRIL_ASSERT(params_.rowsPerBank > 1);
    for (auto &tree : trees_)
        resetTree(tree, 0);
}

void
Cbt::resetTree(Tree &tree, Tick now) const
{
    tree.nodes.clear();
    tree.nodes.push_back(Node{0, params_.rowsPerBank, 0, -1, -1});
    tree.lastReset = now;
}

std::size_t
Cbt::findLeaf(Tree &tree, RowId row) const
{
    std::size_t idx = 0;
    while (!tree.nodes[idx].isLeaf()) {
        const Node &node = tree.nodes[idx];
        const RowId mid = node.lo + (node.hi - node.lo) / 2;
        idx = static_cast<std::size_t>(row < mid ? node.left
                                                 : node.right);
    }
    return idx;
}

bool
Cbt::countAct(Tree &tree, std::size_t &idx, RowId row,
              std::vector<RowId> &arr_aggressors)
{
    countOp();
    ++tree.nodes[idx].count;

    // Split once while the leaf is hot, space remains, and it still
    // covers more than one row. Children inherit the parent's count:
    // any row in the range may own every activation seen so far.
    if (tree.nodes[idx].count >= params_.splitThreshold &&
        tree.nodes[idx].count < params_.refreshThreshold &&
        tree.nodes[idx].hi - tree.nodes[idx].lo > 1 &&
        tree.nodes.size() + 2 <= params_.nCounters) {
        const RowId lo = tree.nodes[idx].lo;
        const RowId hi = tree.nodes[idx].hi;
        const RowId mid = lo + (hi - lo) / 2;
        const std::uint32_t inherited = tree.nodes[idx].count;
        const auto left = static_cast<std::int32_t>(tree.nodes.size());
        tree.nodes.push_back(Node{lo, mid, inherited, -1, -1});
        tree.nodes.push_back(Node{mid, hi, inherited, -1, -1});
        tree.nodes[idx].left = left;
        tree.nodes[idx].right = left + 1;
        idx = static_cast<std::size_t>(row < mid ? left : left + 1);
        countOp();
        // Inherited counts can already sit at the refresh threshold;
        // the check below handles that leaf.
    }

    if (tree.nodes[idx].count < params_.refreshThreshold)
        return false;
    // Refresh the victims of every row in the group.
    const Node &leaf = tree.nodes[idx];
    maxGroupRefreshed_ = std::max(maxGroupRefreshed_, leaf.hi - leaf.lo);
    for (RowId r = leaf.lo; r < leaf.hi; ++r)
        arr_aggressors.push_back(r);
    tree.nodes[idx].count = 0;
    return true;
}

void
Cbt::onActivate(BankId bank, RowId row, Tick now,
                std::vector<RowId> &arr_aggressors)
{
    Tree &tree = trees_.at(bank);
    if (now - tree.lastReset >= params_.resetInterval)
        resetTree(tree, now);
    std::size_t idx = findLeaf(tree, row);
    countAct(tree, idx, row, arr_aggressors);
}

std::size_t
Cbt::onActivateBatch(const ActSpan &span,
                     std::vector<RowId> &arr_aggressors)
{
    if (span.size == 0)
        return 0;
    Tree &tree = trees_.at(span.bank);

    // A tree reset can only fall inside this span when its last tick
    // crosses the reset interval (once per tREFW): take the faithful
    // scalar loop for that rare span. Otherwise no per-ACT reset
    // check is needed and the walk runs in one tight loop.
    if (span.tickAt(span.size - 1) - tree.lastReset >=
        params_.resetInterval)
        return RhProtection::onActivateBatch(span, arr_aggressors);

    RowId cached_row[2] = {kInvalidRow, kInvalidRow};
    std::size_t cached_leaf[2] = {0, 0};

    std::size_t consumed = 0;
    while (consumed < span.size) {
        const RowId row = span.rows[consumed];
        ++consumed;

        std::size_t idx;
        if (row == cached_row[0]) {
            idx = cached_leaf[0];
        } else if (row == cached_row[1]) {
            idx = cached_leaf[1];
            std::swap(cached_row[0], cached_row[1]);
            std::swap(cached_leaf[0], cached_leaf[1]);
        } else {
            idx = findLeaf(tree, row);
            cached_row[1] = cached_row[0];
            cached_leaf[1] = cached_leaf[0];
            cached_row[0] = row;
            cached_leaf[0] = idx;
        }

        const std::size_t leaf = idx;
        const bool refreshed = countAct(tree, idx, row, arr_aggressors);
        if (idx != leaf) {
            // The leaf split and is interior now; both cache ways may
            // point at it, so re-prime with the fresh child only.
            cached_row[0] = row;
            cached_leaf[0] = idx;
            cached_row[1] = kInvalidRow;
        }
        if (refreshed)
            break;
    }
    return consumed;
}

double
Cbt::tableBytesPerBank() const
{
    // Each counter carries its count plus range bookkeeping bits.
    const double bits_per_counter =
        static_cast<double>(params_.counterBits) + 2.0;
    return static_cast<double>(params_.nCounters) * bits_per_counter /
           8.0;
}

void
Cbt::mergeStatsFrom(const RhProtection &other)
{
    RhProtection::mergeStatsFrom(other);
    maxGroupRefreshed_ =
        std::max(maxGroupRefreshed_,
                 dynamic_cast<const Cbt &>(other).maxGroupRefreshed_);
}

std::size_t
Cbt::leafCount(BankId bank) const
{
    const Tree &tree = trees_.at(bank);
    std::size_t leaves = 0;
    for (const auto &node : tree.nodes)
        if (node.isLeaf())
            ++leaves;
    return leaves;
}

namespace
{

const registry::Registrar<registry::SchemeTraits> kRegisterCbt{{
    /*name=*/"cbt",
    /*display=*/"CBT",
    /*description=*/
    "counter tree that splits hot subtrees down to row granularity",
    /*aliases=*/{},
    /*uses=*/"flip",
    /*params=*/{},
    /*make=*/
    [](const ParamSet &params, const registry::SchemeContext &ctx)
        -> std::unique_ptr<RhProtection> {
        const auto knobs = registry::SchemeKnobs::fromParams(params);
        CbtParams cparams;
        cparams.nCounters = static_cast<std::uint32_t>(
            12.0e6 / static_cast<double>(knobs.flipTh));
        cparams.refreshThreshold = std::max(2u, knobs.flipTh / 4);
        cparams.splitThreshold =
            std::max(1u, cparams.refreshThreshold / 2);
        cparams.rowsPerBank = ctx.geometry.rowsPerBank;
        cparams.resetInterval = ctx.timing.tREFW;
        return std::make_unique<Cbt>(ctx.geometry.totalBanks(),
                                     cparams);
    },
}};

} // namespace

} // namespace mithril::trackers
