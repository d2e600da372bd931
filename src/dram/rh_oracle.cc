#include "rh_oracle.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "telemetry/event_trace.hh"
#include "telemetry/metric_sheet.hh"

namespace mithril::dram
{

namespace
{
/** Initial table size: up to 8 live blocks before the first growth. */
constexpr std::size_t kMinSlots = 16;
/** Marks a free slot: row / 8 < 2^29, so no block key is all ones. */
constexpr std::uint64_t kEmptyKey = ~0ull;
} // namespace

RhOracle::RhOracle(std::uint32_t banks, std::uint32_t rows_per_bank,
                   std::uint32_t flip_th, std::uint32_t blast_radius)
    : banks_(banks), rowsPerBank_(rows_per_bank), flipTh_(flip_th),
      blastRadius_(blast_radius), refreshPtr_(banks, 0)
{
    MITHRIL_ASSERT(banks_ > 0);
    MITHRIL_ASSERT(rowsPerBank_ > 0);
    MITHRIL_ASSERT(flipTh_ > 0);
    MITHRIL_ASSERT(blast_radius >= 1 && blast_radius <= 3);
    rehash(kMinSlots);
}

// ------------------------------------------------------- block table

std::size_t
RhOracle::findSlot(std::uint64_t key) const
{
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = homeSlot(key);; i = (i + 1) & mask) {
        if (keys_[i] == key)
            return i;
        if (keys_[i] == kEmptyKey)
            return keys_.size();
    }
}

RhOracle::Block &
RhOracle::blockFor(std::uint64_t key)
{
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = homeSlot(key);
    for (;; i = (i + 1) & mask) {
        if (keys_[i] == key)
            return blocks_[i];
        if (keys_[i] == kEmptyKey)
            break;
    }
    if (2 * (live_ + 1) > keys_.size()) {
        rehash(2 * keys_.size());
        return blockFor(key);  // Probes the grown table once more.
    }
    keys_[i] = key;
    blocks_[i] = Block{};
    ++live_;
    return blocks_[i];
}

void
RhOracle::rehash(std::size_t slots)
{
    const std::vector<std::uint64_t> old_keys =
        std::exchange(keys_, std::vector<std::uint64_t>(slots, kEmptyKey));
    const std::vector<Block> old_blocks =
        std::exchange(blocks_, std::vector<Block>(slots));
    hashShift_ = 64;
    for (std::size_t s = slots; s > 1; s >>= 1)
        --hashShift_;
    const std::size_t mask = slots - 1;
    for (std::size_t j = 0; j < old_keys.size(); ++j) {
        if (old_keys[j] == kEmptyKey)
            continue;
        std::size_t i = homeSlot(old_keys[j]);
        while (keys_[i] != kEmptyKey)
            i = (i + 1) & mask;
        keys_[i] = old_keys[j];
        blocks_[i] = old_blocks[j];
    }
}

void
RhOracle::eraseSlot(std::size_t i)
{
    const std::size_t mask = keys_.size() - 1;
    --live_;
    // Backward-shift deletion: pull every displaced block of the
    // probe chain over the hole so no tombstones accumulate.
    std::size_t j = i;
    for (;;) {
        j = (j + 1) & mask;
        if (keys_[j] == kEmptyKey)
            break;
        const std::size_t home = homeSlot(keys_[j]);
        // j's block may fill the hole at i iff its probe path covers
        // i: dist(home -> j) >= dist(i -> j), cyclically.
        if (((j - home) & mask) >= ((j - i) & mask)) {
            keys_[i] = keys_[j];
            blocks_[i] = blocks_[j];
            i = j;
        }
    }
    keys_[i] = kEmptyKey;
}

void
RhOracle::clearRows(BankId bank, RowId lo, RowId hi)
{
    while (lo < hi) {
        const RowId first = lo - lo % kRowsPerBlock;
        const RowId end = std::min<RowId>(hi, first + kRowsPerBlock);
        const std::size_t i = findSlot(blockKey(bank, lo));
        if (i != keys_.size()) {
            std::uint64_t *q = blocks_[i].q;
            std::fill(q + (lo - first), q + (end - first), 0);
            std::uint64_t any = 0;
            for (RowId r = 0; r < kRowsPerBlock; ++r)
                any |= q[r];
            if (any == 0)
                eraseSlot(i);
        }
        lo = end;
    }
}

// ------------------------------------------------------------ oracle

void
RhOracle::disturb(BankId bank, RowId row, std::uint32_t weight_q)
{
    auto &count = blockFor(blockKey(bank, row)).q[row % kRowsPerBlock];
    const std::uint64_t threshold_q = static_cast<std::uint64_t>(flipTh_) * 4;
    const bool was_below = count < threshold_q;
    count += weight_q;
    maxDisturbanceQ_ = std::max(maxDisturbanceQ_, count);
    if (was_below && count >= threshold_q) {
        ++bitFlips_;
        flippedRows_.insert((static_cast<std::uint64_t>(bank) << 32) | row);
        if (recorder_) {
            recorder_->record(
                telemetry::EventKind::OracleFlip, now_, bank, row,
                static_cast<std::uint32_t>(flippedRows_.size()));
        }
    } else if (recorder_ && count < threshold_q) {
        // Near-miss line: within 1/8 of FlipTH. Emit once, on the
        // crossing (pure observation; no oracle state changes).
        const std::uint64_t near_q = threshold_q - threshold_q / 8;
        if (count >= near_q && count - weight_q < near_q) {
            recorder_->record(
                telemetry::EventKind::NearMiss, now_, bank, row,
                static_cast<std::uint32_t>(threshold_q - count));
        }
    }
}

void
RhOracle::onActivate(BankId bank, RowId row)
{
    MITHRIL_ASSERT(bank < banks_);
    MITHRIL_ASSERT(row < rowsPerBank_);
    // Distance-1 neighbours take a full hit; distance-2 a quarter hit
    // (half-double style coupling); distance-3 a sixteenth, rounded to
    // zero in quarter units, so radius 3 reuses the quarter weight to
    // stay conservative.
    for (std::uint32_t d = 1; d <= blastRadius_; ++d) {
        const std::uint32_t weight_q = (d == 1) ? 4 : 1;
        if (row >= d)
            disturb(bank, row - d, weight_q);
        if (row + d < rowsPerBank_)
            disturb(bank, row + d, weight_q);
    }
}

void
RhOracle::onRowRefresh(BankId bank, RowId row)
{
    clearRows(bank, row, row + 1);
}

void
RhOracle::onNeighborRefresh(BankId bank, RowId aggressor)
{
    for (std::uint32_t d = 1; d <= blastRadius_; ++d) {
        if (aggressor >= d)
            onRowRefresh(bank, aggressor - d);
        if (aggressor + d < rowsPerBank_)
            onRowRefresh(bank, aggressor + d);
    }
}

void
RhOracle::onAutoRefresh(BankId bank, std::uint32_t groups)
{
    MITHRIL_ASSERT(bank < banks_);
    MITHRIL_ASSERT(groups > 0);
    const std::uint32_t rows = (rowsPerBank_ + groups - 1) / groups;
    RowId &ptr = refreshPtr_[bank];
    // rows <= rowsPerBank_, so the window wraps at most once.
    const std::uint32_t head = std::min(rows, rowsPerBank_ - ptr);
    clearRows(bank, ptr, ptr + head);
    clearRows(bank, 0, rows - head);
    ptr = (ptr + rows) % rowsPerBank_;
}

double
RhOracle::disturbance(BankId bank, RowId row) const
{
    const std::size_t i = findSlot(blockKey(bank, row));
    if (i == keys_.size())
        return 0.0;
    return static_cast<double>(blocks_[i].q[row % kRowsPerBlock]) / 4.0;
}

void
RhOracle::resetCounts()
{
    std::fill(keys_.begin(), keys_.end(), kEmptyKey);
    live_ = 0;
    std::fill(refreshPtr_.begin(), refreshPtr_.end(), 0);
}

void
RhOracle::exportMetrics(telemetry::MetricSheet &sheet) const
{
    sheet.setCounter("oracle.bit_flips", bitFlips());
    sheet.setCounter("oracle.flipped_rows", flippedRows());
    sheet.setGauge("oracle.max_disturbance", maxDisturbanceEver());
}

} // namespace mithril::dram
