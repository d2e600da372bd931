#include "cbs_table.hh"

#include <algorithm>
#include <cstdint>

#include "common/logging.hh"
#include "common/simd.hh"

namespace mithril::core
{

CbsTable::CbsTable(std::uint32_t n_entry, std::uint32_t counter_bits)
    : capacity_(n_entry), counterBits_(counter_bits)
{
    MITHRIL_ASSERT(capacity_ > 0);
    MITHRIL_ASSERT(counter_bits >= 2 && counter_bits <= 64);
    layoutArena();
    resetState();
}

void
CbsTable::layoutArena()
{
    bucketCap_ = capacity_ + 2;
    // Index sized to a power of two >= 2x capacity: load factor <= 1/2
    // keeps linear-probe chains short and guarantees empty slots.
    std::uint32_t slots = 16;
    while (slots < 2 * capacity_)
        slots <<= 1;
    indexMask_ = slots - 1;

    const auto align64 = [](std::size_t x) {
        return (x + 63) & ~static_cast<std::size_t>(63);
    };
    std::size_t off = 0;
    const auto carve = [&](std::size_t bytes) {
        const std::size_t at = off;
        off += align64(bytes);
        return at;
    };
    const std::size_t cap = capacity_;
    const std::size_t o_rows = carve(cap * sizeof(RowId));
    const std::size_t o_counts = carve(cap * sizeof(std::uint64_t));
    const std::size_t o_eb = carve(cap * sizeof(std::uint32_t));
    const std::size_t o_ep = carve(cap * sizeof(std::uint32_t));
    const std::size_t o_en = carve(cap * sizeof(std::uint32_t));
    const std::size_t o_bc = carve(bucketCap_ * sizeof(std::uint64_t));
    const std::size_t o_bh = carve(bucketCap_ * sizeof(std::uint32_t));
    const std::size_t o_bp = carve(bucketCap_ * sizeof(std::uint32_t));
    const std::size_t o_bn = carve(bucketCap_ * sizeof(std::uint32_t));
    const std::size_t o_bs = carve(bucketCap_ * sizeof(std::uint32_t));
    const std::size_t o_ix =
        carve(static_cast<std::size_t>(slots) * sizeof(IndexSlot));

    arena_ = std::make_unique<std::byte[]>(off + 63);
    auto *base = reinterpret_cast<std::byte *>(
        (reinterpret_cast<std::uintptr_t>(arena_.get()) + 63) &
        ~static_cast<std::uintptr_t>(63));
    rows_ = reinterpret_cast<RowId *>(base + o_rows);
    counts_ = reinterpret_cast<std::uint64_t *>(base + o_counts);
    entryBucket_ = reinterpret_cast<std::uint32_t *>(base + o_eb);
    entryPrev_ = reinterpret_cast<std::uint32_t *>(base + o_ep);
    entryNext_ = reinterpret_cast<std::uint32_t *>(base + o_en);
    bucketCount_ = reinterpret_cast<std::uint64_t *>(base + o_bc);
    bucketHead_ = reinterpret_cast<std::uint32_t *>(base + o_bh);
    bucketPrev_ = reinterpret_cast<std::uint32_t *>(base + o_bp);
    bucketNext_ = reinterpret_cast<std::uint32_t *>(base + o_bn);
    bucketSize_ = reinterpret_cast<std::uint32_t *>(base + o_bs);
    index_ = reinterpret_cast<IndexSlot *>(base + o_ix);
}

void
CbsTable::resetState()
{
    // Like the hardware, the table is always "full": every entry exists
    // from the start with counter 0 and an invalid row address. One
    // bucket (count 0) initially holds all entries.
    for (std::uint32_t e = 0; e < capacity_; ++e) {
        rows_[e] = kInvalidRow;
        counts_[e] = 0;
        entryBucket_[e] = 0;
        entryPrev_[e] = (e == 0) ? kNone : e - 1;
        entryNext_[e] = (e + 1 == capacity_) ? kNone : e + 1;
    }
    bucketCount_[0] = 0;
    bucketHead_[0] = 0;
    bucketPrev_[0] = kNone;
    bucketNext_[0] = kNone;
    bucketSize_[0] = capacity_;
    bucketUsed_ = 1;
    bucketFree_ = kNone;
    minBucket_ = 0;
    maxBucket_ = 0;

    for (std::uint32_t i = 0; i <= indexMask_; ++i)
        index_[i] = IndexSlot{kInvalidRow, 0};
    indexCount_ = 0;

    size_ = 0;
    touches_ = 0;
    inserts_ = 0;
    evictions_ = 0;
    cacheRow_[0] = kInvalidRow;
    cacheRow_[1] = kInvalidRow;
    cacheEntry_[0] = 0;
    cacheEntry_[1] = 0;
}

// ------------------------------------------------------------ flat index

std::uint32_t
CbsTable::indexFind(RowId row) const
{
    std::uint32_t i = hashRow(row) & indexMask_;
    while (index_[i].row != kInvalidRow) {
        if (index_[i].row == row)
            return i;
        i = (i + 1) & indexMask_;
    }
    return kNone;
}

void
CbsTable::indexInsert(RowId row, std::uint32_t entry)
{
    std::uint32_t i = hashRow(row) & indexMask_;
    while (index_[i].row != kInvalidRow)
        i = (i + 1) & indexMask_;
    index_[i] = IndexSlot{row, entry};
    ++indexCount_;
}

void
CbsTable::indexErase(RowId row)
{
    std::uint32_t i = indexFind(row);
    MITHRIL_ASSERT(i != kNone);
    --indexCount_;
    // Backward-shift deletion: pull every displaced element of the
    // probe chain over the hole so no tombstones accumulate.
    std::uint32_t j = i;
    for (;;) {
        j = (j + 1) & indexMask_;
        if (index_[j].row == kInvalidRow)
            break;
        const std::uint32_t home = hashRow(index_[j].row) & indexMask_;
        // j's element may fill the hole at i iff its probe path
        // covers i: dist(home -> j) >= dist(i -> j), cyclically.
        if (((j - home) & indexMask_) >= ((j - i) & indexMask_)) {
            index_[i] = index_[j];
            i = j;
        }
    }
    index_[i].row = kInvalidRow;
}

// ---------------------------------------------------------------- buckets

std::uint32_t
CbsTable::allocBucket(std::uint64_t count)
{
    std::uint32_t b;
    if (bucketFree_ != kNone) {
        b = bucketFree_;
        bucketFree_ = bucketNext_[b];
    } else {
        MITHRIL_ASSERT(bucketUsed_ < bucketCap_);
        b = bucketUsed_++;
    }
    bucketCount_[b] = count;
    bucketHead_[b] = kNone;
    bucketPrev_[b] = kNone;
    bucketNext_[b] = kNone;
    bucketSize_[b] = 0;
    return b;
}

void
CbsTable::freeBucket(std::uint32_t b)
{
    bucketNext_[b] = bucketFree_;
    bucketFree_ = b;
}

void
CbsTable::detachEntry(std::uint32_t e)
{
    const std::uint32_t b = entryBucket_[e];
    const std::uint32_t prev = entryPrev_[e];
    const std::uint32_t next = entryNext_[e];
    if (prev != kNone)
        entryNext_[prev] = next;
    else
        bucketHead_[b] = next;
    if (next != kNone)
        entryPrev_[next] = prev;
    entryPrev_[e] = kNone;
    entryNext_[e] = kNone;
    --bucketSize_[b];

    if (bucketSize_[b] == 0) {
        const std::uint32_t bp = bucketPrev_[b];
        const std::uint32_t bn = bucketNext_[b];
        if (bp != kNone)
            bucketNext_[bp] = bn;
        else
            minBucket_ = bn;
        if (bn != kNone)
            bucketPrev_[bn] = bp;
        else
            maxBucket_ = bp;
        freeBucket(b);
    }
}

void
CbsTable::attachWithCount(std::uint32_t e, std::uint64_t count,
                          std::uint32_t hint_bucket)
{
    // Find the bucket with this count, or the position to create it,
    // scanning forward from the hint (which is at most one step away in
    // every call pattern used by this class).
    std::uint32_t prev = kNone;
    std::uint32_t cur = (hint_bucket != kNone) ? hint_bucket : minBucket_;
    if (cur != kNone && bucketCount_[cur] > count) {
        // Walk back to the start; only happens when hint is past the
        // target (reset-to-min paths pass minBucket_, so this is rare).
        cur = minBucket_;
    }
    while (cur != kNone && bucketCount_[cur] < count) {
        prev = cur;
        cur = bucketNext_[cur];
    }

    std::uint32_t target;
    if (cur != kNone && bucketCount_[cur] == count) {
        target = cur;
    } else {
        target = allocBucket(count);
        bucketPrev_[target] = prev;
        bucketNext_[target] = cur;
        if (prev != kNone)
            bucketNext_[prev] = target;
        else
            minBucket_ = target;
        if (cur != kNone)
            bucketPrev_[cur] = target;
        else
            maxBucket_ = target;
    }

    entryBucket_[e] = target;
    entryPrev_[e] = kNone;
    entryNext_[e] = bucketHead_[target];
    if (bucketHead_[target] != kNone)
        entryPrev_[bucketHead_[target]] = e;
    bucketHead_[target] = e;
    ++bucketSize_[target];
    counts_[e] = count;
}

std::uint32_t
CbsTable::lookupOrEvict(RowId row)
{
    MITHRIL_ASSERT(row != kInvalidRow);
    const std::uint32_t slot = indexFind(row);
    if (slot != kNone)
        return index_[slot].entry;
    // Miss: evict the head of the minimum bucket and rename it.
    const std::uint32_t e = bucketHead_[minBucket_];
    if (rows_[e] != kInvalidRow) {
        indexErase(rows_[e]);
        ++evictions_;
    } else {
        ++size_;
    }
    ++inserts_;
    rows_[e] = row;
    indexInsert(row, e);
    return e;
}

std::uint64_t
CbsTable::touch(RowId row)
{
    ++touches_;
    return incrementEntry(lookupOrEvict(row));
}

std::size_t
CbsTable::touchRun(const RowId *rows, std::size_t n,
                   std::uint64_t divisor, bool *hit)
{
    if (hit)
        *hit = false;
    // Divisibility by multiplication (Lemire & Kaser): for d >= 2,
    // x % d == 0  iff  x * M <= M - 1 (mod 2^64), M = 2^64/d + 1.
    const bool check = divisor > 1;
    const std::uint64_t magic = check ? (~0ull / divisor + 1) : 0;
    RowId cr0 = cacheRow_[0], cr1 = cacheRow_[1];
    std::uint32_t ce0 = cacheEntry_[0], ce1 = cacheEntry_[1];
    std::size_t i = 0;
    while (i < n) {
        const RowId first = rows[i];
        const bool hit0 = (cr0 == first && rows_[ce0] == first);
        const bool hit1 = (cr1 == first && rows_[ce1] == first);
        if (!hit0 && !hit1) {
            // Miss (or cold way): the faithful scalar step.
            const std::uint32_t e = lookupOrEvict(first);
            cr1 = cr0;
            ce1 = ce0;
            cr0 = first;
            ce0 = e;
            const std::uint64_t est = incrementEntry(e);
            ++i;
            if (divisor == 1 || (check && est * magic <= magic - 1)) {
                if (hit)
                    *hit = true;
                break;
            }
            continue;
        }

        // A run of cache hits performs no eviction, so neither way
        // can be renamed inside it: classify its full length in one
        // sweep, then increment without re-validating. A way is
        // usable for the run only while it is currently valid.
        const bool ok0 = (rows_[ce0] == cr0);
        const bool ok1 = (rows_[ce1] == cr1);
        std::size_t seg;
        std::size_t k0;
        if (ok0 && ok1) {
            seg = simd::pairMatchPrefix(rows + i, n - i, cr0, cr1);
            k0 = simd::countMatches(rows + i, seg, cr0);
        } else if (ok0) {
            seg = simd::uniformPrefix(rows + i, n - i, cr0);
            k0 = seg;
        } else {
            seg = simd::uniformPrefix(rows + i, n - i, cr1);
            k0 = 0;
        }
        const std::size_t k1 = seg - k0;

        // Bulk-apply the whole segment when no touch inside it can
        // trip the divisor stop: each way then moves buckets once
        // instead of once per ACT, and the result is identical (an
        // entry's resting place depends only on its final count). A
        // stop exists iff (c, c+k] holds a multiple of d, i.e.
        // c/d != (c+k)/d; divisor == 1 stops on the first touch, so
        // only the per-element loop below handles it.
        bool bulk = (divisor == 0);
        if (check) {
            const std::uint64_t c0 = counts_[ce0];
            const std::uint64_t c1 = counts_[ce1];
            bulk = (c0 / divisor == (c0 + k0) / divisor) &&
                   (c1 / divisor == (c1 + k1) / divisor);
        }
        if (bulk) {
            // Head order in a shared final bucket mirrors recency of
            // the *last* touch, so the last row's entry is applied
            // second (most recent attach lands at the bucket head).
            if (rows[i + seg - 1] == cr0) {
                addToEntry(ce1, k1);
                addToEntry(ce0, k0);
            } else {
                addToEntry(ce0, k0);
                addToEntry(ce1, k1);
                std::swap(cr0, cr1);
                std::swap(ce0, ce1);
            }
            i += seg;
            continue;
        }

        std::size_t k = 0;
        bool stop = false;
        while (k < seg) {
            const RowId row = rows[i + k];
            const std::uint32_t e = (row == cr0) ? ce0 : ce1;
            const std::uint64_t est = incrementEntry(e);
            ++k;
            if (divisor == 1 || (check && est * magic <= magic - 1)) {
                if (hit)
                    *hit = true;
                stop = true;
                break;
            }
        }
        // Ways only ever swap inside a hit run (the row set is
        // invariant), so the final cache order is decided by the last
        // row touched: way 0 holds it, way 1 the other pair.
        if (rows[i + k - 1] != cr0) {
            std::swap(cr0, cr1);
            std::swap(ce0, ce1);
        }
        i += k;
        if (stop)
            break;
    }
    touches_ += i;
    cacheRow_[0] = cr0;
    cacheRow_[1] = cr1;
    cacheEntry_[0] = ce0;
    cacheEntry_[1] = ce1;
    return i;
}

void
CbsTable::addToEntry(std::uint32_t e, std::uint64_t k)
{
    if (k == 0)
        return;
    const std::uint32_t b = entryBucket_[e];
    const std::uint64_t target = counts_[e] + k;
    const std::uint32_t next = bucketNext_[b];

    if (bucketSize_[b] == 1 &&
        (next == kNone || bucketCount_[next] > target)) {
        // Singleton bucket, no bucket in (count, target]: bump in
        // place, exactly like k in-place single increments.
        bucketCount_[b] = target;
        counts_[e] = target;
        return;
    }
    // The walk hint must survive e's detach: b itself while it keeps
    // other entries, else its predecessor (detach frees an emptied b).
    const std::uint32_t hint =
        (bucketSize_[b] > 1) ? b : bucketPrev_[b];
    detachEntry(e);
    attachWithCount(e, target, hint);
}

std::uint64_t
CbsTable::incrementEntry(std::uint32_t e)
{
    // Increment: move the entry from its bucket (count c) into the
    // bucket with count c+1.
    const std::uint32_t b = entryBucket_[e];
    const std::uint64_t target = counts_[e] + 1;
    const std::uint32_t next = bucketNext_[b];

    if (bucketSize_[b] == 1 &&
        (next == kNone || bucketCount_[next] > target)) {
        // Singleton bucket and no collision ahead: bump in place.
        bucketCount_[b] = target;
        counts_[e] = target;
    } else if (next != kNone && bucketCount_[next] == target) {
        detachEntry(e);
        entryBucket_[e] = next;
        entryPrev_[e] = kNone;
        entryNext_[e] = bucketHead_[next];
        if (bucketHead_[next] != kNone)
            entryPrev_[bucketHead_[next]] = e;
        bucketHead_[next] = e;
        ++bucketSize_[next];
        counts_[e] = target;
    } else {
        // Need a fresh bucket between b and next. b survives because it
        // holds at least one other entry.
        detachEntry(e);
        attachWithCount(e, target, b);
    }
    return counts_[e];
}

bool
CbsTable::contains(RowId row) const
{
    return indexFind(row) != kNone;
}

std::uint64_t
CbsTable::estimate(RowId row) const
{
    const std::uint32_t slot = indexFind(row);
    if (slot != kNone)
        return counts_[index_[slot].entry];
    return minValue();
}

std::uint64_t
CbsTable::minValue() const
{
    return bucketCount_[minBucket_];
}

std::uint64_t
CbsTable::maxValue() const
{
    return bucketCount_[maxBucket_];
}

RowId
CbsTable::maxRow() const
{
    const std::uint32_t e = bucketHead_[maxBucket_];
    return rows_[e];
}

RowId
CbsTable::resetMaxToMin()
{
    const std::uint32_t e = bucketHead_[maxBucket_];
    const RowId row = rows_[e];
    if (row == kInvalidRow)
        return kInvalidRow;
    if (maxBucket_ == minBucket_)
        return row;

    const std::uint64_t target = bucketCount_[minBucket_];
    detachEntry(e);
    attachWithCount(e, target, minBucket_);
    return row;
}

bool
CbsTable::resetRowToMin(RowId row)
{
    const std::uint32_t slot = indexFind(row);
    if (slot == kNone)
        return false;
    const std::uint32_t e = index_[slot].entry;
    if (entryBucket_[e] == minBucket_)
        return true;
    const std::uint64_t target = bucketCount_[minBucket_];
    detachEntry(e);
    attachWithCount(e, target, minBucket_);
    return true;
}

void
CbsTable::clear()
{
    resetState();
}

std::vector<CbsTable::Entry>
CbsTable::entries() const
{
    std::vector<Entry> out;
    out.reserve(size_);
    for (std::uint32_t e = 0; e < capacity_; ++e) {
        if (rows_[e] != kInvalidRow)
            out.push_back(Entry{rows_[e], counts_[e]});
    }
    return out;
}

bool
CbsTable::wrappedLess(std::uint64_t a, std::uint64_t b, std::uint32_t bits)
{
    MITHRIL_ASSERT(bits >= 2 && bits <= 64);
    const std::uint64_t mask = (bits >= 64) ? ~0ull : ((1ull << bits) - 1);
    const std::uint64_t diff = (a - b) & mask;
    const std::uint64_t half = 1ull << (bits - 1);
    return diff != 0 && diff >= half;
}

bool
CbsTable::hotStateCacheAligned() const
{
    const auto aligned = [](const void *p) {
        return (reinterpret_cast<std::uintptr_t>(p) & 63u) == 0;
    };
    return aligned(rows_) && aligned(counts_) && aligned(entryBucket_) &&
           aligned(entryPrev_) && aligned(entryNext_) &&
           aligned(bucketCount_) && aligned(bucketHead_) &&
           aligned(bucketPrev_) && aligned(bucketNext_) &&
           aligned(bucketSize_) && aligned(index_);
}

bool
CbsTable::checkInvariants() const
{
    // Bucket list strictly ascending, consistent linkage, sizes match.
    std::uint32_t seen_entries = 0;
    std::uint32_t prev_bucket = kNone;
    std::uint64_t prev_count = 0;
    bool first = true;
    for (std::uint32_t b = minBucket_; b != kNone; b = bucketNext_[b]) {
        if (bucketPrev_[b] != prev_bucket)
            return false;
        if (!first && bucketCount_[b] <= prev_count)
            return false;
        if (bucketSize_[b] == 0)
            return false;
        std::uint32_t n = 0;
        std::uint32_t prev_e = kNone;
        for (std::uint32_t e = bucketHead_[b]; e != kNone;
             e = entryNext_[e]) {
            if (entryBucket_[e] != b)
                return false;
            if (entryPrev_[e] != prev_e)
                return false;
            if (counts_[e] != bucketCount_[b])
                return false;
            prev_e = e;
            ++n;
            if (n > capacity_)
                return false;
        }
        if (n != bucketSize_[b])
            return false;
        seen_entries += n;
        prev_bucket = b;
        prev_count = bucketCount_[b];
        first = false;
    }
    if (prev_bucket != maxBucket_)
        return false;
    if (seen_entries != capacity_)
        return false;

    // Index consistency: every occupied slot maps to a live entry AND
    // is reachable by its probe chain (no break left by a bad
    // backward-shift delete).
    std::uint32_t occupied = 0;
    for (std::uint32_t i = 0; i <= indexMask_; ++i) {
        const RowId row = index_[i].row;
        if (row == kInvalidRow)
            continue;
        ++occupied;
        const std::uint32_t e = index_[i].entry;
        if (e >= capacity_ || rows_[e] != row)
            return false;
        for (std::uint32_t p = hashRow(row) & indexMask_;;
             p = (p + 1) & indexMask_) {
            if (p == i)
                break;
            if (index_[p].row == kInvalidRow)
                return false;
        }
    }
    if (occupied != indexCount_)
        return false;

    std::uint32_t valid = 0;
    for (std::uint32_t e = 0; e < capacity_; ++e) {
        if (rows_[e] != kInvalidRow) {
            ++valid;
            if (indexFind(rows_[e]) == kNone)
                return false;
        }
    }
    return valid == size_ && valid == indexCount_;
}

} // namespace mithril::core
