/**
 * @file
 * Counter-based Summary (CbS) table — the tracking structure at the
 * heart of Mithril (Section III-C).
 *
 * This is the Misra-Gries / Space-Saving frequent-items summary: a fixed
 * set of (row address, counter) entries. A hit increments the entry's
 * counter; a miss evicts the entry holding the table-wide minimum,
 * renames it to the new row, and increments it. The estimated count of
 * an on-table row is its counter; of an off-table row, the table
 * minimum. The two CbS bounds the paper relies on are
 *
 *   (1)  actual <= estimated                      (lower bound on est)
 *   (2)  estimated <= actual + min                (upper bound on est)
 *
 * which make the greedy max-selection + decrement-to-min operation of
 * Mithril sound.
 *
 * Implementation: the classic stream-summary structure — entries grouped
 * into buckets of equal count, buckets kept in a doubly linked list in
 * ascending count order — giving O(1) hit, miss, min, max, and
 * reset-max-to-min operations. MinPtr/MaxPtr of the paper's hardware are
 * the first/last buckets of the list.
 *
 * Memory layout: every array (entries, buckets, and the row->entry
 * index) lives in ONE cache-line-aligned arena sized at construction,
 * and the index is a fixed-capacity open-addressing table (linear
 * probing, backward-shift deletion) instead of a node-based hash map.
 * Consequences the sharded engine depends on: steady-state operation —
 * including every eviction and clear() — performs zero heap
 * allocations (no cross-shard allocator contention), and no hot
 * CbsTable state shares a cache line with another shard's.
 *
 * Counters are kept as absolute 64-bit values internally; the hardware's
 * *wrapping* counters (Section IV-E) are equivalent as long as the
 * max-min spread stays below half the counter range, which Theorem 1
 * guarantees. wrappedLess() exposes the hardware comparison for
 * verification.
 */

#ifndef MITHRIL_CORE_CBS_TABLE_HH
#define MITHRIL_CORE_CBS_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace mithril::core
{

/** Fixed-capacity Counter-based Summary with O(1) operations. */
class CbsTable
{
  public:
    /** One (row, counter) pair as seen from outside. */
    struct Entry
    {
        RowId row;
        std::uint64_t count;
    };

    /**
     * @param n_entry      Number of table entries (Nentry).
     * @param counter_bits Width of the hardware wrapping counter; used
     *                     only by the wrapped-view helpers.
     */
    explicit CbsTable(std::uint32_t n_entry, std::uint32_t counter_bits = 32);

    CbsTable(CbsTable &&) noexcept = default;
    CbsTable &operator=(CbsTable &&) noexcept = default;
    CbsTable(const CbsTable &) = delete;
    CbsTable &operator=(const CbsTable &) = delete;

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t size() const { return size_; }
    std::uint32_t counterBits() const { return counterBits_; }

    /**
     * Process one activation of the given row (hit increment or
     * min-eviction insert). Returns the row's new estimated count.
     */
    std::uint64_t touch(RowId row);

    /**
     * Batched touch — the batched-dispatch hot path: process
     * rows[0..n) with a 2-way row->entry cache in front of the hash
     * index, its ways held in registers. Hammer patterns alternate
     * between a handful of rows, so the cache converts the dominant
     * hash lookup into two compares; it is validated against the
     * entry array, so evictions/renames can never serve a stale hit.
     * With `divisor` > 0, stop after (and including) the first touch
     * whose new estimate is a multiple of `divisor` —
     * the Graphene-family ARR/buffer trigger, evaluated without a
     * per-touch division (Lemire divisibility) — and set *hit.
     * Runs of cache hits are classified in one sweep
     * (simd::pairMatchPrefix): no eviction can rename an entry inside
     * a hit run, so the two ways stay valid for its whole length.
     * Returns the number of rows touched; value-identical to calling
     * touch() that many times.
     */
    std::size_t touchRun(const RowId *rows, std::size_t n,
                         std::uint64_t divisor = 0,
                         bool *hit = nullptr);

    /** True when the row currently occupies a table entry. */
    bool contains(RowId row) const;

    /**
     * Estimated count: the entry counter for an on-table row, the table
     * minimum for an off-table row.
     */
    std::uint64_t estimate(RowId row) const;

    /** Table-wide minimum counter (0 while unfilled slots remain). */
    std::uint64_t minValue() const;

    /** Table-wide maximum counter (0 when empty). */
    std::uint64_t maxValue() const;

    /** A row holding the maximum counter (kInvalidRow when empty). */
    RowId maxRow() const;

    /** MaxPtr - MinPtr spread; the adaptive-refresh signal (Sec. V-A). */
    std::uint64_t spread() const { return maxValue() - minValue(); }

    /**
     * Greedy-selection reset: lower the maximum entry's counter to the
     * current table minimum (the post-preventive-refresh adjustment of
     * Section IV-B). Returns the row that was selected, or kInvalidRow
     * when the table is empty.
     */
    RowId resetMaxToMin();

    /** Reset the given on-table row's counter to the table minimum. */
    bool resetRowToMin(RowId row);

    /** Remove every entry (used only by baselines with table resets).
     *  Resets in place — never touches the allocator. */
    void clear();

    /** Snapshot of all entries (unspecified order). */
    std::vector<Entry> entries() const;

    /**
     * Hardware comparison of two wrapped counter values: a < b in the
     * modular sense, valid while |a-b| < 2^(bits-1).
     */
    static bool wrappedLess(std::uint64_t a, std::uint64_t b,
                            std::uint32_t bits);

    /**
     * Verify internal structure invariants (bucket ordering, linkage,
     * index consistency). For tests; returns false on corruption.
     */
    bool checkInvariants() const;

    /** True when every hot arena array starts on its own cache line
     *  (the padding guarantee the sharded engine relies on). */
    bool hotStateCacheAligned() const;

    /** Total touch operations processed. */
    std::uint64_t touches() const { return touches_; }

    /** Rows ever installed into an entry (misses). */
    std::uint64_t inserts() const { return inserts_; }

    /** Installed rows that displaced a live minimum entry. */
    std::uint64_t evictions() const { return evictions_; }

  private:
    static constexpr std::uint32_t kNone = 0xffffffffu;

    /** Open-addressing index slot; row == kInvalidRow marks empty. */
    struct IndexSlot
    {
        RowId row;
        std::uint32_t entry;
    };

    /** 32-bit finalizer (murmur3 fmix32) for the index hash. */
    static std::uint32_t hashRow(RowId row)
    {
        std::uint32_t h = row;
        h ^= h >> 16;
        h *= 0x85ebca6bu;
        h ^= h >> 13;
        h *= 0xc2b2ae35u;
        h ^= h >> 16;
        return h;
    }

    /** Carve every array out of one 64-byte-aligned arena. */
    void layoutArena();

    /** Reset all arrays to the freshly-constructed state (no
     *  allocation; shared by the constructor and clear()). */
    void resetState();

    // Flat-index primitives (load factor <= 1/2 by construction, so
    // linear probing always terminates at an empty slot).
    std::uint32_t indexFind(RowId row) const;
    void indexInsert(RowId row, std::uint32_t entry);
    void indexErase(RowId row);

    /** Hit-or-evict lookup shared by touch()/touchRun(): the entry
     *  now holding `row` (index updated on eviction). */
    std::uint32_t lookupOrEvict(RowId row);

    /** The counter-increment bucket dance for entry e; returns the
     *  new count. */
    std::uint64_t incrementEntry(std::uint32_t e);

    /**
     * Add k to entry e in one bucket move — the bulk form of k
     * incrementEntry() calls. Final-state-identical to the sequential
     * increments: an entry's resting place depends only on its final
     * count (transits through intermediate buckets leave no trace),
     * and the caller orders the per-entry bulk adds so head order in
     * a shared final bucket matches the sequential interleaving.
     */
    void addToEntry(std::uint32_t e, std::uint64_t k);

    /** Detach entry e from its bucket (bucket freed if emptied). */
    void detachEntry(std::uint32_t e);

    /** Attach entry e to a bucket holding exactly `count`, known to
     *  belong adjacent to bucket hint (searched locally). */
    void attachWithCount(std::uint32_t e, std::uint64_t count,
                         std::uint32_t hint_bucket);

    std::uint32_t allocBucket(std::uint64_t count);
    void freeBucket(std::uint32_t b);

    std::uint32_t capacity_;
    std::uint32_t counterBits_;
    std::uint32_t size_ = 0;
    std::uint64_t touches_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t evictions_ = 0;

    /** Backing storage for every array below (single allocation). */
    std::unique_ptr<std::byte[]> arena_;

    // Entry arrays (index = entry id), in the arena.
    RowId *rows_ = nullptr;
    std::uint64_t *counts_ = nullptr;
    std::uint32_t *entryBucket_ = nullptr;
    std::uint32_t *entryPrev_ = nullptr;
    std::uint32_t *entryNext_ = nullptr;

    // Bucket arrays (index = bucket id), free-listed, in the arena.
    // At most capacity buckets are live (plus one in flight), so
    // bucketCap_ = capacity + 2 never overflows.
    std::uint64_t *bucketCount_ = nullptr;
    std::uint32_t *bucketHead_ = nullptr;
    std::uint32_t *bucketPrev_ = nullptr;
    std::uint32_t *bucketNext_ = nullptr;
    std::uint32_t *bucketSize_ = nullptr;
    std::uint32_t bucketCap_ = 0;
    std::uint32_t bucketUsed_ = 0;  //!< High-water of allocated ids.
    std::uint32_t bucketFree_ = kNone;

    // Open-addressing row->entry index, in the arena.
    IndexSlot *index_ = nullptr;
    std::uint32_t indexMask_ = 0;
    std::uint32_t indexCount_ = 0;

    std::uint32_t minBucket_ = kNone;  //!< MinPtr.
    std::uint32_t maxBucket_ = kNone;  //!< MaxPtr.

    /** touchRun() front cache: last two (row, entry) pairs, way 0
     *  most recent. Validated against rows_ before use. */
    RowId cacheRow_[2] = {kInvalidRow, kInvalidRow};
    std::uint32_t cacheEntry_[2] = {0, 0};
};

} // namespace mithril::core

#endif // MITHRIL_CORE_CBS_TABLE_HH
