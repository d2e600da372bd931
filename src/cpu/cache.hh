/**
 * @file
 * Shared last-level cache model (16 MB, 16-way, LRU in the paper's
 * Table III configuration). Misses and dirty evictions become DRAM
 * requests; everything above the LLC is folded into the trace
 * generators' inter-request instruction gaps.
 */

#ifndef MITHRIL_CPU_CACHE_HH
#define MITHRIL_CPU_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mithril::telemetry
{
class MetricSheet;
}

namespace mithril::cpu
{

/** LLC construction parameters. */
struct CacheParams
{
    std::uint64_t sizeBytes = 16ull << 20;
    std::uint32_t ways = 16;
    std::uint32_t lineBytes = 64;
};

/** Set-associative write-back cache with LRU replacement. */
class Cache
{
  public:
    /** Outcome of one access, or of a lookup() that has not been
     *  committed yet. */
    struct AccessResult
    {
        bool hit = false;
        bool writeback = false;  //!< A dirty victim is evicted.
        Addr writebackAddr = 0;
        std::size_t line = 0;    //!< The hit way, or the way a miss
                                 //!< fills.
        std::uint64_t tag = 0;
    };

    explicit Cache(const CacheParams &params);

    /**
     * Find the line holding addr, or the victim a miss would evict,
     * in one scan of its set and without touching LRU or fill state.
     * Lets the caller reserve downstream resources (e.g. a slot in
     * the writeback's memory channel queue) before committing the
     * access, and retry later with identical cache state if
     * reservation fails.
     */
    AccessResult lookup(Addr addr) const;

    /** Apply the access a lookup() on the unchanged cache found:
     *  touch the hit way, or fill the victim's. */
    void commit(const AccessResult &found, bool is_write);

    /** Look up (and on miss, fill) the line holding addr. */
    AccessResult
    access(Addr addr, bool is_write)
    {
        const AccessResult found = lookup(addr);
        commit(found, is_write);
        return found;
    }

    /** Drop every line (used between experiment phases). */
    void flush();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

    /** Set the `cache.hits`, `.misses` and `.writebacks` counters. */
    void exportMetrics(telemetry::MetricSheet &sheet) const;

    double hitRate() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total ? static_cast<double>(hits_) /
                           static_cast<double>(total)
                     : 0.0;
    }

  private:
    struct Line
    {
        std::uint64_t tag = ~0ull;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    CacheParams params_;
    std::uint32_t sets_;
    std::uint32_t lineShift_;
    std::vector<Line> lines_;  //!< sets_ x ways, row-major.
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace mithril::cpu

#endif // MITHRIL_CPU_CACHE_HH
