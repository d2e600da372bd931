#include "cache.hh"

#include "common/logging.hh"
#include "core/config_solver.hh"
#include "telemetry/metric_sheet.hh"

namespace mithril::cpu
{

Cache::Cache(const CacheParams &params)
    : params_(params)
{
    MITHRIL_ASSERT(params_.ways > 0);
    MITHRIL_ASSERT(params_.lineBytes > 0);
    const std::uint64_t lines =
        params_.sizeBytes / params_.lineBytes;
    MITHRIL_ASSERT(lines % params_.ways == 0);
    sets_ = static_cast<std::uint32_t>(lines / params_.ways);
    MITHRIL_ASSERT((sets_ & (sets_ - 1)) == 0);
    lineShift_ = core::ceilLog2(params_.lineBytes);
    lines_.assign(static_cast<std::size_t>(sets_) * params_.ways,
                  Line{});
}

Cache::AccessResult
Cache::lookup(Addr addr) const
{
    const std::uint64_t line_addr = addr >> lineShift_;
    const std::uint32_t set =
        static_cast<std::uint32_t>(line_addr & (sets_ - 1));
    const std::size_t base = static_cast<std::size_t>(set) * params_.ways;

    AccessResult result;
    // The full line address is the tag; no information is lost, so a
    // dirty victim's writeback address is exact.
    result.tag = line_addr;
    std::size_t victim = base;
    for (std::size_t w = base; w < base + params_.ways; ++w) {
        const Line &line = lines_[w];
        if (line.valid && line.tag == line_addr) {
            result.hit = true;
            result.line = w;
            return result;
        }
        if (!line.valid) {
            victim = w;
        } else if (lines_[victim].valid &&
                   line.lastUse < lines_[victim].lastUse) {
            victim = w;
        }
    }
    result.line = victim;
    const Line &evicted = lines_[victim];
    if (evicted.valid && evicted.dirty) {
        result.writeback = true;
        result.writebackAddr = evicted.tag << lineShift_;
    }
    return result;
}

void
Cache::commit(const AccessResult &found, bool is_write)
{
    Line &line = lines_[found.line];
    ++useClock_;
    line.lastUse = useClock_;
    if (found.hit) {
        line.dirty = line.dirty || is_write;
        ++hits_;
        return;
    }
    ++misses_;
    if (found.writeback)
        ++writebacks_;
    line.valid = true;
    line.tag = found.tag;
    line.dirty = is_write;
}

void
Cache::flush()
{
    for (auto &line : lines_)
        line = Line{};
}

void
Cache::exportMetrics(telemetry::MetricSheet &sheet) const
{
    sheet.setCounter("cache.hits", hits_);
    sheet.setCounter("cache.misses", misses_);
    sheet.setCounter("cache.writebacks", writebacks_);
}

} // namespace mithril::cpu
