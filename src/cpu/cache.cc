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
Cache::access(Addr addr, bool is_write)
{
    const std::uint64_t line_addr = addr >> lineShift_;
    const std::uint32_t set =
        static_cast<std::uint32_t>(line_addr & (sets_ - 1));
    // The full line address is the tag; no information is lost, so a
    // dirty victim's writeback address is exact.
    const std::uint64_t tag = line_addr;
    Line *base = &lines_[static_cast<std::size_t>(set) * params_.ways];

    ++useClock_;
    AccessResult result;

    Line *victim = base;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = useClock_;
            line.dirty = line.dirty || is_write;
            ++hits_;
            result.hit = true;
            return result;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }

    ++misses_;
    if (victim->valid && victim->dirty) {
        ++writebacks_;
        result.writeback = true;
        result.writebackAddr = victim->tag << lineShift_;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = is_write;
    victim->lastUse = useClock_;
    return result;
}

Cache::VictimInfo
Cache::peekVictim(Addr addr) const
{
    const std::uint64_t line_addr = addr >> lineShift_;
    const std::uint32_t set =
        static_cast<std::uint32_t>(line_addr & (sets_ - 1));
    const std::uint64_t tag = line_addr;
    const Line *base =
        &lines_[static_cast<std::size_t>(set) * params_.ways];

    VictimInfo info;
    // Mirrors access()'s victim selection exactly (including its
    // preference order between invalid ways) so the preview and the
    // committed access always agree.
    const Line *victim = base;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        const Line &line = base[w];
        if (line.valid && line.tag == tag) {
            info.hit = true;
            return info;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }
    if (victim->valid && victim->dirty) {
        info.writeback = true;
        info.writebackAddr = victim->tag << lineShift_;
    }
    return info;
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
