/**
 * @file
 * The outcome text and digest the benchmark programs compare runs by.
 */

#ifndef MITHRIL_PERFBENCH_OUTCOME_HH
#define MITHRIL_PERFBENCH_OUTCOME_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "sim/experiment.hh"

namespace perfbench
{

/** Every deterministic RunMetrics field, printed exactly. The telemetry
 *  map is left out: traced runs turn it on, untraced ones do not. */
inline std::string
outcomeText(const mithril::sim::RunMetrics &m)
{
    using ull = unsigned long long;
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "ipc=%.17g energy=%.17g ticks=%lld acts=%llu reads=%llu "
        "writes=%llu rfm=%llu rfm_skipped=%llu arr=%llu preventive=%llu "
        "stalls=%llu max_disturbance=%.17g flips=%llu lat=%.17g "
        "p95=%.17g table_bytes=%.17g",
        m.aggIpc, m.energyPj, static_cast<long long>(m.simTicks),
        static_cast<ull>(m.acts), static_cast<ull>(m.reads),
        static_cast<ull>(m.writes), static_cast<ull>(m.rfmIssued),
        static_cast<ull>(m.rfmSkippedMrr), static_cast<ull>(m.arrExecuted),
        static_cast<ull>(m.preventiveRefreshes),
        static_cast<ull>(m.throttleStalls), m.maxDisturbance,
        static_cast<ull>(m.bitFlips), m.avgReadLatencyNs,
        m.p95ReadLatencyNs, m.trackerBytesPerBank);
    return buf;
}

/** FNV-1a 64 over bytes: the outcome digest. */
class Digest
{
  public:
    void
    add(const void *data, std::size_t n)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= bytes[i];
            hash_ *= 0x100000001b3ull;
        }
    }

    /** One line; the terminator keeps concatenations apart. */
    void
    addLine(const std::string &line)
    {
        add(line.data(), line.size());
        add("\n", 1);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

} // namespace perfbench

#endif // MITHRIL_PERFBENCH_OUTCOME_HH
