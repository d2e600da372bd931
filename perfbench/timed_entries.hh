/**
 * @file
 * Timing decorators for the benchmark's traced runs.
 *
 * registerTimedEntries() adds one "timed-<name>" entry to the scheme,
 * workload, attack and source registries for every real entry except
 * the "none" scheme and attack, which build nothing. A decorator entry
 * declares the wrapped entry's parameters, builds the real product
 * through the wrapped entry's own factory, and returns a wrapper that
 * forwards every virtual call and times the hot ones. A traced sweep
 * therefore names "timed-mithril" where the untraced one names
 * "mithril", and nothing under src/ changes. The wrappers must never
 * change a simulated outcome; perfbench_identity checks that for every
 * scheme on the System and the engine frontend.
 *
 * Per-ACT hooks (tracker observations, generator records) time about
 * one call in kSampleOneIn, chosen by a Weyl sequence so a periodic
 * call pattern cannot alias with the sample, subtract the clock's own
 * cost, and scale by the call count: a steady_clock pair on every MC
 * throttleAct() probe would cost more than the probe itself.
 */

#ifndef MITHRIL_PERFBENCH_TIMED_ENTRIES_HH
#define MITHRIL_PERFBENCH_TIMED_ENTRIES_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Host time and work of one decorated layer, summed process-wide.
 *  Wrappers add their totals when they are destroyed. */
struct LayerClock
{
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> sampledCalls{0};
    std::atomic<std::uint64_t> sampledNs{0};
    /** Work count: tracker logic ops, generator or source records. */
    std::atomic<std::uint64_t> items{0};

    void reset();

    /** Estimated host seconds over all calls: the mean sampled call,
     *  clock cost removed, times the call count. */
    double seconds() const;
};

struct LayerClocks
{
    LayerClock trackers;
    LayerClock generators; //!< Benign workloads and attackers.
    LayerClock sources;

    void reset();
};

/** The process-wide accumulators. */
LayerClocks &layerClocks();

/** About one in this many per-ACT hook calls is timed. */
constexpr unsigned kSampleOneIn = 64;

/** "timed-<name>"; "none" stays "none". */
std::string timedName(const std::string &name);

/** Every registered scheme that is not a decorator, sorted. */
std::vector<std::string> realSchemes();

/** Register every decorator entry (idempotent). Call from main(),
 *  after static initialization has registered the real entries. */
void registerTimedEntries();

} // namespace perfbench

#endif // MITHRIL_PERFBENCH_TIMED_ENTRIES_HH
