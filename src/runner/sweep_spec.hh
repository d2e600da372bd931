/**
 * @file
 * Declarative description of an experiment sweep: the cartesian grid
 * of scheme parameters and (workload, attack) cases the paper's
 * figures iterate, expanded into independent jobs with deterministic
 * per-job seeding. The scheme/workload/attack axes are registry-name
 * lists, so a sweep spans user-registered entries exactly like the
 * built-ins. The expansion order is fixed, so a sweep's job list —
 * and therefore every sink's output — is identical at any thread
 * count.
 */

#ifndef MITHRIL_RUNNER_SWEEP_SPEC_HH
#define MITHRIL_RUNNER_SWEEP_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment_spec.hh"

namespace mithril::runner
{

/** One (workload, attack) combination of a sweep. */
struct SweepCase
{
    std::string workload = "mix-high";
    std::string attack = "none";
};

/** How each expanded job derives its RNG seed from the sweep seed. */
enum class SeedPolicy
{
    /** Every job runs with the sweep seed verbatim — the historical
     *  bench behavior, comparable across grid cells. */
    Shared,
    /** Each job's seed is mixed with its grid index (splitmix64), for
     *  statistically independent repetitions. */
    PerJob,
};

/** One expanded grid point, self-contained and runnable. */
struct Job
{
    std::size_t index = 0; //!< Position in expansion order.
    sim::ExperimentSpec spec;
    bool isBaseline = false;
    std::string label; //!< "Mithril/6250/mix-high+multi-sided".
};

/**
 * The sweep grid: schemes x flipThs x rfmThs x cases, plus shared run
 * knobs. Empty vectors mean "the single default value" so a spec can
 * name only the axes it actually sweeps.
 */
struct SweepSpec
{
    std::vector<std::string> schemes;   //!< default {"mithril"}
    std::vector<std::uint32_t> flipThs; //!< default {6250}
    std::vector<std::uint32_t> rfmThs;  //!< default {0} (auto)
    std::vector<SweepCase> cases;       //!< default {mix-high, none}
    /** Engine-source axis; default {"none"} = full-System runs. Any
     *  other name makes the matching jobs engine-only runs of that
     *  ActSource (scheme x source grids at engine speed, no System
     *  build). The case's attack still selects which pattern an
     *  "attack" source replicates. */
    std::vector<std::string> sources;
    /** Engine shard-count axis; default {0} = one shard per channel.
     *  Ignored by System jobs. Sharding never changes results — this
     *  axis exists for scaling studies. */
    std::vector<std::uint32_t> shardsList;

    std::uint32_t blastRadius = 1;
    std::uint32_t adTh = 200;
    std::uint32_t cores = 8;
    std::uint64_t instrPerCore = 80000;
    /** DRAM channel-count override for System jobs (power of two);
     *  0 = the paper geometry. */
    std::uint32_t channels = 0;
    /** ACT budget per engine-only job (sources axis). */
    std::uint64_t engineActs = 1000000;
    std::uint64_t seed = 42;
    SeedPolicy seedPolicy = SeedPolicy::Shared;

    /** Tracker warm-up budget per job; benign runs warm from the
     *  workload, attacked runs from the attacker (as in Fig. 10). */
    std::uint64_t trackerWarmupActs = 0;

    /** Capture the job's ACT stream to this path
     *  (mithril.acttrace.v1). One file — fromParams() rejects grids
     *  that expand to more than one job. The capture-once-replay-many
     *  pattern is two sweeps: one recording job, then a
     *  sources=act-trace trace=<path> grid over every scheme. */
    std::string record;

    /** Compose the sweep's replay corpus once, before any job runs: a
     *  trace-op pipeline (--list trace-ops) materialized to the
     *  tunables' trace= path, which every sources=act-trace job then
     *  replays. Jobs never carry this knob — one compose per sweep,
     *  not one per grid point. */
    std::string tracePipeline;

    /** Collect the telemetry metric sheet + ACT heatmap on every job
     *  (each job's flattened sheet lands in the sweep output's
     *  per-job "telemetry" map). Observation only. */
    bool telemetry = false;
    /** Write a mitigation-event Chrome trace to this path. One file —
     *  fromParams() rejects grids that expand to more than one job,
     *  like record=. */
    std::string traceEvents;
    /** ACT heatmap region budget per bank (telemetry=1 jobs). */
    std::uint32_t heatmapRegions = 64;
    /** Mitigation-event ring capacity per bank (trace-events= jobs). */
    std::uint32_t traceCapacity = 4096;

    /** Prepend one unprotected ("none") job per case, for
     *  normalizing relative performance and energy. */
    bool includeBaseline = false;

    /** Failpoint arming spec for fault-injection runs, same grammar
     *  as MITHRIL_FAILPOINTS ("site:action:k=v,..."; see
     *  common/failpoint.hh and `--list failpoints`). Armed
     *  process-wide at run start, disarmed when the sweep returns.
     *  Empty = no injection and zero overhead. */
    std::string failpoints;

    /** Registry-entry tunables forwarded to every job (each job keeps
     *  the keys its own scheme/workload/attack declares). */
    ParamSet tunables;

    /** Cartesian product helper for the case list. */
    static std::vector<SweepCase>
    cartesianCases(const std::vector<std::string> &workloads,
                   const std::vector<std::string> &attacks);

    /**
     * Build a spec from CLI-style parameters: comma-separated lists
     * `schemes=`, `flip=`, `rfm=`, `workloads=`, `attacks=`,
     * `sources=` (engine-only jobs), `shards=` (engine shard counts),
     * scalars `cores=`, `instr=`, `acts=` (engine ACT budget),
     * `channels=` (System frontend geometry), `seed=`, `ad=`,
     * `warmup=`, `baseline=`, `seed-policy=shared|per-job`, the
     * telemetry knobs `telemetry=`, `trace-events=` (single-job grids
     * only), `heatmap-regions=`, `trace-capacity=`, and the
     * fault-injection knob `failpoints=`. Axis names resolve through the
     * registries — an unknown name is fatal and lists every
     * registered candidate. Keys declared by a selected registry
     * entry (e.g. `victims=` with a multi-sided attack) are forwarded
     * to the matching jobs; any other unknown key is fatal — a typo'd
     * axis must not silently run the default grid. Callers owning
     * extra knobs (e.g. `jobs=`) list them in `extra_keys`.
     */
    static SweepSpec
    fromParams(const ParamSet &params,
               const std::vector<std::string> &extra_keys = {});

    /** Number of jobs expand() will produce. */
    std::size_t jobCount() const;

    /** Expand the grid into jobs, in deterministic order: baselines
     *  (one per case) first, then
     *  schemes x flipThs x rfmThs x sources x shards x cases. */
    std::vector<Job> expand() const;
};

/** splitmix64 mix of a base seed and a job index (SeedPolicy::PerJob). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t index);

} // namespace mithril::runner

#endif // MITHRIL_RUNNER_SWEEP_SPEC_HH
