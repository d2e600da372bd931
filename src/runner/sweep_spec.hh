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
 * The sweep grid: a base job plus axes. The ExperimentSpec base holds
 * every knob the jobs share; the axes list the values the grid varies
 * (schemes x flipThs x rfmThs x sources x shards x cases). An empty
 * axis takes the base's own value, so a spec names only the axes it
 * actually sweeps.
 */
struct SweepSpec : sim::ExperimentSpec
{
    /** A sweep's base job runs at the scale of README's bench table,
     *  cores=8 instr=80000, smaller than a lone ExperimentSpec's. */
    SweepSpec()
    {
        cores = 8;
        instrPerCore = 80000;
    }

    std::vector<std::string> schemes;
    std::vector<std::uint32_t> flipThs;
    std::vector<std::uint32_t> rfmThs;
    std::vector<SweepCase> cases;
    /** Engine-source axis; "none" = full-System runs. Any other name
     *  makes the matching jobs engine-only runs of that ActSource
     *  (scheme x source grids at engine speed, no System build). The
     *  case's attack still selects which pattern an "attack" source
     *  replicates. */
    std::vector<std::string> sources;
    /** Engine shard-count axis. System jobs ignore it: each runs once
     *  at the base's shards. Sharding never changes results — this
     *  axis exists for scaling studies. */
    std::vector<std::uint32_t> shardsList;

    SeedPolicy seedPolicy = SeedPolicy::Shared;

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
     *  the keys its own scheme/workload/attack/source declares). */
    ParamSet tunables;

    /** Cartesian product helper for the case list. */
    static std::vector<SweepCase>
    cartesianCases(const std::vector<std::string> &workloads,
                   const std::vector<std::string> &attacks);

    /**
     * Build a spec from CLI-style parameters: comma-separated axes
     * `schemes=`, `flip=`, `rfm=`, `workloads=`, `attacks=`,
     * `sources=` (engine-only jobs) and `shards=` (engine shard
     * counts); the base's sweep scalars (ExperimentSpec's
     * KnobScope::SweepScalars: `cores=`, `instr=`, `seed=`, `acts=`,
     * `channels=`, `record=`, `telemetry=`, ...); and `baseline=`,
     * `seed-policy=shared|per-job` and `failpoints=`. Axis names
     * resolve through the registries — an unknown name is fatal and
     * lists every registered candidate. Keys declared by a job's
     * registry entries (e.g. `victims=` with a multi-sided attack)
     * are forwarded to those jobs; any other key is fatal — a typo'd
     * axis must not silently run the default grid. Callers owning
     * extra knobs (e.g. `jobs=`) list them in `extra_keys`. Every
     * expanded job is validated here, so the first invalid one is one
     * fatal line before any job runs; `record=` and `trace-events=`
     * need a single-job grid, and `trace-pipeline=` needs `trace=`
     * (the sweep composes that corpus once, before its jobs run).
     */
    static SweepSpec
    fromParams(const ParamSet &params,
               const std::vector<std::string> &extra_keys = {});

    /** Number of jobs expand() will produce. */
    std::size_t jobCount() const;

    /** Expand the grid into jobs, in deterministic order: baselines
     *  (one per case) first, then
     *  schemes x flipThs x rfmThs x sources x shards x cases. Each job
     *  is a copy of the base with its axis values, its case's warm-up
     *  source, the tunables its entries declare and no trace
     *  pipeline. */
    std::vector<Job> expand() const;
};

/** splitmix64 mix of a base seed and a job index (SeedPolicy::PerJob). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t index);

} // namespace mithril::runner

#endif // MITHRIL_RUNNER_SWEEP_SPEC_HH
