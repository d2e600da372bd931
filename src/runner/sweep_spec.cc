#include "runner/sweep_spec.hh"

#include <algorithm>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "registry/attack_registry.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "registry/workload_registry.hh"

namespace mithril::runner
{

namespace
{

std::vector<std::uint32_t>
narrowUintList(const ParamSet &params, const std::string &key)
{
    std::vector<std::uint32_t> out;
    for (std::uint64_t v : params.getUintList(key)) {
        if (v > 0xffffffffull)
            fatal("parameter %s list entry %llu is out of range",
                  key.c_str(), static_cast<unsigned long long>(v));
        out.push_back(static_cast<std::uint32_t>(v));
    }
    return out;
}

/** An axis's values; an empty axis takes the base's own value. */
template <typename T>
std::vector<T>
axisOr(const std::vector<T> &values, const T &base)
{
    return values.empty() ? std::vector<T>{base} : values;
}

/** Resolve an axis name through a registry, fatal with the full
 *  candidate list on unknown names; returns the canonical name. */
template <typename Reg>
std::string
resolveName(const Reg &registry, const std::string &name)
{
    try {
        return registry.at(name).name;
    } catch (const registry::SpecError &err) {
        fatal("%s", err.what());
    }
    return {};
}

} // namespace

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t index)
{
    return deriveSeed(seed, index);
}

std::vector<SweepCase>
SweepSpec::cartesianCases(const std::vector<std::string> &workloads,
                          const std::vector<std::string> &attacks)
{
    std::vector<SweepCase> cases;
    cases.reserve(workloads.size() *
                  std::max<std::size_t>(1, attacks.size()));
    for (const std::string &w : workloads) {
        if (attacks.empty()) {
            cases.push_back({w, "none"});
            continue;
        }
        for (const std::string &a : attacks)
            cases.push_back({w, a});
    }
    return cases;
}

SweepSpec
SweepSpec::fromParams(const ParamSet &params,
                      const std::vector<std::string> &extra_keys)
{
    SweepSpec spec;
    for (const std::string &name : params.getStringList("schemes"))
        spec.schemes.push_back(
            resolveName(registry::schemeRegistry(), name));
    spec.flipThs = narrowUintList(params, "flip");
    spec.rfmThs = narrowUintList(params, "rfm");
    for (const std::string &name : params.getStringList("sources")) {
        spec.sources.push_back(
            name == "none"
                ? name
                : resolveName(registry::sourceRegistry(), name));
    }
    spec.shardsList = narrowUintList(params, "shards");

    std::vector<std::string> workloads;
    for (const std::string &name : params.getStringList("workloads"))
        workloads.push_back(
            resolveName(registry::workloadRegistry(), name));
    std::vector<std::string> attacks;
    for (const std::string &name : params.getStringList("attacks"))
        attacks.push_back(
            resolveName(registry::attackRegistry(), name));
    if (!workloads.empty() || !attacks.empty()) {
        if (workloads.empty())
            workloads.push_back(spec.workload);
        spec.cases = cartesianCases(workloads, attacks);
    }

    spec.readKnobs(params, sim::KnobScope::SweepScalars);
    spec.includeBaseline =
        params.getBool("baseline", spec.includeBaseline);
    spec.failpoints = params.getString("failpoints", spec.failpoints);
    const std::string policy =
        params.getString("seed-policy", "shared");
    if (policy == "shared")
        spec.seedPolicy = SeedPolicy::Shared;
    else if (policy == "per-job")
        spec.seedPolicy = SeedPolicy::PerJob;
    else
        fatal("unknown seed-policy: %s (want shared|per-job)",
              policy.c_str());

    // Every other key is a tunable, and must be declared by the
    // entries of at least one job (e.g. victims= with a multi-sided
    // attack); expand() forwards it to exactly those jobs.
    static const std::vector<std::string> kSweepKeys = {
        "schemes", "flip", "rfm", "workloads", "attacks", "sources",
        "shards", "baseline", "seed-policy", "failpoints"};
    for (const std::string &key : params.keys()) {
        if (std::find(kSweepKeys.begin(), kSweepKeys.end(), key) ==
                kSweepKeys.end() &&
            std::find(extra_keys.begin(), extra_keys.end(), key) ==
                extra_keys.end() &&
            !ownsKnob(key, sim::KnobScope::SweepScalars))
            spec.tunables.set(key, params.getString(key));
    }
    const std::vector<Job> jobs = spec.expand();
    for (const std::string &key : spec.tunables.keys()) {
        if (std::none_of(jobs.begin(), jobs.end(), [&](const Job &job) {
                return job.spec.declaredParam(key) != nullptr;
            }))
            fatal("unknown sweep parameter: %s", key.c_str());
    }

    if (!spec.record.empty() && jobs.size() > 1) {
        // N jobs racing one trace file would interleave garbage;
        // capture-once-replay-many is two sweeps (record, then a
        // sources=act-trace grid).
        fatal("record=%s captures one ACT stream, but this sweep "
              "expands to %zu jobs; narrow the grid to a single job",
              spec.record.c_str(), jobs.size());
    }
    if (!spec.traceEvents.empty() && jobs.size() > 1) {
        // Same single-file rule as record=.
        fatal("trace-events=%s writes one trace file, but this sweep "
              "expands to %zu jobs; narrow the grid to a single job",
              spec.traceEvents.c_str(), jobs.size());
    }
    if (!spec.tracePipeline.empty() && !spec.tunables.has("trace")) {
        // The pipeline materializes to the path the act-trace jobs
        // replay; without trace= there is nowhere to put it.
        fatal("trace-pipeline= needs trace=<path> (and "
              "sources=act-trace) so the composed corpus has a "
              "replay path");
    }

    // A knob the jobs would reject must die here, not as one FAILED
    // row per job. System jobs ignore the shards axis, so check its
    // values on a copy of the first job as well.
    try {
        for (const Job &job : jobs)
            job.spec.validate();
        sim::ExperimentSpec probe = jobs.front().spec;
        for (std::uint32_t shards : spec.shardsList) {
            probe.shards = shards;
            probe.validate();
        }
    } catch (const registry::SpecError &err) {
        fatal("%s", err.what());
    }
    return spec;
}

std::size_t
SweepSpec::jobCount() const
{
    const std::size_t n_schemes = std::max<std::size_t>(1, schemes.size());
    const std::size_t n_flips = std::max<std::size_t>(1, flipThs.size());
    const std::size_t n_rfms = std::max<std::size_t>(1, rfmThs.size());
    const std::size_t n_shards =
        std::max<std::size_t>(1, shardsList.size());
    const std::size_t n_cases = std::max<std::size_t>(1, cases.size());
    // The shards axis only applies to engine-only (non-"none")
    // sources: a System job has no shards to vary, so it expands
    // exactly once regardless of the shards list.
    std::size_t n_source_cells = 0;
    for (const std::string &s : axisOr(sources, source))
        n_source_cells += s == "none" ? 1 : n_shards;
    return n_schemes * n_flips * n_rfms * n_source_cells * n_cases +
           (includeBaseline ? n_cases : 0);
}

std::vector<Job>
SweepSpec::expand() const
{
    const std::vector<SweepCase> grid_cases =
        axisOr(cases, SweepCase{workload, attack});

    std::vector<Job> jobs;
    jobs.reserve(jobCount());

    // Every job starts as a copy of the base, so each knob no axis
    // names carries over as set.
    auto make_job = [this](const std::string &scheme_name,
                           const SweepCase &c) {
        Job job;
        job.spec = *this;
        job.spec.scheme = scheme_name;
        job.spec.workload = c.workload;
        job.spec.attack = c.attack;
        job.spec.warmupFromWorkload = (c.attack == "none");
        // The sweep composes its corpus once, before any job runs.
        job.spec.tracePipeline.clear();
        return job;
    };
    // Each job keeps only the tunables its own entries declare, so a
    // para-only knob does not fail validation on the mithril cells of
    // the same sweep.
    auto finish = [this, &jobs](Job job) {
        for (const std::string &key : tunables.keys()) {
            if (job.spec.declaredParam(key))
                job.spec.extras.set(key, tunables.getString(key));
        }
        job.index = jobs.size();
        if (seedPolicy == SeedPolicy::PerJob) {
            job.spec.seed = mixSeed(seed, job.index);
            job.spec.schemeSeed = mixSeed(seed, job.index ^ 0x5eedull);
        }
        jobs.push_back(std::move(job));
    };
    auto case_label = [](const SweepCase &c) {
        std::string label = c.workload;
        if (c.attack != "none")
            label += "+" + c.attack;
        return label;
    };

    if (includeBaseline) {
        for (const SweepCase &c : grid_cases) {
            Job job = make_job("none", c);
            job.isBaseline = true;
            job.label = "none/" + case_label(c);
            finish(std::move(job));
        }
    }

    for (const std::string &scheme_name : axisOr(schemes, scheme)) {
        for (std::uint32_t flip : axisOr(flipThs, flipTh)) {
            for (std::uint32_t rfm : axisOr(rfmThs, rfmTh)) {
                for (const std::string &src : axisOr(sources, source)) {
                    // System jobs have no shards to vary: the shards
                    // axis collapses to the base's for source=none.
                    const std::vector<std::uint32_t> src_shards =
                        src == "none" ? std::vector<std::uint32_t>{shards}
                                      : axisOr(shardsList, shards);
                    for (std::uint32_t n_shards : src_shards) {
                        for (const SweepCase &c : grid_cases) {
                            Job job = make_job(scheme_name, c);
                            job.spec.flipTh = flip;
                            job.spec.rfmTh = rfm;
                            job.spec.source = src;
                            job.spec.shards = n_shards;
                            job.label =
                                registry::schemeDisplay(scheme_name) +
                                "/" + std::to_string(flip) +
                                (rfm != 0
                                     ? "/r" + std::to_string(rfm)
                                     : "") +
                                (src != "none" ? "/" + src : "") +
                                (n_shards != 0
                                     ? "/s" + std::to_string(n_shards)
                                     : "") +
                                "/" + case_label(c);
                            finish(std::move(job));
                        }
                    }
                }
            }
        }
    }
    MITHRIL_ASSERT(jobs.size() == jobCount());
    return jobs;
}

} // namespace mithril::runner
