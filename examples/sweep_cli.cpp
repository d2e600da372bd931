/**
 * @file
 * Run an arbitrary experiment sweep from the command line — no new
 * binary needed for a new grid. The cartesian product of `schemes=`,
 * `flip=`, `rfm=`, `workloads=`, and `attacks=` expands into jobs
 * that the runner executes in parallel on its thread pool; results go to
 * an aligned table on stdout and optionally to JSON/CSV artifacts.
 * Every axis resolves through the scheme/workload/attack registries,
 * so user-registered entries sweep exactly like the built-ins, and
 * `--list` prints what is available.
 *
 * With `sources=` the matching jobs skip the System build entirely
 * and drive the max-rate sharded ActStream engine instead: a
 * scheme x source (x shards) grid runs every registered tracker
 * against trace replays or replicated attack patterns at engine
 * speed, parallel at two levels (jobs across the pool, bank shards
 * inside a job reusing the same pool).
 *
 * `record=PATH` captures the (single) job's ACT stream as a
 * mithril.acttrace.v1 file; `sources=act-trace trace=PATH` replays
 * it. Capture-once-replay-many is two invocations: one recording
 * System job, then an engine grid over every scheme (see README).
 *
 * Examples:
 *
 *   sweep_cli --list schemes
 *   sweep_cli schemes=mithril,parfm flip=50000,6250 workloads=mix-high
 *   sweep_cli schemes=mithril flip=6250 workloads=mix-high,mt-fft \
 *             attacks=none,multi-sided baseline=1 jobs=8 json=out.json
 *   sweep_cli schemes=blockhammer attacks=cbf-pollution cores=4 \
 *             instr=20000 seed-policy=per-job csv=out.csv
 *   sweep_cli schemes=mithril,graphene,para sources=attack \
 *             attacks=multi-sided acts=2000000 shards=4 jobs=8
 *   sweep_cli schemes=none attacks=multi-sided record=run.acttrace
 *   sweep_cli schemes=mithril,graphene,para,cbt,twice \
 *             sources=act-trace trace=run.acttrace jobs=8
 *   sweep_cli schemes=mithril,graphene sources=act-trace \
 *             trace=corpus.acttrace \
 *             trace-pipeline='merge:t0.acttrace,t1.acttrace|splice:attack=multi-sided,at=1000000'
 *
 * Knobs: cores= instr= seed= ad= warmup= baseline=0/1 blast-radius=
 *        acts=N (engine ACT budget with sources=)
 *        record=PATH (capture the single job's ACT stream)
 *        trace-pipeline=SPEC (compose the trace= corpus once before
 *        the sweep; ops via --list trace-ops, or trace_cli)
 *        seed-policy=shared|per-job jobs=N progress=0/1
 *        table=0/1 json=PATH csv=PATH
 *        plus any parameter a selected registry entry declares
 *        (e.g. victims= with attacks=multi-sided, trace= with
 *        sources=act-trace).
 *
 * Resilience (see README "Resilience"):
 *        journal=PATH (crash-safe per-job checkpoint journal)
 *        resume=0/1 (skip journaled jobs; artifacts stay
 *        byte-identical to an uninterrupted run)
 *        job-timeout=SECONDS (per-job watchdog; hung jobs become
 *        TIMEOUT rows) retries=N (deterministic re-attempts with
 *        exponential backoff) strict=0/1 or --strict (fail fast:
 *        skip everything after the first non-OK job)
 *        failpoints=SPEC (fault injection; --list failpoints)
 *
 * Exit status: 0 only when every job ended OK; 1 when any job
 * FAILED, timed out, or was skipped, with a per-status summary line
 * on stderr either way.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "registry/listing.hh"
#include "runner/runner.hh"
#include "runner/sinks.hh"
#include "runner/sweep_spec.hh"
#include "runner/thread_pool.hh"

using namespace mithril;

int
main(int argc, char **argv)
{
    const ParamSet params = ParamSet::fromArgs(argc, argv);

    bool strict_flag = false;
    if (!params.positional().empty() &&
        params.positional().front() == "--list") {
        const std::string what = params.positional().size() > 1
                                     ? params.positional()[1]
                                     : "all";
        try {
            registry::listRegistries(std::cout, what);
        } catch (const registry::SpecError &err) {
            fatal("%s", err.what());
        }
        return 0;
    }
    for (const std::string &arg : params.positional()) {
        if (arg == "--strict") {
            strict_flag = true;
            continue;
        }
        fatal("unexpected argument '%s': all knobs are key=value "
              "(or --list [schemes|workloads|attacks|sources|"
              "trace-ops|failpoints], or --strict)",
              arg.c_str());
    }

    const runner::SweepSpec spec = runner::SweepSpec::fromParams(
        params, {"jobs", "progress", "table", "json", "csv",
                 "journal", "resume", "strict", "job-timeout",
                 "retries"});

    runner::RunnerOptions options =
        runner::RunnerOptions::fromParams(params);
    options.strict = options.strict || strict_flag;

    std::fprintf(stderr, "sweep: %zu jobs on %u workers\n",
                 spec.jobCount(),
                 options.jobs == 0 ? runner::defaultThreadCount()
                                   : options.jobs);

    const runner::SweepRunner run(options);
    runner::SweepResult result;
    try {
        result = run.run(spec);
    } catch (const registry::SpecError &err) {
        // Config-level resilience errors: resume without a journal,
        // a journal from a different sweep, an unknown failpoint.
        fatal("%s", err.what());
    }

    if (params.getBool("table", true))
        runner::TableSink().write(result, std::cout);

    bench::writeArtifacts(params.getString("json", ""),
                          params.getString("csv", ""), result);

    std::fprintf(stderr, "sweep: %s\n",
                 result.statusSummary().c_str());
    return result.failedCount() ? 1 : 0;
}
