/**
 * @file
 * Unit tests for the parallel experiment runner: the thread pool,
 * sweep-grid expansion and seeding, determinism of the result
 * sinks across thread counts, per-job failure surfacing, and the JSON
 * artifact schema (golden file).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/config.hh"
#include "common/logging.hh"
#include "registry/attack_registry.hh"
#include "runner/runner.hh"
#include "runner/sinks.hh"
#include "runner/sweep_spec.hh"
#include "runner/thread_pool.hh"

namespace mithril::runner
{
namespace
{

// ------------------------------------------------------------- pool

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kCount = 500;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallelFor(kCount,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ZeroCountIsANoop)
{
    ThreadPool pool(2);
    pool.parallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SingleWorkerStillCompletes)
{
    ThreadPool pool(1);
    std::atomic<int> sum{0};
    pool.parallelFor(100, [&](std::size_t i) {
        sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, PropagatesTaskExceptions)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelFor(64,
                                  [&](std::size_t i) {
                                      ran.fetch_add(1);
                                      if (i == 13)
                                          throw std::runtime_error(
                                              "boom");
                                  }),
                 std::runtime_error);
    // Remaining tasks still ran to completion.
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, SurvivesAThrowingParallelForAndRunsAgain)
{
    // The exception costs one parallelFor call, never the pool: the
    // same workers must keep serving later parallelFors at full
    // strength (what keeps one bad sweep job from wedging the rest).
    ThreadPool pool(4);
    for (int round = 0; round < 3; ++round) {
        EXPECT_THROW(pool.parallelFor(32,
                                      [&](std::size_t i) {
                                          if (i % 7 == 3)
                                              throw std::runtime_error(
                                                  "boom");
                                      }),
                     std::runtime_error);
        std::atomic<int> ran{0};
        pool.parallelFor(64,
                         [&](std::size_t) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), 64) << "round " << round;
    }
}

TEST(ThreadPool, NestedParallelForPropagatesInnerExceptions)
{
    // A throw inside a re-entrant (nested) parallelFor — a shard
    // body failing inside a sweep job — must surface through both
    // levels and still leave the pool serviceable.
    for (unsigned workers : {1u, 4u}) {
        ThreadPool pool(workers);
        EXPECT_THROW(
            pool.parallelFor(3,
                             [&](std::size_t) {
                                 pool.parallelFor(
                                     5, [&](std::size_t j) {
                                         if (j == 2)
                                             throw std::
                                                 runtime_error(
                                                     "inner");
                                     });
                             }),
            std::runtime_error);
        std::atomic<int> ran{0};
        pool.parallelFor(16,
                         [&](std::size_t) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), 16) << workers << " workers";
    }
}

TEST(ThreadPool, SubmittedTasksDrainBeforeDestruction)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&] { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, NestedParallelForFromInsideATaskCompletes)
{
    // A task that re-enters parallelFor on its own pool (the sharded
    // engine inside a sweep job) must not deadlock, even when the
    // pool has a single worker — the caller claims indices itself.
    for (unsigned workers : {1u, 2u, 4u}) {
        ThreadPool pool(workers);
        std::atomic<int> inner{0};
        pool.parallelFor(3, [&](std::size_t) {
            EXPECT_EQ(ThreadPool::current(), &pool);
            pool.parallelFor(5, [&](std::size_t) {
                inner.fetch_add(1);
            });
        });
        EXPECT_EQ(inner.load(), 15) << workers << " workers";
    }
}

TEST(ThreadPool, CurrentIsNullOutsidePoolTasks)
{
    EXPECT_EQ(ThreadPool::current(), nullptr);
    ThreadPool pool(2);
    pool.parallelFor(2, [&](std::size_t) {
        EXPECT_EQ(ThreadPool::current(), &pool);
    });
    EXPECT_EQ(ThreadPool::current(), nullptr);
}

TEST(ThreadPool, ExternalParallelForRespectsTheWorkerCap)
{
    // An external caller only waits: every fn runs on a pool worker,
    // never on the calling thread, so a pool sized `jobs=N` runs at
    // most N bodies concurrently (the contract SweepRunner sizes
    // simulations by).
    ThreadPool pool(2);
    const auto caller = std::this_thread::get_id();
    std::mutex mutex;
    std::set<std::thread::id> ids;
    std::atomic<int> live{0};
    std::atomic<int> peak{0};
    pool.parallelFor(32, [&](std::size_t) {
        const int now = live.fetch_add(1) + 1;
        int prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            ids.insert(std::this_thread::get_id());
        }
        live.fetch_sub(1);
    });
    EXPECT_EQ(ids.count(caller), 0u);
    EXPECT_LE(ids.size(), 2u);
    EXPECT_LE(peak.load(), 2);
}

TEST(ThreadPool, ExternalParallelForFinishesWhenWorkersFreeUp)
{
    // A busy worker delays but never deadlocks an external
    // parallelFor: the bodies run once the worker frees.
    ThreadPool pool(1);
    std::atomic<bool> release{false};
    pool.submit([&] {
        while (!release.load())
            std::this_thread::yield();
    });
    std::atomic<int> ran{0};
    std::thread helper([&] {
        pool.parallelFor(8, [&](std::size_t) { ran.fetch_add(1); });
    });
    release.store(true);
    helper.join();
    EXPECT_EQ(ran.load(), 8);
}

// -------------------------------------------------------- expansion

TEST(SweepSpec, DefaultSpecIsOneJob)
{
    SweepSpec spec;
    EXPECT_EQ(spec.jobCount(), 1u);
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].spec.scheme, "mithril");
    EXPECT_EQ(jobs[0].spec.flipTh, 6250u);
    EXPECT_EQ(jobs[0].spec.workload, "mix-high");
    EXPECT_EQ(jobs[0].spec.attack, "none");
    EXPECT_FALSE(jobs[0].isBaseline);
}

TEST(SweepSpec, GridCountIsCartesianProduct)
{
    SweepSpec spec;
    spec.schemes = {"mithril", "parfm", "para"};
    spec.flipThs = {50000, 6250};
    spec.rfmThs = {64, 128};
    spec.cases = {{"mix-high", "none"},
                  {"mt-fft", "none"},
                  {"mix-high", "multi-sided"}};
    EXPECT_EQ(spec.jobCount(), 3u * 2u * 2u * 3u);
    EXPECT_EQ(spec.expand().size(), spec.jobCount());

    spec.includeBaseline = true;
    EXPECT_EQ(spec.jobCount(), 3u * 2u * 2u * 3u + 3u);
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), spec.jobCount());
    // Baselines come first, one per case, unprotected.
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(jobs[i].isBaseline);
        EXPECT_EQ(jobs[i].spec.scheme, "none");
    }
    EXPECT_FALSE(jobs[3].isBaseline);
    // Indices are the expansion order.
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);
}

TEST(SweepSpec, ExpansionIsDeterministic)
{
    SweepSpec spec;
    spec.schemes = {"mithril", "blockhammer"};
    spec.flipThs = {25000, 3125};
    spec.includeBaseline = true;
    const auto a = spec.expand();
    const auto b = spec.expand();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label);
        EXPECT_EQ(a[i].spec.seed, b[i].spec.seed);
    }
}

TEST(SweepSpec, SharedSeedPolicyUsesSweepSeedVerbatim)
{
    SweepSpec spec;
    spec.schemes = {"mithril"};
    spec.flipThs = {50000, 6250};
    spec.seed = 1234;
    for (const Job &job : spec.expand()) {
        EXPECT_EQ(job.spec.seed, 1234u);
        EXPECT_EQ(job.spec.schemeSeed, sim::ExperimentSpec().schemeSeed);
    }
}

TEST(SweepSpec, PerJobSeedPolicyGivesDistinctDeterministicSeeds)
{
    SweepSpec spec;
    spec.schemes = {"mithril"};
    spec.flipThs = {50000, 25000, 6250};
    spec.seed = 99;
    spec.seedPolicy = SeedPolicy::PerJob;
    const auto jobs = spec.expand();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].spec.seed, mixSeed(99, i));
        for (std::size_t j = i + 1; j < jobs.size(); ++j)
            EXPECT_NE(jobs[i].spec.seed, jobs[j].spec.seed);
    }
}

TEST(SweepSpec, WarmupRuleFollowsAttack)
{
    SweepSpec spec;
    spec.trackerWarmupActs = 1000;
    spec.cases = {{"mix-high", "none"}, {"mix-high", "multi-sided"}};
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_TRUE(jobs[0].spec.warmupFromWorkload);
    EXPECT_FALSE(jobs[1].spec.warmupFromWorkload);
    EXPECT_EQ(jobs[0].spec.trackerWarmupActs, 1000u);
}

TEST(SweepSpec, FromParamsParsesLists)
{
    const char *argv[] = {"test",
                          "schemes=mithril,parfm",
                          "flip=50000,1500",
                          "rfm=64",
                          "workloads=mix-high,mt-fft",
                          "attacks=none,multi-sided",
                          "cores=4",
                          "instr=1000",
                          "seed=7",
                          "baseline=1",
                          "seed-policy=per-job"};
    const ParamSet params =
        ParamSet::fromArgs(static_cast<int>(std::size(argv)), argv);
    const SweepSpec spec = SweepSpec::fromParams(params);
    EXPECT_EQ(spec.schemes.size(), 2u);
    EXPECT_EQ(spec.flipThs.size(), 2u);
    EXPECT_EQ(spec.rfmThs.size(), 1u);
    EXPECT_EQ(spec.cases.size(), 4u); // workloads x attacks
    EXPECT_EQ(spec.cores, 4u);
    EXPECT_EQ(spec.instrPerCore, 1000u);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_TRUE(spec.includeBaseline);
    EXPECT_EQ(spec.seedPolicy, SeedPolicy::PerJob);
    EXPECT_EQ(spec.jobCount(), 2u * 2u * 1u * 4u + 4u);
}

TEST(SweepSpec, FromParamsCanonicalizesAliases)
{
    ParamSet params;
    params.set("schemes", "mithril_plus,rfm_graphene");
    const SweepSpec spec = SweepSpec::fromParams(params);
    ASSERT_EQ(spec.schemes.size(), 2u);
    EXPECT_EQ(spec.schemes[0], "mithril+");
    EXPECT_EQ(spec.schemes[1], "rfm-graphene");
}

TEST(SweepSpec, FromParamsRejectsUnknownKeysAndBadRanges)
{
    setLogThrowOnFatal(true);
    {
        // Typo'd axis ("flips=") must not silently run defaults.
        ParamSet params;
        params.set("flips", "50000,1500");
        EXPECT_THROW(SweepSpec::fromParams(params),
                     std::runtime_error);
    }
    {
        // Caller-owned keys are accepted only when listed.
        ParamSet params;
        params.set("jobs", "4");
        EXPECT_THROW(SweepSpec::fromParams(params),
                     std::runtime_error);
        EXPECT_NO_THROW(SweepSpec::fromParams(params, {"jobs"}));
    }
    {
        // Values beyond uint32 must fail, not wrap.
        ParamSet params;
        params.set("flip", "4294973546");
        EXPECT_THROW(SweepSpec::fromParams(params),
                     std::runtime_error);
    }
    {
        // Unknown axis names report the registered candidates (the
        // fatal exception carries no text, so capture the log).
        ParamSet params;
        params.set("schemes", "mithril,nosuch");
        std::string capture;
        setLogCapture(&capture);
        EXPECT_THROW(SweepSpec::fromParams(params),
                     std::runtime_error);
        setLogCapture(nullptr);
        EXPECT_NE(capture.find("rfm-graphene"), std::string::npos)
            << capture;
    }
    setLogThrowOnFatal(false);
}

TEST(SweepSpec, EntryDeclaredTunablesRideAlong)
{
    ParamSet params;
    params.set("schemes", "mithril,para");
    params.set("attacks", "multi-sided");
    params.set("victims", "8");
    params.set("para-p", "0.5");
    const SweepSpec spec = SweepSpec::fromParams(params);
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u);
    // Every job keeps the attack knob; only para keeps para-p.
    EXPECT_EQ(jobs[0].spec.extras.getString("victims"), "8");
    EXPECT_FALSE(jobs[0].spec.extras.has("para-p"));
    EXPECT_EQ(jobs[1].spec.extras.getString("para-p"), "0.5");
    // Each expanded spec validates as-is.
    EXPECT_NO_THROW(jobs[0].spec.validate());
    EXPECT_NO_THROW(jobs[1].spec.validate());
}

TEST(SweepSpec, AttackNamesResolveInRegistry)
{
    for (const char *name :
         {"none", "double-sided", "multi-sided", "cbf-pollution"}) {
        const auto *entry = registry::attackRegistry().find(name);
        ASSERT_NE(entry, nullptr) << name;
        EXPECT_EQ(entry->name, name);
    }
}

// ------------------------------------------------------ determinism

/** The attack enum values the original schema encoded in bitFlips. */
std::uint64_t
attackIndex(const std::string &attack)
{
    if (attack == "none")
        return 0;
    if (attack == "double-sided")
        return 1;
    if (attack == "multi-sided")
        return 2;
    return 3;
}

/** Deterministic stand-in for sim::runExperiment: metrics are a pure
 *  function of the job description. */
sim::RunMetrics
stubMetrics(const Job &job)
{
    sim::RunMetrics m;
    m.aggIpc =
        1.0 + 0.01 * static_cast<double>(job.spec.flipTh % 97);
    m.energyPj = static_cast<double>(job.spec.seed % 1000) * 3.5;
    m.acts = job.spec.flipTh + job.spec.instrPerCore;
    m.bitFlips = attackIndex(job.spec.attack);
    m.trackerBytesPerBank =
        static_cast<double>(job.spec.rfmTh) * 16.0;
    // A small telemetry sheet on non-baseline jobs only, so the
    // golden covers both the per-job "telemetry" block and its
    // absence.
    if (!job.isBaseline) {
        m.telemetry["tracker.cbs.touches"] =
            static_cast<double>(m.acts);
        m.telemetry["tracker.logic_ops"] =
            static_cast<double>(m.acts + job.spec.rfmTh);
    }
    return m;
}

SweepSpec
bigStubSpec()
{
    SweepSpec spec;
    spec.schemes = {"mithril", "mithril+", "parfm", "graphene"};
    spec.flipThs = {50000, 12500, 6250, 1500};
    spec.rfmThs = {32, 256};
    spec.cases = {{"mix-high", "none"}, {"mix-high", "multi-sided"}};
    spec.includeBaseline = true;
    return spec;
}

TEST(SweepRunner, SinkOutputIsIdenticalAcrossThreadCounts)
{
    const SweepSpec spec = bigStubSpec();
    RunnerOptions serial;
    serial.jobs = 1;
    serial.progress = false;
    RunnerOptions parallel;
    parallel.jobs = 8;
    parallel.progress = false;

    const SweepResult r1 =
        SweepRunner(serial).run(spec, &stubMetrics);
    const SweepResult r8 =
        SweepRunner(parallel).run(spec, &stubMetrics);
    ASSERT_EQ(r1.results.size(), r8.results.size());

    // Byte-identical artifacts from every sink.
    EXPECT_EQ(TableSink().render(r1), TableSink().render(r8));
    EXPECT_EQ(JsonSink().render(r1), JsonSink().render(r8));
    EXPECT_EQ(CsvSink().render(r1), CsvSink().render(r8));
}

TEST(SweepRunner, RealSimulationIsIdenticalAcrossThreadCounts)
{
    // Tiny but real end-to-end runs, attacked and benign.
    SweepSpec spec;
    spec.schemes = {"mithril", "para"};
    spec.flipThs = {6250};
    spec.cases = {{"mix-high", "none"}, {"mix-high", "double-sided"}};
    spec.cores = 2;
    spec.instrPerCore = 2000;
    spec.includeBaseline = true;

    RunnerOptions serial;
    serial.jobs = 1;
    serial.progress = false;
    RunnerOptions parallel;
    parallel.jobs = 8;
    parallel.progress = false;

    const SweepResult r1 = SweepRunner(serial).run(spec);
    const SweepResult r8 = SweepRunner(parallel).run(spec);
    EXPECT_EQ(JsonSink().render(r1), JsonSink().render(r8));
    EXPECT_EQ(TableSink().render(r1), TableSink().render(r8));
    EXPECT_EQ(CsvSink().render(r1), CsvSink().render(r8));
}

TEST(SweepRunner, EngineWarmupIsAppliedAndShardInvariant)
{
    // warmup= must reach the tracker on engine-only runs (it warms
    // from the source stream prefix at tick 0, like the System path
    // warms from the generators), and — like everything else — must
    // not depend on the shard count.
    auto run = [](std::uint64_t warmup, std::uint32_t shards) {
        sim::ExperimentSpec spec;
        spec.scheme = "cbt";
        spec.flipTh = 800;
        spec.attack = "double-sided";
        spec.source = "attack";
        spec.engineActs = 4000;
        spec.trackerWarmupActs = warmup;
        spec.shards = shards;
        return sim::runExperiment(spec);
    };
    const sim::RunMetrics cold = run(0, 1);
    const sim::RunMetrics warm1 = run(8000, 1);
    const sim::RunMetrics warm4 = run(8000, 4);
    // The warm-up pushes CBT's hot leaves over the group-refresh
    // threshold inside the measured window; a cold tree stays below
    // it for this budget.
    EXPECT_NE(warm1.preventiveRefreshes, cold.preventiveRefreshes);
    EXPECT_EQ(warm1.preventiveRefreshes, warm4.preventiveRefreshes);
    EXPECT_EQ(warm1.maxDisturbance, warm4.maxDisturbance);
    EXPECT_EQ(warm1.simTicks, warm4.simTicks);
}

TEST(SweepSpec, SourceAndShardAxesExpand)
{
    const SweepSpec spec = SweepSpec::fromParams(
        ParamSet::fromString("schemes=mithril,para sources=attack "
                             "attacks=multi-sided shards=1,2 "
                             "acts=20000"));
    EXPECT_EQ(spec.jobCount(), 2u * 1u * 2u);
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 4u);
    for (const Job &job : jobs) {
        EXPECT_EQ(job.spec.source, "attack");
        EXPECT_EQ(job.spec.attack, "multi-sided");
        EXPECT_EQ(job.spec.engineActs, 20000u);
        EXPECT_TRUE(job.spec.engineRun());
        EXPECT_NE(job.label.find("/attack/s"), std::string::npos)
            << job.label;
    }
    EXPECT_EQ(jobs[0].spec.shards, 1u);
    EXPECT_EQ(jobs[1].spec.shards, 2u);
}

TEST(SweepRunner, EngineOnlySweepIsDeterministicAcrossEverything)
{
    // An engine-only (sources=) grid must produce identical sink
    // output at any jobs= count, and — because sharded output is
    // byte-identical to single-threaded output — the shards=1 and
    // shards=2 cells of each scheme must carry identical metrics.
    SweepSpec spec;
    spec.schemes = {"mithril", "para"};
    spec.sources = {"attack"};
    spec.shardsList = {1, 2};
    spec.cases = {{"mix-high", "multi-sided"}};
    spec.engineActs = 20000;

    RunnerOptions serial;
    serial.jobs = 1;
    serial.progress = false;
    RunnerOptions parallel;
    parallel.jobs = 4;
    parallel.progress = false;

    const SweepResult r1 = SweepRunner(serial).run(spec);
    const SweepResult r4 = SweepRunner(parallel).run(spec);
    EXPECT_EQ(r1.failedCount(), 0u);
    EXPECT_EQ(JsonSink().render(r1), JsonSink().render(r4));

    ASSERT_EQ(r1.results.size(), 4u);
    for (std::size_t scheme = 0; scheme < 2; ++scheme) {
        const sim::RunMetrics &s1 =
            r1.results[2 * scheme + 0].metrics;
        const sim::RunMetrics &s2 =
            r1.results[2 * scheme + 1].metrics;
        EXPECT_EQ(r1.results[2 * scheme].job.spec.shards, 1u);
        EXPECT_EQ(r1.results[2 * scheme + 1].job.spec.shards, 2u);
        EXPECT_EQ(s1.acts, 20000u);
        EXPECT_EQ(s1.acts, s2.acts);
        EXPECT_EQ(s1.rfmIssued, s2.rfmIssued);
        EXPECT_EQ(s1.preventiveRefreshes, s2.preventiveRefreshes);
        EXPECT_EQ(s1.bitFlips, s2.bitFlips);
        EXPECT_EQ(s1.maxDisturbance, s2.maxDisturbance);
        EXPECT_EQ(s1.simTicks, s2.simTicks);
    }
}

TEST(SweepRunner, RejectedConfigurationFailsItsJobOnly)
{
    // Mithril at flip=100 is infeasible; the PARA cell and the
    // baseline still run, and the sweep reports the error per job.
    SweepSpec spec;
    spec.schemes = {"mithril", "para"};
    spec.flipThs = {100};
    spec.cores = 1;
    spec.instrPerCore = 500;
    spec.includeBaseline = true;

    RunnerOptions options;
    options.jobs = 2;
    options.progress = false;
    const SweepResult result = SweepRunner(options).run(spec);
    ASSERT_EQ(result.results.size(), 3u);
    EXPECT_EQ(result.failedCount(), 1u);

    const JobResult *mithril = result.find("mithril", 100, "mix-high");
    ASSERT_NE(mithril, nullptr);
    EXPECT_TRUE(mithril->failed());
    EXPECT_NE(mithril->error.find("infeasible"), std::string::npos)
        << mithril->error;

    const JobResult *para = result.find("para", 100, "mix-high");
    ASSERT_NE(para, nullptr);
    EXPECT_FALSE(para->failed());
    EXPECT_GT(para->metrics.aggIpc, 0.0);

    // Sinks surface the failure instead of dying.
    const std::string table = TableSink().render(result);
    EXPECT_NE(table.find("FAILED"), std::string::npos);
    const std::string json = JsonSink().render(result);
    EXPECT_NE(json.find("\"error\""), std::string::npos);
}

TEST(SweepRunner, UnwritableTraceEventsPathFailsItsJob)
{
    // trace-events= onto a path that cannot be opened fails the job
    // with an error naming the path — a FAILED row, as for a bad
    // record= path — on both frontends, instead of exiting the
    // process after the run.
    const std::string path = "/nonexistent/dir/x.json";
    for (const char *grid :
         {"schemes=mithril sources=attack attacks=double-sided "
          "acts=2000",
          "schemes=mithril attacks=double-sided cores=2 instr=2000"}) {
        const SweepSpec spec = SweepSpec::fromParams(
            ParamSet::fromString(std::string(grid) +
                                 " trace-events=" + path));
        RunnerOptions options;
        options.jobs = 1;
        options.progress = false;
        const SweepResult result = SweepRunner(options).run(spec);
        ASSERT_EQ(result.results.size(), 1u) << grid;
        EXPECT_EQ(result.failedCount(), 1u) << grid;
        EXPECT_NE(result.results[0].error.find(path),
                  std::string::npos)
            << result.results[0].error;
        EXPECT_NE(TableSink().render(result).find("FAILED"),
                  std::string::npos);
    }
}

TEST(SweepResult, FindAndBaselineLookups)
{
    const SweepSpec spec = bigStubSpec();
    RunnerOptions options;
    options.jobs = 2;
    options.progress = false;
    const SweepResult result =
        SweepRunner(options).run(spec, &stubMetrics);

    const JobResult *r = result.find("parfm", 12500, "mix-high",
                                     "multi-sided", 256);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->job.spec.rfmTh, 256u);
    EXPECT_FALSE(r->job.isBaseline);

    const JobResult *base =
        result.baseline("mix-high", "multi-sided");
    ASSERT_NE(base, nullptr);
    EXPECT_TRUE(base->job.isBaseline);
    EXPECT_EQ(base->job.spec.scheme, "none");

    EXPECT_EQ(result.find("twice", 12500, "mix-high"), nullptr);
    EXPECT_EQ(result.baseline("gups"), nullptr);
}

// ----------------------------------------------------- JSON schema

TEST(JsonSink, GoldenFileSchema)
{
    // A fixed spec with stub metrics: the artifact must match the
    // checked-in golden byte for byte. Regenerate with:
    //   MITHRIL_UPDATE_GOLDEN=1 ./test_runner
    //       --gtest_filter=JsonSink.GoldenFileSchema
    SweepSpec spec;
    spec.schemes = {"mithril", "parfm"};
    spec.flipThs = {50000, 6250};
    spec.rfmThs = {64};
    spec.cases = {{"mix-high", "none"}, {"mt-fft", "multi-sided"}};
    spec.cores = 4;
    spec.instrPerCore = 1000;
    spec.seed = 7;
    spec.includeBaseline = true;

    RunnerOptions options;
    options.jobs = 4;
    options.progress = false;
    const SweepResult result =
        SweepRunner(options).run(spec, &stubMetrics);
    const std::string artifact = JsonSink().render(result);

    const std::string golden_path =
        std::string(MITHRIL_SOURCE_DIR) +
        "/tests/golden/sweep_v3.json";
    if (std::getenv("MITHRIL_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        out << artifact;
        GTEST_SKIP() << "regenerated " << golden_path;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in) << "missing golden file " << golden_path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(artifact, buffer.str());
}

} // namespace
} // namespace mithril::runner
