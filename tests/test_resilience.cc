/**
 * @file
 * Tests for the resilience layer: the failpoint fault-injection
 * registry, the crash-safe checkpoint journal and byte-identical
 * resume, the per-job watchdog and deterministic retries, strict
 * (fail-fast) mode, and catch-all exception containment in the sweep
 * runner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <variant>

#include "common/failpoint.hh"
#include "common/logging.hh"
#include "registry/registry.hh"
#include "runner/journal.hh"
#include "runner/runner.hh"
#include "runner/sinks.hh"
#include "runner/sweep_spec.hh"

namespace mithril::runner
{
namespace
{

/** A test-owned failpoint site, so arming/firing needs no real I/O
 *  path. Registered exactly like production sites. */
const failpoint::SiteRegistrar kTestSite{
    "test.resilience-site",
    "test-only site exercised by test_resilience"};

/** RAII temp file path (removed on destruction). */
struct TempPath
{
    std::string path;

    explicit TempPath(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::remove(path.c_str());
    }
    ~TempPath() { std::remove(path.c_str()); }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

/** Deterministic stand-in for sim::runExperiment with awkward
 *  doubles (never exactly representable) so the journal's exact
 *  round-trip is actually exercised. Every field is non-zero and
 *  distinct from the others, so a journal that drops or swaps a
 *  field fails the round trip. */
sim::RunMetrics
stubMetrics(const Job &job)
{
    sim::RunMetrics m;
    const std::uint64_t n = job.index + 1;
    const double salt = static_cast<double>(n);
    m.aggIpc = 1.0 / (3.0 * salt);
    m.energyPj = 10000.0 / 7.0 + salt;
    m.avgReadLatencyNs = 0.1 * salt;
    m.p95ReadLatencyNs = 0.3 * salt;
    m.maxDisturbance = 1.0 / 81.0;
    m.trackerBytesPerBank = salt / 1024.0;
    m.simTicks = static_cast<Tick>(1000 * n);
    m.acts = job.spec.flipTh + job.index;
    m.reads = 17 * n;
    m.writes = 19 * n;
    m.rfmIssued = 23 * n;
    m.rfmSkippedMrr = 29 * n;
    m.arrExecuted = 31 * n;
    m.preventiveRefreshes = 37 * n;
    m.throttleStalls = 41 * n;
    m.bitFlips = 43 * n;
    m.telemetry["engine.acts"] = static_cast<double>(m.acts);
    m.telemetry["odd name = tricky"] = 1.0 / 3.0;
    return m;
}

/** Every RunMetrics field of `got` equals `want`'s exactly. */
void
expectSameMetrics(const sim::RunMetrics &got,
                  const sim::RunMetrics &want)
{
    for (const sim::MetricField &field : sim::kMetricFields) {
        std::visit(
            [&](auto member) {
                EXPECT_EQ(got.*member, want.*member) << field.name;
            },
            field.member);
    }
    EXPECT_EQ(got.telemetry, want.telemetry);
}

/** The stub's failure hooks, keyed by job index. JobFn is a plain
 *  function pointer, so the hooks are file-scope state reset by each
 *  test that uses them. */
std::atomic<long> g_throwStdOnIndex{-1};
std::atomic<long> g_hangMsOnIndex{-1};
std::atomic<long> g_hangMs{2000};
std::atomic<long> g_failFirstAttemptsOnIndex{-1};
std::atomic<unsigned> g_attemptsSeen{0};
std::atomic<unsigned> g_failFirstN{1};

void
resetHooks()
{
    g_throwStdOnIndex = -1;
    g_hangMsOnIndex = -1;
    g_hangMs = 2000;
    g_failFirstAttemptsOnIndex = -1;
    g_attemptsSeen = 0;
    g_failFirstN = 1;
}

sim::RunMetrics
hookedStub(const Job &job)
{
    const long index = static_cast<long>(job.index);
    if (g_throwStdOnIndex.load() == index)
        throw std::runtime_error("stub blew up (not a SpecError)");
    if (g_hangMsOnIndex.load() == index) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(g_hangMs.load()));
    }
    if (g_failFirstAttemptsOnIndex.load() == index &&
        g_attemptsSeen.fetch_add(1) < g_failFirstN.load()) {
        throw registry::SpecError("transient stub failure");
    }
    // A failpoint in the job body proper, for the failpoints= knob
    // test — exactly how act-trace.decode sits inside loadBlock.
    MITHRIL_FAILPOINT("test.resilience-site");
    return stubMetrics(job);
}

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.schemes = {"mithril", "para", "graphene"};
    spec.flipThs = {50000, 6250};
    spec.cases = {{"mix-high", "none"}};
    spec.includeBaseline = true;
    return spec;
}

RunnerOptions
quietOptions(unsigned jobs = 2)
{
    RunnerOptions options;
    options.jobs = jobs;
    options.progress = false;
    return options;
}

// ------------------------------------------------------- failpoints

TEST(Failpoint, DisarmedSiteIsInvisible)
{
    failpoint::disarmAll();
    EXPECT_FALSE(failpoint::anyArmed());
    EXPECT_NO_THROW(failpoint::evaluate("test.resilience-site"));
    EXPECT_EQ(failpoint::firedCount("test.resilience-site"), 0u);
}

TEST(Failpoint, ArmFireDisarm)
{
    failpoint::armFromSpec("test.resilience-site:error");
    EXPECT_TRUE(failpoint::anyArmed());
    EXPECT_THROW(failpoint::evaluate("test.resilience-site"),
                 registry::SpecError);
    EXPECT_EQ(failpoint::firedCount("test.resilience-site"), 1u);
    failpoint::disarmAll();
    EXPECT_FALSE(failpoint::anyArmed());
    EXPECT_NO_THROW(failpoint::evaluate("test.resilience-site"));
}

TEST(Failpoint, EioActionNamesTheFlavor)
{
    failpoint::armFromSpec("test.resilience-site:eio");
    try {
        failpoint::evaluate("test.resilience-site");
        FAIL() << "expected SpecError";
    } catch (const registry::SpecError &err) {
        EXPECT_NE(std::string(err.what()).find("EIO"),
                  std::string::npos)
            << err.what();
    }
    failpoint::disarmAll();
}

TEST(Failpoint, AfterAndTimesModifiers)
{
    failpoint::armFromSpec(
        "test.resilience-site:error:after=2:times=1");
    // Hits 0 and 1 pass, hit 2 fires, then times=1 is exhausted.
    EXPECT_NO_THROW(failpoint::evaluate("test.resilience-site"));
    EXPECT_NO_THROW(failpoint::evaluate("test.resilience-site"));
    EXPECT_THROW(failpoint::evaluate("test.resilience-site"),
                 registry::SpecError);
    EXPECT_NO_THROW(failpoint::evaluate("test.resilience-site"));
    EXPECT_EQ(failpoint::firedCount("test.resilience-site"), 1u);
    failpoint::disarmAll();
}

TEST(Failpoint, ProbFiresDeterministically)
{
    auto pattern = [] {
        std::vector<bool> fired;
        failpoint::armFromSpec(
            "test.resilience-site:error:prob=0.5:seed=7");
        for (int i = 0; i < 64; ++i) {
            bool threw = false;
            try {
                failpoint::evaluate("test.resilience-site");
            } catch (const registry::SpecError &) {
                threw = true;
            }
            fired.push_back(threw);
        }
        failpoint::disarmAll();
        return fired;
    };
    const std::vector<bool> first = pattern();
    const std::vector<bool> second = pattern();
    EXPECT_EQ(first, second);
    // prob=0.5 over 64 draws: some fire, some pass.
    EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
    EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST(Failpoint, StallSleepsForMs)
{
    failpoint::armFromSpec("test.resilience-site:stall:ms=60");
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_NO_THROW(failpoint::evaluate("test.resilience-site"));
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    failpoint::disarmAll();
    EXPECT_GE(ms, 50.0);
}

TEST(Failpoint, UnknownNamesAndGrammarAreSpecErrors)
{
    try {
        failpoint::armFromSpec("no.such.site:error");
        FAIL() << "expected SpecError";
    } catch (const registry::SpecError &err) {
        // The message lists the registered candidates.
        EXPECT_NE(std::string(err.what()).find("act-trace.decode"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_THROW(failpoint::armFromSpec("test.resilience-site"),
                 registry::SpecError); // no action
    EXPECT_THROW(
        failpoint::armFromSpec("test.resilience-site:explode"),
        registry::SpecError); // unknown action
    EXPECT_THROW(
        failpoint::armFromSpec("test.resilience-site:error:prob=2"),
        registry::SpecError); // prob out of range
    EXPECT_THROW(
        failpoint::armFromSpec(
            "test.resilience-site:error:bogus=1"),
        registry::SpecError); // unknown modifier
    EXPECT_FALSE(failpoint::anyArmed());
}

TEST(Failpoint, ProductionSitesAreRegistered)
{
    std::vector<std::string> names;
    for (const failpoint::Site &site : failpoint::sites())
        names.push_back(site.name);
    for (const char *expect :
         {"act-trace.decode", "act-trace.finalize",
          "engine.shard-dispatch", "journal.append", "sink.flush"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expect),
                  names.end())
            << expect;
    }
    // Sorted, so the --list output is deterministic.
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

// ---------------------------------------------------------- journal

TEST(Journal, RoundTripsEveryRecordExactly)
{
    const SweepSpec spec = smallSpec();
    TempPath journal("resilience_roundtrip.journal");

    RunnerOptions options = quietOptions();
    options.journal = journal.path;
    const SweepResult run =
        SweepRunner(options).run(spec, &stubMetrics);
    ASSERT_EQ(run.failedCount(), 0u);

    const std::vector<Job> jobs = spec.expand();
    const auto restored = SweepJournal::load(
        journal.path, sweepFingerprint(jobs), jobs);
    ASSERT_EQ(restored.size(), jobs.size());
    for (const auto &[index, rec] : restored) {
        EXPECT_TRUE(rec.restored);
        EXPECT_EQ(rec.status, JobStatus::Ok);
        EXPECT_EQ(rec.job.label, jobs[index].label);
        // Doubles restore bit-exactly (%.17g round-trip).
        expectSameMetrics(rec.metrics, run.results[index].metrics);
    }

    // Text holding every byte the record format reserves (space,
    // '=', '%') or that ends a line, plus a non-ASCII byte, comes
    // back unchanged in the label, the error and a telemetry name.
    const std::string hostile = "a b\tc\nd=e%25f\xc3\xa9";
    std::vector<Job> odd = jobs;
    odd[1].label += hostile;
    JobResult failed;
    failed.job = odd[1];
    failed.status = JobStatus::Failed;
    failed.error = "error: " + hostile;
    failed.metrics = stubMetrics(odd[1]);
    failed.metrics.telemetry[hostile] = 2.5;
    const std::uint64_t fingerprint = sweepFingerprint(odd);
    SweepJournal(journal.path, fingerprint, odd.size()).append(failed);
    const auto hostileBack =
        SweepJournal::load(journal.path, fingerprint, odd);
    ASSERT_EQ(hostileBack.size(), 1u);
    const JobResult &rec = hostileBack.at(1);
    EXPECT_EQ(rec.job.label, odd[1].label);
    EXPECT_EQ(rec.status, JobStatus::Failed);
    EXPECT_EQ(rec.error, failed.error);
    expectSameMetrics(rec.metrics, failed.metrics);
}

TEST(Journal, TornTailLineIsIgnored)
{
    const SweepSpec spec = smallSpec();
    TempPath journal("resilience_torn.journal");

    RunnerOptions options = quietOptions();
    options.journal = journal.path;
    SweepRunner(options).run(spec, &stubMetrics);

    std::string content = readFile(journal.path);
    // Cut the final record mid-line, as a SIGKILL mid-append would.
    content.resize(content.size() - 25);
    writeFile(journal.path, content);

    const std::vector<Job> jobs = spec.expand();
    std::string log;
    setLogCapture(&log);
    const auto restored = SweepJournal::load(
        journal.path, sweepFingerprint(jobs), jobs);
    setLogCapture(nullptr);
    EXPECT_EQ(restored.size(), jobs.size() - 1);
    EXPECT_NE(log.find("torn"), std::string::npos) << log;
}

TEST(Journal, CorruptChecksumEndsTheRestorablePrefix)
{
    const SweepSpec spec = smallSpec();
    TempPath journal("resilience_corrupt.journal");

    RunnerOptions options = quietOptions();
    options.journal = journal.path;
    SweepRunner(options).run(spec, &stubMetrics);

    std::string content = readFile(journal.path);
    // Flip a metric digit inside the SECOND record: record 1 dies,
    // and the scan refuses everything after it.
    std::size_t pos = content.find('\n');            // header
    pos = content.find('\n', pos + 1);               // record 0
    pos = content.find("aggIpc=", pos);
    ASSERT_NE(pos, std::string::npos);
    content[pos + 7] = content[pos + 7] == '9' ? '8' : '9';
    writeFile(journal.path, content);

    const std::vector<Job> jobs = spec.expand();
    std::string log;
    setLogCapture(&log);
    const auto restored = SweepJournal::load(
        journal.path, sweepFingerprint(jobs), jobs);
    setLogCapture(nullptr);
    EXPECT_EQ(restored.size(), 1u);
    EXPECT_NE(log.find("corrupt"), std::string::npos) << log;
}

TEST(Journal, FingerprintMismatchRefusesToResume)
{
    const SweepSpec spec = smallSpec();
    TempPath journal("resilience_mismatch.journal");

    RunnerOptions options = quietOptions();
    options.journal = journal.path;
    SweepRunner(options).run(spec, &stubMetrics);

    // The same journal against a DIFFERENT sweep (one more flip
    // threshold) must throw, not silently mix results.
    SweepSpec other = spec;
    other.flipThs.push_back(1500);
    const std::vector<Job> jobs = other.expand();
    EXPECT_THROW(SweepJournal::load(journal.path,
                                    sweepFingerprint(jobs), jobs),
                 registry::SpecError);

    // And a non-journal file is rejected by magic, as is a v1
    // journal of this very sweep: no reader for v1 records is kept.
    const std::vector<Job> own = spec.expand();
    std::string v1 = readFile(journal.path);
    v1.replace(v1.find(".v2 "), 4, ".v1 ");
    for (const std::string &content : {std::string("not a journal\n"), v1}) {
        writeFile(journal.path, content);
        try {
            SweepJournal::load(journal.path, sweepFingerprint(own), own);
            ADD_FAILURE() << "loaded " << content;
        } catch (const registry::SpecError &err) {
            EXPECT_NE(std::string(err.what()).find("bad magic"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(Journal, ResumeReemitsByteIdenticalArtifacts)
{
    const SweepSpec spec = smallSpec();
    TempPath journal("resilience_resume.journal");

    // The uninterrupted reference run (no journal at all).
    const SweepResult clean =
        SweepRunner(quietOptions()).run(spec, &stubMetrics);
    const std::string want_json = JsonSink().render(clean);
    const std::string want_csv = CsvSink().render(clean);
    const std::string want_table = TableSink().render(clean);

    // A journaled run, then a simulated crash: keep the header and
    // the first three records only.
    RunnerOptions options = quietOptions();
    options.journal = journal.path;
    SweepRunner(options).run(spec, &stubMetrics);
    std::string content = readFile(journal.path);
    std::size_t pos = 0;
    for (int lines = 0; lines < 4; ++lines)
        pos = content.find('\n', pos) + 1;
    writeFile(journal.path, content.substr(0, pos));

    // Resume: three jobs restore, the rest rerun, and every sink's
    // output is byte-identical to the uninterrupted run.
    options.resume = true;
    const SweepResult resumed =
        SweepRunner(options).run(spec, &stubMetrics);
    EXPECT_EQ(resumed.restoredCount(), 3u);
    EXPECT_EQ(JsonSink().render(resumed), want_json);
    EXPECT_EQ(CsvSink().render(resumed), want_csv);
    EXPECT_EQ(TableSink().render(resumed), want_table);

    // The journal was topped back up: a second resume restores all.
    options.resume = true;
    const SweepResult again =
        SweepRunner(options).run(spec, &stubMetrics);
    EXPECT_EQ(again.restoredCount(), spec.jobCount());
    EXPECT_EQ(JsonSink().render(again), want_json);
}

TEST(Journal, ResumeDropsADamagedTailBeforeAppending)
{
    // A torn last record (a SIGKILL mid-append) and a corrupt middle
    // record each end the restorable prefix. Resume must cut the file
    // back to that prefix before appending, or every record it writes
    // lands behind a line no later load() gets past.
    const SweepSpec spec = smallSpec();
    const std::size_t n = spec.jobCount();
    const std::string want_json =
        JsonSink().render(SweepRunner(quietOptions()).run(spec,
                                                          &stubMetrics));
    auto tear = [](std::string &content) {
        content.resize(content.size() - 25);
    };
    auto corrupt = [](std::string &content) {
        std::size_t pos = content.find('\n');  // header
        pos = content.find('\n', pos + 1);     // record 0
        pos = content.find("aggIpc=", pos);
        content[pos + 7] = content[pos + 7] == '9' ? '8' : '9';
    };
    for (const auto &damage : {std::function<void(std::string &)>(tear),
                               std::function<void(std::string &)>(corrupt)}) {
        TempPath journal("resilience_damaged.journal");
        RunnerOptions options = quietOptions();
        options.journal = journal.path;
        SweepRunner(options).run(spec, &stubMetrics);
        std::string content = readFile(journal.path);
        damage(content);
        writeFile(journal.path, content);

        options.resume = true;
        std::string log;
        setLogCapture(&log);
        const SweepResult first =
            SweepRunner(options).run(spec, &stubMetrics);
        EXPECT_LT(first.restoredCount(), n);
        EXPECT_FALSE(log.empty());
        log.clear();
        const SweepResult second =
            SweepRunner(options).run(spec, &stubMetrics);
        setLogCapture(nullptr);

        EXPECT_EQ(second.restoredCount(), n);
        EXPECT_EQ(log, "");
        EXPECT_EQ(JsonSink().render(first), want_json);
        EXPECT_EQ(JsonSink().render(second), want_json);
        // Exactly the header plus one whole record line per job.
        content = readFile(journal.path);
        EXPECT_EQ(std::count(content.begin(), content.end(), '\n'),
                  static_cast<long>(n + 1));
        EXPECT_EQ(content.back(), '\n');
    }
}

TEST(Journal, ResumeWithoutJournalKnobIsAnError)
{
    RunnerOptions options = quietOptions();
    options.resume = true;
    EXPECT_THROW(
        SweepRunner(options).run(smallSpec(), &stubMetrics),
        registry::SpecError);
}

TEST(Journal, MissingFileOnResumeStartsFresh)
{
    const SweepSpec spec = smallSpec();
    TempPath journal("resilience_fresh.journal");
    RunnerOptions options = quietOptions();
    options.journal = journal.path;
    options.resume = true; // Nothing to resume from: plain run.
    const SweepResult result =
        SweepRunner(options).run(spec, &stubMetrics);
    EXPECT_EQ(result.restoredCount(), 0u);
    EXPECT_EQ(result.failedCount(), 0u);
    // ...and the journal it wrote is complete.
    const std::vector<Job> jobs = spec.expand();
    EXPECT_EQ(SweepJournal::load(journal.path,
                                 sweepFingerprint(jobs), jobs)
                  .size(),
              jobs.size());
}

TEST(Journal, FailedJobsJournalAndRestoreTheirStatus)
{
    resetHooks();
    g_throwStdOnIndex = 1;
    const SweepSpec spec = smallSpec();
    TempPath journal("resilience_failrec.journal");

    RunnerOptions options = quietOptions(1);
    options.journal = journal.path;
    const SweepResult first =
        SweepRunner(options).run(spec, &hookedStub);
    EXPECT_EQ(first.countByStatus(JobStatus::Failed), 1u);
    const std::string want_json = JsonSink().render(first);

    // Resume with the hook cleared: the failure is NOT rerun — it
    // was journaled, so the artifacts reproduce byte-identically.
    resetHooks();
    options.resume = true;
    const SweepResult resumed =
        SweepRunner(options).run(spec, &hookedStub);
    EXPECT_EQ(resumed.restoredCount(), spec.jobCount());
    EXPECT_EQ(resumed.countByStatus(JobStatus::Failed), 1u);
    EXPECT_EQ(resumed.results[1].error,
              "unhandled exception: stub blew up (not a SpecError)");
    EXPECT_EQ(JsonSink().render(resumed), want_json);
}

// ------------------------------------- watchdog / retries / strict

TEST(Runner, NonSpecErrorExceptionBecomesFailedRow)
{
    resetHooks();
    g_throwStdOnIndex = 2;
    const SweepResult result =
        SweepRunner(quietOptions()).run(smallSpec(), &hookedStub);
    EXPECT_EQ(result.countByStatus(JobStatus::Failed), 1u);
    EXPECT_EQ(result.results[2].status, JobStatus::Failed);
    EXPECT_NE(result.results[2].error.find("unhandled exception"),
              std::string::npos)
        << result.results[2].error;
    // Everything else still ran.
    EXPECT_EQ(result.countByStatus(JobStatus::Ok),
              result.results.size() - 1);
    EXPECT_EQ(result.statusSummary(),
              "6 ok, 1 failed (7 jobs)");
}

TEST(Runner, WatchdogConvertsHungJobToTimeout)
{
    resetHooks();
    g_hangMsOnIndex = 1;
    g_hangMs = 1500;
    RunnerOptions options = quietOptions();
    options.jobTimeout = 0.15;
    const auto t0 = std::chrono::steady_clock::now();
    const SweepResult result =
        SweepRunner(options).run(smallSpec(), &hookedStub);
    const double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(result.countByStatus(JobStatus::Timeout), 1u);
    EXPECT_EQ(result.results[1].status, JobStatus::Timeout);
    EXPECT_NE(result.results[1].error.find("watchdog"),
              std::string::npos)
        << result.results[1].error;
    // The pool survived: every other job finished OK, and the sweep
    // returned without waiting out the full hang.
    EXPECT_EQ(result.countByStatus(JobStatus::Ok),
              result.results.size() - 1);
    EXPECT_LT(elapsed, 1.4);
    // Give the abandoned worker time to drain before the test exits
    // (it holds only its own shared state).
    std::this_thread::sleep_for(std::chrono::milliseconds(1600));
}

TEST(Runner, RetriesRecoverTransientFailuresByteIdentically)
{
    const SweepSpec spec = smallSpec();
    const SweepResult clean =
        SweepRunner(quietOptions()).run(spec, &stubMetrics);

    resetHooks();
    g_failFirstAttemptsOnIndex = 3;
    g_failFirstN = 2;
    RunnerOptions options = quietOptions();
    options.retries = 3;
    options.retryBackoffMs = 1.0;
    const SweepResult retried =
        SweepRunner(options).run(spec, &hookedStub);
    EXPECT_EQ(retried.failedCount(), 0u);
    EXPECT_EQ(retried.results[3].attempts, 3u);
    // The recovered sweep's artifacts match an untroubled run's.
    EXPECT_EQ(JsonSink().render(retried), JsonSink().render(clean));
    EXPECT_EQ(CsvSink().render(retried), CsvSink().render(clean));
}

TEST(Runner, RetriesExhaustedReportsTheLastError)
{
    resetHooks();
    g_failFirstAttemptsOnIndex = 0;
    g_failFirstN = 100; // Never recovers.
    RunnerOptions options = quietOptions();
    options.retries = 2;
    options.retryBackoffMs = 1.0;
    const SweepResult result =
        SweepRunner(options).run(smallSpec(), &hookedStub);
    EXPECT_EQ(result.results[0].status, JobStatus::Failed);
    EXPECT_EQ(result.results[0].attempts, 3u);
    EXPECT_EQ(result.results[0].error, "transient stub failure");
}

TEST(Runner, StrictModeSkipsRemainingJobsAfterAFailure)
{
    resetHooks();
    g_throwStdOnIndex = 1;
    RunnerOptions options = quietOptions(1); // Serial: order fixed.
    options.strict = true;
    const SweepResult result =
        SweepRunner(options).run(smallSpec(), &hookedStub);
    EXPECT_EQ(result.results[0].status, JobStatus::Ok);
    EXPECT_EQ(result.results[1].status, JobStatus::Failed);
    for (std::size_t i = 2; i < result.results.size(); ++i) {
        EXPECT_EQ(result.results[i].status, JobStatus::Skipped) << i;
        EXPECT_NE(result.results[i].error.find("strict"),
                  std::string::npos);
    }
    EXPECT_EQ(result.statusSummary(),
              "1 ok, 1 failed, 5 skipped (7 jobs)");
    EXPECT_EQ(result.failedCount(), 6u);
}

TEST(Runner, SkippedJobsAreNotJournaledAndRerunOnResume)
{
    resetHooks();
    g_throwStdOnIndex = 1;
    const SweepSpec spec = smallSpec();
    TempPath journal("resilience_skip.journal");

    RunnerOptions options = quietOptions(1);
    options.strict = true;
    options.journal = journal.path;
    const SweepResult strict_run =
        SweepRunner(options).run(spec, &hookedStub);
    EXPECT_EQ(strict_run.countByStatus(JobStatus::Skipped), 5u);

    // Resume without strict and without the fault: the skipped jobs
    // (and only they, plus nothing for the journaled failure) rerun.
    resetHooks();
    options.strict = false;
    options.resume = true;
    const SweepResult resumed =
        SweepRunner(options).run(spec, &hookedStub);
    EXPECT_EQ(resumed.restoredCount(), 2u); // Ok job 0 + failed job 1.
    EXPECT_EQ(resumed.countByStatus(JobStatus::Skipped), 0u);
    EXPECT_EQ(resumed.countByStatus(JobStatus::Ok),
              resumed.results.size() - 1);
}

TEST(Runner, FailpointsKnobArmsForTheSweepAndDisarmsAfter)
{
    resetHooks();
    failpoint::disarmAll();
    SweepSpec spec = smallSpec();
    spec.failpoints = "test.resilience-site:error:after=2";
    const SweepResult result =
        SweepRunner(quietOptions(1)).run(spec, &hookedStub);
    // Jobs 0 and 1 pass, every later job hits the armed site.
    EXPECT_EQ(result.countByStatus(JobStatus::Ok), 2u);
    EXPECT_EQ(result.countByStatus(JobStatus::Failed),
              result.results.size() - 2);
    EXPECT_NE(result.results[2].error.find(
                  "failpoint 'test.resilience-site'"),
              std::string::npos)
        << result.results[2].error;
    // The sweep disarmed its own failpoints on the way out.
    EXPECT_FALSE(failpoint::anyArmed());

    // An unknown site fails the sweep up front with the candidates.
    spec.failpoints = "no.such.site:error";
    EXPECT_THROW(
        SweepRunner(quietOptions(1)).run(spec, &hookedStub),
        registry::SpecError);
}

TEST(Runner, StatusNamesRoundTrip)
{
    for (JobStatus s : {JobStatus::Ok, JobStatus::Failed,
                        JobStatus::Timeout, JobStatus::Skipped})
        EXPECT_EQ(jobStatusFromName(jobStatusName(s)), s);
    EXPECT_THROW(jobStatusFromName("exploded"), registry::SpecError);
}

// ------------------------------------------------- status rendering

TEST(Sinks, StatusAppearsInTableTrailerAndJson)
{
    resetHooks();
    g_hangMsOnIndex = 0;
    g_hangMs = 1000;
    g_throwStdOnIndex = 2;
    RunnerOptions options = quietOptions(1);
    options.jobTimeout = 0.1;
    const SweepResult result =
        SweepRunner(options).run(smallSpec(), &hookedStub);
    ASSERT_EQ(result.results[0].status, JobStatus::Timeout);
    ASSERT_EQ(result.results[2].status, JobStatus::Failed);

    const std::string table = TableSink().render(result);
    EXPECT_NE(table.find("TIMEOUT: job watchdog"),
              std::string::npos)
        << table;
    EXPECT_NE(table.find("FAILED: unhandled exception"),
              std::string::npos);

    const std::string json = JsonSink().render(result);
    EXPECT_NE(json.find("\"status\": \"timeout\""),
              std::string::npos);
    EXPECT_NE(json.find("\"status\": \"failed\""),
              std::string::npos);
    // Ok jobs carry no status key at all (clean artifacts stay
    // byte-identical to the pre-resilience schema).
    const SweepResult ok_run = [&] {
        resetHooks();
        return SweepRunner(quietOptions()).run(smallSpec(),
                                               &stubMetrics);
    }();
    EXPECT_EQ(JsonSink().render(ok_run).find("\"status\""),
              std::string::npos);
    std::this_thread::sleep_for(std::chrono::milliseconds(1100));
}

TEST(Sinks, JournalAppendFailpointDegradesGracefully)
{
    resetHooks();
    const SweepSpec spec = smallSpec();
    TempPath journal("resilience_jfail.journal");
    SweepSpec armed = spec;
    armed.failpoints = "journal.append:eio:after=2";
    RunnerOptions options = quietOptions(1);
    options.journal = journal.path;
    std::string log;
    setLogCapture(&log);
    const SweepResult result =
        SweepRunner(options).run(armed, &hookedStub);
    setLogCapture(nullptr);
    // The sweep itself is unharmed; journaling shut down with a
    // warning after the injected EIO.
    EXPECT_EQ(result.failedCount(), 0u);
    EXPECT_NE(log.find("journal disabled"), std::string::npos)
        << log;
    const std::vector<Job> jobs = spec.expand();
    EXPECT_EQ(SweepJournal::load(journal.path,
                                 sweepFingerprint(jobs), jobs)
                  .size(),
              2u);
}

} // namespace
} // namespace mithril::runner
