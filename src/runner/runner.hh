/**
 * @file
 * The sweep executor: expands a SweepSpec into jobs, runs them on the
 * thread pool, and returns the results in expansion order. The
 * result container is deterministic by construction — each job writes
 * only its own slot, so `--jobs 1` and `--jobs N` produce identical
 * contents for a fixed seed.
 */

#ifndef MITHRIL_RUNNER_RUNNER_HH
#define MITHRIL_RUNNER_RUNNER_HH

#include <vector>

#include "runner/sweep_spec.hh"
#include "sim/experiment.hh"

namespace mithril::runner
{

/** How one job ended. */
enum class JobStatus
{
    /** Ran to completion; metrics are valid. */
    Ok,
    /** Threw — a rejected configuration (registry::SpecError) or any
     *  other exception; the sweep keeps running and the sinks
     *  surface the message per job. */
    Failed,
    /** Exceeded the job-timeout= watchdog budget; the runaway body
     *  was abandoned and its late result (if any) discarded. */
    Timeout,
    /** Never ran: an earlier job failed under strict (fail-fast)
     *  mode. */
    Skipped,
};

/** Lowercase status name ("ok", "failed", "timeout", "skipped"). */
const char *jobStatusName(JobStatus status);

/** Parse a status name back; throws registry::SpecError. */
JobStatus jobStatusFromName(const std::string &name);

/** One job's outcome. */
struct JobResult
{
    Job job;
    sim::RunMetrics metrics;
    JobStatus status = JobStatus::Ok;
    /** Non-empty exactly when status != Ok: the exception message,
     *  the watchdog verdict, or the strict-mode skip note. */
    std::string error;
    /** Wall-clock runtime; nondeterministic, never written by sinks. */
    double wallSeconds = 0.0;
    /** Attempts consumed (1 + retries actually taken);
     *  nondeterministic under timeouts, never written by sinks. */
    unsigned attempts = 0;
    /** True when the result was restored from a resume journal
     *  instead of running; never written by sinks. */
    bool restored = false;

    bool
    failed() const
    {
        return status != JobStatus::Ok;
    }
};

/** All results of one sweep, indexed in job-expansion order. */
struct SweepResult
{
    SweepSpec spec;
    std::vector<JobResult> results;

    /**
     * Look up the first non-baseline result matching the coordinates
     * (registry names; rfm_th == ~0u matches any RFM threshold).
     * Null when absent.
     */
    const JobResult *find(const std::string &scheme,
                          std::uint32_t flip_th,
                          const std::string &workload,
                          const std::string &attack = "none",
                          std::uint32_t rfm_th = ~0u) const;

    /** The unprotected baseline run for a case; null when the spec did
     *  not request baselines. */
    const JobResult *baseline(const std::string &workload,
                              const std::string &attack =
                                  "none") const;

    /** Number of jobs that did not end Ok (failed, timed out, or
     *  were skipped by strict mode). */
    std::size_t failedCount() const;

    /** Number of jobs with the given status. */
    std::size_t countByStatus(JobStatus status) const;

    /** Number of results restored from a resume journal. */
    std::size_t restoredCount() const;

    /** One-line per-status accounting, e.g.
     *  "12 ok, 1 failed, 1 timeout, 3 skipped (17 jobs, 4 resumed)".
     *  Statuses with zero jobs are elided (except ok). */
    std::string statusSummary() const;
};

/** Execution knobs, orthogonal to the sweep grid itself. */
struct RunnerOptions
{
    /**
     * The knobs from the command line (jobs= progress= journal=
     * resume= strict= job-timeout= retries=), each absent one at its
     * default. An out-of-range value is fatal at parse: jobs= above
     * 1024 (each one is a thread), retries= above 16, and a
     * job-timeout= that is negative, NaN or above 1e6 seconds.
     */
    static RunnerOptions fromParams(const ParamSet &params);

    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;
    /** Emit the stderr progress/ETA line. */
    bool progress = true;

    /** Per-job watchdog budget in seconds; 0 = no watchdog. A job
     *  that exceeds it is reported TIMEOUT (the runaway body is
     *  abandoned, the pool survives). With the watchdog armed each
     *  job body runs on its own helper thread, so only enable it
     *  when jobs can genuinely hang. SweepRunner::run() rejects it
     *  for a sweep that writes record= or trace-events=: the
     *  abandoned attempt would keep writing the file. */
    double jobTimeout = 0.0;
    /** Extra attempts after a failed or timed-out job, with
     *  exponential backoff between attempts (fromParams() admits at
     *  most 16, whose last wait is already 5.5 minutes at the
     *  default 10ms base). The retried job reruns
     *  with an identical spec and seed, so a success on any attempt
     *  yields the byte-identical result an untroubled run would
     *  have produced. */
    unsigned retries = 0;
    /** Base backoff before the first retry, doubling per attempt
     *  (10ms, 20ms, 40ms, ...). Exposed for tests. */
    double retryBackoffMs = 10.0;
    /** Fail fast: after the first non-Ok job, remaining jobs are
     *  SKIPPED instead of started. */
    bool strict = false;

    /** Append every completed JobResult to this crash-safe journal
     *  file ("" = no journal). */
    std::string journal;
    /** Skip jobs already present in the journal, restoring their
     *  results — the sinks re-emit byte-identical artifacts to an
     *  uninterrupted run. Requires journal=. */
    bool resume = false;
};

/**
 * Runs sweeps. The default job body is sim::runExperiment; tests inject a
 * stub through the second run() overload.
 */
class SweepRunner
{
  public:
    using JobFn = sim::RunMetrics (*)(const Job &);

    explicit SweepRunner(RunnerOptions options = {});

    /** Expand and execute the sweep with sim::runExperiment. */
    SweepResult run(const SweepSpec &spec) const;

    /** Expand and execute with a custom job body. */
    SweepResult run(const SweepSpec &spec, JobFn fn) const;

    const RunnerOptions &options() const { return options_; }

  private:
    RunnerOptions options_;
};

} // namespace mithril::runner

#endif // MITHRIL_RUNNER_RUNNER_HH
