/**
 * @file
 * Crash-safe checkpoint journal for the sweep runner.
 *
 * A journal is an append-only text file next to the sweep's output
 * artifacts. The header line ties it to one exact expanded sweep via
 * a fingerprint of every job's label and canonical spec line; each
 * record line stores one completed JobResult, terminated by a
 * per-record FNV-1a checksum of everything before it:
 *
 *   mithril.sweep.journal.v2 fingerprint=<hex16> jobs=<N>
 *   job <index> <seed> <status> <label> <error> <field>=<value>...
 *       t:<name>=<value>... crc=<hex16>
 *
 * (one space-separated line per record). The fields are
 * sim::kMetricFields in table order: counts as exact integers, reals
 * as %.17g so the restored value is bit-identical, as are the
 * telemetry values. The label, the error and the telemetry names are
 * percent-encoded (every byte outside '!'..'~', plus '%' and '='), so
 * a record splits on ' ' and each token on its first '='. Records
 * land in completion order, which is irrelevant: they are keyed by
 * job index.
 *
 * Append discipline: a fresh journal publishes its header via the
 * same tmp+rename pattern the trace writer uses, then records are
 * appended and flushed one fwrite+fflush at a time, so a SIGKILL at
 * any instant leaves at worst one torn tail line. load() verifies
 * the fingerprint (a journal from a *different* sweep is a
 * SpecError, never silently mixed in), checks every record's
 * checksum, label, and seed against the expanded jobs, and stops at
 * the first damaged line — everything before it is restorable,
 * everything after is rerun. Resume rewrites the journal to that
 * intact prefix (tmp+rename again) before appending, so the records
 * of the rerun jobs land where the next load() reads them.
 */

#ifndef MITHRIL_RUNNER_JOURNAL_HH
#define MITHRIL_RUNNER_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runner/runner.hh"

namespace mithril::runner
{

/** Version tag in the journal header line. A journal of any other
 *  version is refused as bad magic. */
inline constexpr const char *kJournalMagic =
    "mithril.sweep.journal.v2";

/**
 * Fingerprint tying a journal to one expanded sweep: FNV-1a over the
 * job count and every job's label + canonical spec describe() line
 * (which covers scheme/axes/tunables/seeds — anything that changes a
 * job's meaning changes the fingerprint).
 */
std::uint64_t sweepFingerprint(const std::vector<Job> &jobs);

/**
 * The append side. Construction publishes the journal's start via
 * tmp+rename, replacing any previous file: a fresh header, or on
 * resume the intact prefix load() returned (the header plus every
 * record it restored), so a torn or corrupt tail is dropped before
 * the first append instead of sitting in front of it. A kill during
 * that rewrite leaves the old file or the prefix. All I/O errors
 * throw registry::SpecError.
 */
class SweepJournal
{
  public:
    /** An empty `intact_prefix` starts a fresh journal. */
    SweepJournal(const std::string &path, std::uint64_t fingerprint,
                 std::size_t job_count,
                 const std::string &intact_prefix = {});
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /** Append one completed result (thread-safe; one flushed line
     *  per call). Skipped jobs are deliberately not journaled — they
     *  never ran, so a resume must run them. */
    void append(const JobResult &result);

    const std::string &path() const { return path_; }

    /**
     * Read back every intact record compatible with this exact
     * expanded sweep. Returns completed results keyed by job index;
     * an absent file yields an empty map. Throws registry::SpecError
     * on a fingerprint/job-count mismatch or an unreadable file; a
     * torn or corrupt record ends the scan (with a warn()) instead.
     * `intact_prefix`, when given, receives the file's bytes up to
     * the end of the last restored record (empty when the file is
     * absent) — what a resuming SweepJournal keeps.
     */
    static std::map<std::size_t, JobResult>
    load(const std::string &path, std::uint64_t fingerprint,
         const std::vector<Job> &jobs,
         std::string *intact_prefix = nullptr);

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    std::mutex mutex_;
};

} // namespace mithril::runner

#endif // MITHRIL_RUNNER_JOURNAL_HH
