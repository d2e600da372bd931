#include "runner/journal.hh"

#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstring>
#include <iterator>

#include "common/failpoint.hh"
#include "common/logging.hh"
#include "registry/registry.hh"

namespace mithril::runner
{

namespace
{

/** Resilience injection site: journal record append I/O failure. */
const failpoint::SiteRegistrar kFpJournalAppend{
    "journal.append",
    "fail a checkpoint-journal record append "
    "(SweepJournal::append) — exercises journal I/O error "
    "surfacing without damaging the file"};

// ------------------------------------------------------------ FNV-1a

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    return fnv1a(h, s.data(), s.size());
}

// ------------------------------------------------------ record text

/**
 * Percent-encode every byte outside '!'..'~', plus '%' and '=': the
 * result holds no space, so a record splits on ' ', and no '=', so a
 * t:<name>=<value> token splits on its first '='.
 */
std::string
percentEncode(const std::string &s)
{
    static const char kHex[] = "0123456789ABCDEF";
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x21 || byte > 0x7e || c == '%' || c == '=') {
            out += '%';
            out += kHex[byte >> 4];
            out += kHex[byte & 0xf];
        } else {
            out += c;
        }
    }
    return out;
}

/** `text` whole as one number (`base` is an integer's radix);
 *  from_chars takes no leading space, '+' or base prefix. */
template <typename T, typename... Base>
bool
parseWhole(const std::string &text, T &out, Base... base)
{
    const char *end = text.data() + text.size();
    const auto [stop, ec] =
        std::from_chars(text.data(), end, out, base...);
    return ec == std::errc() && stop == end;
}

bool
percentDecode(const std::string &s, std::string &out)
{
    out.clear();
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            out += s[i];
            continue;
        }
        unsigned byte = 0;
        if (i + 2 >= s.size() ||
            !parseWhole(s.substr(i + 1, 2), byte, 16))
            return false;
        out += static_cast<char>(byte);
        i += 2;
    }
    return true;
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    std::size_t pos;
    while ((pos = s.find(sep, start)) != std::string::npos) {
        out.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    out.push_back(s.substr(start));
    return out;
}

std::string
hex16(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** %.17g: the shortest printf precision that round-trips every IEEE
 *  double exactly, so a restored metric re-formats (at the sinks'
 *  %.10g) byte-identically to the original run's. */
constexpr int kExactDigits = 17;

std::string
encodeRecord(const JobResult &result)
{
    std::string line =
        "job " + std::to_string(result.job.index) + ' ' +
        std::to_string(result.job.spec.seed) + ' ' +
        jobStatusName(result.status) + ' ' +
        percentEncode(result.job.label) + ' ' +
        percentEncode(result.error);
    for (const sim::MetricField &field : sim::kMetricFields) {
        line += ' ';
        line += field.name;
        line += '=';
        line += field.format(result.metrics, kExactDigits);
    }
    for (const auto &[name, value] : result.metrics.telemetry) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.*g", kExactDigits, value);
        line += " t:" + percentEncode(name) + '=' + buf;
    }
    line += " crc=" + hex16(fnv1a(kFnvOffset, line)) + '\n';
    return line;
}

/**
 * Parse a record written by encodeRecord() for `jobs`: its index, and
 * the result with its status, error and metrics. False on anything
 * else, which ends the restorable prefix exactly like a torn line;
 * that includes a label or seed that differs from the job at that
 * index, a second line of defense (beyond the fingerprint) against
 * resuming the wrong sweep.
 */
bool
decodeRecord(const std::string &record, const std::vector<Job> &jobs,
             std::size_t &index, JobResult &result)
{
    const std::vector<std::string> tokens = split(record, ' ');
    constexpr std::size_t kHead = 6; // job index seed status label error
    const std::size_t fields = std::size(sim::kMetricFields);
    std::uint64_t seed = 0;
    std::string label;
    if (tokens.size() < kHead + fields || tokens[0] != "job" ||
        !parseWhole(tokens[1], index) || index >= jobs.size() ||
        !parseWhole(tokens[2], seed) ||
        seed != jobs[index].spec.seed ||
        !percentDecode(tokens[4], label) ||
        label != jobs[index].label ||
        !percentDecode(tokens[5], result.error))
        return false;
    try {
        result.status = jobStatusFromName(tokens[3]);
    } catch (const registry::SpecError &) {
        return false;
    }
    for (std::size_t i = kHead; i < tokens.size(); ++i) {
        const std::string &token = tokens[i];
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos)
            return false;
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (i < kHead + fields) {
            const sim::MetricField &field =
                sim::kMetricFields[i - kHead];
            if (key != field.name ||
                !field.parse(value, result.metrics))
                return false;
            continue;
        }
        std::string name;
        double real = 0.0;
        if (key.rfind("t:", 0) != 0 ||
            !percentDecode(key.substr(2), name) ||
            !parseWhole(value, real))
            return false;
        result.metrics.telemetry[name] = real;
    }
    return true;
}

std::string
headerLine(std::uint64_t fingerprint, std::size_t job_count)
{
    std::string line = kJournalMagic;
    line += " fingerprint=";
    line += hex16(fingerprint);
    char buf[32];
    std::snprintf(buf, sizeof(buf), " jobs=%zu", job_count);
    line += buf;
    line += '\n';
    return line;
}

} // namespace

// ------------------------------------------------- sweepFingerprint

std::uint64_t
sweepFingerprint(const std::vector<Job> &jobs)
{
    std::uint64_t h = kFnvOffset;
    const std::uint64_t n = jobs.size();
    h = fnv1a(h, &n, sizeof(n));
    for (const Job &job : jobs) {
        h = fnv1a(h, job.label);
        h = fnv1a(h, "\x1f", 1);
        h = fnv1a(h, job.spec.describe());
        h = fnv1a(h, "\x1e", 1);
    }
    return h;
}

// ------------------------------------------------------ SweepJournal

SweepJournal::SweepJournal(const std::string &path,
                           std::uint64_t fingerprint,
                           std::size_t job_count,
                           const std::string &intact_prefix)
    : path_(path)
{
    MITHRIL_ASSERT(!path.empty());
    // Publish the header, or a resume's intact prefix, atomically (tmp
    // + rename): a kill at any point leaves the old file or the new
    // one whole, and a resume drops the torn or corrupt tail load()
    // stopped at instead of appending behind it.
    const std::string content = intact_prefix.empty()
                                    ? headerLine(fingerprint, job_count)
                                    : intact_prefix;
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw registry::SpecError("cannot create sweep journal '" +
                                  tmp +
                                  "': " + std::strerror(errno));
    const bool ok =
        std::fwrite(content.data(), 1, content.size(), f) ==
            content.size() &&
        std::fflush(f) == 0;
    std::fclose(f);
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw registry::SpecError("cannot publish sweep journal '" +
                                  path +
                                  "': " + std::strerror(errno));
    }
    file_ = std::fopen(path.c_str(), "ab");
    if (!file_)
        throw registry::SpecError(
            "cannot reopen sweep journal '" + path +
            "': " + std::strerror(errno));
}

SweepJournal::~SweepJournal()
{
    if (file_)
        std::fclose(file_);
}

void
SweepJournal::append(const JobResult &result)
{
    MITHRIL_FAILPOINT("journal.append");
    const std::string line = encodeRecord(result);
    std::lock_guard<std::mutex> lock(mutex_);
    if (std::fwrite(line.data(), 1, line.size(), file_) !=
            line.size() ||
        std::fflush(file_) != 0) {
        throw registry::SpecError(
            "sweep journal append failed on '" + path_ +
            "': " + std::strerror(errno));
    }
}

std::map<std::size_t, JobResult>
SweepJournal::load(const std::string &path, std::uint64_t fingerprint,
                   const std::vector<Job> &jobs,
                   std::string *intact_prefix)
{
    std::map<std::size_t, JobResult> restored;
    if (intact_prefix)
        intact_prefix->clear();
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (errno == ENOENT)
            return restored; // First run: nothing to resume.
        throw registry::SpecError("cannot read sweep journal '" +
                                  path +
                                  "': " + std::strerror(errno));
    }
    std::string content;
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        content.append(buf, got);
    std::fclose(f);

    // Header: magic, fingerprint, job count — all must match this
    // exact expanded sweep or the journal belongs to a different run.
    const std::size_t eol = content.find('\n');
    if (eol == std::string::npos)
        throw registry::SpecError("sweep journal '" + path +
                                  "' has no header line");
    const std::string expect = headerLine(fingerprint, jobs.size());
    if (content.substr(0, eol + 1) != expect) {
        if (content.compare(0, std::strlen(kJournalMagic),
                            kJournalMagic) != 0)
            throw registry::SpecError(
                "'" + path + "' is not a sweep journal (bad magic)");
        throw registry::SpecError(
            "sweep journal '" + path +
            "' was written by a different sweep "
            "(fingerprint/job-count mismatch) — refusing to resume; "
            "delete it or point journal= elsewhere");
    }

    std::size_t pos = eol + 1;
    std::size_t intact_end = pos;
    std::size_t lineNo = 1;
    while (pos < content.size()) {
        ++lineNo;
        std::size_t end = content.find('\n', pos);
        const bool torn = end == std::string::npos;
        if (torn)
            end = content.size();
        const std::string line = content.substr(pos, end - pos);
        pos = end + 1;

        // A record is valid only if its trailing crc= matches the
        // FNV of everything before it; a torn tail or flipped byte
        // fails here and ends the restorable prefix.
        constexpr std::size_t kCrcSuffix = 5 + 16; // " crc=" + hex16
        const bool sized = !torn && line.size() > kCrcSuffix;
        const std::size_t body = sized ? line.size() - kCrcSuffix : 0;
        const std::string record = line.substr(0, body);
        std::uint64_t want = 0;
        std::size_t index = 0;
        JobResult result;
        if (sized && line.compare(body, 5, " crc=") == 0 &&
            parseWhole(line.substr(body + 5), want, 16) &&
            fnv1a(kFnvOffset, record) == want &&
            decodeRecord(record, jobs, index, result)) {
            result.job = jobs[index];
            result.restored = true;
            restored[index] = std::move(result);
            intact_end = pos;
            continue;
        }
        warn("sweep journal '%s': %s at line %zu; "
             "restoring the %zu intact record(s) before it",
             path.c_str(),
             torn ? "torn record (interrupted write)" : "corrupt record",
             lineNo, restored.size());
        break;
    }
    if (intact_prefix)
        *intact_prefix = content.substr(0, intact_end);
    return restored;
}

} // namespace mithril::runner
