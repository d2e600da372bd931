#include "runner/sinks.hh"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/failpoint.hh"
#include "common/logging.hh"
#include "common/table_printer.hh"
#include "registry/scheme_registry.hh"

namespace mithril::runner
{

namespace
{

/** Resilience injection site: sink output file write failure. */
const failpoint::SiteRegistrar kFpSinkFlush{
    "sink.flush",
    "fail a result-sink file write (ResultSink::writeFile) — "
    "exercises artifact-emission error paths after a sweep "
    "completed"};

/** "timeout" -> "TIMEOUT" for the table's per-job trailer lines. */
std::string
upperStatus(JobStatus status)
{
    std::string name = jobStatusName(status);
    for (char &c : name)
        c = static_cast<char>(
            std::toupper(static_cast<unsigned char>(c)));
    return name;
}

/** Significant digits of every real the JSON and CSV sinks write. */
constexpr int kRealDigits = 10;

/** Shortest round-trippable-enough formatting, deterministic for a
 *  given double value. */
std::string
formatDouble(double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*g", kRealDigits, value);
    return buf;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n";  break;
          case '\t': out += "\\t";  break;
          default:   out += c;      break;
        }
    }
    return out;
}

std::string
seedPolicyName(SeedPolicy policy)
{
    return policy == SeedPolicy::Shared ? "shared" : "per-job";
}

} // namespace

std::string
ResultSink::render(const SweepResult &result) const
{
    std::ostringstream os;
    write(result, os);
    return os.str();
}

void
ResultSink::writeFile(const SweepResult &result,
                      const std::string &path) const
{
    MITHRIL_FAILPOINT("sink.flush");
    std::ofstream os(path);
    if (!os)
        fatal("cannot open sink output file: %s", path.c_str());
    write(result, os);
    if (!os)
        fatal("write failed on sink output file: %s", path.c_str());
}

void
TableSink::write(const SweepResult &result, std::ostream &os) const
{
    TablePrinter table({"job", "scheme", "flipTh", "rfmTh", "workload",
                        "attack", "seed", "IPC", "energy(uJ)", "ACTs",
                        "RFMs", "prevRef", "flips", "KB/bank"});
    for (const JobResult &r : result.results) {
        auto &row =
            table.beginRow()
                .intCell(static_cast<long long>(r.job.index))
                .cell(registry::schemeDisplay(r.job.spec.scheme))
                .intCell(r.job.isBaseline ? 0 : r.job.spec.flipTh)
                .intCell(r.job.isBaseline ? 0 : r.job.spec.rfmTh)
                .cell(r.job.spec.workload)
                .cell(r.job.spec.attack)
                .intCell(static_cast<long long>(r.job.spec.seed));
        if (r.failed()) {
            for (int i = 0; i < 7; ++i)
                row.cell("-");
            continue;
        }
        row.num(r.metrics.aggIpc, 4)
            .num(r.metrics.energyPj / 1e6, 3)
            .intCell(static_cast<long long>(r.metrics.acts))
            .intCell(static_cast<long long>(r.metrics.rfmIssued))
            .intCell(
                static_cast<long long>(r.metrics.preventiveRefreshes))
            .intCell(static_cast<long long>(r.metrics.bitFlips))
            .num(r.metrics.trackerBytesPerBank / 1024.0, 2);
    }
    table.print(os);
    for (const JobResult &r : result.results) {
        if (r.failed())
            os << "job " << r.job.index << " (" << r.job.label
               << ") " << upperStatus(r.status) << ": " << r.error
               << "\n";
    }
}

void
JsonSink::write(const SweepResult &result, std::ostream &os) const
{
    const SweepSpec &spec = result.spec;
    os << "{\n";
    os << "  \"schema\": \"" << kSweepSchemaVersion << "\",\n";
    os << "  \"spec\": {\n";
    os << "    \"cores\": " << spec.cores << ",\n";
    os << "    \"instrPerCore\": " << spec.instrPerCore << ",\n";
    os << "    \"seed\": " << spec.seed << ",\n";
    os << "    \"seedPolicy\": \"" << seedPolicyName(spec.seedPolicy)
       << "\",\n";
    os << "    \"trackerWarmupActs\": " << spec.trackerWarmupActs
       << ",\n";
    os << "    \"blastRadius\": " << spec.blastRadius << ",\n";
    // channels is result-affecting geometry, so it belongs in the
    // provenance block; execution knobs such as jobs= stay out, so
    // sweeps diff verbatim across them.
    os << "    \"channels\": " << spec.channels << ",\n";
    os << "    \"includeBaseline\": "
       << (spec.includeBaseline ? "true" : "false") << "\n";
    os << "  },\n";
    os << "  \"jobs\": [\n";
    for (std::size_t i = 0; i < result.results.size(); ++i) {
        const JobResult &r = result.results[i];
        os << "    {\n";
        os << "      \"index\": " << r.job.index << ",\n";
        os << "      \"label\": \"" << jsonEscape(r.job.label)
           << "\",\n";
        os << "      \"baseline\": "
           << (r.job.isBaseline ? "true" : "false") << ",\n";
        os << "      \"scheme\": \""
           << registry::schemeDisplay(r.job.spec.scheme) << "\",\n";
        os << "      \"flipTh\": " << r.job.spec.flipTh << ",\n";
        os << "      \"rfmTh\": " << r.job.spec.rfmTh << ",\n";
        os << "      \"adTh\": " << r.job.spec.adTh << ",\n";
        os << "      \"blastRadius\": " << r.job.spec.blastRadius
           << ",\n";
        os << "      \"workload\": \"" << r.job.spec.workload
           << "\",\n";
        os << "      \"attack\": \"" << r.job.spec.attack << "\",\n";
        os << "      \"source\": \"" << r.job.spec.source << "\",\n";
        os << "      \"shards\": " << r.job.spec.shards << ",\n";
        os << "      \"actBudget\": " << r.job.spec.engineActs
           << ",\n";
        os << "      \"cores\": " << r.job.spec.cores << ",\n";
        os << "      \"instrPerCore\": " << r.job.spec.instrPerCore
           << ",\n";
        os << "      \"seed\": " << r.job.spec.seed << ",\n";
        if (r.failed()) {
            // Non-Ok jobs carry their status + message; Ok jobs stay
            // exactly the historical shape so clean-sweep artifacts
            // (and the sweep_v3 golden) are byte-identical.
            os << "      \"status\": \""
               << jobStatusName(r.status) << "\",\n";
            os << "      \"error\": \"" << jsonEscape(r.error)
               << "\"\n";
        } else {
            os << "      \"metrics\": {";
            bool first = true;
            for (const sim::MetricField &field : sim::kMetricFields) {
                os << (first ? "\n" : ",\n");
                os << "        \"" << field.name
                   << "\": " << field.format(r.metrics, kRealDigits);
                first = false;
            }
            os << "\n      }";
            // Flattened telemetry sheet, only for jobs that collected
            // one (std::map order — deterministic).
            if (!r.metrics.telemetry.empty()) {
                os << ",\n      \"telemetry\": {";
                first = true;
                for (const auto &[name, value] :
                     r.metrics.telemetry) {
                    os << (first ? "\n" : ",\n");
                    os << "        \"" << jsonEscape(name)
                       << "\": " << formatDouble(value);
                    first = false;
                }
                os << "\n      }";
            }
            os << "\n";
        }
        os << "    }" << (i + 1 < result.results.size() ? "," : "")
           << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

void
CsvSink::write(const SweepResult &result, std::ostream &os) const
{
    os << "index,label,baseline,scheme,flipTh,rfmTh,workload,attack,"
          "source,shards,actBudget,cores,instrPerCore,seed";
    for (const sim::MetricField &field : sim::kMetricFields)
        os << "," << field.name;
    os << ",telemetry,error\n";
    for (const JobResult &r : result.results) {
        os << r.job.index << "," << r.job.label << ","
           << (r.job.isBaseline ? 1 : 0) << ","
           << registry::schemeDisplay(r.job.spec.scheme) << ","
           << r.job.spec.flipTh << "," << r.job.spec.rfmTh << ","
           << r.job.spec.workload << "," << r.job.spec.attack << ","
           << r.job.spec.source << "," << r.job.spec.shards << ","
           << r.job.spec.engineActs << "," << r.job.spec.cores << ","
           << r.job.spec.instrPerCore << "," << r.job.spec.seed;
        // Failed jobs get blank metric cells, not fabricated zeros —
        // a consumer aggregating the columns must not average them.
        for (const sim::MetricField &field : sim::kMetricFields) {
            os << ",";
            if (!r.failed())
                os << field.format(r.metrics, kRealDigits);
        }
        // Telemetry packs into one quoted "name=value;..." cell so
        // the column set stays fixed across jobs and sweeps.
        os << ",\"";
        if (!r.failed()) {
            bool first_stat = true;
            for (const auto &[name, value] : r.metrics.telemetry) {
                if (!first_stat)
                    os << ";";
                os << name << "=" << formatDouble(value);
                first_stat = false;
            }
        }
        os << "\"";
        // Quote the error (SpecError messages contain commas),
        // doubling embedded quotes per RFC 4180.
        os << ",\"";
        for (char c : r.error) {
            if (c == '"')
                os << '"';
            os << c;
        }
        os << "\"\n";
    }
}

} // namespace mithril::runner
