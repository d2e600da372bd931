/**
 * @file
 * Capture/replay throughput bench — the headline number of the
 * act-trace subsystem: record one full-System run's ACT stream,
 * compose it into a multi-tenant corpus through the trace-op
 * pipeline (remap each tenant to its own bank offset, k-way merge,
 * splice an attack burst), then replay the corpus through the
 * sharded ActStream engine and compare acts/sec against the System
 * that produced the seed trace. The paper's capture-once-replay-many
 * methodology only pays off if replay is orders of magnitude faster
 * than re-simulating CPU+MC per scheme; this bench measures exactly
 * that ratio, and reports each corpus's compose time beside it.
 *
 * To make the replay long enough to time, each corpus is replayed
 * `loops=` times back to back (each loop is an independent full
 * replay through a fresh engine+tracker); wider corpora scale the
 * loop count down proportionally so every corpus replays a similar
 * record volume. Every point of one corpus — any thread count —
 * must produce the identical outcome; a divergence is fatal.
 *
 * Knobs: cores=N instr=N seed=N (the recorded System run),
 *        scheme=NAME replay tracker (default mithril),
 *        tenants=LIST merged corpus widths (default "16,1024" — the
 *          thousand-tenant point is the consolidation story's scale),
 *        loops=N replay repetitions per timing point at the first
 *          corpus width (default 50; wider corpora scale it down),
 *        threads=LIST sharded replay thread counts (default "1,4"),
 *        trace=PATH captured seed trace (default micro_replay.acttrace),
 *        corpus=PATH composed corpus (default micro_replay.corpus.acttrace;
 *          reused per corpus width),
 *        json=FILE write the BENCH_replay.json artifact (schema v4:
 *          one "corpora" row per tenant width, each with its compose
 *          time, the process's peak RSS right after that compose, and
 *          its own replay grid).
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "engine/act_trace.hh"
#include "runner/thread_pool.hh"
#include "trace/pipeline.hh"

using namespace mithril;

namespace
{

constexpr std::uint64_t kBurstActs = 10000;
constexpr const char *kBurstAttack = "multi-sided";

struct ReplayPoint
{
    unsigned threads = 1;
    std::uint32_t shards = 1;
    double actsPerSec = 0.0;
};

/** One composed corpus width and its full replay grid. */
struct CorpusResult
{
    std::uint64_t tenants = 0;
    engine::ActTraceInfo info;
    std::uint64_t bytes = 0;
    std::uint64_t loops = 0;  //!< Scaled per-point repetitions.
    double composeSeconds = 0.0; //!< Remaps + merge + splice.
    double composePeakRssMb = 0.0; //!< Process peak RSS after it.
    std::vector<ReplayPoint> points;
};

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** The process's peak resident set so far, in MiB. */
double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::uint64_t bytes = 0;
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        std::fseek(f, 0, SEEK_END);
        bytes = static_cast<std::uint64_t>(std::ftell(f));
        std::fclose(f);
    }
    return bytes;
}

void
writeJson(const std::string &path, const sim::ExperimentSpec &sys_spec,
          std::uint64_t system_acts, double system_acts_per_sec,
          double system_seconds, const engine::ActTraceInfo &info,
          std::uint64_t trace_bytes, const std::string &scheme,
          std::uint64_t loops,
          const std::vector<unsigned> &thread_counts,
          const std::vector<CorpusResult> &corpora)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", path.c_str());
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"mithril.bench_replay.v4\",\n");
    // Replay points shard one way per thread count (shards ==
    // threads), so the meta shard field is 0 (per-point).
    bench::writeMetaJson(f, thread_counts, 0);
    // system.acts comes from the System's own counters and
    // trace.records from the file's index, so the CI cross-check of
    // the two is a real capture-completeness assertion.
    std::fprintf(f, "  \"system\": {\"spec\": \"%s\", "
                    "\"acts\": %llu, \"wall_seconds\": %.4f, "
                    "\"acts_per_sec\": %.0f},\n",
                 sys_spec.describe().c_str(),
                 static_cast<unsigned long long>(system_acts),
                 system_seconds, system_acts_per_sec);
    std::fprintf(f, "  \"trace\": {\"records\": %llu, "
                    "\"bytes\": %llu},\n",
                 static_cast<unsigned long long>(info.records),
                 static_cast<unsigned long long>(trace_bytes));
    std::fprintf(f, "  \"replay_scheme\": \"%s\",\n", scheme.c_str());
    std::fprintf(f, "  \"replay_loops\": %llu,\n",
                 static_cast<unsigned long long>(loops));
    std::fprintf(f, "  \"corpora\": [\n");
    for (std::size_t c = 0; c < corpora.size(); ++c) {
        const CorpusResult &cr = corpora[c];
        std::fprintf(
            f,
            "    {\"tenants\": %llu, \"records\": %llu, "
            "\"bytes\": %llu, \"attack\": \"%s\", "
            "\"compose_seconds\": %.4f, "
            "\"compose_peak_rss_mb\": %.1f, \"loops\": %llu, "
            "\"replay\": [",
            static_cast<unsigned long long>(cr.tenants),
            static_cast<unsigned long long>(cr.info.records),
            static_cast<unsigned long long>(cr.bytes), kBurstAttack,
            cr.composeSeconds, cr.composePeakRssMb,
            static_cast<unsigned long long>(cr.loops));
        for (std::size_t i = 0; i < cr.points.size(); ++i) {
            const ReplayPoint &p = cr.points[i];
            std::fprintf(f,
                         "%s{\"threads\": %u, \"shards\": %u, "
                         "\"acts_per_sec\": %.0f, "
                         "\"speedup_vs_system\": %.1f}",
                         i ? ", " : "", p.threads, p.shards,
                         p.actsPerSec,
                         system_acts_per_sec > 0.0
                             ? p.actsPerSec / system_acts_per_sec
                             : 0.0);
        }
        std::fprintf(f, "]}%s\n",
                     c + 1 < corpora.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchScale scale = bench::BenchScale::fromArgs(
        argc, argv,
        {"scheme", "loops", "threads", "trace", "corpus", "tenants"});
    if (!scale.csvOut.empty())
        fatal("micro_replay emits json= only");
    const std::string scheme =
        scale.params.getString("scheme", "mithril");
    const std::uint64_t loops = scale.params.getUint("loops", 50);
    const std::vector<std::uint64_t> tenants_list =
        scale.params.has("tenants")
            ? scale.params.getUintList("tenants")
            : std::vector<std::uint64_t>{16, 1024};
    const std::string trace_path =
        scale.params.getString("trace", "micro_replay.acttrace");
    const std::string corpus_path = scale.params.getString(
        "corpus", "micro_replay.corpus.acttrace");
    if (loops == 0)
        fatal("loops= must be positive");
    if (tenants_list.empty())
        fatal("tenants= must name at least one corpus width");
    for (std::uint64_t t : tenants_list)
        if (t == 0 || t > 1024)
            fatal("tenants= entries must be in [1, 1024]");

    bench::banner("ACT-stream capture/compose/replay vs System");

    // ---- capture: one attacked System run, recorded.
    sim::ExperimentSpec sys_spec;
    sys_spec.scheme = "none";
    sys_spec.workload = "mix-high";
    sys_spec.attack = "multi-sided";
    sys_spec.cores = scale.cores;
    sys_spec.instrPerCore = scale.instrPerCore;
    sys_spec.seed = scale.seed;
    sys_spec.record = trace_path;

    const auto sys_t0 = std::chrono::steady_clock::now();
    const sim::RunMetrics sys_metrics = sim::runExperiment(sys_spec);
    const auto sys_t1 = std::chrono::steady_clock::now();
    const double sys_seconds = seconds(sys_t0, sys_t1);
    const double sys_aps =
        static_cast<double>(sys_metrics.acts) / sys_seconds;

    const engine::ActTraceInfo info =
        engine::actTraceInfo(trace_path);
    if (info.records != sys_metrics.acts)
        fatal("capture lost records: trace has %llu, System ran %llu",
              static_cast<unsigned long long>(info.records),
              static_cast<unsigned long long>(sys_metrics.acts));
    const std::uint64_t trace_bytes = fileBytes(trace_path);

    std::printf("System run: %llu ACTs in %.3f s (%.0f acts/s), "
                "trace %llu bytes\n",
                static_cast<unsigned long long>(sys_metrics.acts),
                sys_seconds, sys_aps,
                static_cast<unsigned long long>(trace_bytes));

    std::vector<unsigned> thread_counts;
    for (std::uint64_t t : scale.params.has("threads")
                               ? scale.params.getUintList("threads")
                               : std::vector<std::uint64_t>{1, 4}) {
        if (t == 0 || t > 1024)
            fatal("threads= entries must be in [1, 1024]");
        thread_counts.push_back(static_cast<unsigned>(t));
    }

    // ---- compose + replay, once per corpus width: remap the capture
    // to `tenants` bank offsets, merge them, splice one attack burst,
    // then drive the corpus through `scheme` at every thread count.
    // Wider corpora scale the loop count down so every width replays
    // a comparable record volume.
    std::vector<CorpusResult> corpora;
    for (std::uint64_t tenants : tenants_list) {
        const auto comp_t0 = std::chrono::steady_clock::now();
        std::vector<std::string> tenant_paths;
        for (std::uint64_t i = 0; i < tenants; ++i) {
            const std::string tenant =
                corpus_path + ".tenant" + std::to_string(i);
            trace::materializePipeline("remap:" + trace_path +
                                           ",bank-rotate=" +
                                           std::to_string(i),
                                       tenant, scale.seed);
            tenant_paths.push_back(tenant);
        }
        std::string spec = "merge:";
        for (std::size_t i = 0; i < tenant_paths.size(); ++i) {
            if (i)
                spec += ",";
            spec += tenant_paths[i];
        }
        spec += "|splice:attack=" + std::string(kBurstAttack) +
                ",burst-acts=" + std::to_string(kBurstActs);
        CorpusResult cr;
        cr.tenants = tenants;
        cr.info =
            trace::materializePipeline(spec, corpus_path, scale.seed);
        for (const std::string &tenant : tenant_paths)
            std::remove(tenant.c_str());
        const auto comp_t1 = std::chrono::steady_clock::now();
        cr.composeSeconds = seconds(comp_t0, comp_t1);
        cr.composePeakRssMb = peakRssMb();
        cr.bytes = fileBytes(corpus_path);

        // Scale the repetitions to the first corpus's record volume
        // (at least one full replay), so a 64x wider corpus does not
        // take 64x the wall time.
        cr.loops =
            corpora.empty()
                ? loops
                : std::max<std::uint64_t>(
                      1, loops * corpora.front().info.records /
                             std::max<std::uint64_t>(
                                 1, cr.info.records));

        std::printf(
            "corpus: %llu tenants merged + %llu-ACT %s burst = "
            "%llu records, %llu bytes (composed in %.3f s, peak RSS "
            "%.0f MB, replayed x%llu)\n",
            static_cast<unsigned long long>(tenants),
            static_cast<unsigned long long>(kBurstActs),
            kBurstAttack,
            static_cast<unsigned long long>(cr.info.records),
            static_cast<unsigned long long>(cr.bytes),
            cr.composeSeconds, cr.composePeakRssMb,
            static_cast<unsigned long long>(cr.loops));

        sim::RunMetrics reference;
        bool have_reference = false;
        for (unsigned threads : thread_counts) {
            sim::ExperimentSpec spec;
            spec.scheme = scheme;
            spec.source = "act-trace";
            spec.extras.set("trace", corpus_path);
            spec.engineActs = cr.info.records;
            spec.shards = threads;
            spec.threads = threads;
            sim::runExperiment(spec); // Warm-up (page cache).
            const auto t0 = std::chrono::steady_clock::now();
            sim::RunMetrics last{};
            for (std::uint64_t i = 0; i < cr.loops; ++i)
                last = sim::runExperiment(spec);
            const auto t1 = std::chrono::steady_clock::now();

            // Determinism canary: every replay of one corpus — any
            // thread count — is the same outcome.
            if (!have_reference) {
                reference = last;
                have_reference = true;
            } else if (last.rfmIssued != reference.rfmIssued ||
                       last.preventiveRefreshes !=
                           reference.preventiveRefreshes ||
                       last.simTicks != reference.simTicks) {
                fatal("replay diverged at tenants=%llu threads=%u",
                      static_cast<unsigned long long>(tenants),
                      threads);
            }

            ReplayPoint p;
            p.threads = threads;
            p.shards = threads;
            p.actsPerSec = static_cast<double>(cr.info.records) *
                           static_cast<double>(cr.loops) /
                           seconds(t0, t1);
            cr.points.push_back(p);
        }
        corpora.push_back(std::move(cr));
    }

    TablePrinter table({"mode", "tenants", "threads", "acts/s",
                        "vs System"});
    table.beginRow()
        .cell("System (capture)")
        .cell("-")
        .cell("-")
        .num(sys_aps, 0)
        .cell("1.0x");
    for (const CorpusResult &cr : corpora) {
        for (const ReplayPoint &p : cr.points) {
            table.beginRow()
                .cell("replay " + scheme)
                .cell(std::to_string(cr.tenants))
                .cell(std::to_string(p.threads))
                .num(p.actsPerSec, 0)
                .cell(formatFixed(p.actsPerSec / sys_aps, 1) + "x");
        }
    }
    std::printf("%s", table.str().c_str());
    std::printf(
        "\nReading: the System row is full CPU+LLC+MC+DRAM "
        "co-simulation; the replay rows\ndrive each composed "
        "multi-tenant corpus (same stream at every point of a "
        "width)\nthrough the sharded engine + %s tracker alone. The "
        "ratio is what\ncapture-once-replay-many saves per "
        "additional scheme in a sweep; the\nwidest corpus is the "
        "consolidation-scale stress point.\n",
        scheme.c_str());

    if (!scale.jsonOut.empty())
        writeJson(scale.jsonOut, sys_spec, sys_metrics.acts, sys_aps,
                  sys_seconds, info, trace_bytes, scheme, loops,
                  thread_counts, corpora);
    return 0;
}
