#include "experiment.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <functional>
#include <type_traits>

#include "common/file_util.hh"
#include "common/logging.hh"
#include "engine/act_trace.hh"
#include "engine/sharded_engine.hh"
#include "engine/sources.hh"
#include "registry/attack_registry.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "registry/workload_registry.hh"
#include "runner/thread_pool.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/telemetry.hh"
#include "trace/pipeline.hh"

namespace mithril::sim
{

namespace
{

/**
 * The spec's telemetry knobs as the collectors every part (engine
 * shard or System) carries: the heatmap under telemetry=, events
 * under trace-events=, both when the caller asks for the observation.
 * A run with any collector on also reports its merged sheet.
 * Observation only — outcomes are byte-identical either way.
 */
telemetry::TelemetryConfig
telemetryConfig(const ExperimentSpec &spec, bool observing)
{
    telemetry::TelemetryConfig tel;
    tel.events = observing || !spec.traceEvents.empty();
    tel.eventCapacityPerBank = spec.traceCapacity;
    tel.heatmap = observing || spec.telemetry;
    tel.heatmapRegionBudget = spec.heatmapRegions;
    return tel;
}

/**
 * The tail both bodies share, over the run's part set (engine shards
 * or a System's one part): RunMetrics' oracle, flip and table-bytes
 * fields, then, when any collector is on, the merged sheet
 * `merged_sheet` builds goes to RunMetrics::telemetry, the merged
 * events to the trace-events= Chrome trace, and both plus the heatmap
 * to `observed`.
 */
void
reportParts(const ExperimentSpec &spec,
            const telemetry::TelemetryConfig &tel,
            const dram::Parts &parts,
            const std::function<telemetry::MetricSheet()> &merged_sheet,
            RunMetrics &m, Observation *observed)
{
    m.maxDisturbance = parts.maxDisturbanceEver();
    m.bitFlips = parts.bitFlips();
    m.trackerBytesPerBank = parts.tableBytesPerBank();
    if (!tel.any())
        return;
    telemetry::MetricSheet sheet = merged_sheet();
    m.telemetry = sheet.exportFlat();
    std::vector<telemetry::TraceEvent> events = parts.events();
    if (!spec.traceEvents.empty()) {
        telemetry::writeChromeTraceFile(spec.traceEvents, events,
                                        spec.scheme, parts.numBanks());
    }
    if (observed) {
        observed->parts = parts.size();
        observed->sheet = std::move(sheet);
        observed->events = std::move(events);
        observed->heatmap = parts.heatmap();
    }
}

/**
 * The engine-only experiment body: scheme x source at maximum ACT
 * rate on the sharded ActStream engine — no cores, no MC queues.
 * Inside a sweep worker the shards reuse the sweep's own pool
 * (ThreadPool::current()); standalone runs honour spec.threads.
 */
RunMetrics
runEngineExperiment(const ExperimentSpec &spec,
                    const telemetry::TelemetryConfig &tel,
                    Observation *observed)
{
    SystemConfig sys = spec.sys;
    if (spec.channels != 0)
        sys.geometry.channels = spec.channels;
    const ParamSet params = spec.toParams();
    const registry::SchemeContext scheme_ctx{sys.timing,
                                             sys.geometry};

    engine::ShardedEngineConfig cfg;
    cfg.engine.timing = sys.timing;
    cfg.engine.geometry = sys.geometry;
    cfg.engine.flipTh = spec.flipTh;
    cfg.engine.blastRadius = spec.blastRadius;
    cfg.shards = spec.shards;
    cfg.telemetry = tel;

    // Pool policy, in priority order: the ambient pool when this job
    // already runs on one (no second pool, no oversubscription), a
    // private pool when threads= asks for one, else inline shards.
    std::unique_ptr<runner::ThreadPool> local_pool;
    if (!runner::ThreadPool::current() && spec.threads > 1) {
        local_pool =
            std::make_unique<runner::ThreadPool>(spec.threads);
        cfg.pool = local_pool.get();
    }

    engine::ShardedActStreamEngine eng(cfg, [&] {
        return registry::makeScheme(spec.scheme, params, scheme_ctx);
    });
    const registry::SourceContext source_ctx{
        sys.timing, sys.geometry, spec.flipTh, spec.seed};
    auto make_stream = [&] {
        return registry::makeActSource(spec.source, params,
                                       source_ctx);
    };

    // record=: capture the exact stream prefix this run will consume
    // — a separate drain of a fresh stream copy, so sharded runs
    // (which pull one filtered copy per shard) record the one
    // canonical global stream. Registry sources are deterministic in
    // their seed, so the capture equals what the run replays.
    // Opening the writer would truncate an input file before the
    // reader ever sees it. Any entry-declared extra naming the
    // record target is treated as that input — "trace=" (act-trace),
    // "trace-file=" (instruction traces), or a user-registered
    // source's own path param; sameFile() sees through aliases.
    auto check_output_path = [&](const char *knob,
                                 const std::string &path) {
        if (path.empty())
            return;
        for (const std::string &key : spec.extras.keys()) {
            const std::string value = spec.extras.getString(key, "");
            if (!value.empty() && sameFile(path, value)) {
                throw registry::SpecError(
                    std::string(knob) + "= and " + key +
                    "= name the same file '" + path +
                    "'; re-capturing a replay needs a different "
                    "output path");
            }
        }
    };
    check_output_path("record", spec.record);
    check_output_path("trace-events", spec.traceEvents);
    // trace-pipeline=: compose the corpus this run replays, before
    // the source is first opened. validate() already pinned
    // source=act-trace + trace=; the pipeline itself guards against
    // writing onto one of its own inputs.
    if (!spec.tracePipeline.empty()) {
        trace::materializePipeline(spec.tracePipeline,
                                   spec.extras.getString("trace", ""),
                                   spec.seed);
    }
    if (!spec.record.empty()) {
        engine::ActTraceWriter writer(spec.record, sys.geometry,
                                      spec.seed, spec.describe());
        engine::forEachRecord(*make_stream(), spec.engineActs,
                              [&](const engine::ActRecord &rec) {
                                  writer.append(rec.bank, rec.row,
                                                rec.tick);
                              });
        writer.finalize();
    }

    // Tracker warm-up, as on the System: the trackers observe the
    // stream's first `warmup=` ACTs before the measured run.
    if (eng.parts().tracker(0) && spec.trackerWarmupActs > 0)
        eng.parts().warm(*make_stream(), spec.trackerWarmupActs);
    eng.run(make_stream, spec.engineActs);

    // The engine's historical mapping, which perfbench/manifest.json
    // pins: arrExecuted repeats every preventive refresh (RFM-treated
    // aggressors included), and MRR skips stay out of rfmSkippedMrr
    // (the sheet's engine.rfm_skipped_mrr has them).
    RunMetrics m;
    m.acts = eng.acts();
    m.rfmIssued = eng.rfms();
    m.preventiveRefreshes = eng.preventiveRefreshes();
    m.arrExecuted = eng.preventiveRefreshes();
    Tick latest = 0;
    for (BankId b = 0; b < eng.numBanks(); ++b)
        latest = std::max(latest, eng.now(b));
    m.simTicks = latest;
    reportParts(spec, tel, eng.parts(), [&] { return eng.telemetrySheet(); },
                m, observed);
    return m;
}

/** The full-System body: cores, LLC, one memory controller per
 *  channel, and one Device, tracker and collector bundle. */
RunMetrics
runSystemExperiment(const ExperimentSpec &spec,
                    const telemetry::TelemetryConfig &tel,
                    Observation *observed)
{
    SystemConfig sys = spec.sys;
    sys.flipTh = spec.flipTh;
    sys.blastRadius = spec.blastRadius;
    if (spec.channels != 0)
        sys.geometry.channels = spec.channels;

    const ParamSet params = spec.toParams();
    const registry::SchemeContext scheme_ctx{sys.timing,
                                             sys.geometry};

    const bool attacking = spec.attacking();
    const std::uint32_t benign =
        attacking ? spec.cores - 1 : spec.cores;

    // The address map the attacker generators compose through; it
    // must outlive the System, which owns generators that use it on
    // every record.
    mc::AddressMap map(sys.geometry);

    auto make_benign = [&](std::uint32_t core_id) {
        return registry::makeWorkload(
            spec.workload, params, {core_id, benign, spec.seed});
    };
    auto make_attacker = [&]() {
        const registry::AttackContext ctx{
            map, spec.flipTh, benign, spec.seed, make_benign};
        return registry::makeAttack(spec.attack, params, ctx);
    };

    // One tracker instance and one collector bundle over every
    // channel: protection state is per bank.
    System system(
        sys,
        [&] {
            return registry::makeScheme(spec.scheme, params,
                                        scheme_ctx);
        },
        tel);

    // Tracker warm-up, before the collectors attach: the attacker's
    // `warmup=` ACTs and, with warmup-from-workload=1, each benign
    // core's floor(warmup/benign), all to the one tracker.
    auto warm = [&](std::unique_ptr<workload::TraceGenerator> gen,
                    std::uint64_t acts) {
        engine::TraceActSource source(std::move(gen), sys.geometry);
        system.parts().warm(source, acts);
    };
    if (system.parts().tracker(0) && spec.trackerWarmupActs > 0) {
        if (spec.warmupFromWorkload) {
            for (std::uint32_t i = 0; i < benign; ++i)
                warm(make_benign(i), spec.trackerWarmupActs / benign);
        }
        if (attacking)
            warm(make_attacker(), spec.trackerWarmupActs);
    }

    system.snapshotTrackerOps();

    // record=: tap every ACT the Device commits (bank, row, issue
    // tick) — exactly the stream the tracker observes; warm-up above
    // fed generators directly, so it is not captured. Lanes advance
    // one at a time, so ACTs arrive channel-major per service window
    // with per-bank ticks monotone — the exact order contract of the
    // writer.
    std::unique_ptr<engine::ActTraceWriter> recorder;
    if (!spec.record.empty()) {
        recorder = std::make_unique<engine::ActTraceWriter>(
            spec.record, sys.geometry, spec.seed, spec.describe());
        system.setActObserver(
            [writer = recorder.get()](BankId bank, RowId row, Tick t) {
                writer->append(bank, row, t);
            });
    }

    for (std::uint32_t i = 0; i < benign; ++i) {
        cpu::CoreParams core_params;
        core_params.instrBudget = spec.instrPerCore;
        system.addCore(core_params, make_benign(i));
    }
    if (attacking) {
        cpu::CoreParams core_params;
        core_params.instrBudget = ~0ull;  // Runs until the benign
                                          // cores end.
        core_params.excluded = true;
        system.addCore(core_params, make_attacker());
    }

    system.run();
    // A System that stops before every benign core retired its budget
    // measured a starved machine: a protection that owes work after
    // every ACT (rfm=1, para-p=1) fences each bank before its column
    // command, so no request completes; run() stops one tREFW into
    // that stall, or at the horizon. Fail the job rather than report
    // it.
    std::string unfinished;
    for (const auto &core : system.cores()) {
        if (!core->excluded() && !core->done())
            unfinished += ", core " + std::to_string(core->id()) +
                          " retired " +
                          std::to_string(core->instructionsRetired()) +
                          "/" + std::to_string(spec.instrPerCore);
    }
    if (!unfinished.empty()) {
        const std::string stall =
            system.stalled()
                ? "the System stalled (no request completed after tick " +
                      std::to_string(system.lastCompletion()) +
                      " for one tREFW) and "
                : "the System ";
        throw registry::SpecError(
            stall + "stopped at tick " + std::to_string(system.now()) +
            " (horizon " + std::to_string(sys.horizon) +
            ") before every core finished: " + unfinished.substr(2));
    }
    if (recorder)
        recorder->finalize();

    RunMetrics m;
    m.aggIpc = system.aggregateIpc();
    m.energyPj = system.totalEnergyPj();
    m.simTicks = system.now();

    const mc::ControllerStats stats = system.stats();
    m.acts = stats.activates;
    m.reads = stats.reads;
    m.writes = stats.writes;
    m.rfmIssued = stats.rfmIssued;
    m.rfmSkippedMrr = stats.rfmSkippedByMrr;
    m.arrExecuted = stats.arrExecuted;
    m.throttleStalls = stats.throttleStalls;
    m.avgReadLatencyNs = stats.avgReadLatencyNs();
    m.p95ReadLatencyNs = stats.readLatencyNs.percentile(0.95);
    // The System's historical mapping, which perfbench/manifest.json
    // pins: preventiveCount() already includes every ARR, so each ARR
    // counts twice.
    m.preventiveRefreshes =
        system.preventiveCount() + stats.arrExecuted;

    reportParts(spec, tel, system.parts(),
                [&] { return system.telemetrySheet(); }, m, observed);
    return m;
}

} // namespace

RunMetrics
runExperiment(const ExperimentSpec &spec, Observation *observed)
{
    spec.validate();
    const telemetry::TelemetryConfig tel =
        telemetryConfig(spec, observed != nullptr);
    return spec.engineRun()
               ? runEngineExperiment(spec, tel, observed)
               : runSystemExperiment(spec, tel, observed);
}

double
relativePerf(const RunMetrics &value, const RunMetrics &baseline)
{
    MITHRIL_ASSERT(baseline.aggIpc > 0.0);
    return 100.0 * value.aggIpc / baseline.aggIpc;
}

double
energyOverheadPct(const RunMetrics &value, const RunMetrics &baseline)
{
    MITHRIL_ASSERT(baseline.energyPj > 0.0);
    return 100.0 * (value.energyPj - baseline.energyPj) /
           baseline.energyPj;
}

std::string
MetricField::format(const RunMetrics &m, int real_digits) const
{
    return std::visit(
        [&](auto field) {
            if constexpr (std::is_same_v<decltype(field),
                                         double RunMetrics::*>) {
                char buf[48];
                std::snprintf(buf, sizeof(buf), "%.*g", real_digits,
                              m.*field);
                return std::string(buf);
            } else {
                return std::to_string(m.*field);
            }
        },
        member);
}

bool
MetricField::parse(const std::string &text, RunMetrics &m) const
{
    // from_chars: no leading space or '+', no locale, and a real
    // written at %.17g reads back to the same bits.
    return std::visit(
        [&](auto field) {
            const char *end = text.data() + text.size();
            const auto [stop, ec] =
                std::from_chars(text.data(), end, m.*field);
            return ec == std::errc() && stop == end;
        },
        member);
}

} // namespace mithril::sim
