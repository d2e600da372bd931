#include "experiment.hh"

#include <algorithm>

#include "common/file_util.hh"
#include "common/logging.hh"
#include "engine/act_trace.hh"
#include "engine/sharded_engine.hh"
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
 * shard or System lane) carries: the heatmap under telemetry=, events
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
 * The tail both bodies share, over a run's part-order merges (a
 * ShardedActStreamEngine or a System): the merged sheet goes to
 * RunMetrics::telemetry, the merged events to the trace-events=
 * Chrome trace, and both plus the heatmap to `observed`.
 */
template <typename Run>
void
reportTelemetry(const ExperimentSpec &spec,
                const telemetry::TelemetryConfig &tel, const Run &run,
                std::uint32_t parts, std::uint32_t num_banks,
                RunMetrics &m, Observation *observed)
{
    if (!tel.any())
        return;
    telemetry::MetricSheet sheet = run.telemetrySheet();
    m.telemetry = sheet.exportFlat();
    std::vector<telemetry::TraceEvent> events = run.mergedEvents();
    if (!spec.traceEvents.empty()) {
        telemetry::writeChromeTraceFile(spec.traceEvents, events,
                                        spec.scheme, num_banks);
    }
    if (observed) {
        observed->parts = parts;
        observed->sheet = std::move(sheet);
        observed->events = std::move(events);
        observed->heatmap = run.mergedHeatmap();
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

    // Tracker warm-up, mirroring the System path: the tracker
    // observes `warmup=` ACTs at tick 0 before the measured run, the
    // oracle none, and no collector (they attach when the run
    // starts). Each shard's tracker warms from its own banks' slice
    // of the stream prefix, so warm-up — like the run itself — is
    // byte-identical at any shard count.
    if (spec.trackerWarmupActs > 0) {
        std::vector<RowId> discard;
        // One stream instance feeds every shard's warm-up slice when
        // the source slices natively (the same probe-and-fall-back
        // the sharded run itself uses), so an act-trace warm-up
        // parses the index once and seeks instead of filter-scanning
        // per shard.
        std::unique_ptr<engine::ActSource> probe = make_stream();
        for (std::uint32_t s = 0; s < eng.shardCount(); ++s) {
            trackers::RhProtection *tracker = eng.tracker(s);
            if (!tracker)
                break;
            const auto [lo, hi] = eng.shardRange(s);
            std::unique_ptr<engine::ActSource> warm;
            if (probe)
                warm = probe->shardSlice(lo, hi,
                                         spec.trackerWarmupActs);
            if (!warm) {
                if (!probe)
                    probe = make_stream();
                warm = std::make_unique<engine::BankFilterSource>(
                    std::move(probe), lo, hi,
                    spec.trackerWarmupActs);
            }
            engine::forEachRecord(
                *warm, ~0ull, [&](const engine::ActRecord &rec) {
                    discard.clear();
                    tracker->onActivate(rec.bank, rec.row, 0, discard);
                });
        }
    }

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
    m.maxDisturbance = eng.maxDisturbanceEver();
    m.bitFlips = eng.bitFlips();
    Tick latest = 0;
    for (BankId b = 0; b < eng.numBanks(); ++b)
        latest = std::max(latest, eng.now(b));
    m.simTicks = latest;
    if (trackers::RhProtection *t = eng.tracker(0))
        m.trackerBytesPerBank = t->tableBytesPerBank();
    reportTelemetry(spec, tel, eng, eng.shardCount(), eng.numBanks(), m,
                    observed);
    return m;
}

/** The full-System body: cores, LLC and one frontend lane per
 *  channel, each lane with its own tracker and collectors. */
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

    // One address map shared by the attacker generators and the
    // warm-up profiling; it must outlive the System, which owns
    // generators that compose addresses through it on every record.
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

    // One tracker instance and one collector bundle per channel lane
    // — the same per-partition discipline the sharded engine applies
    // to bank shards.
    System system(
        sys,
        [&] {
            return registry::makeScheme(spec.scheme, params,
                                        scheme_ctx);
        },
        tel);

    // Warm-up feeds each channel's tracker the ACTs that decode to
    // its banks, mirroring the engine's per-shard warm-up slicing.
    if (system.tracker(0) && spec.trackerWarmupActs > 0) {
        std::vector<RowId> discard;
        auto feed = [&](workload::TraceGenerator &gen,
                        std::uint64_t count) {
            for (std::uint64_t i = 0; i < count; ++i) {
                auto rec = gen.next();
                if (!rec)
                    break;
                mc::Request req;
                req.addr = rec->addr;
                map.decode(req);
                discard.clear();
                system.tracker(req.channel)
                    ->onActivate(req.bank, req.row, 0, discard);
            }
        };
        if (spec.warmupFromWorkload) {
            const std::uint64_t per_core =
                spec.trackerWarmupActs / benign;
            for (std::uint32_t i = 0; i < benign; ++i) {
                auto gen = make_benign(i);
                feed(*gen, per_core);
            }
        }
        if (attacking) {
            auto gen = make_attacker();
            feed(*gen, spec.trackerWarmupActs);
        }
    }

    system.snapshotTrackerOps();

    // record=: tap every ACT the controller commits (bank, row,
    // issue tick) — exactly the stream the tracker observes; warm-up
    // above fed generators directly, so it is not captured. System
    // delivers ACTs channel-major per service window with per-bank
    // ticks monotone — the exact order contract of the writer.
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

    m.maxDisturbance = system.maxDisturbanceEver();
    m.bitFlips = system.bitFlips();
    if (system.tracker(0))
        m.trackerBytesPerBank = system.tracker(0)->tableBytesPerBank();

    reportTelemetry(spec, tel, system, system.channels(),
                    sys.geometry.totalBanks(), m, observed);
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

} // namespace mithril::sim
