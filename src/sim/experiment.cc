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
 * The engine-only experiment body: scheme x source at maximum ACT
 * rate on the sharded ActStream engine — no cores, no MC queues.
 * Inside a sweep worker the shards reuse the sweep's own pool
 * (ThreadPool::current()); standalone runs honour spec.threads.
 */
RunMetrics
runEngineExperiment(const ExperimentSpec &spec)
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
    // Telemetry: metrics + heatmap under telemetry=, event tracing
    // under trace-events=. Observation only — the engine is
    // byte-identical with any of these enabled.
    cfg.telemetry.metrics = spec.telemetry || !spec.traceEvents.empty();
    cfg.telemetry.events = !spec.traceEvents.empty();
    cfg.telemetry.eventCapacityPerBank = spec.traceCapacity;
    cfg.telemetry.heatmap = spec.telemetry;
    cfg.telemetry.heatmapRegionBudget = spec.heatmapRegions;

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
        auto stream = make_stream();
        engine::ActBatch batch;
        std::uint64_t remaining = spec.engineActs;
        while (remaining > 0) {
            batch.clear();
            const std::size_t n = stream->fill(
                batch,
                static_cast<std::size_t>(std::min<std::uint64_t>(
                    engine::ActBatch::kCapacity, remaining)));
            if (n == 0)
                break;
            for (std::size_t i = 0; i < n; ++i) {
                const engine::ActRecord rec = batch.record(i);
                writer.append(rec.bank, rec.row, rec.tick);
            }
            remaining -= n;
        }
        writer.finalize();
    }

    // Tracker warm-up, mirroring the System path: the tracker
    // observes `warmup=` ACTs at tick 0 before the measured run, the
    // oracle none. Each shard's tracker warms from its own banks'
    // slice of the stream prefix, so warm-up — like the run itself —
    // is byte-identical at any shard count.
    if (spec.trackerWarmupActs > 0) {
        std::vector<RowId> discard;
        engine::ActBatch batch;
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
            for (;;) {
                batch.clear();
                const std::size_t n =
                    warm->fill(batch, engine::ActBatch::kCapacity);
                if (n == 0)
                    break;
                for (std::size_t i = 0; i < n; ++i) {
                    const engine::ActRecord rec = batch.record(i);
                    discard.clear();
                    tracker->onActivate(rec.bank, rec.row, 0,
                                        discard);
                }
            }
        }
    }

    eng.run(make_stream, spec.engineActs);

    RunMetrics m;
    m.acts = eng.acts();
    m.rfmIssued = eng.rfms();
    m.preventiveRefreshes = eng.preventiveRefreshes();
    m.arrExecuted = eng.preventiveRefreshes();
    m.throttleStalls = eng.throttleStalls();
    m.maxDisturbance = eng.maxDisturbanceEver();
    m.bitFlips = eng.bitFlips();
    Tick latest = 0;
    for (BankId b = 0; b < eng.numBanks(); ++b)
        latest = std::max(latest, eng.now(b));
    m.simTicks = latest;
    if (trackers::RhProtection *t = eng.tracker(0))
        m.trackerBytesPerBank = t->tableBytesPerBank();
    if (cfg.telemetry.metrics)
        m.telemetry = eng.telemetrySheet().exportFlat();
    if (!spec.traceEvents.empty()) {
        telemetry::writeChromeTraceFile(spec.traceEvents,
                                        eng.mergedEvents(),
                                        spec.scheme, eng.numBanks());
    }
    return m;
}

} // namespace

RunMetrics
runExperiment(const ExperimentSpec &spec)
{
    spec.validate();

    if (spec.engineRun())
        return runEngineExperiment(spec);

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

    // One tracker instance per channel lane — the same per-partition
    // factory discipline the sharded engine applies to bank shards.
    System system(sys, [&] {
        return registry::makeScheme(spec.scheme, params, scheme_ctx);
    });

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
    // above fed generators directly, so it is not captured. The
    // telemetry heatmap rides the same observer.
    std::unique_ptr<engine::ActTraceWriter> recorder;
    if (!spec.record.empty()) {
        recorder = std::make_unique<engine::ActTraceWriter>(
            spec.record, sys.geometry, spec.seed, spec.describe());
    }
    std::unique_ptr<telemetry::ActHeatmap> heatmap;
    if (spec.telemetry) {
        heatmap = std::make_unique<telemetry::ActHeatmap>(
            sys.geometry.totalBanks(), spec.heatmapRegions);
    }
    if (recorder || heatmap) {
        // System delivers ACTs channel-major per service window with
        // per-bank ticks monotone — the exact order contract of the
        // acttrace writer.
        system.setActObserver(
            [&recorder, &heatmap](BankId bank, RowId row, Tick t) {
                if (recorder)
                    recorder->append(bank, row, t);
                if (heatmap)
                    heatmap->touch(bank, row);
            });
    }

    // trace-events=: mitigation events from the controllers (RFM
    // issue/skip, executed ARRs, throttle stalls), the oracles (flips
    // and near misses), and the trackers (CBS inserts/evictions).
    // One recorder per channel lane, merged in channel order on
    // output.
    // Observation only — scheduling and outcomes are unchanged.
    std::vector<std::unique_ptr<telemetry::EventRecorder>> events;
    if (!spec.traceEvents.empty()) {
        for (std::uint32_t ch = 0; ch < system.channels(); ++ch) {
            auto rec = std::make_unique<telemetry::EventRecorder>(
                sys.geometry.totalBanks(), spec.traceCapacity);
            system.controller(ch).setEventRecorder(rec.get());
            system.device(ch).oracle().setEventRecorder(rec.get());
            if (system.tracker(ch))
                system.tracker(ch)->setEventRecorder(rec.get());
            events.push_back(std::move(rec));
        }
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

    if (recorder || heatmap)
        system.setActObserver(nullptr);
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
    m.preventiveRefreshes =
        system.preventiveCount() + stats.arrExecuted;

    m.maxDisturbance = system.maxDisturbanceEver();
    m.bitFlips = system.bitFlips();
    if (system.tracker(0))
        m.trackerBytesPerBank = system.tracker(0)->tableBytesPerBank();

    if (spec.telemetry || !events.empty()) {
        telemetry::MetricSheet sheet;
        sheet.setCounter("mc.acts", stats.activates);
        sheet.setCounter("mc.reads", stats.reads);
        sheet.setCounter("mc.writes", stats.writes);
        sheet.setCounter("mc.row_hits", stats.rowHits);
        sheet.setCounter("mc.row_misses", stats.rowMisses);
        sheet.setCounter("mc.refreshes", stats.refreshes);
        sheet.setCounter("mc.rfm_issued", stats.rfmIssued);
        sheet.setCounter("mc.rfm_skipped_mrr", stats.rfmSkippedByMrr);
        sheet.setCounter("mc.arr_executed", stats.arrExecuted);
        sheet.setCounter("mc.throttle_stalls", stats.throttleStalls);
        sheet.setCounter("oracle.bit_flips", system.bitFlips());
        sheet.setCounter("oracle.flipped_rows", system.flippedRows());
        sheet.setGauge("oracle.max_disturbance",
                       system.maxDisturbanceEver());
        if (!events.empty()) {
            std::uint64_t emitted = 0, dropped = 0;
            for (const auto &rec : events) {
                for (BankId b = 0; b < rec->numBanks(); ++b)
                    emitted += rec->emitted(b);
                dropped += rec->dropped();
            }
            sheet.setCounter("trace.emitted", emitted);
            sheet.setCounter("trace.dropped", dropped);
        }
        if (heatmap) {
            sheet.setCounter("heatmap.acts", heatmap->totalActs());
            std::uint64_t folds = 0, regions = 0;
            std::uint32_t max_gran = 0;
            for (BankId b = 0; b < heatmap->numBanks(); ++b) {
                folds += heatmap->folds(b);
                max_gran = std::max(max_gran,
                                    heatmap->granularityLog2(b));
            }
            for (const auto &snap : heatmap->snapshot())
                regions += snap.regions.size();
            sheet.setCounter("heatmap.folds", folds);
            sheet.setCounter("heatmap.regions", regions);
            sheet.setGauge("heatmap.max_granularity_log2",
                           static_cast<double>(max_gran));
        }
        if (system.tracker(0)) {
            // exportMetrics() *sets* values, so each channel's tracker
            // exports into its own sheet; mergeFrom then adds counters
            // across channels (in channel order).
            for (std::uint32_t ch = 0; ch < system.channels(); ++ch) {
                telemetry::MetricSheet tracker_sheet;
                system.tracker(ch)->exportMetrics(tracker_sheet);
                sheet.mergeFrom(tracker_sheet);
            }
        }
        m.telemetry = sheet.exportFlat();
    }
    if (!events.empty()) {
        std::vector<const telemetry::EventRecorder *> merged;
        for (std::uint32_t ch = 0; ch < system.channels(); ++ch) {
            system.controller(ch).setEventRecorder(nullptr);
            system.device(ch).oracle().setEventRecorder(nullptr);
            if (system.tracker(ch))
                system.tracker(ch)->setEventRecorder(nullptr);
            merged.push_back(events[ch].get());
        }
        telemetry::writeChromeTraceFile(
            spec.traceEvents, telemetry::mergeEvents(merged),
            spec.scheme, sys.geometry.totalBanks());
    }
    return m;
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
