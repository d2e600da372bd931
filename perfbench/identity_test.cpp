/**
 * @file
 * Identity test for the timing decorators in timed_entries.hh. For
 * every registered scheme, a traced run (timed-* scheme, workload,
 * attack and source entries, telemetry on) must reproduce the untraced
 * run's outcome exactly:
 *
 *  - on the System frontend, attacked (mix-high + multi-sided) and
 *    benign (mt-fft);
 *  - on the engine frontend, replaying a captured trace at one shard
 *    and at four, where every pull goes through the wrapped
 *    shardSlice(), and hammering with the multi-sided attack source at
 *    four shards, where pulls go through BankFilterSource;
 *  - in the statistics a fresh tracker merges from four shard
 *    trackers, since trackers dynamic_cast what they merge.
 *
 *   perfbench_identity --seed N     # exit status 0 when all cases match
 *
 * It writes one capture file into the current directory and removes it.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>

#include "common/logging.hh"
#include "engine/sharded_engine.hh"
#include "outcome.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "sim/experiment.hh"
#include "telemetry/metric_sheet.hh"
#include "timed_entries.hh"

using namespace mithril;
using perfbench::timedName;

namespace
{

constexpr const char *kTrace = "identity.acttrace";

int g_failures = 0;

/** Compare what `run` yields untraced and traced. */
void
expectSame(const std::string &what,
           const std::function<std::string(bool traced)> &run)
{
    std::string untraced, traced;
    try {
        untraced = run(false);
        traced = run(true);
    } catch (const std::exception &err) {
        ++g_failures;
        std::printf("FAIL %s: %s\n", what.c_str(), err.what());
        return;
    }
    if (untraced == traced) {
        std::printf("ok   %s\n", what.c_str());
        return;
    }
    ++g_failures;
    std::printf("FAIL %s\n  untraced: %s\n  traced:   %s\n", what.c_str(),
                untraced.c_str(), traced.c_str());
}

/** One experiment's outcome, through the decorators when traced. */
std::string
outcome(sim::ExperimentSpec spec, bool traced)
{
    if (traced) {
        spec.scheme = timedName(spec.scheme);
        spec.workload = timedName(spec.workload);
        spec.attack = timedName(spec.attack);
        spec.source = timedName(spec.source);
        spec.telemetry = true;
    }
    return perfbench::outcomeText(sim::runExperiment(spec));
}

/** Logic ops and exported metrics of a fresh tracker that merged the
 *  four shard trackers of a replay of `spec`. */
std::string
mergedStats(const sim::ExperimentSpec &spec, bool traced)
{
    const std::string scheme =
        traced ? timedName(spec.scheme) : spec.scheme;
    const sim::SystemConfig &sys = spec.sys;
    const ParamSet params = spec.toParams();
    const registry::SchemeContext scheme_ctx{sys.timing, sys.geometry};
    const registry::SourceContext source_ctx{sys.timing, sys.geometry,
                                             spec.flipTh, spec.seed};
    engine::ShardedEngineConfig cfg;
    cfg.engine.timing = sys.timing;
    cfg.engine.geometry = sys.geometry;
    cfg.engine.flipTh = spec.flipTh;
    cfg.engine.blastRadius = spec.blastRadius;
    cfg.shards = 4;
    engine::ShardedActStreamEngine eng(cfg, [&] {
        return registry::makeScheme(scheme, params, scheme_ctx);
    });
    eng.run(
        [&] {
            return registry::makeActSource(spec.source, params,
                                           source_ctx);
        },
        spec.engineActs);
    const std::unique_ptr<trackers::RhProtection> target =
        registry::makeScheme(scheme, params, scheme_ctx);
    eng.mergeTrackerStatsInto(*target);
    telemetry::MetricSheet sheet;
    target->exportMetrics(sheet);
    std::string text = "logic_ops=" + std::to_string(target->logicOps());
    char value[40];
    for (const auto &[name, v] : sheet.exportFlat()) {
        std::snprintf(value, sizeof(value), "=%.17g", v);
        text += " " + name + value;
    }
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3 || std::string(argv[1]) != "--seed" ||
        argv[2][0] < '0' || argv[2][0] > '9')
        fatal("usage: perfbench_identity --seed N");
    char *end = nullptr;
    const std::uint64_t seed = std::strtoull(argv[2], &end, 10);
    if (*end != '\0')
        fatal("--seed expects a non-negative integer, got '%s'", argv[2]);

    const std::vector<std::string> schemes = perfbench::realSchemes();
    perfbench::registerTimedEntries();

    sim::ExperimentSpec capture;
    capture.scheme = "none";
    capture.attack = "multi-sided";
    capture.cores = 4;
    capture.instrPerCore = 20000;
    capture.seed = seed;
    capture.record = kTrace;
    std::uint64_t records = 0;
    try {
        records = sim::runExperiment(capture).acts;
    } catch (const std::exception &err) {
        fatal("capture failed: %s", err.what());
    }

    for (const std::string &scheme : schemes) {
        sim::ExperimentSpec attacked;
        attacked.scheme = scheme;
        attacked.attack = "multi-sided";
        attacked.flipTh = 1500;
        attacked.cores = 4;
        attacked.instrPerCore = 20000;
        attacked.seed = seed;
        expectSame("system " + scheme + " mix-high+multi-sided",
                   [&](bool t) { return outcome(attacked, t); });

        sim::ExperimentSpec benign = attacked;
        benign.workload = "mt-fft";
        benign.attack = "none";
        benign.flipTh = 6250;
        expectSame("system " + scheme + " mt-fft",
                   [&](bool t) { return outcome(benign, t); });

        sim::ExperimentSpec replay;
        replay.scheme = scheme;
        replay.seed = seed;
        replay.source = "act-trace";
        replay.extras.set("trace", kTrace);
        replay.engineActs = records;
        for (const std::uint32_t shards : {1u, 4u}) {
            replay.shards = shards;
            expectSame("engine " + scheme + " act-trace shards=" +
                           std::to_string(shards),
                       [&](bool t) { return outcome(replay, t); });
        }

        sim::ExperimentSpec hammer;
        hammer.scheme = scheme;
        hammer.seed = seed;
        hammer.source = "attack";
        hammer.attack = "multi-sided";
        hammer.flipTh = 1500;
        hammer.engineActs = 100000;
        hammer.shards = 4;
        expectSame("engine " + scheme + " attack source shards=4",
                   [&](bool t) { return outcome(hammer, t); });

        if (scheme != "none") {
            expectSame("merged stats " + scheme,
                       [&](bool t) { return mergedStats(replay, t); });
        }
    }
    std::remove(kTrace);
    std::printf("%s: %d case(s) differ\n", g_failures ? "FAIL" : "PASS",
                g_failures);
    return g_failures ? 1 : 0;
}
