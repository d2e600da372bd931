/**
 * @file
 * Telemetry inspector: run one experiment with every telemetry
 * collector enabled and dump what it observed — the merged metric
 * sheet, the per-kind mitigation-event totals, and the bounded-memory
 * ACT heatmap (region tables per bank).
 *
 *   telemetry_cli scheme=mithril source=attack attack=multi-sided \
 *       acts=50000 shards=4
 *   telemetry_cli scheme=graphene attack=double-sided cores=4 \
 *       instr=50000
 *
 * Any ExperimentSpec key is accepted. Engine runs (source=) and
 * System runs print the same three sections: an engine run's merged
 * in shard order, a System run's from its one tracker and collector
 * bundle, with each channel's controller counters folded in. Pass
 * trace-events=PATH to also write the Chrome trace-event JSON
 * (loadable at ui.perfetto.dev). Everything printed is deterministic
 * at any shard/thread count.
 */

#include <cstdio>

#include "common/config.hh"
#include "common/logging.hh"
#include "registry/registry.hh"
#include "sim/experiment.hh"

using namespace mithril;

int
main(int argc, char **argv)
{
    ParamSet params = ParamSet::fromArgs(argc, argv);
    // Telemetry collection is this tool's whole point; the knob is
    // implied so the command line stays short.
    params.set("telemetry", "1");
    const sim::ExperimentSpec spec =
        sim::ExperimentSpec::fromParams(params);
    sim::Observation seen;
    try {
        sim::runExperiment(spec, &seen);
    } catch (const registry::SpecError &err) {
        fatal("%s", err.what());
    }

    std::uint32_t merged = seen.parts;
    const char *what = "shards";
    if (!spec.engineRun()) {
        // One part; its sheet folds in every channel's controller.
        merged = spec.channels ? spec.channels : spec.sys.geometry.channels;
        what = "channels";
    }
    std::printf("== metric sheet (merged, %u %s) ==\n%s", merged, what,
                seen.sheet.dump().c_str());

    std::printf("\n== mitigation events (%zu retained) ==\n",
                seen.events.size());
    for (std::size_t k = 0; k < telemetry::kEventKindCount; ++k) {
        std::uint64_t n = 0;
        for (const telemetry::TraceEvent &e : seen.events) {
            if (e.kind == static_cast<telemetry::EventKind>(k))
                ++n;
        }
        if (n > 0)
            std::printf("%-16s %llu\n",
                        telemetry::eventKindName(
                            static_cast<telemetry::EventKind>(k)),
                        static_cast<unsigned long long>(n));
    }
    if (!spec.traceEvents.empty())
        std::fprintf(stderr, "wrote %s\n", spec.traceEvents.c_str());

    std::printf("\n== ACT heatmap (budget %u regions/bank) ==\n%s",
                spec.heatmapRegions, seen.heatmap.dump().c_str());
    return 0;
}
