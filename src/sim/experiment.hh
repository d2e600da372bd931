/**
 * @file
 * One-call experiment runner shared by the benchmark binaries and the
 * integration tests: build a system from an ExperimentSpec (scheme,
 * workload, and attack resolved through the registries), run it, and
 * collect the metrics the paper's figures report.
 */

#ifndef MITHRIL_SIM_EXPERIMENT_HH
#define MITHRIL_SIM_EXPERIMENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment_spec.hh"
#include "sim/system.hh"
#include "telemetry/telemetry.hh"

namespace mithril::sim
{

/** Everything a figure needs from one run. */
struct RunMetrics
{
    double aggIpc = 0.0;
    double energyPj = 0.0;
    Tick simTicks = 0;

    std::uint64_t acts = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rfmIssued = 0;
    std::uint64_t rfmSkippedMrr = 0;
    std::uint64_t arrExecuted = 0;
    std::uint64_t preventiveRefreshes = 0;
    std::uint64_t throttleStalls = 0;

    double maxDisturbance = 0.0;
    std::uint64_t bitFlips = 0;
    double avgReadLatencyNs = 0.0;
    double p95ReadLatencyNs = 0.0;
    double trackerBytesPerBank = 0.0;

    /** Flattened telemetry metric sheet (empty unless telemetry= or
     *  trace-events= requested it). Deterministic: byte-identical at
     *  any shard/pool count. */
    std::map<std::string, double> telemetry;
};

/** What a run observed beyond its RunMetrics, each part merged in
 *  part order (System lanes or engine shards). */
struct Observation
{
    std::uint32_t parts = 0;                   //!< Lanes or shards.
    telemetry::MetricSheet sheet;              //!< Merged sheet.
    std::vector<telemetry::TraceEvent> events; //!< Tick-ordered.
    telemetry::ActHeatmap heatmap{0, 1};       //!< Per-bank regions.
};

/**
 * Build, run, and measure one experiment. Scheme, workload, and
 * attack construction go through the registries; throws
 * registry::SpecError on unknown names or infeasible configurations
 * (the sweep runner surfaces it per job). A spec with `source=` set
 * runs the sharded ActStream engine over that source instead of a
 * full System (IPC/energy/latency metrics stay zero; ACT, RFM,
 * preventive, and oracle metrics are filled from the engine).
 *
 * With `observed` given, the run also collects mitigation events and
 * the ACT heatmap whatever the spec's telemetry knobs say, and hands
 * them back with the merged sheet.
 */
RunMetrics runExperiment(const ExperimentSpec &spec,
                         Observation *observed = nullptr);

/**
 * Relative performance (%) of `value` against `baseline` aggregate
 * IPC, the metric of Figures 9-11.
 */
double relativePerf(const RunMetrics &value, const RunMetrics &baseline);

/** Relative dynamic energy overhead (%) against a baseline run. */
double energyOverheadPct(const RunMetrics &value,
                         const RunMetrics &baseline);

} // namespace mithril::sim

#endif // MITHRIL_SIM_EXPERIMENT_HH
