/**
 * @file
 * Trace runner: drive the full system from trace files — the
 * Ramulator-style workflow for users with their own (converted)
 * traces.
 *
 * Usage:
 *   trace_runner trace=<file> [trace2=<file> ... trace16=<file>]
 *                [scheme=mithril] [flip_th=6250] [loop=0] [instr=0]
 *                [dump_stats=0]
 *
 * dump_stats=1 also prints the System's merged metric sheet (the
 * names sweep telemetry uses: mc.*, dram.*, oracle.*, cache.*, ...).
 *
 * With no trace argument it records a demo trace from the built-in
 * lbm-like generator first and then runs it, so the binary is
 * self-contained.
 *
 * Trace format (one record per line): `<gap> <hex addr> <R|W> [U]`.
 */

#include <cstdio>
#include <vector>

#include "common/config.hh"
#include "common/table_printer.hh"
#include "registry/scheme_registry.hh"
#include "sim/system.hh"
#include "workload/spec_like.hh"
#include "workload/trace_file.hh"

using namespace mithril;

int
main(int argc, char **argv)
{
    ParamSet params = ParamSet::fromArgs(argc, argv);
    std::vector<std::string> known = {"trace", "scheme", "flip_th",
                                      "loop", "instr", "dump_stats"};
    for (int i = 2; i < 17; ++i)
        known.push_back("trace" + std::to_string(i));
    params.requireKnown(known);
    const auto flip_th =
        static_cast<std::uint32_t>(params.getUint("flip_th", 6250));
    const bool loop = params.getBool("loop", false);
    const std::uint64_t instr = params.getUint("instr", 0);

    std::vector<std::string> files;
    if (params.has("trace"))
        files.push_back(params.getString("trace"));
    for (int i = 2; i < 17; ++i) {
        const std::string key = "trace" + std::to_string(i);
        if (params.has(key))
            files.push_back(params.getString(key));
    }
    if (files.empty()) {
        // Self-contained demo: record a synthetic trace and run it.
        const std::string demo = "/tmp/mithril_demo.trace";
        workload::SyntheticParams sp;
        sp.footprint = 64ull << 20;
        sp.meanGap = 28.0;
        sp.seed = 9;
        workload::StreamSweepGen gen(sp);
        const std::size_t n = workload::recordTrace(gen, 20000, demo);
        std::printf("no trace given; recorded %zu demo records to "
                    "%s\n",
                    n, demo.c_str());
        files.push_back(demo);
    }

    registry::SchemeKnobs knobs;
    knobs.flipTh = flip_th;

    sim::SystemConfig cfg;
    cfg.flipTh = flip_th;
    const std::string scheme = params.getString("scheme", "mithril");
    const ParamSet scheme_params = knobs.toParams();
    try {
        // Probe the name once so a typo fails before the System (and
        // its tracker) is built.
        registry::makeScheme(scheme, scheme_params,
                             {cfg.timing, cfg.geometry});
    } catch (const registry::SpecError &err) {
        fatal("%s", err.what());
    }
    sim::System system(cfg, [&] {
        return registry::makeScheme(scheme, scheme_params,
                                    {cfg.timing, cfg.geometry});
    });

    for (const auto &file : files) {
        cpu::CoreParams cp;
        cp.instrBudget = instr ? instr : ~0ull;
        system.addCore(cp, workload::loadTraceFile(file, loop));
        std::printf("core %zu <- %s\n", system.cores().size() - 1,
                    file.c_str());
    }

    system.run();

    const mc::ControllerStats stats = system.stats();
    TablePrinter table({"metric", "value"});
    table.beginRow().cell("simulated time (us)").num(
        tickToNs(system.now()) / 1000.0, 1);
    table.beginRow().cell("aggregate IPC").num(system.aggregateIpc(),
                                               3);
    table.beginRow().cell("reads / writes")
        .cell(std::to_string(stats.reads) + " / " +
              std::to_string(stats.writes));
    table.beginRow().cell("row hit rate (%)").num(
        100.0 * static_cast<double>(stats.rowHits) /
            static_cast<double>(
                std::max<std::uint64_t>(1, stats.rowHits +
                                               stats.rowMisses)),
        1);
    table.beginRow().cell("avg read latency (ns)").num(
        stats.avgReadLatencyNs(), 1);
    table.beginRow().cell("p95 read latency (ns)").num(
        stats.readLatencyNs.percentile(0.95), 0);
    table.beginRow().cell("RFM commands").intCell(
        static_cast<long long>(stats.rfmIssued));
    // preventiveCount() already includes every ARR.
    table.beginRow().cell("preventive refreshes").intCell(
        static_cast<long long>(system.preventiveCount()));
    table.beginRow().cell("dynamic energy (uJ)").num(
        system.totalEnergyPj() / 1e6, 2);
    table.beginRow().cell("max victim disturbance").num(
        system.parts().maxDisturbanceEver(), 0);
    table.beginRow().cell("bit flips").intCell(
        static_cast<long long>(system.parts().bitFlips()));
    std::printf("\n%s", table.str().c_str());

    if (params.getBool("dump_stats", false)) {
        std::printf("\n--- metric sheet ---\n%s",
                    system.telemetrySheet().dump().c_str());
    }
    return system.parts().bitFlips() == 0 ? 0 : 1;
}
