/**
 * @file
 * Figure 10 — comparison with the RFM-interface-compatible schemes
 * (PARFM, BlockHammer) across FlipTH 50K..1.5K:
 *
 *  (a) relative performance on normal workloads (geomean),
 *  (b) relative performance under a 32-victim multi-sided RH attack,
 *  (c) relative performance under the BlockHammer-adversarial
 *      CBF-pollution pattern,
 *  (d) dynamic energy overhead on normal workloads,
 *  (e) per-bank table size (also in table4_area).
 *
 * Performance is normalized per workload to an unprotected run of the
 * same workload (and the same attacker for (b)/(c)). The whole grid —
 * baselines included — is one declarative sweep executed by the
 * parallel runner; `jobs=N` controls the worker count.
 */

#include <cstdio>
#include <map>

#include "bench_util.hh"

using namespace mithril;

namespace
{

const std::vector<std::string> kNormal = {
    "mix-high",
    "mix-blend",
    "mt-fft",
};

struct Cell
{
    double perfNormal = 0.0;
    double perfMultiSided = 0.0;
    double perfAdversarial = 0.0;
    double energyOverhead = 0.0;
    double tableKb = 0.0;
};

/** One tREFW of single-bank activations: the warm-up budget. */
constexpr std::uint64_t kWarmupActs = 600000;

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchScale scale = bench::BenchScale::fromArgs(argc, argv);

    const std::vector<std::string> schemes = {
        "parfm",
        "blockhammer",
        "mithril",
        "mithril+",
    };

    runner::SweepSpec spec;
    spec.schemes = schemes;
    spec.flipThs = bench::evalFlipThs();
    for (const std::string &w : kNormal)
        spec.cases.push_back({w, "none"});
    spec.cases.push_back({"mix-high", "multi-sided"});
    spec.cases.push_back({"mix-high", "cbf-pollution"});
    spec.trackerWarmupActs = kWarmupActs;
    spec.includeBaseline = true;
    scale.applyTo(spec);

    const runner::SweepRunner run(scale.runnerOptions());
    const runner::SweepResult result = run.run(spec);
    bench::writeArtifacts(scale, result);

    std::map<std::pair<int, std::uint32_t>, Cell> cells;
    for (std::uint32_t flip : bench::evalFlipThs()) {
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            Cell cell;

            std::vector<double> ratios;
            std::vector<double> energy;
            for (const std::string &w : kNormal) {
                const runner::JobResult &r = bench::need(
                    result.find(schemes[s], flip, w), "normal run");
                const runner::JobResult &base = bench::need(
                    result.baseline(w), "normal baseline");
                ratios.push_back(r.metrics.aggIpc /
                                 base.metrics.aggIpc);
                energy.push_back(sim::energyOverheadPct(
                    r.metrics, base.metrics));
                cell.tableKb = r.metrics.trackerBytesPerBank / 1024.0;
            }
            cell.perfNormal = 100.0 * bench::geomean(ratios);
            double esum = 0.0;
            for (double e : energy)
                esum += e;
            cell.energyOverhead =
                esum / static_cast<double>(energy.size());

            cell.perfMultiSided = sim::relativePerf(
                bench::need(result.find(schemes[s], flip,
                                        "mix-high", "multi-sided"),
                            "multi-sided run")
                    .metrics,
                bench::need(
                    result.baseline("mix-high", "multi-sided"),
                    "multi-sided baseline")
                    .metrics);

            cell.perfAdversarial = sim::relativePerf(
                bench::need(result.find(schemes[s], flip,
                                        "mix-high", "cbf-pollution"),
                            "adversarial run")
                    .metrics,
                bench::need(
                    result.baseline("mix-high", "cbf-pollution"),
                    "adversarial baseline")
                    .metrics);

            cells[{static_cast<int>(s), flip}] = cell;
        }
    }

    auto print_metric = [&](const char *title, auto getter,
                            int precision) {
        bench::banner(title);
        std::vector<std::string> headers = {"scheme"};
        for (std::uint32_t flip : bench::evalFlipThs())
            headers.push_back(bench::flipThLabel(flip));
        TablePrinter table(headers);
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            table.beginRow().cell(registry::schemeDisplay(schemes[s]));
            for (std::uint32_t flip : bench::evalFlipThs()) {
                table.num(getter(cells[{static_cast<int>(s), flip}]),
                          precision);
            }
        }
        std::printf("%s", table.str().c_str());
    };

    print_metric("Figure 10(a): relative performance, normal "
                 "workloads (%)",
                 [](const Cell &c) { return c.perfNormal; }, 2);
    print_metric("Figure 10(b): relative performance, multi-sided RH "
                 "attack (%)",
                 [](const Cell &c) { return c.perfMultiSided; }, 2);
    print_metric("Figure 10(c): relative performance, "
                 "BlockHammer-adversarial pattern (%)",
                 [](const Cell &c) { return c.perfAdversarial; }, 2);
    print_metric("Figure 10(d): dynamic energy overhead, normal "
                 "workloads (%)",
                 [](const Cell &c) { return c.energyOverhead; }, 3);
    print_metric("Figure 10(e): table size (KB per bank)",
                 [](const Cell &c) { return c.tableKb; }, 2);

    std::printf("\nReading: Mithril/Mithril+ stay near 100%% "
                "performance; PARFM's overheads grow\nas FlipTH falls "
                "(lower RFM_TH); BlockHammer collapses under the "
                "adversarial\npattern — Figure 10's story.\n");
    return 0;
}
