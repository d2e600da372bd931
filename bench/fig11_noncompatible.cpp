/**
 * @file
 * Figure 11 — comparison with the RFM-interface-non-compatible prior
 * schemes (PARA, CBT, TWiCe, Graphene):
 *
 *  (a) relative performance on normal workloads,
 *  (b) relative performance under a multi-sided RH attack,
 *  (c) dynamic energy overhead on normal workloads.
 *
 * The grid is one declarative sweep on the parallel runner; `jobs=N`
 * controls the worker count.
 */

#include <cstdio>
#include <map>

#include "bench_util.hh"

using namespace mithril;

namespace
{

const std::vector<std::string> kNormal = {
    "mix-high",
    "mt-fft",
};

struct Cell
{
    double perfNormal = 0.0;
    double perfMultiSided = 0.0;
    double energyOverhead = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchScale scale = bench::BenchScale::fromArgs(argc, argv);

    const std::vector<std::string> schemes = {
        "para",  "cbt",     "twice",
        "graphene", "mithril", "mithril+",
    };

    runner::SweepSpec spec;
    spec.schemes = schemes;
    spec.flipThs = bench::evalFlipThs();
    for (const std::string &w : kNormal)
        spec.cases.push_back({w, "none"});
    spec.cases.push_back({"mix-high", "multi-sided"});
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
            double esum = 0.0;
            for (const std::string &w : kNormal) {
                const runner::JobResult &r = bench::need(
                    result.find(schemes[s], flip, w), "normal run");
                const runner::JobResult &base = bench::need(
                    result.baseline(w), "normal baseline");
                ratios.push_back(r.metrics.aggIpc /
                                 base.metrics.aggIpc);
                esum += sim::energyOverheadPct(r.metrics,
                                               base.metrics);
            }
            cell.perfNormal = 100.0 * bench::geomean(ratios);
            cell.energyOverhead =
                esum / static_cast<double>(kNormal.size());

            cell.perfMultiSided = sim::relativePerf(
                bench::need(result.find(schemes[s], flip,
                                        "mix-high", "multi-sided"),
                            "multi-sided run")
                    .metrics,
                bench::need(
                    result.baseline("mix-high", "multi-sided"),
                    "multi-sided baseline")
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

    print_metric("Figure 11(a): relative performance, normal "
                 "workloads (%)",
                 [](const Cell &c) { return c.perfNormal; }, 2);
    print_metric("Figure 11(b): relative performance, multi-sided RH "
                 "attack (%)",
                 [](const Cell &c) { return c.perfMultiSided; }, 2);
    print_metric("Figure 11(c): dynamic energy overhead, normal "
                 "workloads (%)",
                 [](const Cell &c) { return c.energyOverhead; }, 3);

    std::printf("\nReading: Mithril+ matches the ARR-era schemes "
                "(Graphene/TWiCe/CBT) within\nfractions of a percent "
                "—\nwhile being the only ones that work over the "
                "standard RFM interface.\n");
    return 0;
}
