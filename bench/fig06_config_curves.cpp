/**
 * @file
 * Figure 6 — feasible (table size, RFM_TH) configurations per FlipTH.
 *
 * For every FlipTH in {1.5K .. 50K} and RFM_TH in {16 .. 512}, the
 * Theorem 1 solver reports the minimum CbS table size; the
 * Lossy-Counting columns reproduce the paper's dotted comparison lines
 * at 25K and 50K. '-' marks infeasible points (the harmonic term alone
 * exceeds FlipTH/2). The solver grid is embarrassingly parallel, so
 * the cells are computed on the runner's thread pool (`jobs=N`)
 * and printed in grid order afterwards.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/bounds.hh"
#include "core/config_solver.hh"

using namespace mithril;

int
main(int argc, char **argv)
{
    const bench::BenchScale scale =
        bench::BenchScale::fromArgs(argc, argv);
    bench::rejectArtifacts(scale, "fig06_config_curves");
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();
    core::ConfigSolver solver(timing, geom);
    runner::ThreadPool pool(scale.jobs);

    bench::banner("Figure 6: minimum CbS table size (KB/bank) per "
                  "(FlipTH, RFM_TH)");
    const std::vector<std::uint32_t> rfm_ths = {16,  32,  64,
                                                128, 256, 512};
    const std::vector<std::uint32_t> flip_ths = {
        1560, 3125, 6250, 12500, 25000, 50000};
    std::vector<std::string> headers = {"FlipTH"};
    for (std::uint32_t th : rfm_ths)
        headers.push_back("RFM=" + std::to_string(th));
    TablePrinter table(headers);

    // Each cell is an independent Theorem 1 solve; compute the grid in
    // parallel, then assemble rows in order so the table is identical
    // at any jobs= count.
    std::vector<std::string> grid(flip_ths.size() * rfm_ths.size());
    pool.parallelFor(grid.size(), [&](std::size_t i) {
        const std::uint32_t flip = flip_ths[i / rfm_ths.size()];
        const std::uint32_t th = rfm_ths[i % rfm_ths.size()];
        auto cfg = solver.solve(flip, th);
        grid[i] = cfg ? formatFixed(cfg->tableBytes() / 1024.0, 3)
                      : "-";
    });
    for (std::size_t f = 0; f < flip_ths.size(); ++f) {
        table.beginRow().cell(bench::flipThLabel(flip_ths[f]));
        for (std::size_t r = 0; r < rfm_ths.size(); ++r)
            table.cell(grid[f * rfm_ths.size() + r]);
    }
    std::printf("%s", table.str().c_str());

    bench::banner("Entry counts and bounds at the paper's configs");
    TablePrinter detail({"FlipTH", "RFM_TH", "Nentry", "ctr bits",
                         "bound M", "FlipTH/2"});
    const std::pair<std::uint32_t, std::uint32_t> picks[] = {
        {50000, 256}, {25000, 256}, {12500, 256}, {12500, 128},
        {6250, 128},  {6250, 64},   {3125, 64},   {3125, 32},
        {1500, 32},
    };
    for (const auto &[flip, th] : picks) {
        auto cfg = solver.solve(flip, th);
        if (!cfg)
            continue;
        detail.beginRow()
            .cell(bench::flipThLabel(flip))
            .intCell(th)
            .intCell(cfg->nEntry)
            .intCell(cfg->counterBits)
            .num(cfg->bound, 1)
            .num(flip / 2.0, 1);
    }
    std::printf("%s", detail.str().c_str());

    bench::banner("Lossy-Counting comparison (dotted lines): entries "
                  "needed at RFM_TH=256");
    TablePrinter lossy({"FlipTH", "CbS entries", "Lossy entries",
                        "ratio"});
    for (std::uint32_t flip : {25000u, 50000u}) {
        const std::uint64_t cbs = solver.minEntries(flip, 256);
        const std::uint64_t lc =
            core::lossyCountingEntries(timing, 256, flip);
        lossy.beginRow()
            .cell(bench::flipThLabel(flip))
            .intCell(static_cast<long long>(cbs))
            .intCell(static_cast<long long>(lc))
            .num(static_cast<double>(lc) / static_cast<double>(cbs),
                 1);
    }
    std::printf("%s", lossy.str().c_str());
    std::printf("\nReading: lower RFM_TH (more frequent RFMs) buys a "
                "smaller table at every\nFlipTH; Lossy Counting needs "
                "a several-times larger table than CbS for the\nsame "
                "guarantee — both as in Figure 6.\n");
    return 0;
}
