/**
 * @file
 * Configuration explorer: the tool a DRAM vendor would use to pick
 * Mithril's (Nentry, RFM_TH) for a chip (Section IV-D).
 *
 * Given a target FlipTH it prints every feasible RFM_TH with the
 * minimum table, the Theorem 1/2 bounds, the wrapping-counter width,
 * and how the table compares to the baselines' sizing at the same
 * FlipTH.
 *
 * Usage: config_explorer [flip_th=6250] [ad_th=200]
 */

#include <cstdio>

#include "analysis/area_model.hh"
#include "analysis/parfm_failure.hh"
#include "common/config.hh"
#include "common/table_printer.hh"
#include "core/bounds.hh"
#include "core/config_solver.hh"

using namespace mithril;

int
main(int argc, char **argv)
{
    ParamSet params = ParamSet::fromArgs(argc, argv);
    params.requireKnown({"flip_th", "ad_th"});
    const auto flip_th =
        static_cast<std::uint32_t>(params.getUint("flip_th", 6250));
    const auto ad_th =
        static_cast<std::uint32_t>(params.getUint("ad_th", 200));

    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();
    core::ConfigSolver solver(timing, geom);

    std::printf("Mithril configuration space for FlipTH = %u "
                "(DDR5-4800, %u banks, %u rows/bank)\n\n",
                flip_th, geom.totalBanks(), geom.rowsPerBank);

    TablePrinter table({"RFM_TH", "W (intervals)", "Nentry",
                        "M (Thm 1)", "Nentry@AdTH", "M' (Thm 2)",
                        "ctr bits", "table KB"});
    for (std::uint32_t rfm_th : {16u, 32u, 64u, 128u, 256u, 512u}) {
        auto plain = solver.solve(flip_th, rfm_th, 0);
        if (!plain) {
            table.beginRow()
                .intCell(rfm_th)
                .intCell(static_cast<long long>(
                    core::windowIntervals(timing, rfm_th)))
                .cell("-")
                .cell("infeasible");
            continue;
        }
        auto adaptive = solver.solve(flip_th, rfm_th, ad_th);
        table.beginRow()
            .intCell(rfm_th)
            .intCell(static_cast<long long>(
                core::windowIntervals(timing, rfm_th)))
            .intCell(plain->nEntry)
            .num(plain->bound, 1)
            .cell(adaptive ? std::to_string(adaptive->nEntry) : "-")
            .cell(adaptive ? formatFixed(adaptive->bound, 1) : "-")
            .intCell(adaptive ? adaptive->counterBits
                              : plain->counterBits)
            .num((adaptive ? adaptive->tableBytes()
                           : plain->tableBytes()) /
                     1024.0,
                 2);
    }
    std::printf("%s", table.str().c_str());
    std::printf("\n(safety condition: M < FlipTH/2 = %.1f; AdTH = %u "
                "for the M' column)\n\n",
                flip_th / 2.0, ad_th);

    analysis::AreaModel area(timing, geom);
    std::printf("Baselines at the same FlipTH (KB/bank):\n");
    TablePrinter cmp({"scheme", "KB/bank"});
    cmp.beginRow().cell("Graphene @ MC").num(
        area.grapheneBytes(flip_th) / 1024.0, 2);
    cmp.beginRow().cell("TWiCe @ buffer chip").num(
        area.twiceBytes(flip_th) / 1024.0, 2);
    cmp.beginRow().cell("CBT @ MC").num(area.cbtBytes(flip_th) / 1024.0,
                                        2);
    cmp.beginRow().cell("BlockHammer @ MC").num(
        area.blockHammerBytes(flip_th) / 1024.0, 2);
    std::printf("%s", cmp.str().c_str());

    const std::uint32_t parfm_th =
        analysis::parfmMaxRfmTh(timing, flip_th);
    std::printf("\nPARFM would need RFM_TH <= %u for a 1e-15 failure "
                "target at this FlipTH.\n",
                parfm_th);
    return 0;
}
