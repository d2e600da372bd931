/**
 * @file
 * Figure 2 — Ineffectiveness of RFM-Graphene compared to the original
 * ARR-Graphene.
 *
 * Part 1 (analytic): safe FlipTH as a function of the predefined
 * threshold for ARR-Graphene (linear) and RFM-Graphene at RFM_TH in
 * {256, 128, 64, 32} (floored by the queue-drain term).
 *
 * Part 2 (measured): a one-bank ActStream engine runs the concentration
 * attack against both schemes and reports the highest ground-truth
 * victim disturbance — the empirical "unsafe FlipTH". The paper's
 * worked example (threshold 2K, RFM_TH 64 -> ~20K) is reproduced.
 */

#include <algorithm>
#include <cstdio>

#include "analysis/arr_vs_rfm.hh"
#include "bench_util.hh"
#include "trackers/graphene.hh"

using namespace mithril;

namespace
{

/** Measured max disturbance for RFM-Graphene under concentration. */
double
measureRfmGraphene(const dram::Timing &timing, std::uint32_t threshold,
                   std::uint32_t rfm_th)
{
    trackers::RfmGrapheneParams params;
    params.threshold = threshold;
    params.rfmTh = rfm_th;
    params.nEntry = trackers::Graphene::requiredEntries(
        dram::maxActsPerWindow(timing), threshold);
    params.resetInterval = timing.tREFW;
    trackers::RfmGraphene tracker(1, params);

    // Concentration inside half a window, then hammer the last pair.
    const std::uint64_t q = std::min<std::uint64_t>(
        300000 / threshold,
        dram::maxActsPerWindow(timing) / (2ull * threshold));
    return bench::concentrationPeak(&tracker, timing, threshold, q);
}

/** Measured max disturbance for ARR-Graphene under the same attack. */
double
measureArrGraphene(const dram::Timing &timing, std::uint32_t threshold)
{
    trackers::GrapheneParams params;
    params.threshold = threshold;
    params.nEntry = trackers::Graphene::requiredEntries(
        dram::maxActsPerWindow(timing), threshold);
    params.resetInterval = timing.tREFW;
    trackers::Graphene tracker(1, params);
    return bench::concentrationPeak(&tracker, timing, threshold,
                                    300000 / threshold);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchScale scale =
        bench::BenchScale::fromArgs(argc, argv);
    bench::rejectArtifacts(scale, "fig02_arr_vs_rfm");
    const dram::Timing timing = dram::ddr5_4800();

    bench::banner("Figure 2 (analytic): safe FlipTH vs predefined "
                  "threshold");
    TablePrinter table({"threshold", "ARR-Graphene", "RFM-256",
                        "RFM-128", "RFM-64", "RFM-32"});
    for (std::uint32_t t : {256u, 512u, 1024u, 2048u, 4096u, 8192u}) {
        table.beginRow()
            .intCell(t)
            .intCell(static_cast<long long>(
                analysis::arrGrapheneSafeFlipTh(t)));
        for (std::uint32_t rfm_th : {256u, 128u, 64u, 32u}) {
            table.intCell(static_cast<long long>(
                analysis::rfmGrapheneSafeFlipTh(timing, t, rfm_th)));
        }
    }
    std::printf("%s", table.str().c_str());

    bench::banner("Worked example (Section III-A)");
    std::printf("threshold 2K, RFM_TH 64: %llu rows can cross the "
                "threshold in one tREFW;\n"
                "analytic safe FlipTH = %llu (paper: ~20K, not 10K)\n",
                static_cast<unsigned long long>(
                    analysis::concurrentThresholdRows(timing, 2000)),
                static_cast<unsigned long long>(
                    analysis::rfmGrapheneSafeFlipTh(timing, 2000, 64)));

    bench::banner("Figure 2 (measured): max ground-truth disturbance "
                  "under the concentration attack");
    TablePrinter meas({"threshold", "ARR-Graphene", "RFM-Graphene-64",
                       "RFM-Graphene-128"});
    // Each measured cell replays a full tREFW of activations into an
    // independent tracker; run the 3x3 grid on the runner's pool and
    // assemble rows in order.
    const std::vector<std::uint32_t> thresholds = {1000, 2000, 4000};
    std::vector<double> cells(thresholds.size() * 3);
    runner::ThreadPool pool(scale.jobs);
    pool.parallelFor(cells.size(), [&](std::size_t i) {
        const std::uint32_t t = thresholds[i / 3];
        switch (i % 3) {
          case 0: cells[i] = measureArrGraphene(timing, t); break;
          case 1: cells[i] = measureRfmGraphene(timing, t, 64); break;
          case 2: cells[i] = measureRfmGraphene(timing, t, 128); break;
        }
    });
    for (std::size_t r = 0; r < thresholds.size(); ++r) {
        meas.beginRow()
            .intCell(thresholds[r])
            .num(cells[3 * r + 0], 0)
            .num(cells[3 * r + 1], 0)
            .num(cells[3 * r + 2], 0);
    }
    std::printf("%s", meas.str().c_str());
    std::printf("\nReading: ARR-Graphene's exposure scales with the "
                "threshold; RFM-Graphene's\nexposure is dominated by "
                "the queue-drain term and stays in the tens of "
                "thousands\nregardless of the threshold — the paper's "
                "incompatibility argument.\n");
    return 0;
}
