/**
 * @file
 * Microbenchmarks for the hot paths: CbS table touch under different
 * hit rates, greedy reset, and the per-ACT cost of every tracker — the
 * operations a per-bank hardware pipeline (and this simulator) must
 * sustain at one ACT per tRC.
 *
 * Each case is one job on the runner's thread pool; `jobs=1`
 * (the default here) times them back-to-back, higher values trade
 * timing fidelity for wall-clock. `iters=N` scales the loop counts.
 */

#include <chrono>
#include <cstdio>
#include <functional>

#include "bench_util.hh"
#include "common/random.hh"
#include "runner/progress.hh"
#include "core/cbs_table.hh"
#include "core/mithril.hh"

using namespace mithril;

namespace
{

/** Keep a computed value alive without a store the optimizer can see
 *  through (the google-benchmark DoNotOptimize idiom). */
template <typename T>
inline void
doNotOptimize(T const &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

struct MicroResult
{
    std::uint64_t iters = 0;
    double seconds = 0.0;
};

struct MicroCase
{
    std::string name;
    std::function<MicroResult(std::uint64_t)> run;
};

template <typename Fn>
MicroResult
timeLoop(std::uint64_t iters, Fn &&body)
{
    // Short untimed warm-up to fault in the tables and caches.
    for (std::uint64_t i = 0; i < iters / 16 + 1; ++i)
        body();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i)
        body();
    const auto t1 = std::chrono::steady_clock::now();
    MicroResult r;
    r.iters = iters;
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    return r;
}

MicroResult
cbsTouch(std::uint64_t iters, std::uint32_t entries,
         std::uint64_t working_set, std::uint64_t seed)
{
    core::CbsTable table(entries);
    Rng rng(seed);
    return timeLoop(iters, [&] {
        doNotOptimize(
            table.touch(static_cast<RowId>(rng.nextBounded(
                working_set))));
    });
}

MicroResult
cbsGreedyReset(std::uint64_t iters)
{
    core::CbsTable table(512);
    Rng rng(3);
    for (int i = 0; i < 100000; ++i)
        table.touch(static_cast<RowId>(rng.nextZipf(4096, 1.0)));
    return timeLoop(iters, [&] {
        table.touch(static_cast<RowId>(rng.nextZipf(4096, 1.0)));
        doNotOptimize(table.resetMaxToMin());
    });
}

MicroResult
trackerActivate(std::uint64_t iters, const std::string &scheme)
{
    ParamSet params;
    params.set("flip", "6250");
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();
    auto tracker =
        registry::makeScheme(scheme, params, {timing, geom});
    Rng rng(4);
    std::vector<RowId> arr;
    Tick now = 0;
    Tick next_ref = timing.tREFI;
    // One ACT per tRC and one REF per tREFI, as the bank would see
    // them: TWiCe prunes its table only at REF.
    return timeLoop(iters, [&] {
        arr.clear();
        tracker->onActivate(
            0, static_cast<RowId>(rng.nextBounded(65536)), now, arr);
        now += timing.tRC;
        if (now >= next_ref) {
            tracker->onRefresh(0, now);
            next_ref += timing.tREFI;
        }
        doNotOptimize(arr.data());
    });
}

MicroResult
mithrilRfm(std::uint64_t iters)
{
    core::MithrilParams params;
    params.nEntry = 512;
    params.rfmTh = 64;
    core::Mithril tracker(1, params);
    Rng rng(5);
    std::vector<RowId> arr, sel;
    for (int i = 0; i < 50000; ++i)
        tracker.onActivate(
            0, static_cast<RowId>(rng.nextZipf(8192, 0.9)), 0, arr);
    return timeLoop(iters, [&] {
        tracker.onActivate(
            0, static_cast<RowId>(rng.nextZipf(8192, 0.9)), 0, arr);
        sel.clear();
        tracker.onRfm(0, 0, sel);
        doNotOptimize(sel.data());
    });
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchScale scale =
        bench::BenchScale::fromArgs(argc, argv, {"iters"});
    bench::rejectArtifacts(scale, "micro_trackers");
    // Microbenchmarks time tight loops, so unlike the sweep benches
    // they default to one worker; jobs=N opts into parallel timing.
    if (!scale.params.has("jobs"))
        scale.jobs = 1;
    const std::uint64_t iters =
        scale.params.getUint("iters", 1000000);
    if (iters == 0)
        fatal("iters= must be positive");

    std::vector<MicroCase> cases;
    for (std::uint32_t entries : {64u, 512u, 4096u}) {
        cases.push_back(
            {"cbs_touch_hot/" + std::to_string(entries),
             [entries](std::uint64_t n) {
                 // Working set == table: every touch is a hit.
                 return cbsTouch(n, entries, entries, 1);
             }});
    }
    for (std::uint32_t entries : {64u, 512u, 4096u}) {
        cases.push_back(
            {"cbs_touch_cold/" + std::to_string(entries),
             [entries](std::uint64_t n) {
                 // Working set >> table: every touch evicts the min.
                 return cbsTouch(n, entries, 1u << 20, 2);
             }});
    }
    cases.push_back({"cbs_greedy_reset", [](std::uint64_t n) {
                         return cbsGreedyReset(n);
                     }});
    for (const std::string &scheme : registry::schemeRegistry().names()) {
        if (scheme == "none")
            continue;
        cases.push_back(
            {"tracker_act/" + registry::schemeDisplay(scheme),
             [scheme](std::uint64_t n) {
                 return trackerActivate(n, scheme);
             }});
    }
    cases.push_back({"mithril_act+rfm", [](std::uint64_t n) {
                         return mithrilRfm(n);
                     }});

    bench::banner("Tracker hot-path microbenchmarks");
    std::vector<MicroResult> results(cases.size());
    runner::ThreadPool pool(scale.jobs);
    runner::ProgressReporter progress(cases.size(), scale.progress);
    pool.parallelFor(cases.size(), [&](std::size_t i) {
        results[i] = cases[i].run(iters);
        progress.jobDone(cases[i].name);
    });

    TablePrinter table({"case", "iterations", "ns/op", "Mops/s"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const MicroResult &r = results[i];
        const double ns_per_op =
            1e9 * r.seconds / static_cast<double>(r.iters);
        table.beginRow()
            .cell(cases[i].name)
            .intCell(static_cast<long long>(r.iters))
            .num(ns_per_op, 1)
            .num(r.iters / r.seconds / 1e6, 2);
    }
    std::printf("%s", table.str().c_str());
    return 0;
}
