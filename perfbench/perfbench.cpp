/**
 * @file
 * The benchmark program behind perfbench/run.py: one named workload,
 * generated from --seed, timed for --seconds of host time, its outputs
 * checked, and one JSON result line printed on stdout.
 *
 *   perfbench --workload system-attack --seed 1 --seconds 10 --trace 0
 *
 *   system-attack   every scheme on mix-high plus a multi-sided
 *                   attacker at FlipTH 1.5K, as full-System sweep jobs
 *   corpus-replay   every scheme replaying a composed multi-tenant
 *                   corpus on the engine, oracle on; the per-tenant
 *                   remap, many-way merge and splice that build the
 *                   corpus are its set-up
 *
 * Jobs run one at a time on the sweep runner, System jobs on inline
 * channel lanes and replay jobs on one shard: the configuration sweeps
 * use. With --trace 1 the timed phase runs a second time through the
 * timing decorators (timed_entries.hh), and the result carries the
 * per-layer metrics and the tracing overhead.
 *
 * Every file goes to the current directory under a fixed relative
 * name: trace metas embed the paths, so fixed names keep the corpus
 * bytes, and with them the outcome digest, equal from run to run.
 */

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/simd.hh"
#include "engine/act_trace.hh"
#include "engine/sharded_engine.hh"
#include "outcome.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "runner/runner.hh"
#include "sim/experiment.hh"
#include "timed_entries.hh"
#include "trace/pipeline.hh"

#ifndef MITHRIL_BUILD_TYPE
#define MITHRIL_BUILD_TYPE ""
#endif

using namespace mithril;
using perfbench::timedName;

namespace
{

using Clock = std::chrono::steady_clock;

// Input sizes: one repetition of each timed phase takes one to two
// seconds on one 2 GHz x86 core, so a 50 s run repeats it 25-50 times.
constexpr std::uint32_t kCores = 8;
constexpr std::uint64_t kSystemInstr = 100000;
constexpr std::uint64_t kCaptureInstr = 80000;
constexpr std::uint32_t kTenants = 128;
constexpr std::uint64_t kBurstActs = 10000;
constexpr const char *kBurstAttack = "multi-sided";
constexpr int kSetupRepeats = 5;
/** An operation slower than this counts as timed out. */
constexpr double kOpBudgetSec = 60.0;

constexpr const char *kCapturePath = "capture.acttrace";
constexpr const char *kCorpusPath = "corpus.acttrace";

const std::vector<std::string> kWorkloads = {
    "system-attack", "corpus-replay"};

/** What a traced run reports; a layer the workload never enters
 *  reads 0. */
const std::vector<std::string> kLayerMetrics = {
    "sim.run_s",         "sim.frontend_s",
    "sim.frontend_ns_per_req",
    "workload.next_s",   "workload.records",
    "trackers.s",        "trackers.calls",
    "trackers.logic_ops",
    "engine.run_s",      "engine.decode_s",
    "engine.dispatch_s", "engine.join_s",
    "engine.oracle_off_acts_per_s",
    "trace.bytes_per_act",
    "dram.oracle_s",
    "trace.remap_s",     "trace.open_s",
    "trace.merge_s",     "trace.write_s",
    "trace.open_rss_mb", "trace.inputs",
    "trace.records",
    "runner.overhead_s",
    "mc.requests",       "mc.acts",
    "mc.row_hit_ratio",  "mc.rfm_issued",
    "mc.rfm_skipped_mrr", "mc.arr_executed",
    "mc.throttle_stalls", "mc.read_lat_p95_ns",
    "dram.max_disturbance", "dram.bit_flips",
    "cpu.ipc",
    "engine.acts",       "engine.rfms",
    "engine.preventive",
    "tracing.acts_per_s", "tracing.overhead_pct",
};

std::string
str(std::uint64_t value)
{
    return std::to_string(value);
}

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Resident set right now, in MB. */
double
currentRssMb()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t pages = 0, resident = 0;
    statm >> pages >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/** Peak resident set of this process, in MB. */
double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

std::uint64_t
fileBytes(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<std::uint64_t>(st.st_size)
               : 0;
}

/** Content digest and size of a file, as outcome text. */
std::string
fileDigest(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        throw std::runtime_error("cannot read " + path);
    perfbench::Digest digest;
    std::vector<char> buf(1 << 16);
    std::uint64_t bytes = 0;
    std::size_t n = 0;
    while ((n = std::fread(buf.data(), 1, buf.size(), file)) > 0) {
        digest.add(buf.data(), n);
        bytes += n;
    }
    std::fclose(file);
    return digest.hex() + "/" + str(bytes);
}

/** The benchmark builds against src/ alone, so it keeps its own copy
 *  of this helper rather than reaching into bench/. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out;
}

double
telemetryValue(const sim::RunMetrics &m, const std::string &name)
{
    const auto it = m.telemetry.find(name);
    return it == m.telemetry.end() ? 0.0 : it->second;
}

// ------------------------------------------------------------ arguments

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool traced = false;
};

std::uint64_t
parseUint(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] < '0' || text[0] > '9' || errno != 0 ||
        *end != '\0')
        fatal("%s expects a non-negative integer, got '%s'",
              flag.c_str(), text.c_str());
    return value;
}

Args
parseArgs(int argc, char **argv)
{
    static const std::vector<std::string> kFlags = {
        "--workload", "--seed", "--seconds", "--trace"};
    std::map<std::string, std::string> values;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (std::find(kFlags.begin(), kFlags.end(), flag) == kFlags.end())
            fatal("unknown argument '%s'; usage: perfbench --workload "
                  "NAME --seed N --seconds S --trace 0|1",
                  argv[i]);
        if (i + 1 == argc)
            fatal("%s needs a value", argv[i]);
        if (!values.emplace(flag, argv[++i]).second)
            fatal("%s given twice", flag.c_str());
    }
    for (const std::string &flag : kFlags) {
        if (!values.count(flag))
            fatal("missing %s", flag.c_str());
    }
    Args args;
    args.workload = values["--workload"];
    if (std::find(kWorkloads.begin(), kWorkloads.end(), args.workload) ==
        kWorkloads.end())
        fatal("unknown workload '%s'; workloads: system-attack, "
              "corpus-replay",
              args.workload.c_str());
    args.seed = parseUint("--seed", values["--seed"]);
    const std::uint64_t seconds =
        parseUint("--seconds", values["--seconds"]);
    if (seconds == 0 || seconds > 600)
        fatal("--seconds must be in [1, 600]");
    args.seconds = static_cast<double>(seconds);
    const std::string trace = values["--trace"];
    if (trace != "0" && trace != "1")
        fatal("--trace must be 0 or 1, got '%s'", trace.c_str());
    args.traced = trace == "1";
    return args;
}

// ----------------------------------------------- failure accounting

/** One operation (a sweep job or a pipeline materialization) and how
 *  it ended. */
struct Op
{
    std::string outcome; //!< Deterministic: equal across repeats.
    std::string error;   //!< Non-empty when the operation failed.
};

/** Failed operations against attempted ones. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes; //!< The first few failures.

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (notes.size() < 8)
            notes.push_back(what);
    }

    /** Count `ops`: one fails when it failed on its own or when its
     *  outcome differs from the same operation in `reference`. */
    void
    record(const std::vector<Op> &ops, const std::vector<Op> &reference)
    {
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (!ops[i].error.empty()) {
                check(false, ops[i].error);
                continue;
            }
            check(i < reference.size() &&
                      ops[i].outcome == reference[i].outcome,
                  "outcome differs from the first run of the same "
                  "operation: " + ops[i].outcome);
        }
    }
};

/** One repetition of a timed phase: one sweep. */
struct Rep
{
    double wall = 0.0;
    double work = 0.0;    //!< ACTs handled.
    double jobWall = 0.0; //!< The sweep jobs' summed wall.
    std::vector<Op> ops;
    std::vector<sim::RunMetrics> metrics; //!< One per sweep job.
    std::vector<double> jobWalls;         //!< One per sweep job.
};

/** The repetitions of one timed phase. */
struct Phase
{
    std::vector<double> fastest;  //!< Each job's least wall seconds.
    std::vector<double> work;     //!< Each job's ACTs.
    std::vector<double> repRates; //!< Each repetition's ACTs per second.
    double overhead = 0.0; //!< Summed sweep wall minus job wall.

    void
    add(const Rep &r)
    {
        if (fastest.empty()) {
            fastest = r.jobWalls;
            for (const sim::RunMetrics &m : r.metrics)
                work.push_back(static_cast<double>(m.acts));
        }
        for (std::size_t i = 0; i < fastest.size(); ++i)
            fastest[i] = std::min(fastest[i], r.jobWalls.at(i));
        repRates.push_back(r.wall > 0.0 ? r.work / r.wall : 0.0);
        overhead += r.wall - r.jobWall;
    }

    /** ACTs per second with every job at its fastest repetition.
     *  Neighbours on a shared host slow this process down for seconds
     *  at a time and never speed it up. A job takes about a tenth of a
     *  second, so its fastest of 25 or more repetitions is most often
     *  one that no neighbour slowed, while a whole repetition's rate,
     *  and so the median of them, follows the neighbours. */
    double
    rate() const
    {
        double acts = 0.0, seconds = 0.0;
        for (std::size_t i = 0; i < fastest.size(); ++i) {
            acts += work[i];
            seconds += fastest[i];
        }
        return seconds > 0.0 ? acts / seconds : 0.0;
    }

    double reps() const { return static_cast<double>(repRates.size()); }
};

/** Host nanoseconds inside runExperiment, summed over traced jobs. */
std::atomic<std::uint64_t> g_jobNs{0};

/** Job body of traced sweeps: runExperiment, timed from outside. */
sim::RunMetrics
timedJob(const runner::Job &job)
{
    const auto t0 = Clock::now();
    sim::RunMetrics m = sim::runExperiment(job.spec);
    g_jobNs += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
    return m;
}

/** Host seconds of a compose split into its steps (traced runs). */
struct TraceTimes
{
    double remap = 0.0;
    double open = 0.0;
    double merge = 0.0;
    double write = 0.0;
    double openRssMb = 0.0;
};

/** Phase profile of one direct engine replay of every scheme. */
struct DirectPass
{
    double decode = 0.0;
    double dispatch = 0.0;
    double join = 0.0;
    double wall = 0.0;
    double acts = 0.0;
};

using Check = std::function<std::string(const sim::RunMetrics &)>;

class Bench
{
  public:
    Bench(const Args &args, std::vector<std::string> schemes)
        : args_(args), schemes_(std::move(schemes))
    {
        if (args_.traced) {
            for (const std::string &name : kLayerMetrics)
                metrics_[name] = 0.0;
        }
    }

    void
    run()
    {
        if (args_.workload == "system-attack")
            systemWorkload("mix-high", "multi-sided", 1500);
        else
            replayWorkload();
        metrics_["setup_s"] = median(setupSecs_);
        metrics_["peak_rss_mb"] = peakRssMb();
        metrics_["error_rate"] =
            static_cast<double>(ledger_.failed) /
            static_cast<double>(std::max<std::uint64_t>(
                1, ledger_.attempted));
    }

    void
    print() const
    {
        perfbench::Digest digest;
        for (const Op &op : setupRef_)
            digest.addLine(op.outcome);
        for (const Op &op : phaseRef_)
            digest.addLine(op.outcome);
        std::printf(
            "{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, "
            "\"build_type\": \"%s\", \"simd\": \"%s\", "
            "\"inputs\": \"%s\", \"digest\": \"%s\", \"correct\": %s, "
            "\"attempted\": %llu, \"failed\": %llu, \"failures\": [",
            args_.workload.c_str(),
            static_cast<unsigned long long>(args_.seed),
            args_.traced ? "true" : "false", MITHRIL_BUILD_TYPE,
            simd::activeLevelName(), jsonEscape(inputs_).c_str(),
            digest.hex().c_str(), ledger_.failed == 0 ? "true" : "false",
            static_cast<unsigned long long>(ledger_.attempted),
            static_cast<unsigned long long>(ledger_.failed));
        for (std::size_t i = 0; i < ledger_.notes.size(); ++i) {
            std::printf("%s\"%s\"", i ? ", " : "",
                        jsonEscape(ledger_.notes[i]).c_str());
        }
        std::printf("], \"metrics\": {");
        const char *sep = "";
        for (const auto &[name, value] : metrics_) {
            if (std::isfinite(value))
                std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
            else
                std::printf("%s\"%s\": null", sep, name.c_str());
            sep = ", ";
        }
        std::printf("}}\n");
    }

  private:
    int setupRepeats() const { return args_.traced ? 2 : kSetupRepeats; }

    /** A traced run splits --seconds between its two timed phases. */
    double
    phaseBudget() const
    {
        return args_.traced ? args_.seconds / 2 : args_.seconds;
    }

    void
    recordSetup(const std::vector<Op> &ops)
    {
        if (setupRef_.empty())
            setupRef_ = ops;
        ledger_.record(ops, setupRef_);
    }

    /** Repeat `rep` for the phase budget (at least once). The run's
     *  first repetition is the reference every later one, traced or
     *  not, must reproduce. */
    Phase
    timedPhase(const std::function<Rep()> &rep)
    {
        Phase phase;
        const auto t0 = Clock::now();
        do {
            const Rep r = rep();
            if (phaseRef_.empty()) {
                phaseRef_ = r.ops;
                refMetrics_ = r.metrics;
            }
            ledger_.record(r.ops, phaseRef_);
            phase.add(r);
        } while (since(t0) < phaseBudget());
        return phase;
    }

    Op
    runOp(const sim::ExperimentSpec &spec, const Check &check = nullptr)
    {
        Op op;
        const auto t0 = Clock::now();
        try {
            const sim::RunMetrics m = sim::runExperiment(spec);
            op.outcome = perfbench::outcomeText(m);
            if (check)
                op.error = check(m);
        } catch (const std::exception &err) {
            op.error = err.what();
        }
        if (op.error.empty() && since(t0) > kOpBudgetSec)
            op.error = "timed out";
        if (!op.error.empty()) {
            op.error = spec.scheme + " " + spec.workload + "+" +
                       spec.attack + ": " + op.error;
        }
        return op;
    }

    Rep
    sweepRep(const runner::SweepSpec &spec, bool traced,
             const Check &check)
    {
        runner::RunnerOptions options;
        options.jobs = 1;
        options.progress = false;
        const runner::SweepRunner sweeper(options);
        Rep rep;
        const auto t0 = Clock::now();
        const runner::SweepResult result =
            traced ? sweeper.run(spec, timedJob) : sweeper.run(spec);
        rep.wall = since(t0);
        for (const runner::JobResult &r : result.results) {
            Op op;
            op.outcome = perfbench::outcomeText(r.metrics);
            if (r.failed())
                op.error = r.error;
            else if (r.wallSeconds > kOpBudgetSec)
                op.error = "timed out";
            else if (check)
                op.error = check(r.metrics);
            if (!op.error.empty())
                op.error = r.job.label + ": " + op.error;
            rep.ops.push_back(std::move(op));
            rep.metrics.push_back(r.metrics);
            rep.work += static_cast<double>(r.metrics.acts);
            rep.jobWall += r.wallSeconds;
            rep.jobWalls.push_back(r.wallSeconds);
        }
        return rep;
    }

    void
    layerTrackers(double reps)
    {
        const perfbench::LayerClock &clock =
            perfbench::layerClocks().trackers;
        metrics_["trackers.s"] = clock.seconds() / reps;
        metrics_["trackers.calls"] =
            static_cast<double>(clock.calls.load()) / reps;
        metrics_["trackers.logic_ops"] =
            static_cast<double>(clock.items.load()) / reps;
    }

    /** acts_per_s, with the repetition count it rests on and the rate
     *  of the median repetition for the record. */
    void
    actsPerSec(const Phase &plain)
    {
        metrics_["acts_per_s"] = plain.rate();
        metrics_["repetitions"] = plain.reps();
        metrics_["median_rep_acts_per_s"] = median(plain.repRates);
    }

    void
    tracingOverhead(const Phase &plain, const Phase &traced)
    {
        metrics_["tracing.acts_per_s"] = traced.rate();
        metrics_["tracing.overhead_pct"] =
            traced.rate() > 0.0
                ? 100.0 * (plain.rate() / traced.rate() - 1.0)
                : 0.0;
    }

    // ------------------------------------------------ System grids

    runner::SweepSpec
    systemGrid(const std::string &workload, const std::string &attack,
               std::uint32_t flip, bool traced) const
    {
        runner::SweepSpec spec;
        for (const std::string &scheme : schemes_)
            spec.schemes.push_back(traced ? timedName(scheme) : scheme);
        spec.flipThs = {flip};
        spec.cases = {{traced ? timedName(workload) : workload,
                       traced ? timedName(attack) : attack}};
        spec.cores = kCores;
        spec.instrPerCore = kSystemInstr;
        spec.seed = args_.seed;
        // Each job draws its own workload seed from the run's, so one
        // grid spans one workload realization per scheme, not a single
        // realization whose quirks would ride along in every job.
        spec.seedPolicy = runner::SeedPolicy::PerJob;
        spec.telemetry = traced;
        return spec;
    }

    void
    systemWorkload(const std::string &workload, const std::string &attack,
                   std::uint32_t flip)
    {
        inputs_ = str(schemes_.size()) + " schemes on " + workload +
                  (attack != "none" ? "+" + attack : "") + ", " +
                  str(kCores) + " cores, " + str(kSystemInstr) +
                  " instr/core, FlipTH " + str(flip);

        // Set-up: build and validate the grid, then one warm-up job at
        // half the instruction budget, so code pages and allocator
        // arenas are in place before the timed phase.
        for (int k = 0; k < setupRepeats(); ++k) {
            const auto t0 = Clock::now();
            std::vector<Op> ops;
            std::vector<runner::Job> jobs;
            try {
                jobs = systemGrid(workload, attack, flip, false).expand();
                for (const runner::Job &job : jobs)
                    job.spec.validate();
            } catch (const std::exception &err) {
                ops.push_back(Op{"", std::string("grid: ") + err.what()});
            }
            if (!jobs.empty()) {
                sim::ExperimentSpec warm = jobs.front().spec;
                warm.instrPerCore = kSystemInstr / 2;
                ops.push_back(runOp(warm));
            }
            setupSecs_.push_back(since(t0));
            recordSetup(ops);
        }

        const Phase plain = timedPhase([&] {
            return sweepRep(systemGrid(workload, attack, flip, false),
                            false, nullptr);
        });
        actsPerSec(plain);
        if (args_.traced) {
            perfbench::layerClocks().reset();
            g_jobNs = 0;
            std::vector<sim::RunMetrics> last;
            const Phase traced = timedPhase([&] {
                Rep rep = sweepRep(
                    systemGrid(workload, attack, flip, true), true,
                    nullptr);
                last = rep.metrics;
                return rep;
            });
            const perfbench::LayerClock &gen =
                perfbench::layerClocks().generators;
            const double reps = traced.reps();
            metrics_["sim.run_s"] = 1e-9 * g_jobNs.load() / reps;
            metrics_["workload.next_s"] = gen.seconds() / reps;
            metrics_["workload.records"] =
                static_cast<double>(gen.items.load()) / reps;
            layerTrackers(reps);
            metrics_["sim.frontend_s"] = metrics_["sim.run_s"] -
                                         metrics_["workload.next_s"] -
                                         metrics_["trackers.s"];
            systemCounts(last);
            if (metrics_["mc.requests"] > 0.0) {
                metrics_["sim.frontend_ns_per_req"] =
                    1e9 * metrics_["sim.frontend_s"] /
                    metrics_["mc.requests"];
            }
            metrics_["runner.overhead_s"] = plain.overhead / plain.reps();
            tracingOverhead(plain, traced);
        }
        verifyCapture(systemGrid(workload, attack, flip, false));
    }

    /** Re-run every job of the grid with record= on: the capture must
     *  hold exactly the ACTs the run reports, and recording must leave
     *  the outcome unchanged. */
    void
    verifyCapture(const runner::SweepSpec &grid)
    {
        std::vector<Op> ops;
        for (const runner::Job &job : grid.expand()) {
            sim::ExperimentSpec spec = job.spec;
            spec.record = "verify.acttrace";
            ops.push_back(runOp(spec, [&](const sim::RunMetrics &m) {
                const std::uint64_t records =
                    engine::actTraceInfo(spec.record).records;
                return records == m.acts
                           ? std::string()
                           : "capture holds " + str(records) +
                                 " records, the run made " +
                                 str(m.acts) + " ACTs";
            }));
            std::remove(spec.record.c_str());
        }
        ledger_.record(ops, phaseRef_);
    }

    void
    systemCounts(const std::vector<sim::RunMetrics> &jobs)
    {
        double requests = 0, acts = 0, hits = 0, misses = 0, rfm = 0;
        double skipped = 0, arr = 0, stalls = 0, p95 = 0, flips = 0;
        double ipc = 0, disturbance = 0;
        for (const sim::RunMetrics &m : jobs) {
            requests += static_cast<double>(m.reads + m.writes);
            acts += static_cast<double>(m.acts);
            hits += telemetryValue(m, "mc.row_hits");
            misses += telemetryValue(m, "mc.row_misses");
            rfm += static_cast<double>(m.rfmIssued);
            skipped += static_cast<double>(m.rfmSkippedMrr);
            arr += static_cast<double>(m.arrExecuted);
            stalls += static_cast<double>(m.throttleStalls);
            p95 += m.p95ReadLatencyNs;
            flips += static_cast<double>(m.bitFlips);
            ipc += m.aggIpc;
            disturbance = std::max(disturbance, m.maxDisturbance);
        }
        const double n =
            static_cast<double>(std::max<std::size_t>(1, jobs.size()));
        metrics_["mc.requests"] = requests;
        metrics_["mc.acts"] = acts;
        metrics_["mc.row_hit_ratio"] =
            hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
        metrics_["mc.rfm_issued"] = rfm;
        metrics_["mc.rfm_skipped_mrr"] = skipped;
        metrics_["mc.arr_executed"] = arr;
        metrics_["mc.throttle_stalls"] = stalls;
        metrics_["mc.read_lat_p95_ns"] = p95 / n;
        metrics_["dram.max_disturbance"] = disturbance;
        metrics_["dram.bit_flips"] = flips;
        metrics_["cpu.ipc"] = ipc / n;
    }

    // ------------------------------------------------------ corpora

    /** The attacked System run every corpus is built from, captured
     *  to kCapturePath; the capture must hold exactly its ACTs. */
    Op
    captureOp()
    {
        sim::ExperimentSpec spec;
        spec.scheme = "none";
        spec.workload = "mix-high";
        spec.attack = kBurstAttack;
        spec.cores = kCores;
        spec.instrPerCore = kCaptureInstr;
        spec.seed = args_.seed;
        spec.record = kCapturePath;
        Op op = runOp(spec, [this](const sim::RunMetrics &m) {
            captureRecords_ = engine::actTraceInfo(kCapturePath).records;
            return captureRecords_ == m.acts
                       ? std::string()
                       : "capture holds " + str(captureRecords_) +
                             " records, the run made " + str(m.acts) +
                             " ACTs";
        });
        if (op.error.empty())
            op.outcome += " capture=" + fileDigest(kCapturePath);
        return op;
    }

    Op
    materializeOp(const std::string &spec, const std::string &out,
                  std::uint64_t expected)
    {
        Op op;
        const auto t0 = Clock::now();
        try {
            const engine::ActTraceInfo info =
                trace::materializePipeline(spec, out, args_.seed);
            op.outcome =
                "records=" + str(info.records) + " file=" + fileDigest(out);
            if (out == kCorpusPath)
                corpusRecords_ = info.records;
            if (info.records != expected) {
                op.error = "wrote " + str(info.records) +
                           " records, want " + str(expected);
            }
        } catch (const std::exception &err) {
            op.error = err.what();
        }
        if (op.error.empty() && since(t0) > kOpBudgetSec)
            op.error = "timed out";
        if (!op.error.empty())
            op.error = out + ": " + op.error;
        return op;
    }

    /** materializePipeline's work in three timed steps (build the
     *  pipeline, pull every record, write them), which must write the
     *  same bytes. */
    Op
    splitComposeOp(const std::string &spec, std::uint64_t expected,
                   TraceTimes &times)
    {
        Op op;
        try {
            auto t0 = Clock::now();
            const double rss0 = currentRssMb();
            const std::unique_ptr<trace::RecordStream> stream =
                trace::buildPipeline(spec, args_.seed);
            times.open += since(t0);
            times.openRssMb += currentRssMb() - rss0;

            t0 = Clock::now();
            std::vector<trace::TraceRecord> records;
            records.reserve(expected);
            trace::TraceRecord record;
            while (stream->next(record))
                records.push_back(record);
            times.merge += since(t0);

            t0 = Clock::now();
            engine::ActTraceWriter writer(
                kCorpusPath, stream->geometry(), args_.seed,
                std::string(trace::kPipelineMetaPrefix) + spec);
            for (const trace::TraceRecord &r : records)
                writer.append(r.bank, r.row, r.tick);
            writer.finalize();
            times.write += since(t0);

            corpusRecords_ = engine::actTraceInfo(kCorpusPath).records;
            op.outcome = "records=" + str(corpusRecords_) +
                         " file=" + fileDigest(kCorpusPath);
            if (corpusRecords_ != expected) {
                op.error = "wrote " + str(corpusRecords_) +
                           " records, want " + str(expected);
            }
        } catch (const std::exception &err) {
            op.error = err.what();
        }
        if (!op.error.empty())
            op.error = std::string(kCorpusPath) + ": " + op.error;
        return op;
    }

    /** Remap the capture to kTenants bank-rotated tenants, merge them
     *  and splice a burst into kCorpusPath; split-timed into `split`
     *  when given. */
    std::vector<Op>
    composeOps(TraceTimes *split)
    {
        std::vector<Op> ops;
        std::vector<std::string> tenants;
        std::string merge = "merge:";
        const auto t0 = Clock::now();
        for (std::uint32_t i = 0; i < kTenants; ++i) {
            const std::string path = "tenant-" + str(i) + ".acttrace";
            ops.push_back(materializeOp(std::string("remap:") +
                                            kCapturePath +
                                            ",bank-rotate=" + str(i),
                                        path, captureRecords_));
            merge += (i ? "," : "") + path;
            tenants.push_back(path);
        }
        if (split)
            split->remap += since(t0);
        merge += std::string("|splice:attack=") + kBurstAttack +
                 ",burst-acts=" + str(kBurstActs);
        const std::uint64_t expected =
            kTenants * captureRecords_ + kBurstActs;
        ops.push_back(split ? splitComposeOp(merge, expected, *split)
                            : materializeOp(merge, kCorpusPath, expected));
        for (const std::string &path : tenants)
            std::remove(path.c_str());
        return ops;
    }

    /** Drain the corpus once (warming the page cache): every record
     *  must come back. */
    Op
    readCorpusOp()
    {
        Op op;
        try {
            engine::ActTraceSource source(
                kCorpusPath, engine::ActTraceReadOptions{true});
            engine::ActBatch batch;
            std::uint64_t total = 0;
            for (;;) {
                batch.clear();
                const std::size_t n =
                    source.fill(batch, engine::ActBatch::kCapacity);
                if (n == 0)
                    break;
                total += n;
            }
            op.outcome = "read=" + str(total);
            if (total != corpusRecords_) {
                op.error = "read " + str(total) + " of " +
                           str(corpusRecords_) + " corpus records";
            }
        } catch (const std::exception &err) {
            op.error = err.what();
        }
        if (!op.error.empty())
            op.error = std::string(kCorpusPath) + ": " + op.error;
        return op;
    }

    void
    traceMetrics(const TraceTimes &times)
    {
        metrics_["trace.remap_s"] = times.remap;
        metrics_["trace.open_s"] = times.open;
        metrics_["trace.merge_s"] = times.merge;
        metrics_["trace.write_s"] = times.write;
        metrics_["trace.open_rss_mb"] = times.openRssMb;
        metrics_["trace.inputs"] = kTenants;
        metrics_["trace.records"] = static_cast<double>(corpusRecords_);
        if (corpusRecords_ > 0) {
            metrics_["trace.bytes_per_act"] =
                static_cast<double>(corpusBytes_) /
                static_cast<double>(corpusRecords_);
        }
    }

    std::string
    corpusInputs() const
    {
        return str(kTenants) + "-tenant corpus of " +
               str(corpusRecords_) + " records (capture: " +
               str(kCores) + " cores, " + str(kCaptureInstr) +
               " instr/core, mix-high+" + kBurstAttack + "; burst " +
               str(kBurstActs) + " ACTs)";
    }

    runner::SweepSpec
    replayGrid(bool traced) const
    {
        runner::SweepSpec spec;
        for (const std::string &scheme : schemes_)
            spec.schemes.push_back(traced ? timedName(scheme) : scheme);
        spec.sources = {traced ? timedName("act-trace") : "act-trace"};
        spec.shardsList = {1};
        spec.engineActs = corpusRecords_;
        spec.seed = args_.seed;
        spec.tunables.set("trace", kCorpusPath);
        spec.telemetry = traced;
        return spec;
    }

    void
    replayWorkload()
    {
        TraceTimes split;
        for (int k = 0; k < setupRepeats(); ++k) {
            // A traced run composes its last set-up through the
            // split-timed path, which must write the same bytes.
            const bool timed = args_.traced && k == setupRepeats() - 1;
            const auto t0 = Clock::now();
            std::vector<Op> ops{captureOp()};
            for (Op &op : composeOps(timed ? &split : nullptr))
                ops.push_back(std::move(op));
            ops.push_back(readCorpusOp());
            setupSecs_.push_back(since(t0));
            recordSetup(ops);
        }
        corpusBytes_ = fileBytes(kCorpusPath);
        inputs_ = str(schemes_.size()) + " schemes replaying a " +
                  corpusInputs() + ", one shard, oracle on";

        const Check consumed = [this](const sim::RunMetrics &m) {
            return m.acts == corpusRecords_
                       ? std::string()
                       : "replayed " + str(m.acts) + " of " +
                             str(corpusRecords_) + " corpus records";
        };
        const Phase plain = timedPhase(
            [&] { return sweepRep(replayGrid(false), false, consumed); });
        actsPerSec(plain);
        if (!args_.traced)
            return;

        perfbench::layerClocks().reset();
        g_jobNs = 0;
        const Phase traced = timedPhase(
            [&] { return sweepRep(replayGrid(true), true, consumed); });
        const double reps = traced.reps();
        metrics_["engine.run_s"] = 1e-9 * g_jobNs.load() / reps;
        layerTrackers(reps);
        // The source decorator counts, from outside the engine, every
        // record the replay jobs pulled.
        const std::uint64_t pulled =
            perfbench::layerClocks().sources.items.load();
        const std::uint64_t want = static_cast<std::uint64_t>(reps) *
                                   schemes_.size() * corpusRecords_;
        ledger_.check(pulled == want,
                      "replay jobs pulled " + str(pulled) +
                          " corpus records, want " + str(want));
        engineCounts(refMetrics_);

        const DirectPass on = directReplay(true);
        const DirectPass off = directReplay(false);
        metrics_["engine.decode_s"] = on.decode;
        metrics_["engine.dispatch_s"] = on.dispatch;
        metrics_["engine.join_s"] = on.join;
        metrics_["dram.oracle_s"] = on.dispatch - off.dispatch;
        if (off.wall > 0.0)
            metrics_["engine.oracle_off_acts_per_s"] = off.acts / off.wall;
        traceMetrics(split);
        metrics_["runner.overhead_s"] = plain.overhead / plain.reps();
        tracingOverhead(plain, traced);
    }

    void
    engineCounts(const std::vector<sim::RunMetrics> &jobs)
    {
        double acts = 0, rfms = 0, preventive = 0, flips = 0;
        double disturbance = 0;
        for (const sim::RunMetrics &m : jobs) {
            acts += static_cast<double>(m.acts);
            rfms += static_cast<double>(m.rfmIssued);
            preventive += static_cast<double>(m.preventiveRefreshes);
            flips += static_cast<double>(m.bitFlips);
            disturbance = std::max(disturbance, m.maxDisturbance);
        }
        metrics_["engine.acts"] = acts;
        metrics_["engine.rfms"] = rfms;
        metrics_["engine.preventive"] = preventive;
        metrics_["dram.bit_flips"] = flips;
        metrics_["dram.max_disturbance"] = disturbance;
    }

    /** Replay the corpus through every scheme on a ShardedActStreamEngine
     *  built here with the phase profile on; each pass must agree with
     *  its sweep job. */
    DirectPass
    directReplay(bool oracle)
    {
        DirectPass pass;
        const std::vector<runner::Job> jobs = replayGrid(false).expand();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const sim::ExperimentSpec &job = jobs[i].spec;
            const sim::SystemConfig &sys = job.sys;
            const ParamSet params = job.toParams();
            const registry::SchemeContext scheme_ctx{sys.timing,
                                                     sys.geometry};
            const registry::SourceContext source_ctx{
                sys.timing, sys.geometry, job.flipTh, job.seed};
            engine::ShardedEngineConfig cfg;
            cfg.engine.timing = sys.timing;
            cfg.engine.geometry = sys.geometry;
            cfg.engine.flipTh = job.flipTh;
            cfg.engine.blastRadius = job.blastRadius;
            cfg.engine.enableOracle = oracle;
            cfg.shards = 1;
            cfg.telemetry.phases = true;
            const std::string what = "direct replay of " + job.scheme +
                                     (oracle ? " (oracle on)"
                                             : " (oracle off)");
            try {
                engine::ShardedActStreamEngine eng(cfg, [&] {
                    return registry::makeScheme(job.scheme, params,
                                                scheme_ctx);
                });
                const auto t0 = Clock::now();
                eng.run(
                    [&] {
                        return registry::makeActSource(job.source, params,
                                                       source_ctx);
                    },
                    job.engineActs);
                pass.wall += since(t0);
                const telemetry::PhaseProfile &profile =
                    eng.shardTelemetry(0)->phases();
                pass.decode += profile.sourceSec;
                pass.dispatch += profile.dispatchSec;
                pass.join += eng.joinSec();
                pass.acts += static_cast<double>(eng.acts());
                const sim::RunMetrics &ref = refMetrics_.at(i);
                ledger_.check(
                    eng.acts() == ref.acts && eng.rfms() == ref.rfmIssued &&
                        eng.preventiveRefreshes() ==
                            ref.preventiveRefreshes &&
                        (!oracle ||
                         (eng.bitFlips() == ref.bitFlips &&
                          eng.maxDisturbanceEver() == ref.maxDisturbance)),
                    what + " disagrees with its sweep job");
            } catch (const std::exception &err) {
                ledger_.check(false, what + ": " + err.what());
            }
        }
        return pass;
    }

    Args args_;
    std::vector<std::string> schemes_;
    Ledger ledger_;
    std::vector<Op> setupRef_;  //!< The first set-up's operations.
    std::vector<Op> phaseRef_;  //!< The first repetition's operations.
    std::vector<sim::RunMetrics> refMetrics_;
    std::vector<double> setupSecs_;
    std::map<std::string, double> metrics_;
    std::string inputs_;
    std::uint64_t captureRecords_ = 0;
    std::uint64_t corpusRecords_ = 0;
    std::uint64_t corpusBytes_ = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::vector<std::string> schemes = perfbench::realSchemes();
    perfbench::registerTimedEntries();
    Bench bench(args, std::move(schemes));
    bench.run();
    bench.print();
    return 0;
}
