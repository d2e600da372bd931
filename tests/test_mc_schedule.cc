/**
 * @file
 * Scheduling-equivalence golden for the memory controller.
 *
 * One FNV-1a 64 digest per configuration, pinned in
 * tests/golden/mc_schedule_v1.txt. A digest covers:
 *
 *  - the committed-ACT stream (bank, row, tick);
 *  - the completion stream (address, core, kind, tick), where the test
 *    owns the controller;
 *  - every ControllerStats field (Controller configs) or every
 *    RunMetrics field (System configs).
 *
 * The matrix spans all schemes at channels 1, 2 and 4 as System runs,
 * Controller knobs that sweep_cli cannot reach (REFsb, the RAA REF
 * decrement, BLISS, the minimalist-open hit cap), a throttling
 * BlockHammer System run, and a BlockHammer whose short CBF lifetime
 * lifts a throttle while the controller waits on it. Any change to
 * what the scheduler picks, or when, moves a digest. Regenerate only
 * for an intended behaviour change:
 *   MITHRIL_UPDATE_GOLDEN=1 ./test_mc_schedule
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "dram/device.hh"
#include "engine/act_trace.hh"
#include "mc/address_map.hh"
#include "mc/controller.hh"
#include "registry/scheme_registry.hh"
#include "sim/experiment.hh"
#include "trackers/blockhammer.hh"

namespace mithril::mc
{
namespace
{

/** FNV-1a 64 over the bytes of each added value. */
class Fnv
{
  public:
    template <typename T>
    void
    add(const T &value)
    {
        addBytes(&value, sizeof(value));
    }

    void
    addText(const std::string &text)
    {
        addBytes(text.data(), text.size());
        addBytes("\n", 1);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }

  private:
    void
    addBytes(const void *data, std::size_t n)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= bytes[i];
            hash_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string
statsText(const ControllerStats &s)
{
    using ull = unsigned long long;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "reads=%llu writes=%llu row_hits=%llu row_misses=%llu acts=%llu "
        "pres=%llu refs=%llu rfm=%llu rfm_skipped=%llu arr=%llu "
        "stalls=%llu total_lat=%.17g under=%llu over=%llu",
        static_cast<ull>(s.reads), static_cast<ull>(s.writes),
        static_cast<ull>(s.rowHits), static_cast<ull>(s.rowMisses),
        static_cast<ull>(s.activates), static_cast<ull>(s.precharges),
        static_cast<ull>(s.refreshes), static_cast<ull>(s.rfmIssued),
        static_cast<ull>(s.rfmSkippedByMrr),
        static_cast<ull>(s.arrExecuted),
        static_cast<ull>(s.throttleStalls), s.totalReadLatencyNs,
        static_cast<ull>(s.readLatencyNs.underflow()),
        static_cast<ull>(s.readLatencyNs.overflow()));
    std::string text = buf;
    for (std::size_t i = 0; i < s.readLatencyNs.bucketCount(); ++i)
        text += " " + std::to_string(s.readLatencyNs.bucketValue(i));
    return text;
}

std::string
metricsText(const sim::RunMetrics &m)
{
    using ull = unsigned long long;
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "ipc=%.17g energy=%.17g ticks=%lld acts=%llu reads=%llu "
        "writes=%llu rfm=%llu rfm_skipped=%llu arr=%llu preventive=%llu "
        "stalls=%llu max_disturbance=%.17g flips=%llu lat=%.17g "
        "p95=%.17g table_bytes=%.17g",
        m.aggIpc, m.energyPj, static_cast<long long>(m.simTicks),
        static_cast<ull>(m.acts), static_cast<ull>(m.reads),
        static_cast<ull>(m.writes), static_cast<ull>(m.rfmIssued),
        static_cast<ull>(m.rfmSkippedMrr),
        static_cast<ull>(m.arrExecuted),
        static_cast<ull>(m.preventiveRefreshes),
        static_cast<ull>(m.throttleStalls), m.maxDisturbance,
        static_cast<ull>(m.bitFlips), m.avgReadLatencyNs,
        m.p95ReadLatencyNs, m.trackerBytesPerBank);
    return buf;
}

/** A full-System run: RunMetrics plus the committed ACTs, read back
 *  from the run's record= capture. */
std::string
systemDigest(sim::ExperimentSpec spec)
{
    spec.record = ::testing::TempDir() + "mc_schedule.acttrace";
    const sim::RunMetrics m = sim::runExperiment(spec);
    Fnv fnv;
    fnv.addText(metricsText(m));
    engine::ActTraceSource trace(spec.record);
    engine::forEachRecord(trace, ~0ull,
                          [&](const engine::ActRecord &rec) {
                              fnv.add(rec.bank);
                              fnv.add(rec.row);
                              fnv.add(rec.tick);
                          });
    std::remove(spec.record.c_str());
    return fnv.hex();
}

sim::ExperimentSpec
systemSpec(const std::string &scheme, std::uint32_t channels)
{
    sim::ExperimentSpec spec;
    spec.scheme = scheme;
    spec.workload = "mix-high";
    spec.attack = "multi-sided";
    spec.flipTh = 1500;
    spec.cores = 4;
    spec.instrPerCore = 20000;
    spec.seed = 5;
    spec.channels = channels;
    return spec;
}

/** One channel of four ranks: two 64-bank words of controller state,
 *  and four staggered refresh phases. */
dram::Geometry
driverGeometry()
{
    dram::Geometry geom = dram::paperGeometry();
    geom.channels = 1;
    geom.ranksPerChannel = 4;
    return geom;
}

/**
 * Drive a Controller the test owns with a seeded open-loop stream of
 * bursty cores. Seven stream columns of their current row, often jump
 * among a few hot rows of their bank (row conflicts), step to the next
 * bank or jump anywhere; the eighth hammers two rows of one bank.
 * Arrivals outpace service, so the queue fills and full-queue retries
 * call service() between wake-up hints.
 */
std::string
controllerDigest(const ControllerParams &params,
                 std::unique_ptr<trackers::RhProtection> tracker,
                 std::uint64_t requests)
{
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = driverGeometry();
    dram::Device device(timing, geom, 1500);
    device.setTracker(tracker.get());
    AddressMap map(geom);
    Controller ctrl(device, map, params, 0);

    Fnv fnv;
    device.setActObserver([&](BankId bank, RowId row, Tick tick) {
        fnv.add(bank);
        fnv.add(row);
        fnv.add(tick);
    });
    ctrl.setCompletionCallback([&](const Request &req, Tick tick) {
        fnv.add(req.addr);
        fnv.add(req.coreId);
        fnv.add(req.isWrite);
        fnv.add(tick);
    });

    struct Stream
    {
        std::uint32_t rank;
        std::uint32_t bank;
        RowId row;
        std::uint32_t column;
    };
    constexpr std::uint32_t kCores = 8;
    Rng rng(0x5c4ed);
    std::vector<Stream> streams;
    for (std::uint32_t c = 0; c < kCores; ++c)
        streams.push_back({c % geom.ranksPerChannel, (c * 5) % 32,
                           static_cast<RowId>(1000 + 16 * c), 0});
    std::uint32_t core = 0;
    auto next_request = [&] {
        // Bursty cores: BLISS sees served streaks even under a
        // one-hit cap.
        if (rng.nextBounded(4) == 0)
            core = static_cast<std::uint32_t>(rng.nextBounded(kCores));
        Stream &s = streams[core];
        const std::uint64_t pick = rng.nextBounded(100);
        if (core == kCores - 1) {
            // The hammerer: two rows of one bank, alternately.
            s.row = s.row == 2000 ? 2002 : 2000;
        } else if (pick >= 90) {
            s.rank = static_cast<std::uint32_t>(
                rng.nextBounded(geom.ranksPerChannel));
            s.bank = static_cast<std::uint32_t>(rng.nextBounded(32));
            s.row = static_cast<RowId>(rng.nextBounded(4096));
        } else if (pick >= 55) {
            s.row = static_cast<RowId>(1000 + 16 * core +
                                       2 * rng.nextBounded(3));
        } else if (pick >= 40) {
            s.bank = (s.bank + 1) % 32;
        }
        s.column = (s.column + 1) % 128;
        Request req;
        req.addr = map.compose(0, s.rank, s.bank, s.row, s.column);
        req.isWrite = rng.nextBounded(4) == 0;
        req.coreId = core;
        map.decode(req);
        return req;
    };

    Tick now = 0;
    Tick arrival = 0;
    std::uint64_t issued = 0;
    Request pending = next_request();
    const Tick horizon = msToTick(50.0);
    while (now < horizon) {
        while (issued < requests && arrival <= now &&
               ctrl.enqueue(pending, now)) {
            ++issued;
            arrival += nsToTick(1.0) *
                       static_cast<Tick>(rng.nextBounded(12));
            pending = next_request();
        }
        const Tick next = ctrl.service(now);
        if (issued == requests && ctrl.idle())
            break;
        Tick poll = kTickMax;
        if (issued < requests)
            poll = arrival > now ? arrival : now + nsToTick(7.0);
        now = std::min(next, poll);
    }
    fnv.add(issued);
    fnv.add(now);
    fnv.addText(statsText(ctrl.stats()));
    return fnv.hex();
}

std::unique_ptr<trackers::RhProtection>
scheme(const std::string &name, std::uint32_t flip)
{
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = driverGeometry();
    registry::SchemeKnobs knobs;
    knobs.flipTh = flip;
    // A low adaptive threshold: Mithril+ both issues and skips RFMs.
    knobs.adTh = 20;
    return registry::makeScheme(name, knobs.toParams(),
                                {timing, geom});
}

/** BlockHammer with a 20 us CBF lifetime and tDelay close to it: the
 *  half-lifetime rotation clears a blacklisted row's history while an
 *  ACT to it still waits out its delay. */
std::unique_ptr<trackers::RhProtection>
shortLifetimeBlockHammer()
{
    const dram::Timing timing = dram::ddr5_4800();
    trackers::BlockHammerParams bp;
    bp.cbfSize = 256;
    bp.nbl = 8;
    bp.flipTh = 9;
    bp.tCbf = usToTick(20.0);
    bp.tRc = timing.tRC;
    bp.counterBits = 5;
    return std::make_unique<trackers::BlockHammer>(
        driverGeometry().totalBanks(), bp);
}

std::vector<std::string>
scheduleLines()
{
    std::vector<std::string> lines;
    auto add = [&](const std::string &name, const std::string &hex) {
        lines.push_back(name + " " + hex);
    };

    const char *const kSchemes[] = {
        "none",   "mithril", "mithril+", "parfm",       "rfm-graphene",
        "para",   "graphene", "twice",   "cbt",         "blockhammer"};
    for (const char *name : kSchemes) {
        for (std::uint32_t channels : {1u, 2u, 4u}) {
            add("system/" + std::string(name) + "/ch" +
                    std::to_string(channels),
                systemDigest(systemSpec(name, channels)));
        }
    }

    // The throttling run of SystemIntegration.BlockHammerThrottlesAttacker.
    sim::ExperimentSpec throttling = systemSpec("blockhammer", 0);
    throttling.attack = "double-sided";
    throttling.cores = 2;
    throttling.instrPerCore = 600000;
    throttling.seed = 42;
    add("system/blockhammer-throttling", systemDigest(throttling));

    for (const char *name : {"mithril+", "para"}) {
        for (const bool refsb : {false, true}) {
            for (const std::uint32_t decrement : {0u, 8u}) {
                for (const bool bliss : {false, true}) {
                    for (const std::uint32_t hits : {1u, 4u}) {
                        ControllerParams params;
                        params.perBankRefresh = refsb;
                        params.raaRefDecrement = decrement;
                        params.useBliss = bliss;
                        params.maxRowHits = hits;
                        add("controller/" + std::string(name) +
                                "/refsb" + std::to_string(refsb) +
                                "/raa-dec" + std::to_string(decrement) +
                                "/bliss" + std::to_string(bliss) +
                                "/hits" + std::to_string(hits),
                            controllerDigest(params,
                                             scheme(name, 1500), 6000));
                    }
                }
            }
        }
    }
    add("controller/blockhammer-short-tcbf",
        controllerDigest(ControllerParams{}, shortLifetimeBlockHammer(),
                         3000));
    return lines;
}

TEST(McSchedule, GoldenDigestsPinSchedulingDecisions)
{
    std::string artifact;
    for (const std::string &line : scheduleLines())
        artifact += line + "\n";

    const std::string golden_path =
        std::string(MITHRIL_SOURCE_DIR) + "/tests/golden/mc_schedule_v1.txt";
    if (std::getenv("MITHRIL_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        out << artifact;
        GTEST_SKIP() << "regenerated " << golden_path;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in) << "missing golden file " << golden_path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(artifact, buffer.str());
}

} // namespace
} // namespace mithril::mc
