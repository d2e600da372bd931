/**
 * @file
 * Tests for the DRAM substrate: timing presets, bank/rank state
 * machines, energy metering, and the ground-truth RH oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "dram/bank.hh"
#include "dram/device.hh"
#include "dram/energy.hh"
#include "dram/rank.hh"
#include "dram/rh_oracle.hh"
#include "dram/timing.hh"
#include "telemetry/event_trace.hh"

namespace mithril::dram
{
namespace
{

TEST(Timing, PaperTableIIIValues)
{
    const Timing t = ddr5_4800();
    EXPECT_EQ(t.tRFC, nsToTick(295.0));
    EXPECT_EQ(t.tRC, nsToTick(48.64));
    EXPECT_EQ(t.tRFM, nsToTick(97.28));
    EXPECT_EQ(t.tRCD, nsToTick(16.64));
    EXPECT_EQ(t.tRP, nsToTick(16.64));
    EXPECT_EQ(t.tCL, nsToTick(16.64));
    EXPECT_EQ(t.tREFW, msToTick(32.0));
    EXPECT_EQ(refreshGroups(t), 8192u);
}

TEST(Timing, PaperGeometry)
{
    const Geometry g = paperGeometry();
    EXPECT_EQ(g.channels, 2u);
    EXPECT_EQ(g.ranksPerChannel, 1u);
    EXPECT_EQ(g.banksPerRank, 32u);
    EXPECT_EQ(g.totalBanks(), 64u);
    EXPECT_EQ(g.rowBytes, 8192u);
    EXPECT_EQ(g.columnsPerRow(), 128u);
    EXPECT_GT(g.capacityBytes(), 0ull);
}

TEST(Timing, MaxActsPerWindowMagnitude)
{
    // ~32ms * 92.5% / 48.64ns ~= 608K ACTs.
    const std::uint64_t acts = maxActsPerWindow(ddr5_4800());
    EXPECT_GT(acts, 590000u);
    EXPECT_LT(acts, 620000u);
}

TEST(Timing, RfmIntervalsPaperExample)
{
    // Section III-A's example: ~310 rows * 2K fits one tREFW; the W
    // term for RFM_TH=64 is in the low thousands.
    const std::uint64_t w = rfmIntervalsPerWindow(ddr5_4800(), 64);
    EXPECT_GT(w, 8000u);
    EXPECT_LT(w, 10000u);
}

class BankTest : public ::testing::Test
{
  protected:
    Timing timing_ = ddr5_4800();
    Bank bank_{timing_};
};

TEST_F(BankTest, StartsClosed)
{
    EXPECT_FALSE(bank_.isOpen());
    EXPECT_EQ(bank_.openRow(), kInvalidRow);
    EXPECT_EQ(bank_.earliestAct(100), 100);
}

TEST_F(BankTest, ActivateOpensAndFencesColumns)
{
    bank_.doActivate(1000, 7);
    EXPECT_TRUE(bank_.isOpen());
    EXPECT_EQ(bank_.openRow(), 7u);
    EXPECT_EQ(bank_.earliestCol(1000), 1000 + timing_.tRCD);
    EXPECT_EQ(bank_.earliestPre(1000), 1000 + timing_.tRAS);
    EXPECT_EQ(bank_.earliestAct(1000), 1000 + timing_.tRC);
}

TEST_F(BankTest, ReadReturnsDataTick)
{
    bank_.doActivate(0, 3);
    const Tick col = bank_.earliestCol(0);
    const Tick data = bank_.doRead(col);
    EXPECT_EQ(data, col + timing_.tCL + timing_.tBL);
}

TEST_F(BankTest, ConsecutiveReadsSpacedByTccd)
{
    bank_.doActivate(0, 3);
    const Tick c1 = bank_.earliestCol(0);
    bank_.doRead(c1);
    EXPECT_EQ(bank_.earliestCol(c1), c1 + timing_.tCCD);
}

TEST_F(BankTest, WriteDelaysPrechargeByRecovery)
{
    bank_.doActivate(0, 3);
    const Tick col = bank_.earliestCol(0);
    bank_.doWrite(col);
    EXPECT_GE(bank_.earliestPre(col),
              col + timing_.tCWL + timing_.tBL + timing_.tWR);
}

TEST_F(BankTest, PrechargeClosesAndFencesAct)
{
    bank_.doActivate(0, 3);
    const Tick pre = bank_.earliestPre(0);
    bank_.doPrecharge(pre);
    EXPECT_FALSE(bank_.isOpen());
    EXPECT_GE(bank_.earliestAct(pre), pre + timing_.tRP);
}

TEST_F(BankTest, RefreshOccupiesBank)
{
    bank_.doRefresh(0, timing_.tRFC);
    EXPECT_EQ(bank_.earliestAct(0), timing_.tRFC);
}

TEST_F(BankTest, ActCountAccumulates)
{
    for (int i = 0; i < 3; ++i) {
        const Tick t = bank_.earliestAct(0);
        bank_.doActivate(t, 1);
        bank_.doPrecharge(bank_.earliestPre(t));
    }
    EXPECT_EQ(bank_.actCount(), 3u);
}

TEST(RankTest, TfawLimitsFourActs)
{
    const Timing timing = ddr5_4800();
    RankTiming rank(timing);
    Tick t = 0;
    for (int i = 0; i < 4; ++i) {
        t = rank.earliestAct(t);
        rank.recordAct(t);
        t += 1;
    }
    // The fifth ACT must wait for the first + tFAW.
    EXPECT_GE(rank.earliestAct(t), timing.tFAW);
}

TEST(RankTest, TrrdSpacesBackToBackActs)
{
    const Timing timing = ddr5_4800();
    RankTiming rank(timing);
    rank.recordAct(1000);
    EXPECT_EQ(rank.earliestAct(1000), 1000 + timing.tRRD);
}

TEST(Energy, AccumulatesPerOperation)
{
    EnergyParams p;
    EnergyMeter meter(p);
    meter.addAct(10);
    meter.addPre(10);
    meter.addRead(5);
    meter.addWrite(2);
    meter.addRefreshRows(8);
    meter.addPreventiveRows(4);
    meter.addTrackerOps(100);
    const double expect = 10 * p.actPj + 10 * p.prePj + 5 * p.rdPj +
                          2 * p.wrPj + 8 * p.refRowPj +
                          4 * p.prevRefRowPj + 100 * p.trackerOpPj;
    EXPECT_DOUBLE_EQ(meter.totalPj(), expect);
    EXPECT_DOUBLE_EQ(meter.protectionPj(),
                     4 * p.prevRefRowPj + 100 * p.trackerOpPj);
    meter.reset();
    EXPECT_DOUBLE_EQ(meter.totalPj(), 0.0);
}

class OracleTest : public ::testing::Test
{
  protected:
    RhOracle oracle_{2, 1024, 100, 1};
};

TEST_F(OracleTest, NeighborsAccumulateDisturbance)
{
    oracle_.onActivate(0, 10);
    oracle_.onActivate(0, 10);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 9), 2.0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 11), 2.0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 10), 0.0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(1, 9), 0.0);
}

TEST_F(OracleTest, DoubleSidedSumsBothAggressors)
{
    oracle_.onActivate(0, 10);
    oracle_.onActivate(0, 12);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 11), 2.0);
}

TEST_F(OracleTest, RowRefreshResets)
{
    oracle_.onActivate(0, 10);
    oracle_.onRowRefresh(0, 11);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 11), 0.0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 9), 1.0);
}

TEST_F(OracleTest, NeighborRefreshClearsVictims)
{
    oracle_.onActivate(0, 10);
    oracle_.onNeighborRefresh(0, 10);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 9), 0.0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 11), 0.0);
}

TEST_F(OracleTest, BitFlipAtThreshold)
{
    for (int i = 0; i < 99; ++i)
        oracle_.onActivate(0, 10);
    EXPECT_EQ(oracle_.bitFlips(), 0u);
    oracle_.onActivate(0, 10);
    EXPECT_EQ(oracle_.bitFlips(), 2u);  // Rows 9 and 11 both flipped.
    EXPECT_EQ(oracle_.flippedRows(), 2u);
    EXPECT_DOUBLE_EQ(oracle_.maxDisturbanceEver(), 100.0);
}

TEST_F(OracleTest, FlipCountedOncePerEpisode)
{
    for (int i = 0; i < 150; ++i)
        oracle_.onActivate(0, 10);
    EXPECT_EQ(oracle_.bitFlips(), 2u);
    // Refresh then re-hammer: a new episode, new flips.
    oracle_.onNeighborRefresh(0, 10);
    for (int i = 0; i < 100; ++i)
        oracle_.onActivate(0, 10);
    EXPECT_EQ(oracle_.bitFlips(), 4u);
}

TEST_F(OracleTest, AutoRefreshRotatesThroughRows)
{
    oracle_.onActivate(0, 1);  // Disturbs rows 0 and 2.
    // 1024 rows / 256 groups = 4 rows per REF: rows 0-3 refreshed.
    oracle_.onAutoRefresh(0, 256);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 2), 0.0);
    // A full sweep of 256 REFs refreshes every row.
    oracle_.onActivate(0, 500);
    for (int i = 0; i < 256; ++i)
        oracle_.onAutoRefresh(0, 256);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 499), 0.0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 501), 0.0);
}

TEST_F(OracleTest, EdgeRowsHaveOneNeighbor)
{
    oracle_.onActivate(0, 0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 1), 1.0);
    oracle_.onActivate(0, 1023);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 1022), 1.0);
}

TEST(OracleBlastRadius, Distance2QuarterWeight)
{
    RhOracle oracle(1, 1024, 100, 2);
    oracle.onActivate(0, 10);
    EXPECT_DOUBLE_EQ(oracle.disturbance(0, 9), 1.0);
    EXPECT_DOUBLE_EQ(oracle.disturbance(0, 8), 0.25);
    EXPECT_DOUBLE_EQ(oracle.disturbance(0, 12), 0.25);
}

TEST(OracleBlastRadius, NeighborRefreshCoversRadius)
{
    RhOracle oracle(1, 1024, 100, 2);
    oracle.onActivate(0, 10);
    oracle.onNeighborRefresh(0, 10);
    EXPECT_DOUBLE_EQ(oracle.disturbance(0, 8), 0.0);
    EXPECT_DOUBLE_EQ(oracle.disturbance(0, 12), 0.0);
}

/**
 * Reference model of RhOracle: one std::map entry per disturbed row,
 * every refresh a per-row erase. The oracle's block table must agree
 * with it on every observable, flip and near-miss events included.
 */
class ReferenceOracle
{
  public:
    using Key = std::pair<BankId, RowId>;

    ReferenceOracle(std::uint32_t banks, std::uint32_t rows,
                    std::uint32_t flip_th, std::uint32_t radius)
        : rows_(rows), thresholdQ_(4ull * flip_th), radius_(radius),
          ptr_(banks, 0), events_(banks)
    {
    }

    void activate(BankId bank, RowId row, Tick now)
    {
        for (std::uint32_t d = 1; d <= radius_; ++d) {
            const std::uint32_t w = (d == 1) ? 4 : 1;
            if (row >= d)
                disturb(bank, row - d, w, now);
            if (row + d < rows_)
                disturb(bank, row + d, w, now);
        }
    }

    void refresh(BankId bank, RowId row) { counts.erase({bank, row}); }

    void neighborRefresh(BankId bank, RowId aggressor)
    {
        for (std::uint32_t d = 1; d <= radius_; ++d) {
            if (aggressor >= d)
                refresh(bank, aggressor - d);
            if (aggressor + d < rows_)
                refresh(bank, aggressor + d);
        }
    }

    void autoRefresh(BankId bank, std::uint32_t groups)
    {
        for (std::uint32_t i = 0; i < (rows_ + groups - 1) / groups; ++i) {
            refresh(bank, ptr_[bank]);
            ptr_[bank] = (ptr_[bank] + 1) % rows_;
        }
    }

    void reset()
    {
        counts.clear();
        std::fill(ptr_.begin(), ptr_.end(), 0);
    }

    std::size_t nonzeroBlocks() const
    {
        std::set<Key> blocks;
        for (const auto &[key, q] : counts)
            blocks.insert({key.first, key.second / 8});
        return blocks.size();
    }

    const std::vector<telemetry::TraceEvent> &events(BankId bank) const
    {
        return events_[bank];
    }

    std::map<Key, std::uint64_t> counts;
    std::uint64_t maxQ = 0;
    std::uint64_t flips = 0;
    std::set<Key> flipped;

  private:
    void disturb(BankId bank, RowId row, std::uint32_t w, Tick now)
    {
        std::uint64_t &q = counts[{bank, row}];
        const std::uint64_t before = q;
        q += w;
        maxQ = std::max(maxQ, q);
        telemetry::TraceEvent e;
        e.tick = now;
        e.bank = bank;
        e.row = row;
        if (before < thresholdQ_ && q >= thresholdQ_) {
            ++flips;
            flipped.insert({bank, row});
            e.kind = telemetry::EventKind::OracleFlip;
            e.arg = static_cast<std::uint32_t>(flipped.size());
            events_[bank].push_back(e);
        } else if (q < thresholdQ_) {
            const std::uint64_t near_q = thresholdQ_ - thresholdQ_ / 8;
            if (q >= near_q && before < near_q) {
                e.kind = telemetry::EventKind::NearMiss;
                e.arg = static_cast<std::uint32_t>(thresholdQ_ - q);
                events_[bank].push_back(e);
            }
        }
    }

    std::uint32_t rows_;
    std::uint64_t thresholdQ_;
    std::uint32_t radius_;
    std::vector<RowId> ptr_;
    std::vector<std::vector<telemetry::TraceEvent>> events_;
};

/**
 * Seeded random activate / refresh sequences against the reference.
 * Rows mix the bank edges, both edges of 8-row blocks, a hot window
 * that crosses FlipTH, and uniform rows that grow the table several
 * times; auto-refresh windows start off block boundaries because
 * 1003 rows is not a multiple of 8.
 */
void
checkAgainstReference(std::uint32_t radius, std::uint64_t seed)
{
    constexpr std::uint32_t kBanks = 3;
    constexpr std::uint32_t kRows = 1003;
    constexpr std::uint32_t kFlipTh = 8;
    constexpr int kOps = 60000;
    RhOracle oracle(kBanks, kRows, kFlipTh, radius);
    ReferenceOracle ref(kBanks, kRows, kFlipTh, radius);
    telemetry::EventRecorder recorder(kBanks, 1u << 16);
    oracle.setEventRecorder(&recorder);
    const std::size_t initial_slots = oracle.blockSlots();
    std::size_t max_slots = initial_slots;

    Rng rng(seed);
    std::set<ReferenceOracle::Key> touched;
    auto pick_row = [&]() -> RowId {
        switch (rng.nextBounded(5)) {
          case 0: {
            // Last block holds rows 1000-1002 only.
            const RowId edges[] = {0, 1, 7, 8, 15, 16, 999, 1000, 1001,
                                   kRows - 1};
            return edges[rng.nextBounded(std::size(edges))];
          }
          case 1:  // Either edge of a random block.
            return static_cast<RowId>(
                std::min<std::uint64_t>(kRows - 1,
                                        rng.nextBounded(kRows / 8) * 8 +
                                            7 * rng.nextBounded(2)));
          case 2:  // Hot window: repeated hits cross FlipTH.
            return static_cast<RowId>(500 + rng.nextBounded(12));
          default:
            return static_cast<RowId>(rng.nextBounded(kRows));
        }
    };
    auto check_rows = [&]() {
        for (const auto &[bank, row] : touched) {
            const auto it = ref.counts.find({bank, row});
            const double want =
                it == ref.counts.end() ? 0.0 : it->second / 4.0;
            ASSERT_EQ(oracle.disturbance(bank, row), want)
                << "bank " << bank << " row " << row;
        }
        ASSERT_EQ(oracle.liveBlocks(), ref.nonzeroBlocks());
    };

    for (int op = 0; op < kOps; ++op) {
        const BankId bank = static_cast<BankId>(rng.nextBounded(kBanks));
        const RowId row = pick_row();
        const std::uint64_t kind = rng.nextBounded(10000);
        for (std::uint32_t d = 0; d <= radius; ++d) {
            touched.insert({bank, row >= d ? row - d : 0});
            touched.insert({bank, std::min(kRows - 1, row + d)});
        }
        if (kind < 7500) {
            oracle.setNow(op);
            oracle.onActivate(bank, row);
            ref.activate(bank, row, op);
        } else if (kind < 8500) {
            oracle.onRowRefresh(bank, row);
            ref.refresh(bank, row);
        } else if (kind < 9300) {
            oracle.onNeighborRefresh(bank, row);
            ref.neighborRefresh(bank, row);
        } else if (kind < 9999) {
            // 63, 11, 9, 8 or 1 rows per REF; 1 group (a whole-bank
            // sweep) is rare so the table fills up between sweeps.
            const std::uint32_t groups[] = {16, 100, 125, 128, 1003, 1};
            const std::uint32_t g = groups[rng.nextBounded(
                kind == 9998 ? std::size(groups) : std::size(groups) - 1)];
            oracle.onAutoRefresh(bank, g);
            ref.autoRefresh(bank, g);
        } else {
            oracle.resetCounts();
            ref.reset();
        }
        ASSERT_EQ(oracle.bitFlips(), ref.flips) << "op " << op;
        ASSERT_EQ(oracle.flippedRows(), ref.flipped.size()) << "op " << op;
        ASSERT_EQ(oracle.maxDisturbanceEver(), ref.maxQ / 4.0)
            << "op " << op;
        max_slots = std::max(max_slots, oracle.blockSlots());
        if (op % 97 == 0) {
            ASSERT_NO_FATAL_FAILURE(check_rows()) << "op " << op;
        }
    }
    ASSERT_NO_FATAL_FAILURE(check_rows());

    EXPECT_GT(ref.flips, 0u);
    EXPECT_GE(max_slots, initial_slots * 8) << "several table growths";
    EXPECT_EQ(recorder.dropped(), 0u);
    for (BankId b = 0; b < kBanks; ++b)
        EXPECT_EQ(recorder.bankEvents(b), ref.events(b)) << "bank " << b;

    // Refreshing every row empties the table.
    for (BankId b = 0; b < kBanks; ++b)
        oracle.onAutoRefresh(b, 1);
    EXPECT_EQ(oracle.liveBlocks(), 0u);
}

TEST(OracleDifferential, MatchesReferenceAtRadius1)
{
    checkAgainstReference(1, 11);
}

TEST(OracleDifferential, MatchesReferenceAtRadius2)
{
    checkAgainstReference(2, 22);
}

TEST(OracleDifferential, MatchesReferenceAtRadius3)
{
    checkAgainstReference(3, 33);
}

TEST(OracleDifferential, SmallTableChurnMatchesReference)
{
    // At most 6 blocks of a 65,536-row bank, so the table keeps its
    // initial 16 slots while rows are hammered and refreshed in turn.
    // Across many random key sets, probe chains cross the last slot,
    // so backward-shift deletions wrap the table.
    constexpr std::uint32_t kRows = 65536;
    Rng rng(7);
    for (int trial = 0; trial < 2000; ++trial) {
        RhOracle oracle(4, kRows, 8, 1);
        ReferenceOracle ref(4, kRows, 8, 1);
        const std::size_t slots = oracle.blockSlots();
        const BankId bank = static_cast<BankId>(rng.nextBounded(4));
        RowId pool[3];
        for (RowId &r : pool)
            r = static_cast<RowId>(rng.nextBounded(kRows));
        for (int op = 0; op < 40; ++op) {
            const RowId row = pool[rng.nextBounded(3)];
            const RowId victim =
                rng.nextBounded(2) ? std::min(row + 1, kRows - 1)
                                   : (row > 0 ? row - 1 : 0);
            switch (rng.nextBounded(3)) {
              case 0:
                oracle.onActivate(bank, row);
                ref.activate(bank, row, 0);
                break;
              case 1:
                oracle.onRowRefresh(bank, victim);
                ref.refresh(bank, victim);
                break;
              default:
                oracle.onNeighborRefresh(bank, row);
                ref.neighborRefresh(bank, row);
                break;
            }
            for (const RowId r : pool) {
                for (RowId v = r > 0 ? r - 1 : 0;
                     v <= std::min(r + 1, kRows - 1); ++v) {
                    const auto it = ref.counts.find({bank, v});
                    ASSERT_EQ(oracle.disturbance(bank, v),
                              it == ref.counts.end() ? 0.0
                                                     : it->second / 4.0)
                        << "trial " << trial << " op " << op;
                }
            }
            ASSERT_EQ(oracle.liveBlocks(), ref.nonzeroBlocks())
                << "trial " << trial << " op " << op;
            ASSERT_EQ(oracle.bitFlips(), ref.flips);
            ASSERT_EQ(oracle.flippedRows(), ref.flipped.size());
        }
        ASSERT_EQ(oracle.blockSlots(), slots);
    }
}

TEST(DeviceTest, ActivateInformsOracleAndMeters)
{
    const Timing timing = ddr5_4800();
    Geometry geom = paperGeometry();
    Device device(timing, geom, 1000);
    device.activate(3, 50, 0);
    EXPECT_EQ(device.energy().acts(), 1u);
    EXPECT_EQ(device.protection().counts(3).acts, 1u);
    EXPECT_DOUBLE_EQ(device.oracle().disturbance(3, 51), 1.0);
    EXPECT_TRUE(device.bank(3).isOpen());
}

TEST(DeviceTest, RfmWithoutTrackerSkips)
{
    const Timing timing = ddr5_4800();
    Device device(timing, paperGeometry(), 1000);
    EXPECT_EQ(device.rfm(0, 0), 0u);
    EXPECT_EQ(device.protection().total().rfms, 1u);
    EXPECT_EQ(device.protection().total().idleRfms, 1u);
}

TEST(DeviceTest, PreventiveRefreshClearsVictimsAndCharges)
{
    // Requests an ARR for every activated row.
    class ArrEveryAct : public trackers::RhProtection
    {
      public:
        std::string name() const override { return "test"; }
        trackers::Location location() const override
        {
            return trackers::Location::Mc;
        }
        void
        onActivate(BankId, RowId row, Tick,
                   std::vector<RowId> &arr) override
        {
            arr.push_back(row);
        }
        double tableBytesPerBank() const override { return 0.0; }
    };

    const Timing timing = ddr5_4800();
    Device device(timing, paperGeometry(), 1000);
    ArrEveryAct tracker;
    device.setTracker(&tracker);
    device.activate(0, 100, 0);
    EXPECT_TRUE(device.protection().arrOwed(0));
    EXPECT_FALSE(device.protection().rfmOwed(0));
    device.precharge(0, device.bank(0).earliestPre(0));
    device.arr(0, timing.tRC * 4);
    EXPECT_FALSE(device.protection().owes(0));
    EXPECT_DOUBLE_EQ(device.oracle().disturbance(0, 101), 0.0);
    EXPECT_EQ(device.energy().preventiveRows(), 2u);
    EXPECT_EQ(device.protection().total().arrs, 1u);
    EXPECT_EQ(device.protection().total().preventive, 1u);
}

TEST(DeviceTest, AutoRefreshBlocksEveryBankOfRank)
{
    const Timing timing = ddr5_4800();
    Device device(timing, paperGeometry(), 1000);
    device.autoRefreshRank(0, 1000);
    for (BankId b = 0; b < 32; ++b)
        EXPECT_GE(device.bank(b).earliestAct(1000),
                  1000 + timing.tRFC);
    // The other channel's rank is untouched.
    EXPECT_EQ(device.bank(32).earliestAct(1000), 1000);
}

TEST(DeviceTest, RankIndexing)
{
    const Timing timing = ddr5_4800();
    Device device(timing, paperGeometry(), 1000);
    EXPECT_EQ(device.rankOf(0), 0u);
    EXPECT_EQ(device.rankOf(31), 0u);
    EXPECT_EQ(device.rankOf(32), 1u);
}

} // namespace
} // namespace mithril::dram
